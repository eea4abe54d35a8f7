"""Filename grammar, manifest, schedule, questionnaire, and checklist validators."""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repspeech.errors import BadFieldCount, EmptyField
from repspeech.protocol import (
    DESIGN_CHECKLIST,
    ManifestExpectation,
    RecordingId,
    SessionSchedule,
    checklist_template,
    lint_study_design,
    parse_recording_filename,
    validate_manifest,
    validate_qc_log,
    validate_questionnaire,
    validate_schedule,
    validate_schedules,
)

# -- filenames -------------------------------------------------------------------


def test_parse_five_field_name():
    rid = parse_recording_filename("P07_iPhone11_D2_S3_RainbowPassage.wav")
    assert rid == RecordingId("P07", "iPhone11", "D2", "S3", "RainbowPassage")


def test_parse_four_field_name():
    rid = parse_recording_filename("P07_condenser_D1_S1.wav")
    assert rid.task is None
    assert rid.format() == "P07_condenser_D1_S1"


def test_bad_field_count():
    with pytest.raises(BadFieldCount):
        parse_recording_filename("P07_D1_S1.wav")


def test_empty_field():
    with pytest.raises(EmptyField):
        parse_recording_filename("P07__D1_S1.wav")


token = st.text(alphabet=st.sampled_from("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-"), min_size=1, max_size=10)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(token, token, token, token, st.none() | token)
def test_filename_round_trip(p, d, day, s, task):
    rid = RecordingId(p, d, day, s, task)
    assert parse_recording_filename(rid.format()) == rid
    assert parse_recording_filename(rid.format() + ".wav") == rid


# -- manifest ---------------------------------------------------------------------


def study_expectation():
    """28 Day participants x 6 sessions + 26 Week x 3 with one session missed."""
    sessions = []
    for i in range(28):
        for day in ("D1", "D2"):
            for s in ("S1", "S2", "S3"):
                sessions.append((f"P{i:02d}", day, s))
    for i in range(26):
        for day, s in (("W1", "S1"), ("W2", "S2"), ("W3", "S3")):
            sessions.append((f"Q{i:02d}", day, s))
    sessions.remove(("Q25", "W3", "S3"))  # one participant missed a session
    devices = ("condenser", "iPhone11", "SamsungS20FE", "MotorolaG5", "headset")
    return ManifestExpectation(tuple(sessions), devices)


def test_complete_manifest_passes():
    expectation = study_expectation()
    assert len(expectation.sessions) == 245
    assert expectation.expected_count == 1225
    manifest = sorted(expectation.expected_ids(), key=RecordingId.format)
    report = validate_manifest(manifest, expectation)
    assert report.ok
    assert report.summary["manifest_count"] == 1225


def test_missing_entry_is_named():
    expectation = study_expectation()
    manifest = sorted(expectation.expected_ids(), key=RecordingId.format)
    removed = manifest.pop(17)
    report = validate_manifest(manifest, expectation)
    assert not report.ok
    missing = [f for f in report.findings if f.code == "Missing"]
    assert len(missing) == 1
    assert missing[0].context == removed.format()


def test_duplicate_flagged():
    expectation = study_expectation()
    manifest = sorted(expectation.expected_ids(), key=RecordingId.format)
    manifest.append(manifest[0])
    report = validate_manifest(manifest, expectation)
    codes = {f.code for f in report.findings}
    assert codes == {"Duplicate"}


def test_manifest_order_insensitive():
    expectation = study_expectation()
    manifest = sorted(expectation.expected_ids(), key=RecordingId.format)
    a = validate_manifest(manifest, expectation)
    b = validate_manifest(list(reversed(manifest)), expectation)
    assert a.to_dict() == b.to_dict()


def test_unknown_device_warning():
    expectation = ManifestExpectation((("P01", "D1", "S1"),), ("webcam",))
    manifest = [RecordingId("P01", "webcam", "D1", "S1")]
    report = validate_manifest(manifest, expectation, device_vocabulary=("condenser",))
    assert any(f.code == "UnknownDevice" for f in report.findings)


def test_duplicated_device_counts_once():
    expectation = ManifestExpectation((("P01", "D1", "S1"),), ("webcam", "webcam"))
    assert expectation.expected_count == len(expectation.expected_ids()) == 1
    report = validate_manifest([RecordingId("P01", "webcam", "D1", "S1")], expectation)
    assert report.ok
    assert report.summary == {"manifest_count": 1, "expected_count": 1, "distinct_count": 1}


# -- schedules ---------------------------------------------------------------------


def day_schedule(times=("09:12", "14:05", "18:04"), date="2023-06-14", second_day=None):
    starts = [f"{date}T{t}:00" for t in times]
    if second_day:
        starts += [f"{second_day}T{t}:00" for t in times]
    return SessionSchedule.from_dict({"arm": "Day", "session_starts": starts})


def test_day_median_times_pass():
    report = validate_schedule(day_schedule())
    assert report.ok, report.findings


def test_day_pair_same_weekday_9_weeks_later():
    # 2023-06-14 and 2023-08-16 are both Wednesdays, 63 days apart
    report = validate_schedule(day_schedule(second_day="2023-08-16"))
    assert report.ok, report.findings


def test_three_hour_gap_fails():
    report = validate_schedule(day_schedule(times=("09:00", "14:00", "17:00")))
    assert [f.code for f in report.findings] == ["MinGap"]


def test_outside_window_fails():
    report = validate_schedule(day_schedule(times=("10:30", "14:05", "18:04")))
    assert any(f.code == "OutsideWindow" for f in report.findings)


def test_day_pair_wrong_weekday():
    report = validate_schedule(day_schedule(second_day="2023-08-17"))
    assert any(f.code == "DayPairWeekday" for f in report.findings)


def test_day_pair_too_soon():
    report = validate_schedule(day_schedule(second_day="2023-06-21"))
    assert any(f.code == "DayPairSpacing" for f in report.findings)


def week_schedule(times=("10:05", "10:20", "10:31")):
    days = ("2023-06-19", "2023-06-21", "2023-06-23")  # Mon, Wed, Fri
    return SessionSchedule.from_dict(
        {"arm": "Week", "session_starts": [f"{d}T{t}:00" for d, t in zip(days, times)]}
    )


def test_week_consistent_times_pass():
    report = validate_schedule(week_schedule())
    assert report.ok, report.findings


def test_week_spread_over_30_minutes_fails():
    report = validate_schedule(week_schedule(times=("10:05", "10:20", "10:40")))
    assert any(f.code == "WeekTimeSpread" for f in report.findings)


def test_week_wrong_weekday():
    sched = SessionSchedule.from_dict(
        {"arm": "Week", "session_starts": ["2023-06-19T10:00:00", "2023-06-20T10:00:00", "2023-06-23T10:00:00"]}
    )
    report = validate_schedule(sched)
    assert any(f.code == "WrongWeekday" for f in report.findings)


def test_week_sessions_must_share_a_week():
    sched = SessionSchedule.from_dict(
        {"arm": "Week", "session_starts": ["2023-06-19T10:00:00", "2023-06-21T10:00:00", "2023-06-30T10:00:00"]}
    )
    report = validate_schedule(sched)
    assert any(f.code == "WeekSpan" for f in report.findings)


def test_schedule_order_insensitive():
    sched = day_schedule()
    shuffled = SessionSchedule("Day", tuple(reversed(sched.session_starts)))
    assert validate_schedule(sched).to_dict() == validate_schedule(shuffled).to_dict()


def test_an_empty_schedule_is_summarized_like_any_other():
    report = validate_schedule(SessionSchedule("Week", ())).to_dict()
    assert [f["code"] for f in report["findings"]] == ["SessionCount"]
    assert report["summary"] == {"n_sessions": 0, "arm": "Week"}


def test_schedule_list_findings_name_their_entry():
    mon_wed_fri = ["2023-06-19T10:00:00", "2023-06-21T10:00:00", "2023-06-23T10:00:00"]
    mon_tue_fri = [mon_wed_fri[0], "2023-06-20T10:40:00", mon_wed_fri[2]]
    entries = [
        {"arm": "Week", "participant": "P01", "session_starts": mon_wed_fri},
        {"arm": "Week", "participant": "P02", "session_starts": mon_tue_fri},
        {"arm": "Day", "session_starts": ["2023-06-14T07:30:00", "2023-06-14T14:05:00", "2023-06-14T18:04:00"]},
    ]
    report = validate_schedules(entries)
    assert [(f.code, f.context) for f in report.findings] == [
        ("WrongWeekday", "P02"),
        ("WeekTimeSpread", "P02"),
        ("OutsideWindow", "schedule[2]/Day1/S1"),
    ]
    assert report.summary == {"n_schedules": 3, "n_sessions": 9}
    # one object gives the single schedule's report, unchanged
    alone = validate_schedule(SessionSchedule.from_dict(entries[1]))
    assert validate_schedules(entries[1]).to_dict() == alone.to_dict()


# -- questionnaire ------------------------------------------------------------------


def complete_response():
    return {
        "minor_health_issues": {"answer": "no"},
        "wake_time": "07:30",
        "out_of_bed_time": "07:45",
        "sleep_hours": 7,
        "voice_use": "Low Activity",
        "last_drink": "Within the last hour",
        "last_food": "More than 2 hours ago",
        "mood_picture": 4,
    }


def test_complete_response_passes():
    assert validate_questionnaire(complete_response()).ok


def test_optional_mood_label():
    resp = complete_response()
    resp["mood_label"] = "calm-serene"
    assert validate_questionnaire(resp).ok
    resp["mood_label"] = "ecstatic"
    report = validate_questionnaire(resp)
    assert any(f.code == "BadMoodLabel" for f in report.findings)


def test_yes_needs_detail():
    resp = complete_response()
    resp["minor_health_issues"] = {"answer": "yes"}
    report = validate_questionnaire(resp)
    assert any(f.code == "MissingDetail" for f in report.findings)
    resp["minor_health_issues"] = {"answer": "yes", "detail": "hay fever"}
    assert validate_questionnaire(resp).ok


def test_bad_voice_use_and_time():
    resp = complete_response()
    resp["voice_use"] = "Shouting"
    resp["wake_time"] = "7 am"
    report = validate_questionnaire(resp)
    codes = {f.code for f in report.findings}
    assert {"BadVoiceUse", "BadTime"} <= codes


@pytest.mark.parametrize("key, code", [("sleep_hours", "BadSleepHours"), ("mood_picture", "BadMoodPicture")])
def test_bool_is_not_a_number(key, code):
    resp = complete_response()
    resp[key] = True  # JSON true, which Python counts as the int 1
    assert [f.code for f in validate_questionnaire(resp).findings] == [code]


def test_sleep_hours_past_any_float_is_a_finding():
    resp = complete_response()
    resp["sleep_hours"] = 10**400  # a JSON integer no float holds
    assert [f.code for f in validate_questionnaire(resp).findings] == ["BadSleepHours"]


# -- quality-control log ---------------------------------------------------------------


def test_qc_log_validation():
    entry = {
        "session_start_time": "2023-06-14T09:12:00",
        "water_drunk": True,
        "interruptions": "",
        "extraneous_noise": "door slam at 3 min",
        "vowel_task_issues": "",
        "task_difficulties": "",
        "other": "",
    }
    assert validate_qc_log(entry).ok
    del entry["water_drunk"]
    report = validate_qc_log(entry)
    assert any(f.code == "MissingField" for f in report.findings)


# -- design checklist --------------------------------------------------------------------


def test_template_is_clean():
    assert lint_study_design(checklist_template()).ok


def test_missing_consideration_flagged():
    config = checklist_template()
    del config["data_processing"]["digitization"]["considerations"]["sampling rate"]
    report = lint_study_design(config)
    assert [f.context for f in report.findings] == ["data_processing/digitization/sampling rate"]


def test_every_removed_aspect_is_flagged():
    for section, aspects in DESIGN_CHECKLIST.items():
        for aspect in aspects:
            config = copy.deepcopy(checklist_template())
            del config[section][aspect]
            report = lint_study_design(config)
            assert any(
                f.code == "Missing" and f.context == f"{section}/{aspect}" for f in report.findings
            ), f"{section}/{aspect} not flagged"


def test_unknown_aspect_warning():
    config = checklist_template()
    config["participants"]["zodiac_sign"] = {"status": "addressed", "considerations": {}}
    report = lint_study_design(config)
    assert any(f.code == "UnknownAspect" for f in report.findings)


def test_not_applicable_needs_reason():
    config = checklist_template()
    config["data_collection"]["clinical_assessments"] = {"status": "not-applicable"}
    report = lint_study_design(config)
    assert any(f.code == "NotApplicableWithoutReason" for f in report.findings)
    config["data_collection"]["clinical_assessments"]["reason"] = "healthy cohort pilot"
    assert lint_study_design(config).ok


@pytest.mark.parametrize("status, code", [("missing", "DeclaredMissing"), ("banana", "BadStatus")])
def test_consideration_status_is_checked(status, code):
    config = checklist_template()
    config["data_processing"]["feature_extraction"]["considerations"]["outlier criteria"] = status
    report = lint_study_design(config)
    assert [(f.code, f.context) for f in report.findings] == [
        (code, "data_processing/feature_extraction/outlier criteria")
    ]
