"""Dataset-convention validators: recording filenames, manifest completeness,
session schedules, the pre-recording questionnaire, the quality-control log,
and the study-design checklist.

All validators are report-carrying: they return a Report listing findings
instead of raising, so a batch run can surface every problem at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, time, timedelta
from itertools import product

from .errors import BadFieldCount, EmptyField, RepSpeechError, error_code

# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class Finding:
    code: str
    message: str
    context: str = ""

    def to_dict(self) -> dict:
        return {"code": self.code, "message": self.message, "context": self.context}


@dataclass
class Report:
    kind: str
    findings: list[Finding] = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.findings

    def add(self, code: str, message: str, context: str = "") -> None:
        self.findings.append(Finding(code, message, context))

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "ok": self.ok,
            "findings": [f.to_dict() for f in self.findings],
            "summary": self.summary,
        }


# ---------------------------------------------------------------------------
# recording identifiers


@dataclass(frozen=True)
class RecordingId:
    """Parsed recording filename fields; task is absent for pre-split files."""

    participant: str
    device: str
    day: str
    session: str
    task: str | None = None

    def format(self) -> str:
        fields = [self.participant, self.device, self.day, self.session]
        if self.task is not None:
            fields.append(self.task)
        return "_".join(fields)


def parse_recording_filename(name: str) -> RecordingId:
    """Split a base filename into its 4 or 5 underscore-delimited fields.

    A trailing .wav extension is ignored; format(parse(x)) round-trips.
    """
    base = name
    if base.lower().endswith(".wav"):
        base = base[: -len(".wav")]
    fields = base.split("_")
    if len(fields) not in (4, 5):
        raise BadFieldCount(f"{name!r} splits into {len(fields)} fields, need 4 or 5")
    if any(not f for f in fields):
        raise EmptyField(f"{name!r} contains an empty field")
    task = fields[4] if len(fields) == 5 else None
    return RecordingId(fields[0], fields[1], fields[2], fields[3], task)


# Vocabulary observed in the dataset conventions; override per deployment.
DEFAULT_DEVICES = ("condenser", "iPhone11", "SamsungS20FE", "MotorolaG5", "headset")
DEFAULT_TASKS = (
    "NorthWind",
    "RainbowPassage",
    "OralReading",
    "CommaGetsACure",
    "Picture1",
    "Picture2",
    "Picture3",
    "Vowels",
)


@dataclass(frozen=True)
class ManifestExpectation:
    """Cross product defining which recordings must exist.

    ``sessions`` holds (participant, day, session) triples; each is expected
    once per device, and once per task as well when tasks are given.
    """

    sessions: tuple[tuple[str, str, str], ...]
    devices: tuple[str, ...]
    tasks: tuple[str, ...] | None = None

    @classmethod
    def from_dict(cls, data: dict) -> "ManifestExpectation":
        """The grid from its JSON form; a missing or malformed field raises RepSpeechError."""
        try:
            return cls(
                sessions=tuple((s["participant"], s["day"], s["session"]) for s in data["sessions"]),
                devices=tuple(data.get("devices", DEFAULT_DEVICES)),
                tasks=tuple(data["tasks"]) if data.get("tasks") else None,
            )
        except (KeyError, AttributeError, TypeError) as exc:
            raise RepSpeechError(f"manifest expectation is malformed: {type(exc).__name__}: {exc}") from exc

    @property
    def expected_count(self) -> int:
        return len(self.expected_ids())

    def expected_ids(self) -> set[RecordingId]:
        out = set()
        for (p, d, s), dev in product(self.sessions, self.devices):
            if self.tasks:
                for task in self.tasks:
                    out.add(RecordingId(p, dev, d, s, task))
            else:
                out.add(RecordingId(p, dev, d, s))
        return out


def validate_manifest(
    manifest: list[RecordingId | str],
    expected: ManifestExpectation,
    device_vocabulary: tuple[str, ...] | None = None,
    task_vocabulary: tuple[str, ...] | None = None,
) -> Report:
    """Compare a recording manifest against the expectation grid.

    Entries are identifiers or filenames; a filename that does not parse is
    a finding coded with its parse error, and the other entries are still
    checked.  The report lists missing, duplicate, and unexpected entries;
    the result depends only on the multiset of entries.  Optional
    vocabularies flag unknown device or task tokens as warnings.
    """
    report = Report("manifest")
    ids: list[RecordingId] = []
    for entry in sorted(manifest, key=str):  # findings in one order, whatever the entry order
        try:
            ids.append(entry if isinstance(entry, RecordingId) else parse_recording_filename(entry))
        except (BadFieldCount, EmptyField) as exc:
            report.add(error_code(exc), str(exc), entry)
    seen: dict[RecordingId, int] = {}
    for rid in ids:
        seen[rid] = seen.get(rid, 0) + 1
    want = expected.expected_ids()
    for rid in sorted(want - set(seen), key=RecordingId.format):
        report.add("Missing", f"expected recording {rid.format()} not in manifest", rid.format())
    for rid in sorted(set(seen) - want, key=RecordingId.format):
        report.add("Unexpected", f"recording {rid.format()} not in the expectation grid", rid.format())
    for rid in sorted((r for r, n in seen.items() if n > 1), key=RecordingId.format):
        report.add("Duplicate", f"recording {rid.format()} appears {seen[rid]} times", rid.format())
    if device_vocabulary:
        for dev in sorted({r.device for r in ids} - set(device_vocabulary)):
            report.add("UnknownDevice", f"device token {dev!r} not in the configured vocabulary", dev)
    if task_vocabulary:
        for task in sorted({r.task for r in ids if r.task} - set(task_vocabulary)):
            report.add("UnknownTask", f"task token {task!r} not in the configured vocabulary", task)
    report.summary = {
        "manifest_count": len(manifest),
        "expected_count": expected.expected_count,
        "distinct_count": len(seen),
    }
    return report


# ---------------------------------------------------------------------------
# schedules

DAY_WINDOWS = (
    (time(8, 0), time(10, 0)),
    (time(13, 0), time(15, 0)),
    (time(17, 0), time(19, 0)),
)
MIN_SESSION_GAP = timedelta(hours=3, minutes=30)
DAY_PAIR_SPACING = (timedelta(weeks=8), timedelta(weeks=11))
WEEK_WEEKDAYS = (0, 2, 4)  # Monday, Wednesday, Friday
WEEK_MAX_TIME_SPREAD = timedelta(minutes=30)


@dataclass(frozen=True)
class SessionSchedule:
    """One participant's recording appointments."""

    arm: str  # "Day" | "Week"
    session_starts: tuple[datetime, ...]
    participant: str = ""

    @classmethod
    def from_dict(cls, data: dict) -> "SessionSchedule":
        """The schedule from its JSON form; a missing or malformed field raises RepSpeechError."""
        try:
            starts = tuple(datetime.fromisoformat(s) for s in data["session_starts"])
            return cls(arm=data["arm"], session_starts=starts, participant=data.get("participant", ""))
        except (KeyError, AttributeError, TypeError, ValueError) as exc:
            raise RepSpeechError(f"schedule is malformed: {type(exc).__name__}: {exc}") from exc


def _check_one_day(report: Report, day_label: str, starts: list[datetime]) -> None:
    if len(starts) != 3:
        report.add("SessionCount", f"{day_label}: expected 3 sessions, found {len(starts)}", day_label)
        return
    for i, (start, (lo, hi)) in enumerate(zip(starts, DAY_WINDOWS), start=1):
        if not (lo <= start.time() <= hi):
            report.add(
                "OutsideWindow",
                f"{day_label} S{i} starts {start.time():%H:%M}, outside "
                f"{lo:%H:%M}-{hi:%H:%M}",
                f"{day_label}/S{i}",
            )
    for i in range(1, 3):
        gap = starts[i] - starts[i - 1]
        if gap < MIN_SESSION_GAP:
            report.add(
                "MinGap",
                f"{day_label} S{i}-S{i + 1} gap {gap} is under the 3.5 h minimum",
                f"{day_label}/S{i}-S{i + 1}",
            )


def validate_schedule(schedule: SessionSchedule) -> Report:
    """Check appointment times against the collection-design rules.

    Day arm: three sessions per day inside the morning / afternoon /
    evening windows, at least 3.5 h apart; a second day, when present,
    falls on the same weekday 8-11 weeks later with sessions in the same
    windows.  Week arm: Monday, Wednesday and Friday of one week with
    start times within 30 minutes of each other.
    """
    report = Report("schedule")
    starts = sorted(schedule.session_starts)
    report.summary = {"n_sessions": len(starts), "arm": schedule.arm}
    if not starts:
        report.add("SessionCount", "schedule has no sessions")
        return report
    if schedule.arm == "Day":
        by_date: dict = {}
        for s in starts:
            by_date.setdefault(s.date(), []).append(s)
        dates = sorted(by_date)
        if len(dates) > 2:
            report.add("SessionCount", f"Day arm spans {len(dates)} dates, expected 1 or 2")
        for idx, d in enumerate(dates[:2], start=1):
            _check_one_day(report, f"Day{idx}", by_date[d])
        if len(dates) >= 2:
            d1, d2 = dates[0], dates[1]
            if d1.weekday() != d2.weekday():
                report.add(
                    "DayPairWeekday",
                    f"second day {d2} falls on a different weekday than {d1}",
                )
            spacing = timedelta(days=(d2 - d1).days)
            if not (DAY_PAIR_SPACING[0] <= spacing <= DAY_PAIR_SPACING[1]):
                report.add(
                    "DayPairSpacing",
                    f"days are {spacing.days} days apart, outside 8-11 weeks",
                )
    elif schedule.arm == "Week":
        if len(starts) != 3:
            report.add("SessionCount", f"Week arm expects 3 sessions, found {len(starts)}")
        weekdays = [s.weekday() for s in starts]
        if sorted(weekdays) != list(WEEK_WEEKDAYS):
            names = [s.strftime("%A") for s in starts]
            report.add("WrongWeekday", f"sessions fall on {names}, expected Monday/Wednesday/Friday")
        if len(starts) >= 2:
            day_minutes = [s.hour * 60 + s.minute + s.second / 60 for s in starts]
            spread = max(day_minutes) - min(day_minutes)
            if spread >= WEEK_MAX_TIME_SPREAD.total_seconds() / 60:
                report.add(
                    "WeekTimeSpread",
                    f"start times spread over {spread:.0f} minutes, expected under 30",
                )
        if starts and (starts[-1].date() - starts[0].date()).days > 6:
            report.add("WeekSpan", "sessions do not fall within a single week")
    else:
        report.add("UnknownArm", f"arm {schedule.arm!r} is neither 'Day' nor 'Week'")
    return report


def validate_schedules(data: dict | list) -> Report:
    """Validate one schedule's JSON object, or a JSON list of them, in one report.

    An object gives ``validate_schedule``'s report.  In a list's report each
    finding's context starts with its entry's participant, or
    ``schedule[i]`` when the entry names none (``P02``, ``P02/Day1/S1``),
    and the summary counts the schedules and their sessions.
    """
    if not isinstance(data, list):
        return validate_schedule(SessionSchedule.from_dict(data))
    if not data:
        raise RepSpeechError("a schedule list holds no schedule")
    report = Report("schedule")
    n_sessions = 0
    for i, entry in enumerate(data):
        schedule = SessionSchedule.from_dict(entry)
        who = schedule.participant or f"schedule[{i}]"
        for f in validate_schedule(schedule).findings:
            report.add(f.code, f.message, f"{who}/{f.context}" if f.context else who)
        n_sessions += len(schedule.session_starts)
    report.summary = {"n_schedules": len(data), "n_sessions": n_sessions}
    return report


# ---------------------------------------------------------------------------
# pre-recording questionnaire

VOICE_USE_LEVELS = ("Low Activity", "Intermediate", "High Activity")
DRINK_RECENCY = (
    "On arrival at the recording session",
    "Within the last hour",
    "More than 1 hour ago",
    "More than 2 hours ago",
    "More than 3 hours ago",
)
FOOD_RECENCY = (
    "Within the last hour",
    "More than 1 hour ago",
    "More than 2 hours ago",
    "More than 3 hours ago",
)
MOOD_LABELS = (
    "neutral",
    "excited-lively",
    "cheerful-happy",
    "tense-nervous",
    "irritated-annoyed",
    "sad-gloomy",
    "bored-weary",
    "calm-serene",
    "relaxed-carefree",
)
HEALTH_ANSWERS = ("yes", "no", "unsure")


def _object(value, what: str) -> dict:
    """``value`` when it is a JSON object; anything else raises RepSpeechError naming ``what``."""
    if not isinstance(value, dict):
        raise RepSpeechError(f"{what} must be a JSON object, not {type(value).__name__}")
    return value


def _parse_clock(value: str) -> bool:
    try:
        time.fromisoformat(value)
        return True
    except (ValueError, TypeError):
        return False


def validate_questionnaire(resp: dict) -> Report:
    """Validate one pre-recording questionnaire response.

    Enumerations are closed; times must parse as HH:MM; the mood follow-up
    label is optional but must come from the nine-value list when present.
    """
    report = Report("questionnaire")
    resp = _object(resp, "a questionnaire response")
    health = resp.get("minor_health_issues")
    if not isinstance(health, dict) or health.get("answer") not in HEALTH_ANSWERS:
        report.add("BadHealthAnswer", "minor_health_issues.answer must be yes, no, or unsure")
    elif health["answer"] in ("yes", "unsure") and not health.get("detail"):
        report.add("MissingDetail", f"a {health['answer']!r} health answer needs the free-text detail")
    for key in ("wake_time", "out_of_bed_time"):
        if not _parse_clock(resp.get(key, "")):
            report.add("BadTime", f"{key} must be a parseable HH:MM clock time", key)
    sleep = resp.get("sleep_hours")
    if isinstance(sleep, bool) or not isinstance(sleep, (int, float)) or not 0 <= sleep <= 24:
        report.add("BadSleepHours", "sleep_hours must be a number between 0 and 24")
    if resp.get("voice_use") not in VOICE_USE_LEVELS:
        report.add("BadVoiceUse", f"voice_use must be one of {VOICE_USE_LEVELS}")
    if resp.get("last_drink") not in DRINK_RECENCY:
        report.add("BadDrinkRecency", "last_drink is not one of the listed recency options")
    if resp.get("last_food") not in FOOD_RECENCY:
        report.add("BadFoodRecency", "last_food is not one of the listed recency options")
    mood = resp.get("mood_picture")
    if isinstance(mood, bool) or not isinstance(mood, int) or not 1 <= mood <= 9:
        report.add("BadMoodPicture", "mood_picture must be an integer 1..9")
    label = resp.get("mood_label")
    if label is not None and label not in MOOD_LABELS:
        report.add("BadMoodLabel", f"mood_label {label!r} is not in the nine-value list")
    return report


# ---------------------------------------------------------------------------
# quality-control log

QC_LOG_FIELDS = (
    "session_start_time",
    "water_drunk",
    "interruptions",
    "extraneous_noise",
    "vowel_task_issues",
    "task_difficulties",
    "other",
)


def validate_qc_log(entry: dict) -> Report:
    """Check that a quality-control log entry carries all seven fields."""
    report = Report("qc_log")
    entry = _object(entry, "a quality-control log entry")
    for key in QC_LOG_FIELDS:
        if key not in entry:
            report.add("MissingField", f"log entry lacks {key!r}", key)
    start = entry.get("session_start_time")
    if start is not None:
        try:
            datetime.fromisoformat(start)
        except (ValueError, TypeError):
            report.add("BadTime", "session_start_time must be an ISO date-time")
    if "water_drunk" in entry and not isinstance(entry["water_drunk"], bool):
        report.add("BadFlag", "water_drunk must be a boolean")
    return report


# ---------------------------------------------------------------------------
# study-design checklist

DESIGN_CHECKLIST: dict[str, dict[str, tuple[str, ...]]] = {
    "participants": {
        "input_and_feedback": (
            "project descriptions and consent documents",
            "recording device and set-up",
            "acceptability of speech elicitation prompts",
            "participant instructions",
            "choice of speech measures",
            "choice of clinical outcome and analysis",
        ),
        "eligibility_criteria": (
            "sociodemographic factors",
            "vocal tract and hearing disorders",
            "respiratory conditions",
            "mental health disorders",
            "neurological disorders",
            "lifestyle factors",
        ),
        "recruitment": (
            "sociodemographic and socioeconomic biases",
            "clinical vs general populations",
            "partnerships with advocacy groups or clinical centers",
            "time limitations due to funder requirements",
        ),
    },
    "data_collection": {
        "metadata": ("participant characteristics that may confound",),
        "clinical_assessments": (
            "clinician vs self-reported",
            "time required and participant burden",
        ),
        "recording_devices": (
            "mobile versus non-mobile devices",
            "microphone directionality",
            "ambient noise in the recording location",
            "affordability and accessibility",
            "device-specific signal processing",
            "gain settings",
        ),
        "recording_setup_and_environment": (
            "device positioning requirements",
            "ambient noise and room acoustics",
            "participant comfort",
            "standing or seated",
            "furniture features",
            "positioning of prompts",
            "remote versus in-lab collection",
            "background noise capture for snr reporting",
        ),
        "speech_elicitation_task": (
            "voice warm-up and familiarization",
            "practice effects",
            "task order bias",
            "task difficulty",
            "task acceptability",
            "collection procedure",
        ),
        "participant_instructions": (
            "reproducible positioning",
            "participant comfort",
            "eliciting natural speech",
            "feedback and encouragement",
        ),
        "data_quality_log": ("incidents and protocol deviations logged",),
    },
    "data_processing": {
        "digitization": ("sampling rate", "bit rate", "audio file format"),
        "data_preparation": (
            "remove audio before and after tasks",
            "separate tasks into individual files",
            "manual checks",
        ),
        "preprocessing": ("denoising, dereverberation, or enhancement reported",),
        "feature_selection": ("construct relevance", "interpretability"),
        "feature_extraction": (
            "transcription tool",
            "alignment tool",
            "extraction software and settings",
            "extraction level",
            "outlier criteria",
        ),
    },
}

ASPECT_STATUSES = ("addressed", "not-applicable", "missing")


def checklist_template() -> dict:
    """A fully-addressed study-design config, handy as a starting point."""
    return {
        section: {
            aspect: {
                "status": "addressed",
                "considerations": {c: "addressed" for c in considerations},
            }
            for aspect, considerations in aspects.items()
        }
        for section, aspects in DESIGN_CHECKLIST.items()
    }


def _flag_status(report: Report, status: object, where: str) -> bool:
    """Add the finding a status other than addressed or not-applicable earns; whether it added one."""
    if status not in ASPECT_STATUSES:
        report.add("BadStatus", f"{where} status {status!r} not in {ASPECT_STATUSES}", where)
    elif status == "missing":
        report.add("DeclaredMissing", f"{where} is declared missing", where)
    else:
        return False
    return True


def lint_study_design(config: dict) -> Report:
    """Evaluate a study config against the design checklist.

    Every registry aspect must be present with a declared status; an aspect
    marked not-applicable needs a reason, and each aspect's core
    considerations must be individually covered, each with a status checked
    as an aspect's is.  Unknown keys produce warnings rather than errors.
    """
    report = Report("checklist")
    config = _object(config, "a study config")
    for section, aspects in DESIGN_CHECKLIST.items():
        got_section = _object(config.get(section, {}), f"section {section}")
        for aspect, considerations in aspects.items():
            entry = got_section.get(aspect)
            where = f"{section}/{aspect}"
            if entry is None:
                report.add("Missing", f"aspect {where} is absent", where)
                continue
            entry = _object(entry, f"aspect {where}")
            status = entry.get("status")
            if _flag_status(report, status, where):
                continue
            if status == "not-applicable":
                if not entry.get("reason"):
                    report.add("NotApplicableWithoutReason", f"{where} needs a reason", where)
                continue
            covered = _object(entry.get("considerations", {}), f"{where} considerations")
            for consideration in considerations:
                at = f"{where}/{consideration}"
                if consideration not in covered:
                    report.add("Missing", f"consideration {at} is absent", at)
                else:
                    _flag_status(report, covered[consideration], at)
            for extra in set(covered) - set(considerations):
                report.add(
                    "UnknownAspect",
                    f"consideration {where}/{extra} is not in the checklist",
                    f"{where}/{extra}",
                )
    for section in set(config) - set(DESIGN_CHECKLIST):
        report.add("UnknownAspect", f"section {section!r} is not in the checklist", section)
    for section, aspects in DESIGN_CHECKLIST.items():
        for extra in set(config.get(section, {})) - set(aspects):
            report.add("UnknownAspect", f"aspect {section}/{extra} is not in the checklist", f"{section}/{extra}")
    return report
