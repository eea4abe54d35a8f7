"""Command-line workflow: subcommands, exit codes, output formats."""

import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from helpers import make_wav_bytes
from hypothesis import given, settings
from hypothesis import strategies as st

import repspeech
from repspeech.alignment import Interval, Tier, TierSet, serialize_textgrid
from repspeech.audio_io import AudioBuffer, read_wav, write_wav
from repspeech.cli import _build_parser, _pipeline_params, main
from repspeech.errors import BadSetting
from repspeech.pipeline import PipelineParams, _provenance
from repspeech.synth import SynthSpec, synth_formant_voice, synth_pattern


def read_rows(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def recording(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    buf = synth_formant_voice(120, ((700, 80), (1200, 90)), 2.0)
    wav = d / "P01_condenser_D1_S1_RainbowPassage.wav"
    write_wav(buf, wav)
    grid = TierSet(
        0.0, 2.0,
        (Tier("phones", 0.0, 2.0, (Interval(0.2, 0.8, "AA1"), Interval(1.2, 1.8, "AA1"))),),
    )
    tg = d / "P01_condenser_D1_S1_RainbowPassage.TextGrid"
    tg.write_text(serialize_textgrid(grid), encoding="utf-8")
    return d, str(wav), str(tg)


def test_extract_csv_two_rows(recording, tmp_path):
    d, wav, tg = recording
    out = tmp_path / "features.csv"
    code = main(["extract", "--level", "S,a", wav, "--textgrid", tg, "-o", str(out)])
    assert code == 0
    rows = read_rows(out)
    assert [r["level"] for r in rows] == ["S", "a"]
    s_row, a_row = rows
    s_filled = [k for k, v in s_row.items() if v not in ("", None)]
    assert len([k for k in s_filled if k not in ("recording", "level", "errors", "n_vowel_instances")]) == 14
    a_filled = [k for k, v in a_row.items() if v not in ("", None)]
    assert len([k for k in a_filled if k not in ("recording", "level", "errors", "n_vowel_instances")]) == 10


def test_extract_with_textgrid_dir(recording, tmp_path):
    d, wav, _ = recording
    out = tmp_path / "f.csv"
    code = main(["extract", "--level", "S,a", wav, "--textgrid-dir", str(d), "-o", str(out)])
    assert code == 0
    rows = read_rows(out)
    assert [r["level"] for r in rows] == ["S", "a"]
    assert rows[1]["n_vowel_instances"] == "2"


def test_missing_textgrid_does_not_stop_the_batch(recording, tmp_path):
    d, wav, _ = recording
    other = tmp_path / "pattern.wav"
    write_wav(synth_formant_voice(150, ((700, 80), (1200, 90)), 1.0), other)
    out = tmp_path / "f.csv"
    code = main(["extract", "--level", "S,a", wav, str(other), "--textgrid-dir", str(d), "-o", str(out)])
    assert code == 0
    rows = {(r["recording"], r["level"]): r for r in read_rows(out)}
    assert len(rows) == 4
    assert rows[(Path(wav).stem, "a")]["n_vowel_instances"] == "2"
    assert rows[("pattern", "S")]["errors"] == ""
    errors = json.loads(rows[("pattern", "a")]["errors"])
    assert len(errors) == 10 and set(errors.values()) == {"AlignmentMissing"}


def test_extract_json_format(recording, capsys):
    _, wav, _ = recording
    code = main(["extract", wav, "--format", "json"])
    assert code == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[0]["level"] == "S"
    assert rows[0]["pitch_mean"] == pytest.approx(120, abs=2)


def test_vowels_listing(recording, capsys):
    _, _, tg = recording
    assert main(["vowels", tg]) == 0
    out = capsys.readouterr().out
    assert out.count("AA1") == 2


def test_summarize_markdown(tmp_path, capsys):
    rows = [
        {"recording": "a", "level": "S", "cohort": "Week", "speaking_rate": 3.6912},
        {"recording": "b", "level": "S", "cohort": "Week", "speaking_rate": 3.9897},
    ]
    path = tmp_path / "f.csv"
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    assert main(["summarize", str(path), "--group", "cohort"]) == 0
    out = capsys.readouterr().out
    assert "(" in out and ")" in out and "Speaking rate" in out


def test_summarize_missing_group_column(tmp_path, capsys):
    path = tmp_path / "f.csv"
    path.write_text("recording,level,speaking_rate\na,S,3.5\n")
    assert main(["summarize", str(path), "--group", "cohort"]) == 2


def test_summarize_rows_that_repeat_a_recording_exit_2(tmp_path, capsys):
    # two extract outputs of one recording, concatenated: one recording's size, two recordings' values
    path = tmp_path / "f.csv"
    path.write_text("recording,level,speaking_rate\nrec,S,3.5\nrec,a,3.6\nrec,S,3.7\n")
    assert main(["summarize", str(path), "--group", "level"]) == 2
    err = capsys.readouterr().err
    assert "'rec'" in err and "level S" in err


def test_summarize_a_row_at_an_unknown_level_exits_2(tmp_path, capsys):
    # a hand-edited level: its row's values would reach no output
    path = tmp_path / "f.csv"
    path.write_text("recording,level,cohort,speaking_rate\nr1,S,X,3.5\nr2,s,X,3.6\nr3,A,X,3.7\n")
    assert main(["summarize", str(path), "--group", "cohort"]) == 2
    err = capsys.readouterr().err
    assert "'r2'" in err and "level 's'" in err


# the published surface, written out: extract's CSV columns, and each summary row's label, unit and decimals
EXTRACT_CSV_HEADER = (
    "recording,level,duration,speaking_rate,articulation_rate,pause_rate,intensity_mean,pitch_mean,pitch_sd,"
    "hnr_mean,spectral_slope,cpp_mean,f1_mean,f2_mean,spectral_gravity,spectral_deviation,n_vowel_instances,errors"
)
SUMMARY_CELLS_OF_1234_56789 = (
    ("Duration, s", "1235"),
    ("Speaking rate, syllables/s", "1234.57"),
    ("Articulation rate, syllables/s", "1234.57"),
    ("Pause rate, 1/s", "1234.568"),
    ("Intensity (mean), dB", "1234.6"),
    ("Pitch (mean), Hz", "1235"),
    ("Pitch (std deviation), semitones", "1234.57"),
    ("Harmonics-to-noise ratio (mean), dB", "1234.57"),
    ("Spectral slope (mean), dB/octave", "1234.6"),
    ("Cepstral peak prominence (mean), dB", "1234.57"),
    ("First formant (mean), Hz", "1235"),
    ("Second formant (mean), Hz x10^3", "1.23"),
    ("Spectral gravity (mean), Hz", "1235"),
    ("Spectral deviation (mean), Hz", "1235"),
)


def test_extract_columns_and_summary_rows_as_published(recording, tmp_path, capsys):
    _, wav, tg = recording
    out = tmp_path / "rows.csv"
    assert main(["extract", "--level", "S,a", wav, "--textgrid", tg, "-o", str(out)]) == 0
    header = out.read_text(encoding="utf-8").splitlines()[0]
    assert header == EXTRACT_CSV_HEADER
    features = header.split(",")[2:-2]
    pinned = tmp_path / "pinned.csv"
    pinned.write_text(f"recording,level,{','.join(features)}\nr,S,{','.join(['1234.56789'] * len(features))}\n")
    capsys.readouterr()
    assert main(["summarize", str(pinned), "--group", "level"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2:] == [f"| {label} | S | {v} ({v}, {v}) |" for label, v in SUMMARY_CELLS_OF_1234_56789]


def test_validate_schedule_exit_codes(tmp_path):
    good = {"arm": "Day", "session_starts": ["2023-06-14T09:12:00", "2023-06-14T14:05:00", "2023-06-14T18:04:00"]}
    bad = {"arm": "Day", "session_starts": ["2023-06-14T09:00:00", "2023-06-14T14:00:00", "2023-06-14T17:00:00"]}
    g = tmp_path / "good.json"
    g.write_text(json.dumps(good))
    b = tmp_path / "bad.json"
    b.write_text(json.dumps(bad))
    assert main(["validate", "schedule", str(g)]) == 0
    assert main(["validate", "schedule", str(b)]) == 1


def test_validate_schedule_list_names_each_finding_and_counts_schedules(tmp_path, capsys):
    mon_wed_fri = ["2023-06-19T10:00:00", "2023-06-21T10:00:00", "2023-06-23T10:00:00"]
    mon_tue_fri = [mon_wed_fri[0], "2023-06-20T10:40:00", mon_wed_fri[2]]
    path = tmp_path / "schedules.json"
    path.write_text(json.dumps([
        {"arm": "Week", "participant": "P01", "session_starts": mon_wed_fri},
        {"arm": "Week", "participant": "P02", "session_starts": mon_tue_fri},
    ]))
    assert main(["validate", "schedule", str(path)]) == 1
    report = json.loads(capsys.readouterr().out)
    findings = [(f["code"], f["context"]) for f in report["findings"]]
    assert findings == [("WrongWeekday", "P02"), ("WeekTimeSpread", "P02")]
    assert report["summary"] == {"n_schedules": 2, "n_sessions": 6}


def test_validate_schedule_without_sessions_reports_its_summary(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"arm": "Day", "session_starts": []}))
    assert main(["validate", "schedule", str(path)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert [f["code"] for f in report["findings"]] == ["SessionCount"]
    assert report["summary"] == {"n_sessions": 0, "arm": "Day"}


def test_validate_checklist_template_round_trip(tmp_path, capsys):
    assert main(["validate", "checklist", "-", "--template"]) == 0
    template = capsys.readouterr().out
    path = tmp_path / "design.json"
    path.write_text(template)
    assert main(["validate", "checklist", str(path)]) == 0


def test_validate_manifest_cli(tmp_path):
    names = [
        "P01_condenser_D1_S1.wav",
        "P01_iPhone11_D1_S1.wav",
    ]
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(names))
    expect = tmp_path / "expect.json"
    expect.write_text(
        json.dumps(
            {
                "sessions": [{"participant": "P01", "day": "D1", "session": "S1"}],
                "devices": ["condenser", "iPhone11"],
            }
        )
    )
    assert main(["validate", "manifest", str(manifest), "--expect", str(expect)]) == 0
    names.append("P01_condenser_D1_S1.wav")
    manifest.write_text(json.dumps(names))
    assert main(["validate", "manifest", str(manifest), "--expect", str(expect)]) == 1


def test_synth_writes_wav_and_sidecar(tmp_path):
    out = tmp_path / "pulse.wav"
    assert main(["synth", "--kind", "pulse_train", "--f0", "200", "--duration", "1.0", "-o", str(out)]) == 0
    assert out.exists()
    truth = json.loads(out.with_suffix(".json").read_text())
    assert truth["f0"] == 200
    buf = read_wav(out)
    assert buf.duration == pytest.approx(1.0)


def test_synth_pattern_writes_the_pattern_and_its_boundaries(tmp_path):
    segments = [
        {"kind": "silence", "duration": 0.3},
        {"kind": "formant_voice", "duration": 0.5, "f0": 140, "formants": [[700, 80], [1200, 90]]},
        {"kind": "silence", "duration": 0.2},
    ]
    pattern = tmp_path / "pattern.json"
    pattern.write_text(json.dumps(segments))
    out = tmp_path / "gaps.wav"
    assert main(["synth", "--pattern", str(pattern), "-o", str(out)]) == 0
    specs = [
        SynthSpec("silence", 0.3),
        SynthSpec("formant_voice", 0.5, 140, ((700, 80), (1200, 90))),
        SynthSpec("silence", 0.2),
    ]
    expected = tmp_path / "expected.wav"
    write_wav(synth_pattern(specs).buffer, expected)
    assert out.read_bytes() == expected.read_bytes()
    truth = json.loads(out.with_suffix(".json").read_text())
    assert (truth["sample_rate"], truth["duration"]) == (16000, 1.0)
    # each boundary is a whole sample: 4800, 12800 and 16000 of 16 kHz
    bounds = [(e["kind"], e["start"], e["end"], e["f0"]) for e in truth["events"]]
    assert bounds == [("silence", 0.0, 0.3, None), ("formant_voice", 0.3, 0.8, 140), ("silence", 0.8, 1.0, None)]


def test_canonicalize(tmp_path):
    t = np.arange(44100) / 44100
    stereo = np.stack([0.4 * np.sin(2 * np.pi * 440 * t)] * 2)
    from repspeech.audio_io import AudioBuffer

    src = tmp_path / "in.wav"
    write_wav(AudioBuffer(stereo, 44100), src)
    dst = tmp_path / "out.wav"
    assert main(["canonicalize", str(src), "-o", str(dst)]) == 0
    buf = read_wav(dst)
    assert buf.sample_rate == 16000
    assert buf.channels == 1


def test_operational_error_json(tmp_path, capsys):
    code = main(["--json", "canonicalize", str(tmp_path / "absent.wav"), "-o", str(tmp_path / "o.wav")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "IoFailure"


def test_threads_do_not_change_output(recording, tmp_path):
    d, wav, _ = recording
    other = tmp_path / "other.wav"  # two inputs, so --threads 2 starts a pool
    write_wav(synth_formant_voice(150, ((700, 80), (1200, 90)), 1.0), other)
    single = tmp_path / "one.csv"
    multi = tmp_path / "two.csv"
    inputs = ["--level", "S,a", wav, str(other), "--textgrid-dir", str(d)]
    assert main(["extract", *inputs, "-o", str(single)]) == 0
    assert main(["extract", *inputs, "-o", str(multi), "--threads", "2"]) == 0
    assert single.read_text() == multi.read_text()
    assert len(single.read_text().splitlines()) == 5


def test_config_file_supplies_defaults(recording, tmp_path, capsys):
    _, wav, _ = recording
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"format": "json"}))
    assert main(["--config", str(cfg), "extract", wav]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert isinstance(rows, list)


# a missing file, and one that is not UTF-8
UNREADABLE_TEXTGRIDS = [
    ("absent.TextGrid", None, "IoFailure"),
    ("latin1.TextGrid", b"File type = \"\xe9\"\n", "MalformedTextGrid"),
]


@pytest.mark.parametrize("name, content, code", UNREADABLE_TEXTGRIDS)
def test_unreadable_textgrid_gives_coded_a_row(recording, tmp_path, name, content, code):
    _, wav, _ = recording
    tg = tmp_path / name
    if content is not None:
        tg.write_bytes(content)
    out = tmp_path / "f.csv"
    assert main(["extract", "--level", "S,a", wav, "--textgrid", str(tg), "-o", str(out)]) == 0
    s_row, a_row = read_rows(out)
    assert s_row["errors"] == ""
    errors = json.loads(a_row["errors"])
    assert len(errors) == 10 and set(errors.values()) == {code}


@pytest.mark.parametrize("count", ["inf", "nan", "-1", "2.5"])
def test_textgrid_with_a_bad_count_gives_coded_a_row(recording, tmp_path, count):
    _, wav, tg = recording
    grids = tmp_path / "grids"
    grids.mkdir()
    text = Path(tg).read_text(encoding="utf-8")
    assert "\nsize = 1 \n" in text
    (grids / Path(tg).name).write_text(text.replace("\nsize = 1 \n", f"\nsize = {count} \n"), encoding="utf-8")
    out = tmp_path / "f.csv"
    assert main(["extract", "--level", "S,a", wav, "--textgrid-dir", str(grids), "-o", str(out)]) == 0
    s_row, a_row = read_rows(out)
    assert s_row["errors"] == ""
    errors = json.loads(a_row["errors"])
    assert len(errors) == 10 and set(errors.values()) == {"MalformedTextGrid"}


@pytest.mark.parametrize("name, content, code", UNREADABLE_TEXTGRIDS)
def test_vowels_unreadable_textgrid_exits_2(tmp_path, capsys, name, content, code):
    tg = tmp_path / name
    if content is not None:
        tg.write_bytes(content)
    assert main(["vowels", str(tg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {code}:") and err.count("\n") == 1


@pytest.mark.parametrize("threads", ["1", "2"])
def test_unreadable_wav_does_not_stop_the_batch(recording, tmp_path, threads):
    d, wav, _ = recording
    bad = tmp_path / "bad.wav"
    bad.write_bytes(b"not a RIFF file at all")
    floats = tmp_path / "floats.wav"
    floats.write_bytes(make_wav_bytes([[0, 1, 2, 3]], 16000, bits=32, format_code=3))
    out = tmp_path / "f.csv"
    inputs = [wav, str(bad), str(floats), str(tmp_path / "absent.wav")]
    assert main(["extract", "--level", "S,a", *inputs, "--textgrid-dir", str(d), "--threads", threads, "-o", str(out)]) == 0
    rows = {(r["recording"], r["level"]): r for r in read_rows(out)}
    assert len(rows) == 8
    assert rows[(Path(wav).stem, "S")]["errors"] == "" and rows[(Path(wav).stem, "a")]["errors"] == ""
    for stem, code in (("bad", "MalformedRiff"), ("floats", "UnsupportedEncoding"), ("absent", "IoFailure")):
        for level, n_features in (("S", 14), ("a", 10)):
            errors = json.loads(rows[(stem, level)]["errors"])
            assert len(errors) == n_features and set(errors.values()) == {code}


def test_validate_undecodable_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["validate", "schedule", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: JSONDecodeError:") and err.count("\n") == 1


def test_summarize_non_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"recording,level,cohort\n\xff\xfe,S,X\n")
    assert main(["summarize", str(path), "--group", "cohort"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: UnicodeDecodeError:") and err.count("\n") == 1


def error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.count("\n") == 1, err
    return err


EXPECT = {"sessions": [{"participant": "P01", "day": "D1", "session": "S1"}], "devices": ["condenser", "iPhone11"]}


# valid JSON of the wrong shape: (subcommand, file content, --expect content)
WRONG_SHAPES = {
    "schedule_without_starts": ("schedule", {"arm": "Day"}, None),
    "schedule_bad_date": ("schedule", {"arm": "Day", "session_starts": ["not-a-date"]}, None),
    "schedule_empty_list": ("schedule", [], None),
    "expectation_without_sessions": ("manifest", ["P01_condenser_D1_S1.wav"], {"devices": ["condenser"]}),
    "manifest_not_names": ("manifest", [1], EXPECT),
}


@pytest.mark.parametrize("case", WRONG_SHAPES)
def test_validate_wrong_shape_exits_2(tmp_path, capsys, case):
    what, content, expect = WRONG_SHAPES[case]
    path = tmp_path / "in.json"
    path.write_text(json.dumps(content))
    argv = ["validate", what, str(path)]
    if expect is not None:
        (tmp_path / "expect.json").write_text(json.dumps(expect))
        argv += ["--expect", str(tmp_path / "expect.json")]
    assert main(argv) == 2
    assert error_line(capsys).startswith("error: RepSpeechError:")


# valid JSON that is not an object where the validator reads one: (subcommand, file content)
NOT_OBJECTS = {
    "questionnaire_string": ("questionnaire", "x"),
    "questionnaire_list": ("questionnaire", [1]),
    "qclog_string": ("qclog", "x"),
    "qclog_list": ("qclog", [1]),
    "checklist_string": ("checklist", "x"),
    "checklist_list": ("checklist", [1]),
    "checklist_section": ("checklist", {"participants": "x"}),
    "checklist_aspect": ("checklist", {"participants": {"input_and_feedback": [1]}}),
}


@pytest.mark.parametrize("case", NOT_OBJECTS)
def test_validate_non_object_exits_2(tmp_path, capsys, case):
    what, content = NOT_OBJECTS[case]
    path = tmp_path / "in.json"
    path.write_text(json.dumps(content))
    assert main(["validate", what, str(path)]) == 2
    assert error_line(capsys).startswith("error: RepSpeechError:")


def test_validate_manifest_reports_unparseable_names(tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(["badname", "P01_condenser_D1_S1.wav", "P01__D1_S1.wav"]))
    expect = tmp_path / "expect.json"
    expect.write_text(json.dumps(EXPECT))
    assert main(["validate", "manifest", str(manifest), "--expect", str(expect)]) == 1
    findings = json.loads(capsys.readouterr().out)["findings"]
    assert [(f["code"], f["context"]) for f in findings] == [
        ("EmptyField", "P01__D1_S1.wav"),
        ("BadFieldCount", "badname"),
        ("Missing", "P01_iPhone11_D1_S1"),
    ]


def test_extract_unknown_level_exits_2(recording, capsys):
    _, wav, _ = recording
    assert main(["extract", "--level", "X", wav]) == 2
    assert error_line(capsys).startswith("error: RepSpeechError: unknown extraction level 'X'")


def no_extraction(*_args):
    raise AssertionError("extraction ran before the arguments were checked")


@pytest.mark.parametrize("level", [",", "", " , "])
def test_extract_empty_level_exits_2_before_any_work(recording, tmp_path, capsys, monkeypatch, level):
    _, wav, _ = recording
    monkeypatch.setattr("repspeech.cli.extract_recording", no_extraction)
    out = tmp_path / "never.csv"
    assert main(["extract", "--level", level, wav, "-o", str(out)]) == 2
    assert error_line(capsys) == "error: RepSpeechError: --level names no extraction level; choose from S, a\n"
    assert not out.exists()


def test_extract_missing_textgrid_dir_exits_2_before_any_work(recording, tmp_path, capsys, monkeypatch):
    _, wav, _ = recording
    monkeypatch.setattr("repspeech.cli.extract_recording", no_extraction)
    missing = tmp_path / "no_such_dir"
    out = tmp_path / "never.csv"
    assert main(["extract", "--level", "S,a", wav, "--textgrid-dir", str(missing), "-o", str(out)]) == 2
    assert error_line(capsys) == f"error: RepSpeechError: --textgrid-dir {missing} is not a directory\n"
    assert not out.exists()


@pytest.mark.parametrize("same_path", [False, True])
def test_extract_inputs_sharing_a_stem_exit_2_before_any_work(tmp_path, capsys, monkeypatch, same_path):
    # a record is named by its input's stem, so two such inputs would give rows no one can tell apart
    first, second = tmp_path / "a" / "rec.wav", tmp_path / "b" / "rec.wav"
    for path, f0 in ((first, 120), (second, 210)):
        path.parent.mkdir()
        write_wav(synth_formant_voice(f0, ((700, 80), (1200, 90)), 0.5), path)
    if same_path:
        second = first
    monkeypatch.setattr("repspeech.cli.extract_recording", no_extraction)
    out = tmp_path / "never.csv"
    assert main(["extract", str(second), str(first), "-o", str(out)]) == 2
    expected = f"error: RepSpeechError: inputs {first} and {second} share the stem 'rec', which names their records\n"
    assert error_line(capsys) == expected
    assert not out.exists()


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_extract_threads_below_one_exits_2(recording, tmp_path, capsys, threads):
    _, wav, _ = recording
    out = tmp_path / "never.csv"
    assert main(["extract", wav, "--threads", threads, "-o", str(out)]) == 2
    assert error_line(capsys) == f"error: RepSpeechError: --threads must be at least 1, got {threads}\n"
    assert not out.exists()


def test_undecodable_config_exits_2(recording, tmp_path, capsys):
    _, _, tg = recording
    cfg = tmp_path / "bad.json"
    cfg.write_text("{bad")
    assert main(["--config", str(cfg), "vowels", tg]) == 2
    assert error_line(capsys).startswith("error: JSONDecodeError:")


@pytest.mark.parametrize("content", ["[1]", '"x"', "3"])
def test_non_object_config_exits_2(recording, tmp_path, capsys, content):
    _, _, tg = recording
    cfg = tmp_path / "cfg.json"
    cfg.write_text(content)
    assert main(["--config", str(cfg), "vowels", tg]) == 2
    assert error_line(capsys) == f"error: RepSpeechError: config file {cfg} must hold a JSON object of flag defaults\n"


@pytest.mark.parametrize("alignment", ["two_inputs", "with_dir"])
def test_textgrid_for_one_input_only(recording, tmp_path, capsys, alignment):
    d, wav, tg = recording
    other = tmp_path / "other.wav"
    write_wav(synth_formant_voice(150, ((700, 80), (1200, 90)), 0.5), other)
    inputs = [wav, str(other)] if alignment == "two_inputs" else [wav, "--textgrid-dir", str(d)]
    out = tmp_path / "never.csv"
    assert main(["extract", "--level", "S,a", *inputs, "--textgrid", tg, "-o", str(out)]) == 2
    assert error_line(capsys) == "error: RepSpeechError: --textgrid aligns a single input and excludes --textgrid-dir\n"
    assert not out.exists()


def test_pool_has_no_more_workers_than_inputs(recording, tmp_path, monkeypatch):
    _, wav, _ = recording
    other = tmp_path / "other.wav"
    write_wav(synth_formant_voice(150, ((700, 80), (1200, 90)), 0.5), other)
    sizes = []

    class RecordingPool:
        """Stands in for ``ProcessPoolExecutor``: records the pool size and maps in this process."""

        def __init__(self, max_workers, initializer=None):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr("repspeech.cli.ProcessPoolExecutor", RecordingPool)
    assert main(["extract", wav, "--threads", "4", "-o", str(tmp_path / "one.csv")]) == 0
    assert sizes == []  # one input runs in this process
    assert main(["extract", wav, str(other), "--threads", "4", "-o", str(tmp_path / "two.csv")]) == 0
    assert sizes == [2]


# each ``extract`` flag that tunes the analysis, with a value unlike its default
TUNING_FLAGS = (
    ("--silence-threshold-db", "-30"),
    ("--min-pause", "0.5"),
    ("--min-dip", "3"),
    ("--formant-ceiling", "5000"),
    ("--vowel-labels", "AO1,AA1"),
    ("--min-vowel-duration", "0.08"),
    ("--phone-tier", "segments"),
)


def _extract_settings(argv: list[str]) -> dict:
    """``asdict(PipelineParams)`` as ``extract`` builds it from ``argv``."""
    return dataclasses.asdict(_pipeline_params(_build_parser()[0].parse_args(["extract", "x.wav", *argv])))


def _changed_dests(argv: list[str], flag: str, value: str) -> dict:
    """The dests that ``flag value`` sets in the namespace of ``argv``, with their values."""
    parser = _build_parser()[0]
    base, args = vars(parser.parse_args(argv)), vars(parser.parse_args([*argv, flag, value]))
    return {dest: v for dest, v in args.items() if v != base[dest]}


def test_every_pipeline_setting_has_one_extract_flag():
    base = _extract_settings([])
    covered = set()
    for flag, value in TUNING_FLAGS:
        got = _extract_settings([flag, value])
        assert got.keys() == base.keys()
        changed = {name for name in base if got[name] != base[name]}
        assert len(changed) == 1, (flag, changed)
        covered |= changed
    assert covered == set(base)
    # ``vowels`` parses the vowel-selection flags into the dests ``extract`` does
    for flag, value in TUNING_FLAGS[-3:]:
        extract = _changed_dests(["extract", "x.wav"], flag, value)
        assert len(extract) == 1
        assert _changed_dests(["vowels", "x.TextGrid"], flag, value) == extract


def test_extraction_never_imports_scipy(tmp_path):
    # extraction runs on numpy alone, so no extraction process or pool worker pays for scipy's imports
    voice = synth_formant_voice(110, ((700, 80), (1200, 90)), 1.5, rate=44100)
    stereo = tmp_path / "stereo44k.wav"
    write_wav(AudioBuffer(np.stack([voice.signal, 0.5 * voice.signal]), 44100), stereo)
    mono = tmp_path / "mono16k.wav"
    write_wav(synth_formant_voice(110, ((700, 80), (1200, 90)), 1.5), mono)
    out = tmp_path / "f.csv"
    script = (
        "import sys\n"
        "import repspeech.cli, repspeech.pipeline\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "assert repspeech.cli.main(['extract', '--level', 'S', *sys.argv[1:3], '-o', sys.argv[3]]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(repspeech.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", script, str(stereo), str(mono), str(out)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["[]", "[]"]
    rows = read_rows(out)
    # both files were resampled (44.1k to 16k, and 16k to 11k for the formants) and measured
    assert sorted(r["recording"] for r in rows) == ["mono16k", "stereo44k"]
    assert all(r["f1_mean"] and r["errors"] == "" for r in rows)


@pytest.fixture(scope="module")
def two_vowel_kinds(recording, tmp_path_factory):
    """The recording aligned with one long AA1, one long AO1 and one AO1 too short for 0.1 s."""
    _, wav, _ = recording
    intervals = (Interval(0.2, 0.8, "AA1"), Interval(1.0, 1.06, "AO1"), Interval(1.2, 1.8, "AO1"))
    tg = tmp_path_factory.mktemp("vowel_kinds") / "kinds.TextGrid"
    tg.write_text(serialize_textgrid(TierSet(0.0, 2.0, (Tier("phones", 0.0, 2.0, intervals),))), encoding="utf-8")
    return wav, str(tg)


@pytest.mark.parametrize("source", ["config", "flags", "old_flags"])
def test_vowels_and_extract_select_the_same_instances(two_vowel_kinds, tmp_path, capsys, source):
    wav, tg = two_vowel_kinds
    pre, post = [], []
    if source == "config":
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"min_vowel_duration": 0.1, "vowel_labels": "AO1", "phone_tier": "phones"}))
        pre = ["--config", str(cfg)]
    elif source == "flags":
        post = ["--vowel-labels", "AO1", "--min-vowel-duration", "0.1", "--phone-tier", "phones"]
    else:  # the spellings ``vowels`` had before the flags were shared, accepted by both subcommands
        post = ["--labels", "AO1", "--min-duration", "0.1", "--tier", "phones"]
    assert main([*pre, "vowels", tg, *post]) == 0
    assert capsys.readouterr().out == "1.200\t1.800\tAO1\n"
    out = tmp_path / "f.csv"
    assert main([*pre, "extract", "--level", "a", wav, "--textgrid", tg, "-o", str(out), *post]) == 0
    (row,) = read_rows(out)
    assert row["n_vowel_instances"] == "1" and row["errors"] == ""


@pytest.mark.parametrize("command", ["extract", "vowels"])
@pytest.mark.parametrize("key", ["min_pause_s", "labels", "min_duration", "tier"])
def test_config_key_that_names_no_flag_exits_2_before_any_work(
    recording, tmp_path, capsys, monkeypatch, command, key
):
    _, wav, tg = recording
    monkeypatch.setattr("repspeech.cli.extract_recording", no_extraction)
    monkeypatch.setattr("repspeech.cli.read_textgrid", no_extraction)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"format": "json", key: 0.2}))
    out = tmp_path / "never.csv"
    argv = ["extract", wav, "-o", str(out)] if command == "extract" else ["vowels", tg]
    assert main(["--config", str(cfg), *argv]) == 2
    assert error_line(capsys) == f"error: RepSpeechError: config key {key!r} names no flag\n"
    assert not out.exists()


# an invalid value of each analysis flag, and the setting it names
INVALID_SETTINGS = [
    ("--formant-ceiling", "0", "formant_ceiling"),
    ("--formant-ceiling", "-5", "formant_ceiling"),
    ("--formant-ceiling", "nan", "formant_ceiling"),
    ("--formant-ceiling", "100", "formant_ceiling"),
    ("--formant-ceiling", "8001", "formant_ceiling"),
    ("--min-pause", "-0.1", "min_pause"),
    ("--min-pause", "inf", "min_pause"),
    ("--min-dip", "-1", "min_dip"),
    ("--min-dip", "nan", "min_dip"),
    ("--silence-threshold-db", "-inf", "silence_threshold_db"),
    ("--min-vowel-duration", "-0.05", "min_vowel_duration"),
    ("--min-vowel-duration", "inf", "min_vowel_duration"),
    ("--vowel-labels", "", "vowel_labels"),
    ("--vowel-labels", "AA1,", "vowel_labels"),
    ("--phone-tier", "", "phone_tier"),
    # values no flag text or config value spells, which the library refuses too
    ("--min-pause", True, "min_pause"),
    ("--vowel-labels", frozenset({"AA1,AO1"}), "vowel_labels"),
]


@pytest.mark.parametrize("flag, value, setting", [case for case in INVALID_SETTINGS if isinstance(case[1], str)])
def test_invalid_analysis_value_exits_2_before_any_work(recording, tmp_path, capsys, monkeypatch, flag, value, setting):
    _, wav, tg = recording
    monkeypatch.setattr("repspeech.cli.extract_recording", no_extraction)
    out = tmp_path / "never.csv"
    assert main(["extract", "--level", "S,a", wav, "--textgrid", tg, "-o", str(out), f"{flag}={value}"]) == 2
    assert error_line(capsys).startswith(f"error: BadSetting: {setting} must ")
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value, setting",
    # an int no float holds, which a config value reads as inf
    [*INVALID_SETTINGS, pytest.param("--min-pause", 10**400, "min_pause", id="--min-pause-int_past_float-min_pause")],
)
def test_invalid_setting_raises_bad_setting(flag, value, setting):
    if isinstance(value, str):  # the value the flag's text gives
        value = getattr(_build_parser()[0].parse_args(["extract", "x.wav", f"{flag}={value}"]), setting)
    with pytest.raises(BadSetting, match=f"^{setting} must "):
        PipelineParams(**{setting: value})


# any valid settings: finite numbers in range, non-empty labels without commas, a non-empty tier
valid_params = st.builds(
    PipelineParams,
    silence_threshold_db=st.floats(allow_nan=False, allow_infinity=False),
    min_pause=st.floats(0.0, allow_infinity=False),
    min_dip=st.floats(0.0, allow_infinity=False),
    formant_ceiling=st.floats(100.0, 8000.0, exclude_min=True),
    vowel_labels=st.frozensets(st.text(min_size=1).filter(lambda v: "," not in v), min_size=1, max_size=4),
    min_vowel_duration=st.floats(0.0, allow_infinity=False),
    phone_tier=st.text(min_size=1),
)


@settings(max_examples=60, deadline=None)
@given(params=valid_params)
def test_provenance_settings_as_config_rebuild_equal_params(tmp_path_factory, params):
    d = tmp_path_factory.mktemp("settings")
    cfg = d / "settings.json"
    cfg.write_text(json.dumps(_provenance(params, None)["settings"]), encoding="utf-8")
    seen = []
    with mock.patch("repspeech.cli.extract_recording", lambda req: seen.append(req.params) or []):
        assert main(["--config", str(cfg), "extract", "x.wav", "-o", str(d / "rows.csv")]) == 0
    assert seen == [params]


# a config value its flag's text cannot take, for each kind of flag, the subcommand, and the error it gives
WRONG_CONFIG_VALUES = [
    ("level", 5, "extract", "RepSpeechError: unknown extraction level '5'"),
    ("format", "xml", "extract", "RepSpeechError: config key 'format': invalid choice: 'xml'"),
    ("min_pause", True, "extract", "RepSpeechError: config key 'min_pause' takes a number, a string or a list of"),
    ("json", "no", "extract", "RepSpeechError: config key 'json' takes true or false, got \"no\""),
    ("devices", [1], "validate", "RepSpeechError: config key 'devices' takes a number, a string or a list of"),
    ("formants", [1], "synth", "RepSpeechError: config key 'formants' takes a number, a string or a list of"),
    # joined and split again at commas, it would select AA1 and AO1
    ("vowel_labels", ["AA1,AO1"], "extract", "RepSpeechError: config key 'vowel_labels' takes list items without"),
]


@pytest.mark.parametrize("key, value, command, error", WRONG_CONFIG_VALUES, ids=next(zip(*WRONG_CONFIG_VALUES)))
def test_wrong_config_value_exits_2_before_any_work(recording, tmp_path, capsys, monkeypatch, key, value, command, error):
    _, wav, _ = recording
    for work in ("extract_recording", "validate_manifest", "write_wav"):
        monkeypatch.setattr(f"repspeech.cli.{work}", no_extraction)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    files, expect = tmp_path / "files.json", tmp_path / "expect.json"
    files.write_text(json.dumps([Path(wav).name]))
    expect.write_text(json.dumps(EXPECT))
    out = tmp_path / "never.out"
    argv = {
        "extract": ["extract", wav, "-o", str(out)],
        "validate": ["validate", "manifest", str(files), "--expect", str(expect)],
        "synth": ["synth", "--kind", "silence", "-o", str(out)],
    }[command]
    assert main(["--config", str(cfg), *argv]) == 2
    assert error_line(capsys).startswith(f"error: {error}")
    assert not out.exists()


BAD_MIN_PAUSE = "config key 'min_pause': invalid float value: 'x'"
# a config and its error: a config's own json key sets how its errors print, unless that key is the one in error
CONFIG_ERRORS_BY_JSON_KEY = [
    ({"json": True, "min_pause": "x"}, {"error": "RepSpeechError", "message": BAD_MIN_PAUSE}),
    ({"json": True, "nope": 0}, {"error": "RepSpeechError", "message": "config key 'nope' names no flag"}),
    ({"json": False, "min_pause": "x"}, f"error: RepSpeechError: {BAD_MIN_PAUSE}\n"),
    ({"json": "yes", "min_pause": 0.2}, 'error: RepSpeechError: config key \'json\' takes true or false, got "yes"\n'),
]


@pytest.mark.parametrize(
    "config, error", CONFIG_ERRORS_BY_JSON_KEY, ids=["json-bad-value", "json-unknown-key", "plain", "json-not-a-bool"]
)
def test_config_json_key_sets_how_config_errors_print(recording, tmp_path, capsys, monkeypatch, config, error):
    _, wav, _ = recording
    monkeypatch.setattr("repspeech.cli.extract_recording", no_extraction)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["--config", str(cfg), "extract", wav, "-o", str(tmp_path / "never.csv")]) == 2
    line = error_line(capsys)
    assert (json.loads(line) if isinstance(error, dict) else line) == error


def test_config_format_follows_the_running_subcommand(recording, tmp_path, capsys):
    _, wav, _ = recording
    features = tmp_path / "f.csv"
    assert main(["extract", "--level", "S,a", wav, "-o", str(features)]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"format": "markdown"}))
    assert main(["summarize", str(features), "--group", "level", "--format", "markdown"]) == 0
    explicit = capsys.readouterr().out
    assert main(["--config", str(cfg), "summarize", str(features), "--group", "level"]) == 0
    assert capsys.readouterr().out == explicit
    assert main(["--config", str(cfg), "summarize", str(features), "--group", "level", "--format", "csv"]) == 0
    assert capsys.readouterr().out != explicit  # an explicit flag wins


def test_synth_malformed_formants_exits_2(tmp_path, capsys):
    out = tmp_path / "never.wav"
    argv = ["synth", "--kind", "formant_voice", "--f0", "120", "--formants", "700", "-o", str(out)]
    assert main(argv) == 2
    assert error_line(capsys) == "error: RepSpeechError: --formants takes freq:bw pairs, comma separated, got '700'\n"
    assert not out.exists()


@pytest.mark.parametrize("missing", ["kind", "duration"])
def test_synth_pattern_segment_without_kind_or_duration_exits_2(tmp_path, capsys, missing):
    segment = {"kind": "pulse_train", "duration": 0.2, "f0": 150}
    del segment[missing]
    pattern = tmp_path / "pattern.json"
    pattern.write_text(json.dumps([{"kind": "silence", "duration": 0.1}, segment]))
    out = tmp_path / "never.wav"
    assert main(["synth", "--pattern", str(pattern), "-o", str(out)]) == 2
    assert error_line(capsys) == "error: RepSpeechError: pattern segment 1 needs a kind and a duration\n"
    assert not out.exists()


@pytest.mark.parametrize("formants", [[700], [[700]]])
def test_synth_pattern_formants_not_number_pairs_exits_2(tmp_path, capsys, formants):
    pattern = tmp_path / "pattern.json"
    pattern.write_text(json.dumps([{"kind": "formant_voice", "duration": 0.2, "f0": 120, "formants": formants}]))
    out = tmp_path / "never.wav"
    assert main(["synth", "--pattern", str(pattern), "-o", str(out)]) == 2
    expected = "error: RepSpeechError: pattern segment 0 formants must be a list of [freq, bw] number pairs\n"
    assert error_line(capsys) == expected
    assert not out.exists()


def test_synth_negative_duration_exits_2(tmp_path, capsys):
    out = tmp_path / "never.wav"
    assert main(["synth", "--kind", "silence", "--duration", "-1", "-o", str(out)]) == 2
    assert error_line(capsys) == "error: RepSpeechError: segment duration must be finite and at least 0 s, got -1.0\n"
    assert not out.exists() and not out.with_suffix(".json").exists()


@pytest.mark.parametrize("amplitude", ["2", "nan", "-0.1"])
def test_synth_amplitude_outside_unit_range_exits_2(tmp_path, capsys, amplitude):
    out = tmp_path / "never.wav"
    assert main(["synth", "--kind", "tone", "--f0", "200", "--amplitude", amplitude, "-o", str(out)]) == 2
    expected = f"error: RepSpeechError: segment amplitude must be finite and in [0, 1], got {float(amplitude)!r}\n"
    assert error_line(capsys) == expected
    pattern = tmp_path / "pattern.json"
    pattern.write_text(json.dumps([{"kind": "tone", "duration": 0.2, "f0": 200, "amplitude": float(amplitude)}]))
    assert main(["synth", "--pattern", str(pattern), "-o", str(out)]) == 2
    assert error_line(capsys) == expected
    assert not out.exists() and not out.with_suffix(".json").exists()


def test_synth_noise_past_full_scale_exits_2(tmp_path, capsys):
    out = tmp_path / "never.wav"
    assert main(["synth", "--kind", "noise", "--amplitude", "0.9", "--duration", "1", "-o", str(out)]) == 2
    assert error_line(capsys) == (
        "error: RepSpeechError: noise of RMS 0.9 peaks at 3.63, past full scale; "
        "this duration and seed fit an RMS of at most 0.247\n"
    )
    assert not out.exists() and not out.with_suffix(".json").exists()
