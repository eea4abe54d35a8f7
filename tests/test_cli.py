"""Command-line workflow: subcommands, exit codes, output formats."""

import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from helpers import make_wav_bytes

import repspeech
from repspeech.alignment import Interval, Tier, TierSet, serialize_textgrid
from repspeech.audio_io import AudioBuffer, read_wav, write_wav
from repspeech.cli import _build_parser, _pipeline_params, main
from repspeech.synth import synth_formant_voice


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


def test_validate_schedule_exit_codes(tmp_path):
    good = {"arm": "Day", "session_starts": ["2023-06-14T09:12:00", "2023-06-14T14:05:00", "2023-06-14T18:04:00"]}
    bad = {"arm": "Day", "session_starts": ["2023-06-14T09:00:00", "2023-06-14T14:00:00", "2023-06-14T17:00:00"]}
    g = tmp_path / "good.json"
    g.write_text(json.dumps(good))
    b = tmp_path / "bad.json"
    b.write_text(json.dumps(bad))
    assert main(["validate", "schedule", str(g)]) == 0
    assert main(["validate", "schedule", str(b)]) == 1


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

        def __init__(self, max_workers):
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


def _setting_leaves(argv: list[str]) -> dict:
    """Every leaf of ``asdict(PipelineParams)`` as ``extract`` builds it from ``argv``, keyed by path."""
    args = _build_parser()[0].parse_args(["extract", "x.wav", *argv])

    def leaves(value, path):
        if isinstance(value, dict):
            return {k: v for key, sub in value.items() for k, v in leaves(sub, (*path, key)).items()}
        return {path: value}

    return leaves(dataclasses.asdict(_pipeline_params(args)), ())


def test_every_pipeline_setting_has_one_extract_flag():
    base = _setting_leaves([])
    covered = set()
    for flag, value in TUNING_FLAGS:
        leaves = _setting_leaves([flag, value])
        assert leaves.keys() == base.keys()
        changed = {path for path in base if leaves[path] != base[path]}
        assert len(changed) == 1, (flag, changed)
        covered |= changed
    assert covered == set(base)


def test_extraction_never_imports_scipy_signal(tmp_path):
    # scipy.signal costs every extraction process ~48 MB and ~0.9 s, and each pool worker again
    voice = synth_formant_voice(110, ((700, 80), (1200, 90)), 1.5, rate=44100)
    stereo = tmp_path / "stereo44k.wav"
    write_wav(AudioBuffer(np.stack([voice.signal, 0.5 * voice.signal]), 44100), stereo)
    mono = tmp_path / "mono16k.wav"
    write_wav(synth_formant_voice(110, ((700, 80), (1200, 90)), 1.5), mono)
    out = tmp_path / "f.csv"
    script = (
        "import sys\n"
        "import repspeech.cli, repspeech.pipeline\n"
        "assert repspeech.cli.main(['extract', '--level', 'S', *sys.argv[1:3], '-o', sys.argv[3]]) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.signal')))\n"
    )
    src = str(Path(repspeech.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", script, str(stereo), str(mono), str(out)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
    rows = read_rows(out)
    # both files were resampled (44.1k to 16k, and 16k to 11k for the formants) and measured
    assert sorted(r["recording"] for r in rows) == ["mono16k", "stereo44k"]
    assert all(r["f1_mean"] and r["errors"] == "" for r in rows)
