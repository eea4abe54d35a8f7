"""The README's "Library" example runs as written."""

import re
from pathlib import Path

from repspeech.alignment import Interval, Tier, TierSet, serialize_textgrid
from repspeech.audio_io import write_wav
from repspeech.synth import synth_formant_voice

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs(tmp_path, monkeypatch):
    buf = synth_formant_voice(120, ((700, 80), (1200, 90)), 2.0)
    write_wav(buf, tmp_path / "rec.wav")
    grid = TierSet(0.0, 2.0, (Tier("phones", 0.0, 2.0, (Interval(0.2, 0.8, "AA1"), Interval(1.2, 1.8, "AA1"))),))
    (tmp_path / "rec.TextGrid").write_text(serialize_textgrid(grid), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    scope: dict = {}
    exec(compile(library_example(), "README.md", "exec"), scope)

    assert abs(scope["mean_hz"] - 120.0) < 2.0
    assert 600.0 < scope["f1"] < 800.0 and 1100.0 < scope["f2"] < 1300.0
    assert scope["hnr_db"] > 10.0 and scope["rates"].duration == buf.duration
    assert not scope["errors"] and scope["values"]["pitch_mean"] == scope["mean_hz"]
    assert [r.level for r in scope["records"]] == ["S", "a"]
    assert scope["records"][1].n_vowel_instances == 2
