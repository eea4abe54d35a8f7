"""The benchmark's layer tracer still finds every traced function.

``bench/spans.py`` wraps the module attributes named in ``TARGETS`` from
outside the program; a refactor that renames, moves or re-signs one of
them would otherwise break only the traced benchmark run.
"""

import importlib
import sys
from pathlib import Path

import pytest

from repspeech.alignment import Interval, Tier, TierSet, serialize_textgrid
from repspeech import pipeline
from repspeech.audio_io import write_wav
from repspeech.synth import SynthSpec, synth_pattern

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def spans():
    sys.path.insert(0, str(BENCH))
    try:
        import spans
    finally:
        sys.path.remove(str(BENCH))
    return spans


def test_traced_layers_resolve_and_record(spans, tmp_path):
    for module, name in spans.TARGETS:
        assert callable(getattr(importlib.import_module(f"repspeech.{module}"), name, None)), f"{module}.{name}"

    voice = ((700.0, 80.0), (1200.0, 90.0))
    pat = synth_pattern(
        [
            SynthSpec("formant_voice", 0.4, f0=110, formants=voice),
            SynthSpec("silence", 0.3),
            SynthSpec("formant_voice", 0.4, f0=110, formants=voice),
        ]
    )
    wav = tmp_path / "r.wav"
    write_wav(pat.buffer, wav)
    vowels = (Interval(0.05, 0.35, "AA1"), Interval(0.75, 1.05, "AA1"))
    tg = tmp_path / "r.TextGrid"
    tg.write_text(serialize_textgrid(TierSet(0.0, 1.1, (Tier("phones", 0.0, 1.1, vowels),))), encoding="utf-8")

    with spans.Tracer() as tracer:  # reached through the module, as the benchmark's worker does
        _, a_rec = pipeline.extract_recording(pipeline.ExtractionRequest(str(wav), str(tg), ("S", "a")))
    assert a_rec.n_vowel_instances == 2
    assert tracer.counts["alignment.vowels_selected"] == 2
    calls = {name: s["calls"] for name, s in tracer.layer_stats().items()}
    on_path = [name for name in spans.SPAN_NAMES if not name.startswith(("cli.", "reporting.", "protocol."))]
    assert all(calls[name] >= 1 for name in on_path), calls
