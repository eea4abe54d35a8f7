"""End-to-end per-recording extraction."""

import dataclasses
import importlib
import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repspeech import __version__
from repspeech.alignment import Interval, Tier, TierSet, serialize_textgrid
from repspeech.audio_io import AudioBuffer, write_wav
from repspeech.pipeline import (
    A_FEATURES,
    ExtractionRequest,
    PipelineParams,
    S_FEATURES,
    extract_recording,
    record_to_row,
)
from repspeech.synth import SynthSpec, synth_formant_voice, synth_pattern, synth_pulse_train


@pytest.fixture(scope="module")
def voice_recording(tmp_path_factory):
    d = tmp_path_factory.mktemp("rec")
    buf = synth_formant_voice(120, ((700, 80), (1200, 90)), 2.0)
    wav = d / "P01_condenser_D1_S1_RainbowPassage.wav"
    write_wav(buf, wav)
    grid = TierSet(
        0.0,
        2.0,
        (
            Tier(
                "phones",
                0.0,
                2.0,
                (
                    Interval(0.0, 0.2, "sil"),
                    Interval(0.2, 0.8, "AA1"),
                    Interval(0.8, 1.2, "sil"),
                    Interval(1.2, 1.8, "AA1"),
                    Interval(1.8, 2.0, ""),
                ),
            ),
        ),
    )
    tg = d / "P01_condenser_D1_S1_RainbowPassage.TextGrid"
    tg.write_text(serialize_textgrid(grid), encoding="utf-8")
    return str(wav), str(tg)


def test_both_levels_extracted(voice_recording):
    wav, tg = voice_recording
    records = extract_recording(ExtractionRequest(wav, tg, ("S", "a")))
    assert [r.level for r in records] == ["S", "a"]
    s_rec, a_rec = records
    assert not s_rec.errors
    assert not a_rec.errors
    assert a_rec.n_vowel_instances == 2
    assert a_rec.features["f1_mean"] == pytest.approx(700, abs=50)
    assert a_rec.features["f2_mean"] == pytest.approx(1200, abs=75)
    assert sum(v is not None for v in s_rec.features.values()) == 14
    assert sum(v is not None for v in a_rec.features.values()) == 10


def test_s_only_without_textgrid(voice_recording):
    wav, _ = voice_recording
    records = extract_recording(ExtractionRequest(wav, None, ("S",)))
    assert len(records) == 1
    assert records[0].level == "S"


def test_vowel_level_needs_textgrid(voice_recording):
    wav, _ = voice_recording
    s_rec, a_rec = extract_recording(ExtractionRequest(wav, None, ("S", "a")))
    assert not s_rec.errors
    assert all(v is None for v in a_rec.features.values())
    assert a_rec.errors == dict.fromkeys(A_FEATURES, "AlignmentMissing")
    assert a_rec.n_vowel_instances is None


def test_unreadable_wav_gives_one_coded_record_per_level(tmp_path):
    bad = tmp_path / "bad.wav"
    bad.write_bytes(b"RIFF\x00\x00\x00\x00WAVE")  # no fmt chunk
    s_rec, a_rec = extract_recording(ExtractionRequest(str(bad), None, ("S", "a")))
    assert (s_rec.recording, s_rec.level, a_rec.level) == ("bad", "S", "a")
    assert s_rec.features == dict.fromkeys(S_FEATURES) and s_rec.errors == dict.fromkeys(S_FEATURES, "MalformedRiff")
    assert a_rec.features == dict.fromkeys(A_FEATURES) and a_rec.errors == dict.fromkeys(A_FEATURES, "MalformedRiff")
    assert a_rec.n_vowel_instances is None
    assert "pitch_adapted" not in s_rec.provenance and "version" in s_rec.provenance


def test_deterministic_records(voice_recording):
    wav, tg = voice_recording
    req = ExtractionRequest(wav, tg, ("S", "a"))
    first = extract_recording(req)
    second = extract_recording(req)
    assert [dataclasses.asdict(r) for r in first] == [dataclasses.asdict(r) for r in second]


def test_full_span_vowel_levels_agree(tmp_path):
    buf = synth_formant_voice(140, ((600, 80), (1100, 90)), 1.5)
    wav = tmp_path / "v.wav"
    write_wav(buf, wav)
    grid = TierSet(0.0, 1.5, (Tier("phones", 0.0, 1.5, (Interval(0.0, 1.5, "AA"),)),))
    tg = tmp_path / "v.TextGrid"
    tg.write_text(serialize_textgrid(grid), encoding="utf-8")
    s_rec, a_rec = extract_recording(ExtractionRequest(str(wav), str(tg), ("S", "a")))
    assert not s_rec.errors and not a_rec.errors
    # one vowel over the whole recording reduces the same tracks over the same span
    assert {k: a_rec.features[k] for k in A_FEATURES} == {k: s_rec.features[k] for k in A_FEATURES}


def test_pulse_train_formants_carry_error_code(tmp_path):
    # no resonances, so no formant frame is valid
    wav = tmp_path / "pulse.wav"
    write_wav(synth_pulse_train(150.0, 2.0), wav)
    (rec,) = extract_recording(ExtractionRequest(str(wav)))
    assert rec.features["f1_mean"] is None and rec.features["f2_mean"] is None
    assert rec.errors == {"f1_mean": "NoMeasurableInstances", "f2_mean": "NoMeasurableInstances"}


def test_failed_track_marks_only_its_features_at_both_levels(tmp_path):
    # white noise: no pitch, so only the features that need voicing go unmeasured
    rng = np.random.default_rng(0)
    wav = tmp_path / "noise.wav"
    write_wav(AudioBuffer(np.clip(0.2 * rng.standard_normal(16000), -1.0, 1.0), 16000), wav)
    grid = TierSet(0.0, 1.0, (Tier("phones", 0.0, 1.0, (Interval(0.1, 0.5, "AA1"), Interval(0.6, 0.9, "AA1"))),))
    tg = tmp_path / "noise.TextGrid"
    tg.write_text(serialize_textgrid(grid), encoding="utf-8")
    s_rec, a_rec = extract_recording(ExtractionRequest(str(wav), str(tg), ("S", "a")))
    needs_voicing = {"pitch_mean", "pitch_sd", "hnr_mean", "spectral_slope", "f1_mean", "f2_mean"}
    assert a_rec.errors == dict.fromkeys(needs_voicing, "NoVoicedFrames")
    assert {k: v for k, v in s_rec.errors.items() if k in A_FEATURES} == a_rec.errors
    assert all(a_rec.features[k] is not None for k in set(A_FEATURES) - needs_voicing)
    assert a_rec.n_vowel_instances == 2


TRACKS = (
    "phonation.pitch_track",
    "phonation.intensity_track",
    "phonation.hnr_track",
    "phonation.voiced_frame_spectra",
    "phonation.cpp_track",
    "articulation.formant_track",
)


def count_calls(monkeypatch, names=TRACKS) -> dict[str, int]:
    """Count calls of each named function through every repspeech module that binds it."""
    counts = dict.fromkeys(names, 0)
    modules = [m for n, m in list(sys.modules.items()) if n == "repspeech" or n.startswith("repspeech.")]
    for name in names:
        mod_name, fn_name = name.split(".")
        original = getattr(importlib.import_module(f"repspeech.{mod_name}"), fn_name)

        def counted(*args, _name=name, _fn=original, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return counts


def test_each_track_computed_once(voice_recording, monkeypatch):
    wav, tg = voice_recording
    counts = count_calls(monkeypatch)
    s_rec, a_rec = extract_recording(ExtractionRequest(wav, tg, ("S", "a")))
    assert not s_rec.errors and not a_rec.errors
    assert counts == {**dict.fromkeys(TRACKS, 1), "phonation.pitch_track": 2}  # two pitch passes


def test_no_target_vowels_marks_features_absent(voice_recording, tmp_path):
    wav, _ = voice_recording
    grid = TierSet(0.0, 2.0, (Tier("phones", 0.0, 2.0, (Interval(0.0, 2.0, "IY"),)),))
    tg = tmp_path / "novowels.TextGrid"
    tg.write_text(serialize_textgrid(grid), encoding="utf-8")
    a_rec = extract_recording(ExtractionRequest(wav, str(tg), ("a",)))[0]
    assert all(v is None for v in a_rec.features.values())
    assert set(a_rec.errors.values()) == {"NoTargetVowels"}


def test_provenance_snapshot(voice_recording):
    wav, tg = voice_recording
    params = PipelineParams(formant_ceiling=5000.0, vowel_labels=frozenset({"AO1", "AA1"}))
    rec = extract_recording(ExtractionRequest(wav, tg, ("S",), params))[0]
    adapted = rec.provenance["pitch_adapted"]
    assert 0 < adapted["floor"] < adapted["ceiling"]
    settings = {**dataclasses.asdict(params), "vowel_labels": ["AA1", "AO1"]}
    assert rec.provenance == {"version": __version__, "settings": settings, "pitch_adapted": adapted}
    json.dumps(rec.provenance)  # the snapshot is plain data


def test_row_flattening(voice_recording):
    wav, tg = voice_recording
    s_rec, a_rec = extract_recording(ExtractionRequest(wav, tg, ("S", "a")))
    s_row = record_to_row(s_rec)
    a_row = record_to_row(a_rec)
    assert [k for k in S_FEATURES if s_row[k] is not None] == list(S_FEATURES)
    assert [k for k in S_FEATURES if a_row[k] is not None] == list(A_FEATURES)
    assert a_row["n_vowel_instances"] == 2


@st.composite
def synth_patterns(draw):
    """Random mixes of silence, noise, pulse-train and formant-voice segments, 0.05-1.5 s in all."""
    total = draw(st.floats(0.05, 1.5))
    shares = draw(st.lists(st.floats(0.1, 1.0), min_size=1, max_size=4))
    segments = []
    for share in shares:
        kind = draw(st.sampled_from(("silence", "noise", "pulse_train", "formant_voice")))
        formants = draw(st.lists(st.tuples(st.floats(200.0, 3500.0), st.floats(40.0, 300.0)), max_size=3))
        segments.append(
            SynthSpec(
                kind,
                total * share / sum(shares),
                f0=draw(st.floats(60.0, 450.0)),
                formants=tuple(formants) if kind == "formant_voice" else (),
                amplitude=draw(st.floats(0.001, 0.9)),
                seed=draw(st.integers(0, 3)),
            )
        )
    return segments, draw(st.floats(1e-4, 4.0))  # a gain above 1 clips


@settings(max_examples=25, deadline=None, derandomize=True)
@given(synth_patterns())
def test_any_pattern_gives_finite_or_coded_features(tmp_path_factory, case):
    segments, gain = case
    pattern = synth_pattern(segments)
    buf = pattern.buffer
    d = tmp_path_factory.mktemp("prop")
    wav = d / "p.wav"
    write_wav(AudioBuffer(np.clip(buf.signal * gain, -1.0, 1.0), buf.sample_rate), wav)
    # every segment aligned as an open vowel, so level a measures each one long enough to select
    vowels = tuple(Interval(e.start, e.end, "AA1") for e in pattern.events)
    tg = d / "p.TextGrid"
    tg.write_text(serialize_textgrid(TierSet(0.0, buf.duration, (Tier("phones", 0.0, buf.duration, vowels),))))
    records = extract_recording(ExtractionRequest(str(wav), str(tg), ("S", "a")))
    assert [rec.level for rec in records] == ["S", "a"]
    for rec, keys in zip(records, (S_FEATURES, A_FEATURES)):
        for key in keys:
            value = rec.features[key]
            assert (value is not None and np.isfinite(value)) or key in rec.errors, (rec.level, key, value, rec.errors)
