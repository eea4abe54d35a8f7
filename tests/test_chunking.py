"""Chunked frame loops: tracks do not depend on the chunk budget, and memory stays flat with duration."""

import tracemalloc

import numpy as np
import pytest

from repspeech import dsp
from repspeech.articulation import formant_track
from repspeech.audio_io import AudioBuffer
from repspeech.phonation import cpp_track, hnr_track, intensity_track, pitch_track_two_pass, voiced_frame_spectra
from repspeech.synth import SynthSpec, synth_pattern

RATE = 16000
VOWEL = ((700.0, 80.0), (1200.0, 90.0), (2600.0, 120.0))


def assert_same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def all_tracks(buf):
    pitch = pitch_track_two_pass(buf)
    return {
        "pitch": pitch,
        "intensity": intensity_track(buf),
        "hnr": hnr_track(buf, pitch),
        "spectra": voiced_frame_spectra(buf, pitch),
        "cpp": cpp_track(buf),
        "formants": formant_track(buf, pitch),
    }


def test_tracks_do_not_depend_on_the_chunk_budget(monkeypatch):
    buf = synth_pattern(
        [
            SynthSpec("silence", 0.2),
            SynthSpec("formant_voice", 0.7, f0=110.0, formants=VOWEL),
            SynthSpec("noise", 0.3, amplitude=0.05, seed=1),
            SynthSpec("pulse_train", 0.5, f0=160.0),
            SynthSpec("silence", 0.2),
        ],
        RATE,
    ).buffer
    monkeypatch.setattr(dsp, "CHUNK_BYTES", 40_000)  # 1-2 spectrum rows, 22 frame pairs per chunk
    small = all_tracks(buf)
    assert dsp.chunk_rows(dsp.spectrum_bytes(2048)) == 2
    monkeypatch.setattr(dsp, "CHUNK_BYTES", 1 << 40)  # every loop in one chunk
    whole = all_tracks(buf)

    assert_same_bytes(small["pitch"].times, whole["pitch"].times)
    assert_same_bytes(small["pitch"].f0, whole["pitch"].f0)
    for name in ("times", "f1", "f2", "valid"):
        assert_same_bytes(getattr(small["formants"], name), getattr(whole["formants"], name))
    for a, b in zip(small["spectra"], whole["spectra"]):
        assert_same_bytes(a, b)
    (t_small, cpp_small, inc_small), (t_whole, cpp_whole, inc_whole) = small["cpp"], whole["cpp"]
    assert_same_bytes(t_small, t_whole)
    assert_same_bytes(inc_small, inc_whole)
    assert 0 < inc_whole.sum() < len(inc_whole)
    assert_same_bytes(cpp_small, cpp_whole)
    # their BLAS products round differently with the number of rows; HNR
    # magnifies a rounding-level change of its peak r by 1 / (1 - r), up to
    # 1e6 at the 60 dB cap, so it is held to a dB bound
    assert_same_bytes(small["hnr"][0], whole["hnr"][0])
    np.testing.assert_allclose(small["hnr"][1], whole["hnr"][1], rtol=0, atol=1e-8)
    assert_same_bytes(small["intensity"].times, whole["intensity"].times)
    np.testing.assert_allclose(small["intensity"].level_db, whole["intensity"].level_db, rtol=1e-12, atol=0)


def tiled_voice(seconds: int) -> AudioBuffer:
    second = synth_pattern(
        [SynthSpec("formant_voice", 0.6, f0=110.0, formants=VOWEL), SynthSpec("noise", 0.4, amplitude=0.05)], RATE
    ).buffer.signal
    return AudioBuffer.mono(np.tile(second, seconds), RATE)


def traced_peak(track, buf):
    """Peak traced bytes while computing ``track(buf)``, and the number of frames it returns."""
    tracemalloc.start()
    try:
        out = track(buf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    times = out.times if hasattr(out, "times") else out[0]
    return peak, len(times)


# Memory a track may hold for the whole recording: float64 copies of the
# signal, and arrays with one entry (or one row of candidates) per frame.
# Pitch keeps |x| for the global peak and 15 candidates x 5 arrays of
# 8 bytes per frame; CPP keeps |x| and the pre-emphasized signal (plus its
# transient copy) and a few values per frame.
@pytest.mark.parametrize(
    "track, signal_copies, frame_bytes",
    [(pitch_track_two_pass, 1, 15 * 5 * 8), (cpp_track, 3, 64)],
    ids=["pitch_track_two_pass", "cpp_track"],
)
def test_track_memory_is_flat_with_duration(track, signal_copies, frame_bytes):
    short, long = tiled_voice(10), tiled_voice(30)
    peak_short, frames_short = traced_peak(track, short)
    peak_long, frames_long = traced_peak(track, long)
    whole_recording = 8 * signal_copies * (long.n_samples - short.n_samples) + frame_bytes * (frames_long - frames_short)
    assert peak_long - peak_short <= whole_recording + (1 << 20)
