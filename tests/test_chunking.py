"""Chunked frame loops: a row per analysed frame, results independent of chunk budget and core count, flat memory."""

import sys
import threading
import time
import tracemalloc
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repspeech import dsp
from repspeech.articulation import formant_track
from repspeech.audio_io import AudioBuffer, write_wav
from repspeech.cli import main
from repspeech.pipeline import ExtractionRequest, extract_recording
from repspeech.phonation import (
    PitchTrack, cpp_track, hnr_track, intensity_track, pitch_track_two_pass, voiced_frame_spectra
)
from repspeech.synth import SynthSpec, synth_pattern

RATE = 16000
VOWEL = ((700.0, 80.0), (1200.0, 90.0), (2600.0, 120.0))


def assert_same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def assert_same_track(a, b):
    for x, y in zip(a, b):  # times, values and kept, which both leave None or both set
        assert (x is None) == (y is None)
        if x is not None:
            assert_same_bytes(x, y)


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


def mixed_pattern() -> AudioBuffer:
    return synth_pattern(
        [
            SynthSpec("silence", 0.2),
            SynthSpec("formant_voice", 0.7, f0=110.0, formants=VOWEL),
            SynthSpec("noise", 0.3, amplitude=0.05, seed=1),
            SynthSpec("pulse_train", 0.5, f0=160.0),
            SynthSpec("silence", 0.2),
        ],
        RATE,
    ).buffer


def test_silent_voiced_frames_keep_their_rows():
    voice = SynthSpec("formant_voice", 0.5, f0=150.0, formants=VOWEL)
    buf = synth_pattern([voice, SynthSpec("silence", 0.5), voice], RATE).buffer
    times = np.arange(0.0, buf.duration, 0.01)
    pitch = PitchTrack(times, np.full(len(times), 150.0), 75.0, 600.0)  # voiced over the digital silence too
    for track in (hnr_track(buf, pitch), formant_track(buf, pitch)):
        assert len(track.times) == len(track.values) == len(track.kept)
        np.testing.assert_allclose(np.diff(track.times), 0.01)  # no frame left out, silent or not
        silent = (track.times > 0.6) & (track.times < 0.9)
        assert np.any(silent) and not np.any(track.kept[silent])
        assert not np.any(track.values[silent])
        assert np.all(track.kept[track.times < 0.4])
        np.testing.assert_array_equal(track.over(0.0, buf.duration), track.values[track.kept])
        assert len(track.over(0.6, 0.9)) == 0
    cpp = cpp_track(buf)  # every 2 ms frame, voiced or not
    np.testing.assert_allclose(np.diff(cpp.times), 0.002)
    silent = (cpp.times > 0.6) & (cpp.times < 0.9)
    assert np.any(silent) and not np.any(cpp.kept[silent])
    assert not np.any(cpp.values[silent])
    assert np.all(cpp.kept[(cpp.times < 0.4) | (cpp.times > 1.1)])


def test_tracks_do_not_depend_on_the_chunk_budget(monkeypatch):
    buf = mixed_pattern()
    monkeypatch.setattr(dsp, "CHUNK_BYTES", 40_000)  # 1-2 spectrum rows, 22 frame pairs per chunk
    small = all_tracks(buf)
    assert dsp.chunk_rows(dsp.spectrum_bytes(2048)) == 2
    monkeypatch.setattr(dsp, "CHUNK_BYTES", 1 << 40)  # every loop in one chunk
    whole = all_tracks(buf)

    assert_same_bytes(small["pitch"].times, whole["pitch"].times)
    assert_same_bytes(small["pitch"].f0, whole["pitch"].f0)
    for name in ("formants", "spectra", "cpp"):
        assert_same_track(small[name], whole[name])
    inc_whole = whole["cpp"].kept
    assert 0 < inc_whole.sum() < len(inc_whole)
    # their BLAS products round differently with the number of rows; HNR
    # magnifies a rounding-level change of its peak r by 1 / (1 - r), up to
    # 1e6 at the 60 dB cap, so it is held to a dB bound
    assert_same_bytes(small["hnr"].times, whole["hnr"].times)
    np.testing.assert_allclose(small["hnr"].values, whole["hnr"].values, rtol=0, atol=1e-8)
    assert_same_bytes(small["intensity"].times, whole["intensity"].times)
    np.testing.assert_allclose(small["intensity"].values, whole["intensity"].values, rtol=1e-12, atol=0)


def test_tracks_do_not_depend_on_the_core_count(monkeypatch):
    buf = mixed_pattern()
    chunk_threads = set()
    gather = dsp.gather_frames

    def recording_gather(*args):
        chunk_threads.add(threading.current_thread().name)  # each call starts fresh threads, named the same
        return gather(*args)

    for name in ("repspeech.phonation.gather_frames", "repspeech.articulation.gather_frames"):
        monkeypatch.setattr(name, recording_gather)
    monkeypatch.setattr(dsp, "CHUNK_BYTES", 40_000)  # hundreds of chunks to interleave
    monkeypatch.setattr(dsp, "usable_cores", lambda: 1)
    serial = all_tracks(buf)
    assert chunk_threads == {threading.current_thread().name}
    monkeypatch.setattr(dsp, "usable_cores", lambda: 4)  # three helpers, even on one core
    threaded = all_tracks(buf)
    assert 1 < len(chunk_threads) <= 4

    assert_same_bytes(serial["pitch"].times, threaded["pitch"].times)
    assert_same_bytes(serial["pitch"].f0, threaded["pitch"].f0)
    for name in ("intensity", "hnr", "spectra", "cpp", "formants"):
        assert_same_track(serial[name], threaded[name])


def test_chunk_map_under_contention(monkeypatch):
    """Eight threads and a short switch interval: each chunk runs once, in order, and the earliest error wins."""
    monkeypatch.setattr(dsp, "usable_cores", lambda: 8)
    ran = []

    def body(rows):
        ran.append(rows.start)
        if rows.start >= 40 and rows.start % 7 == 5:
            raise ValueError(rows.start)
        return rows.start

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        # one row per chunk: each row is wider than the whole budget
        assert dsp.chunk_map(5000, dsp.CHUNK_BYTES + 1, lambda rows: rows.start) == list(range(5000))
        for _ in range(20):
            ran.clear()
            with pytest.raises(ValueError, match="^40$"):
                dsp.chunk_map(5000, dsp.CHUNK_BYTES + 1, body)
            assert len(ran) == len(set(ran)) and set(range(41)) <= set(ran)
    finally:
        sys.setswitchinterval(interval)


def chunk_helpers_alive() -> bool:
    return any(t.name.startswith("repspeech-chunk") for t in threading.enumerate())


def test_no_helper_outlives_chunk_map(monkeypatch):
    monkeypatch.setattr(dsp, "usable_cores", lambda: 4)
    names = dsp.chunk_map(200, dsp.CHUNK_BYTES + 1, lambda rows: threading.current_thread().name)
    assert "MainThread" in names and len(set(names)) > 1
    assert not chunk_helpers_alive()

    ran = []

    def body(rows):
        if threading.current_thread().name == "MainThread":
            raise RuntimeError(rows.start)
        ran.append(rows.start)
        time.sleep(0.002)

    with pytest.raises(RuntimeError) as failed:
        dsp.chunk_map(1000, dsp.CHUNK_BYTES + 1, body)
    assert not chunk_helpers_alive()
    # the first chunk this thread ran failed, so of the chunks after it only
    # the few the three helpers took before the queue was dropped ran
    (first_failure,) = failed.value.args
    assert set(range(first_failure)) <= set(ran) and len(ran) < first_failure + 30
    finished = len(ran)
    time.sleep(0.05)
    assert len(ran) == finished


def test_a_bare_chunk_map_starts_no_more_helpers_than_it_queues(monkeypatch):
    monkeypatch.setattr(dsp, "usable_cores", lambda: 8)

    def helpers_alive(rows):
        return sum(t.name.startswith("repspeech-chunk") for t in threading.enumerate())

    # the first chunk is the caller's, so one helper runs the other
    assert dsp.chunk_map(2, dsp.CHUNK_BYTES + 1, helpers_alive) == [1, 1]
    assert not chunk_helpers_alive()


def test_a_chunk_failing_on_a_helper_stops_the_rest_of_its_map(monkeypatch):
    monkeypatch.setattr(dsp, "usable_cores", lambda: 4)
    ran = []

    def body(rows):
        ran.append(rows.start)
        if rows.start == 1:  # the chunk the first helper claims as it starts
            raise ValueError(rows.start)
        time.sleep(0.002)

    with pytest.raises(ValueError, match="^1$"):
        dsp.chunk_map(1000, dsp.CHUNK_BYTES + 1, body)
    assert not chunk_helpers_alive()
    assert len(ran) < 30


def test_an_interrupt_in_the_first_chunk_stops_chunk_map(monkeypatch):
    monkeypatch.setattr(dsp, "usable_cores", lambda: 4)
    ran = []

    def body(rows):
        if rows.start == 0:
            raise KeyboardInterrupt
        ran.append(rows.start)
        time.sleep(0.002)

    with pytest.raises(KeyboardInterrupt):
        dsp.chunk_map(1000, dsp.CHUNK_BYTES + 1, body)
    assert not chunk_helpers_alive()
    # the three helpers each claimed a chunk before this thread ran its first; few more ran
    assert 3 <= len(ran) < 30
    finished = len(ran)
    time.sleep(0.05)
    assert len(ran) == finished


OPENBLAS = dsp.openblas_threads()
needs_openblas = pytest.mark.skipif(OPENBLAS is None, reason="numpy bundles no OpenBLAS here")


@pytest.fixture
def blas_at_two():
    """numpy's OpenBLAS at two threads for the test, and its thread-count getter (None without OpenBLAS)."""
    if OPENBLAS is None:
        yield lambda: None
        return
    setter, getter = OPENBLAS
    before = getter()
    setter(2)
    yield getter
    setter(before)


@needs_openblas
def test_chunk_map_holds_openblas_at_one_thread_and_restores_it(monkeypatch, blas_at_two):
    monkeypatch.setattr(dsp, "usable_cores", lambda: 3)
    seen = dsp.chunk_map(200, dsp.CHUNK_BYTES + 1, lambda rows: (threading.current_thread().name, blas_at_two()))
    assert {count for _, count in seen} == {1} and len({name for name, _ in seen}) > 1  # helpers held too
    assert blas_at_two() == 2

    def failing(rows):
        if rows.start == 150:
            raise ValueError(blas_at_two())
        return blas_at_two()

    with pytest.raises(ValueError, match="^1$"):
        dsp.chunk_map(200, dsp.CHUNK_BYTES + 1, failing)
    assert blas_at_two() == 2
    monkeypatch.setattr(dsp, "usable_cores", lambda: 1)  # the plain loop of a pool worker
    assert dsp.chunk_map(3, dsp.CHUNK_BYTES + 1, lambda rows: blas_at_two()) == [1, 1, 1]
    assert blas_at_two() == 2


@needs_openblas
def test_openblas_hold_under_concurrent_chunk_maps(monkeypatch, blas_at_two):
    """Four callers at once, each with helpers: OpenBLAS stays at one thread until the last leaves."""
    monkeypatch.setattr(dsp, "usable_cores", lambda: 3)
    counts = []

    def caller():
        for _ in range(30):
            counts.extend(dsp.chunk_map(20, dsp.CHUNK_BYTES + 1, lambda rows: blas_at_two()))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(counts) == 4 * 30 * 20 and set(counts) == {1}
    assert blas_at_two() == 2


def test_openblas_hold_is_a_no_op_without_a_setter(monkeypatch, blas_at_two):
    monkeypatch.setattr(dsp, "openblas_threads", lambda: None)
    monkeypatch.setattr(dsp, "usable_cores", lambda: 3)
    before = blas_at_two()
    seen = dsp.chunk_map(50, dsp.CHUNK_BYTES + 1, lambda rows: (rows.start, blas_at_two()))
    assert seen == [(i, before) for i in range(50)]
    with pytest.raises(ZeroDivisionError):
        dsp.chunk_map(50, dsp.CHUNK_BYTES + 1, lambda rows: 1 / 0)


def chunk_threads_in_this_process() -> tuple[int, int, set[str]]:
    """Threads alive before and after a many-chunk map, and the threads that ran its chunks."""
    before = threading.active_count()
    names = dsp.chunk_map(1000, dsp.CHUNK_BYTES, lambda rows: threading.current_thread().name)
    return before, threading.active_count(), set(names)


def test_process_pool_after_helpers_runs_chunks_serially(monkeypatch, tmp_path):
    wavs = []
    for i, f0 in enumerate((110.0, 160.0)):
        path = tmp_path / f"P0{i}_condenser_D1_S1_Vowel.wav"
        buf = synth_pattern([SynthSpec("formant_voice", 1.0, f0=f0, formants=VOWEL), SynthSpec("silence", 0.2)], RATE)
        write_wav(buf.buffer, path)
        wavs.append(str(path))
    monkeypatch.setattr(dsp, "CHUNK_BYTES", 40_000)
    monkeypatch.setattr(dsp, "usable_cores", lambda: 1)
    serial = tmp_path / "serial.csv"
    assert main(["extract", *wavs, "-o", str(serial)]) == 0

    # chunks run on helpers in this process, then a pool of two workers (forked, where that is the default)
    monkeypatch.setattr(dsp, "usable_cores", lambda: 3)
    extract_recording(ExtractionRequest(wavs[0]))
    assert not chunk_helpers_alive()
    pooled = tmp_path / "pooled.csv"
    assert main(["extract", *wavs, "--threads", "2", "-o", str(pooled)]) == 0
    assert pooled.read_text() == serial.read_text()
    assert len(serial.read_text().splitlines()) == 3

    with ProcessPoolExecutor(1) as pool:
        before, after, names = pool.submit(chunk_threads_in_this_process).result(timeout=60)
    assert (after, names) == (before, {"MainThread"})


def tiled_voice(seconds: int) -> AudioBuffer:
    second = synth_pattern(
        [SynthSpec("formant_voice", 0.6, f0=110.0, formants=VOWEL), SynthSpec("noise", 0.4, amplitude=0.05)], RATE
    ).buffer.signal
    return AudioBuffer(np.tile(second, seconds), RATE)


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
# 8 bytes per frame; CPP keeps the pre-emphasized signal and a few values
# per frame (its silence gate reads x itself, one chunk at a time).
@pytest.mark.parametrize(
    "track, signal_copies, frame_bytes",
    [(pitch_track_two_pass, 1, 15 * 5 * 8), (cpp_track, 1, 64)],
    ids=["pitch_track_two_pass", "cpp_track"],
)
def test_track_memory_is_flat_with_duration(track, signal_copies, frame_bytes):
    short, long = tiled_voice(10), tiled_voice(30)
    peak_short, frames_short = traced_peak(track, short)
    peak_long, frames_long = traced_peak(track, long)
    whole_recording = 8 * signal_copies * (long.n_samples - short.n_samples) + frame_bytes * (frames_long - frames_short)
    assert peak_long - peak_short <= whole_recording + (1 << 20)
