"""Test-signal generators and their ground-truth guarantees."""

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from scipy.signal import find_peaks

import repspeech
from repspeech import dsp
from repspeech.dsp import chunk_rows
from repspeech.errors import BadF0, BadResonator, RepSpeechError, SilentSignal
from repspeech.synth import (
    SynthSpec,
    _harmonic_count,
    add_noise,
    render_segment,
    synth_formant_voice,
    synth_noise,
    synth_pattern,
    synth_pulse_train,
    synth_silence,
    synth_tone,
)

RATE = 16000


def test_pulse_count_and_fundamental():
    buf = synth_pulse_train(200, 1.0, rate=RATE)
    x = buf.signal
    padded = np.concatenate([[-1.0], x, [-1.0]])  # the t=0 pulse sits on the edge
    peaks, _ = find_peaks(padded, height=0.5 * x.max())
    assert len(peaks) == 200
    spec = np.abs(np.fft.rfft(x))
    freqs = np.fft.rfftfreq(len(x), 1 / RATE)
    fundamental_bin = np.argmax(spec[: int(len(x) * 300 / RATE)])
    assert freqs[fundamental_bin] == pytest.approx(200, abs=1.0)


def test_pulse_spacing_85hz():
    buf = synth_pulse_train(85, 2.0, rate=RATE)
    x = buf.signal
    peaks, _ = find_peaks(x, height=0.5 * x.max())
    spacing = np.median(np.diff(peaks)) / RATE
    assert spacing == pytest.approx(1 / 85, abs=1 / RATE)


def test_pulse_band_limited():
    buf = synth_pulse_train(300, 0.5, rate=RATE)
    spec = np.abs(np.fft.rfft(buf.signal))
    freqs = np.fft.rfftfreq(buf.n_samples, 1 / RATE)
    near_nyquist = spec[freqs > RATE / 2 - 200]
    assert np.max(near_nyquist) < 1e-6 * np.max(spec)


@pytest.mark.parametrize("rate, duration", [(16000, 0.75), (44100, 0.1), (48000, 0.1)])
def test_pulse_train_is_the_whole_harmonic_sum_bit_for_bit(rate, duration):
    f0, n = 100.0, int(round(duration * rate))
    k = np.arange(1, 1000)
    k = k[k * f0 < 0.5 * rate]  # every harmonic below Nyquist
    assert n > 2 * chunk_rows(8 * len(k))  # summed over several row blocks
    raw = np.cos(2.0 * np.pi * f0 * np.outer(np.arange(n) / rate, k)).sum(axis=1)
    expected = raw * (0.3 / np.max(np.abs(raw)))
    assert synth_pulse_train(f0, duration, rate=rate).signal.tobytes() == expected.tobytes()


def test_rendering_a_pulse_train_starts_no_thread(monkeypatch):
    monkeypatch.setattr(dsp, "usable_cores", lambda: 3)  # a helper scope here could start two helpers
    started, start = [], threading.Thread.start

    def logged_start(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", logged_start)
    f0, duration = 100.0, 0.75
    assert duration * RATE > 2 * chunk_rows(8 * _harmonic_count(f0, RATE))  # several row blocks
    synth_pulse_train(f0, duration, rate=RATE)
    assert started == []


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_a_long_pulse_train_stays_small_in_memory():
    # the whole 160,000 x 79 harmonic table of 10 s at 100 Hz raises VmHWM by ~195 MB
    script = (
        "from repspeech.synth import synth_pulse_train\n"
        "def hwm_mb():\n"
        "    with open('/proc/self/status') as fh:\n"
        "        return next(int(line.split()[1]) for line in fh if line.startswith('VmHWM')) / 1024\n"
        "before = hwm_mb()\n"
        "synth_pulse_train(100.0, 10.0)\n"
        "print(hwm_mb() - before)\n"
    )
    src = str(Path(repspeech.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert float(done.stdout) < 40.0


def test_bad_f0():
    with pytest.raises(BadF0):
        synth_pulse_train(9000, 1.0, rate=RATE)


def test_formant_voice_envelope_peaks():
    f0 = 120
    buf = synth_formant_voice(f0, ((700, 80), (1200, 90)), 2.0, rate=RATE)
    spec = np.abs(np.fft.rfft(buf.signal))
    freqs = np.fft.rfftfreq(buf.n_samples, 1 / RATE)
    # harmonic amplitudes sample the resonance envelope
    harmonics = np.arange(f0, 2000, f0, dtype=float)
    amps = [spec[np.argmin(np.abs(freqs - h))] for h in harmonics]
    for target in (700, 1200):
        idx = int(np.argmin(np.abs(harmonics - target)))
        lo, hi = max(0, idx - 2), min(len(amps), idx + 3)
        local_best = harmonics[lo + int(np.argmax(amps[lo:hi]))]
        assert abs(local_best - target) <= f0


def test_zero_formants_is_pulse_train():
    a = synth_formant_voice(150, (), 1.0, rate=RATE)
    b = synth_pulse_train(150, 1.0, rate=RATE)
    np.testing.assert_array_equal(a.signal, b.signal)


def test_formant_above_nyquist():
    with pytest.raises(BadResonator):
        synth_formant_voice(120, ((9000, 80),), 1.0, rate=RATE)


def test_add_noise_hits_exact_snr():
    buf = synth_pulse_train(200, 1.0)
    noisy = add_noise(buf, 10.0, seed=4)
    noise = noisy.signal - buf.signal
    measured = 10 * np.log10(np.mean(buf.signal**2) / np.mean(noise**2))
    assert measured == pytest.approx(10.0, abs=0.1)


def test_add_noise_deterministic_and_inf():
    buf = synth_pulse_train(200, 0.5)
    a = add_noise(buf, 5.0, seed=9)
    b = add_noise(buf, 5.0, seed=9)
    np.testing.assert_array_equal(a.signal, b.signal)
    same = add_noise(buf, float("inf"), seed=9)
    np.testing.assert_array_equal(same.signal, buf.signal)


def test_add_noise_to_silence():
    with pytest.raises(SilentSignal):
        add_noise(synth_silence(0.5), 10.0)


def test_noise_rms_and_determinism():
    a = synth_noise(1.0, rms=0.1, seed=2)
    b = synth_noise(1.0, rms=0.1, seed=2)
    np.testing.assert_array_equal(a.signal, b.signal)
    assert np.sqrt(np.mean(a.signal**2)) == pytest.approx(0.1, rel=1e-9)


def test_noise_past_full_scale_is_refused_with_the_largest_rms_that_fits():
    with pytest.raises(RepSpeechError, match=r"fit an RMS of at most 0\.247$"):
        render_segment(SynthSpec("noise", 1.0, amplitude=0.9))
    buf = render_segment(SynthSpec("noise", 1.0, amplitude=0.247))  # the named level renders as asked
    assert np.max(np.abs(buf.signal)) <= 1.0
    assert np.sqrt(np.mean(buf.signal**2)) == pytest.approx(0.247, rel=1e-9)


def test_pattern_boundaries_sample_exact():
    pat = synth_pattern(
        [SynthSpec("tone", 2.0, f0=1000), SynthSpec("silence", 0.5), SynthSpec("tone", 2.0, f0=1000)]
    )
    buf = pat.buffer
    assert buf.duration == pytest.approx(4.5)
    assert [e.kind for e in pat.events] == ["tone", "silence", "tone"]
    assert pat.events[1].start == pytest.approx(2.0)
    assert pat.events[1].end == pytest.approx(2.5)
    gap = buf.signal[int(2.0 * RATE) : int(2.5 * RATE)]
    assert not np.any(gap)


def test_pattern_all_silence():
    pat = synth_pattern([SynthSpec("silence", 1.0)])
    assert not np.any(pat.buffer.signal)
    assert pat.buffer.n_samples == RATE


def test_synth_tone_range_check():
    with pytest.raises(BadF0):
        synth_tone(9000, 1.0, rate=RATE)
