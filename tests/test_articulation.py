"""Formant recovery and spectral moments."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repspeech
from repspeech.articulation import formant_track, spectral_moments
from repspeech.audio_io import AudioBuffer
from repspeech.errors import NoVoicedFrames, SilentSignal
from repspeech.phonation import pitch_track, pitch_track_two_pass
from repspeech.synth import synth_formant_voice, synth_noise, synth_silence

RATE = 16000


def voice_and_track(f0, formants, duration=2.0):
    buf = synth_formant_voice(f0, formants, duration)
    return buf, pitch_track_two_pass(buf)


def test_recovers_mid_vowel_resonators():
    buf, track = voice_and_track(120, ((700, 80), (1200, 90)))
    f1, f2 = formant_track(buf, track).means()
    assert f1 == pytest.approx(700, abs=50)
    assert f2 == pytest.approx(1200, abs=75)


def test_recovers_close_vowel_resonators():
    buf, track = voice_and_track(100, ((300, 80), (2300, 90)))
    f1, f2 = formant_track(buf, track).means()
    assert f1 == pytest.approx(300, abs=50)
    assert f2 == pytest.approx(2300, abs=75)


def test_unvoiced_noise_has_no_formant_frames():
    buf = synth_noise(1.0, rms=0.1, seed=0)
    track = pitch_track(buf, 50.0, 600.0)
    assert track.voiced_f0.size == 0
    with pytest.raises(NoVoicedFrames):
        formant_track(buf, track)


def test_f1_below_f2_on_every_valid_frame():
    buf, track = voice_and_track(120, ((500, 80), (1500, 90)))
    ft = formant_track(buf, track)
    assert np.all(ft.f1[ft.valid] < ft.f2[ft.valid])


def test_formants_gain_invariant():
    buf, track = voice_and_track(120, ((700, 80), (1200, 90)))
    ft = formant_track(buf, track)
    scaled = AudioBuffer.mono(buf.signal * 0.25, RATE)
    ft2 = formant_track(scaled, track)
    np.testing.assert_array_equal(ft.valid, ft2.valid)
    np.testing.assert_allclose(ft.f1[ft.valid], ft2.f1[ft2.valid], atol=1.0)
    np.testing.assert_allclose(ft.f2[ft.valid], ft2.f2[ft2.valid], atol=1.0)


# -- spectral moments -----------------------------------------------------------


def sine_buffer(freqs, amps, duration=1.0):
    t = np.arange(int(duration * RATE)) / RATE
    x = sum(a * np.sin(2 * np.pi * f * t) for f, a in zip(freqs, amps))
    return AudioBuffer.mono(0.8 * x / np.max(np.abs(x)), RATE)


def test_single_sine_point_mass():
    buf = sine_buffer([1000.0], [1.0])
    bin_width = RATE / buf.n_samples
    m = spectral_moments(buf)
    assert m.gravity == pytest.approx(1000.0, abs=bin_width)
    assert m.deviation <= 2 * bin_width


def test_two_sines_symmetric():
    buf = sine_buffer([500.0, 1500.0], [1.0, 1.0])
    bin_width = RATE / buf.n_samples
    m = spectral_moments(buf)
    assert m.gravity == pytest.approx(1000.0, abs=bin_width)
    assert m.deviation == pytest.approx(500.0, abs=2 * bin_width)


def test_uniform_noise_moments():
    gravities, deviations = [], []
    for seed in range(20):
        m = spectral_moments(synth_noise(1.0, rms=0.1, seed=seed))
        gravities.append(m.gravity)
        deviations.append(m.deviation)
    assert np.mean(gravities) == pytest.approx(4000.0, abs=100.0)
    assert np.mean(deviations) == pytest.approx(8000 / np.sqrt(12), abs=100.0)


def test_gravity_tracks_frequency_shift():
    a = spectral_moments(sine_buffer([1000.0], [1.0]))
    b = spectral_moments(sine_buffer([1250.0], [1.0]))
    bin_width = RATE / 16000
    assert b.gravity - a.gravity == pytest.approx(250.0, abs=bin_width)


def test_moments_match_direct_sum_oracle():
    buf = synth_noise(0.5, rms=0.1, seed=3)
    m = spectral_moments(buf)
    # independent direct-sum recompute over the same windowed spectrum
    x = buf.signal - buf.signal.mean()
    power = np.abs(np.fft.rfft(x * np.hanning(len(x)))) ** 2
    freqs = np.fft.rfftfreq(len(x), 1 / RATE)
    total = 0.0
    weighted = 0.0
    for f, p in zip(freqs, power):
        total += p
        weighted += f * p
    gravity = weighted / total
    spread = 0.0
    for f, p in zip(freqs, power):
        spread += (f - gravity) ** 2 * p
    deviation = np.sqrt(spread / total)
    assert m.gravity == pytest.approx(gravity, rel=1e-9)
    assert m.deviation == pytest.approx(deviation, rel=1e-9)


def rfft_moments(buf):
    x = buf.signal - buf.signal.mean()
    power = np.abs(np.fft.rfft(x * np.hanning(len(x)))) ** 2
    freqs = np.fft.rfftfreq(len(x), 1 / buf.sample_rate)
    gravity = np.sum(freqs * power) / np.sum(power)
    return gravity, math.sqrt(np.sum((freqs - gravity) ** 2 * power) / np.sum(power))


@pytest.mark.parametrize("n", [5 * 65537, 2 * 4099])
def test_moments_of_split_lengths_match_the_single_rfft(n):
    # a largest prime factor above sqrt(n) takes the two-factor transform
    buf = AudioBuffer(np.random.default_rng(n).uniform(-0.5, 0.5, n), RATE)
    m = spectral_moments(buf)
    gravity, deviation = rfft_moments(buf)
    assert m.gravity == pytest.approx(gravity, rel=1e-14)
    assert m.deviation == pytest.approx(deviation, rel=1e-14)


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_moments_of_a_long_bluestein_length_stay_small_in_memory():
    # 890,915 = 5 x 178,183 samples: one rfft of this length raises VmHWM by ~130 MB
    script = (
        "import numpy as np\n"
        "from repspeech.articulation import spectral_moments\n"
        "from repspeech.audio_io import AudioBuffer\n"
        "def hwm_mb():\n"
        "    with open('/proc/self/status') as fh:\n"
        "        return next(int(line.split()[1]) for line in fh if line.startswith('VmHWM')) / 1024\n"
        "buf = AudioBuffer(np.random.default_rng(7).uniform(-0.5, 0.5, 890915), 16000)\n"
        "before = hwm_mb()\n"
        "spectral_moments(buf)\n"
        "print(hwm_mb() - before)\n"
    )
    src = str(Path(repspeech.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert float(done.stdout) <= 80.0


def test_silent_segment():
    with pytest.raises(SilentSignal):
        spectral_moments(synth_silence(0.5))
