"""Formant recovery and spectral moments."""

import numpy as np
import pytest

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


def test_silent_segment():
    with pytest.raises(SilentSignal):
        spectral_moments(synth_silence(0.5))
