"""Pitch, intensity, harmonicity, slope, and cepstral-peak features."""

import numpy as np
import pytest

from repspeech.audio_io import AudioBuffer
from repspeech.dsp import chunk_rows
from repspeech.errors import InsufficientBandwidth, NoVoicedFrames, SilentSignal
from repspeech.phonation import (
    PITCH_CANDIDATES,
    PITCH_OCTAVE_JUMP_COST,
    PITCH_VOICED_UNVOICED_COST,
    PRE_EMPHASIS_FROM,
    PitchTrack,
    _best_path,
    cpp_mean,
    cpp_track,
    hnr_mean,
    hnr_track,
    intensity_mean,
    intensity_track,
    pitch_stats,
    pitch_track_two_pass,
    pre_emphasize,
    spectral_slope,
    voiced_frame_spectra,
)
from repspeech.synth import add_noise, synth_noise, synth_silence

RATE = 16000


# -- pitch ---------------------------------------------------------------------


def test_two_pass_tracks_200hz(synth_cache):
    mean, _sd = pitch_stats(synth_cache.track(200))
    assert mean == pytest.approx(200.0, abs=2.0)


def test_two_pass_floor_adapts_below_default(synth_cache):
    track = synth_cache.track(85)
    mean, _sd = pitch_stats(track)
    assert mean == pytest.approx(85.0, abs=1.0)
    assert track.floor < 75.0


def test_silence_has_no_voicing():
    with pytest.raises(NoVoicedFrames):
        pitch_track_two_pass(synth_silence(2.0))


def test_track_respects_adapted_range(synth_cache):
    track = synth_cache.track(120)
    voiced = track.voiced_f0
    assert np.all(voiced >= track.floor)
    assert np.all(voiced <= track.ceiling)


def _track(values):
    f0 = np.asarray(values, dtype=float)
    times = np.arange(len(f0)) * 0.01
    return PitchTrack(times, f0, 50.0, 600.0)


def test_pitch_stats_constant():
    mean, sd = pitch_stats(_track([200.0] * 10))
    assert mean == 200.0
    assert sd == 0.0


def test_pitch_stats_octave_alternation():
    mean, sd = pitch_stats(_track([200.0, 400.0] * 8))
    assert sd == pytest.approx(6.0, abs=1e-12)
    assert mean == pytest.approx(300.0)


def test_semitone_sd_scale_invariant():
    base = [180.0, 200.0, 260.0, 150.0, 210.0]
    _, sd = pitch_stats(_track(base))
    for g in (0.5, 2.0, 3.0):
        mean_g, sd_g = pitch_stats(_track([g * v for v in base]))
        assert sd_g == pytest.approx(sd, abs=1e-9)
        assert mean_g == pytest.approx(g * np.mean(base))


def test_tracks_modulated_contour_with_known_spread():
    """Vibrato oracle: sinusoidal semitone modulation has SD = depth / sqrt(2)."""
    depth_st = 1.0
    rate_mod = 3.0
    n = 2 * RATE
    t = np.arange(n) / RATE
    f0_inst = 200.0 * 2 ** (depth_st * np.sin(2 * np.pi * rate_mod * t) / 12.0)
    phase = 2 * np.pi * np.cumsum(f0_inst) / RATE
    k = np.arange(1, int(RATE / 2 / f0_inst.max()))
    x = np.cos(np.outer(phase, k)).sum(axis=1)
    buf = AudioBuffer.mono(0.3 * x / np.max(np.abs(x)), RATE)
    track = pitch_track_two_pass(buf)
    mean, sd = pitch_stats(track)
    assert mean == pytest.approx(200.0, abs=2.0)
    assert sd == pytest.approx(depth_st / np.sqrt(2), abs=0.07)


def test_pitch_gain_invariant(synth_cache):
    buf = synth_cache.pulse(200)
    track = synth_cache.track(200)
    scaled = AudioBuffer.mono(buf.signal * 0.5, RATE)
    track2 = pitch_track_two_pass(scaled)
    assert len(track.f0) == len(track2.f0)
    np.testing.assert_allclose(track2.f0, track.f0, atol=0.1)


def best_path_reference(freqs, strengths):
    """The Viterbi path with the transition costs built one frame pair at a time."""
    n = freqs.shape[0]
    score = strengths[0].copy()
    back = np.zeros((n, freqs.shape[1]), dtype=np.int64)
    for i in range(1, n):
        pv, cv = freqs[i - 1] > 0, freqs[i] > 0
        cost = np.where(pv[:, None] != cv[None, :], PITCH_VOICED_UNVOICED_COST, 0.0)
        safe_prev, safe_cur = np.where(pv, freqs[i - 1], 1.0), np.where(cv, freqs[i], 1.0)
        jumps = PITCH_OCTAVE_JUMP_COST * np.abs(np.log2(safe_cur[None, :] / safe_prev[:, None]))
        total = score[:, None] - np.where(pv[:, None] & cv[None, :], jumps, cost)
        back[i] = np.argmax(total, axis=0)
        score = total[back[i], np.arange(total.shape[1])] + strengths[i]
    path = np.zeros(n, dtype=np.int64)
    path[-1] = int(np.argmax(score))
    for i in range(n - 1, 0, -1):
        path[i - 1] = back[i, path[i]]
    return path


def test_best_path_equals_per_frame_recursion():
    rng = np.random.default_rng(3)
    n_cand = PITCH_CANDIDATES
    n = 2 * chunk_rows(8 * n_cand * n_cand) + 37  # three blocks of frame-pair costs
    freqs = rng.uniform(75.0, 600.0, (n, n_cand))
    strengths = rng.uniform(0.0, 1.0, (n, n_cand))
    freqs[:, 0] = 0.0  # the unvoiced candidate
    # frames with fewer voiced candidates leave empty slots, as _chunk_candidates does
    n_voiced = rng.integers(0, n_cand, n)
    empty = np.arange(n_cand)[None, :] > n_voiced[:, None]
    freqs[empty] = 0.0
    strengths[empty] = -np.inf
    np.testing.assert_array_equal(_best_path(freqs, strengths), best_path_reference(freqs, strengths))


# -- intensity --------------------------------------------------------------------


def full_scale_sine(duration=1.0, freq=1000.0, amp=1.0):
    t = np.arange(int(duration * RATE)) / RATE
    return AudioBuffer.mono(amp * np.sin(2 * np.pi * freq * t), RATE)


def test_intensity_closed_form():
    level = intensity_mean(intensity_track(full_scale_sine()), 0.0, 1.0)
    assert level == pytest.approx(10 * np.log10(0.5 / (2e-5) ** 2), abs=0.05)


def test_intensity_gain_law():
    full = intensity_mean(intensity_track(full_scale_sine()), 0.0, 1.0)
    half = intensity_mean(intensity_track(full_scale_sine(amp=0.5)), 0.0, 1.0)
    assert full - half == pytest.approx(6.02, abs=0.05)


def test_intensity_silence():
    with pytest.raises(SilentSignal):
        intensity_mean(intensity_track(synth_silence(1.0)), 0.0, 1.0)


def test_intensity_energy_outside_every_frame_is_silent():
    # the three nonzero samples follow the last frame, so every frame sits at the floor
    buf = AudioBuffer.mono(np.r_[np.zeros(RATE), 1e-3 * np.ones(3)], RATE)
    with pytest.raises(SilentSignal):
        intensity_mean(intensity_track(buf), 0.0, buf.duration)


# -- harmonics-to-noise ratio --------------------------------------------------------


def test_clean_pulse_train_hnr(synth_cache):
    buf = synth_cache.pulse(200)
    assert hnr_mean(hnr_track(buf, synth_cache.track(200)), 0.0, buf.duration) >= 40.0


def test_hnr_near_snr(synth_cache):
    noisy = add_noise(synth_cache.pulse(200), 10.0, seed=1)
    track = pitch_track_two_pass(noisy)
    assert hnr_mean(hnr_track(noisy, track), 0.0, noisy.duration) == pytest.approx(10.0, abs=2.0)


def test_hnr_monotone_in_noise(synth_cache):
    buf = synth_cache.pulse(200)
    values = []
    for snr in (5.0, 15.0, 25.0):
        noisy = add_noise(buf, snr, seed=2)
        values.append(hnr_mean(hnr_track(noisy, pitch_track_two_pass(noisy)), 0.0, noisy.duration))
    assert values[0] < values[1] < values[2]


# -- spectral slope --------------------------------------------------------------------


def test_flat_envelope_slope(synth_cache):
    buf = synth_cache.pulse(200)
    slope = spectral_slope(voiced_frame_spectra(buf, synth_cache.track(200)), 0.0, buf.duration)
    assert slope == pytest.approx(0.0, abs=1.0)


def tilted_pulse_train(f0=200.0, duration=2.0, db_per_octave=-6.0):
    """Harmonic sum whose amplitude envelope falls exactly as specified."""
    n = int(duration * RATE)
    t = np.arange(n) / RATE
    k = np.arange(1, int(np.floor(RATE / 2 / f0)))
    amps = (k * f0) ** (db_per_octave / 6.0206)  # amplitude ~ f^(dB/6.02)
    x = (amps * np.cos(2 * np.pi * f0 * np.outer(t, k))).sum(axis=1)
    return AudioBuffer.mono(0.3 * x / np.max(np.abs(x)), RATE)


def test_tilted_envelope_slope():
    buf = tilted_pulse_train(db_per_octave=-6.0)
    track = pitch_track_two_pass(buf)
    spectra = voiced_frame_spectra(buf, track)
    assert spectral_slope(spectra, 0.0, buf.duration) == pytest.approx(-6.0, abs=1.0)


def test_pure_sine_slope_degenerate():
    buf = full_scale_sine(duration=2.0, freq=1000.0, amp=0.3)
    track = pitch_track_two_pass(buf)
    with pytest.raises(InsufficientBandwidth):
        spectral_slope(voiced_frame_spectra(buf, track), 0.0, buf.duration)


# -- cepstral peak prominence ------------------------------------------------------------


def test_cpp_pulse_train_strong(synth_cache):
    buf = synth_cache.pulse(200)
    assert cpp_mean(cpp_track(buf), 0.0, buf.duration) > 15.0


def test_cpp_orders_pulse_above_noise(synth_cache):
    pulse = synth_cache.pulse(200)
    pulse_cpp = cpp_mean(cpp_track(pulse), 0.0, pulse.duration)
    for seed in range(3):
        noise = synth_noise(2.0, rms=0.1, seed=seed)
        assert cpp_mean(cpp_track(noise), 0.0, noise.duration) < pulse_cpp


def test_cpp_silence():
    with pytest.raises(SilentSignal):
        cpp_mean(cpp_track(synth_silence(1.0)), 0.0, 1.0)


def test_pre_emphasis_is_a_first_difference():
    rng = np.random.default_rng(5)
    for rate in (16000, 11025):
        alpha = np.exp(-2.0 * np.pi * PRE_EMPHASIS_FROM / rate)
        for x in (np.zeros(0), np.array([0.25]), rng.standard_normal(4001)):
            expected = np.r_[x[:1], x[1:] - alpha * x[:-1]]
            y = pre_emphasize(x, rate)
            assert y.dtype == np.float64
            assert y.tobytes() == expected.tobytes()
