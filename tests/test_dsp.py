"""Batched numerical kernels: framing, spans, spectra, autocorrelation, Burg, cepstra, peaks, lines."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
import scipy.fft
import scipy.signal
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.ndimage import maximum_filter1d, uniform_filter1d
from scipy.signal import find_peaks, firwin

from repspeech.dsp import (
    CHUNK_BYTES,
    RESAMPLE_KAISER_BETA,
    _bessel_i0,
    _largest_prime_factor,
    _resample_taps,
    center_and_window,
    chunk_map,
    frame_centers,
    frame_peaks,
    gather_frames,
    gaussian_window,
    local_maxima,
    log_db_cepstrogram,
    lpc_burg,
    moving_average,
    next_pow2,
    normalized_autocorrelation,
    parabolic_refine,
    power_spectra,
    resample_poly,
    runs,
    signal_power_spectrum,
    sinc_refine,
    span,
    Track,
    trend_lines,
    window_autocorr,
)
from repspeech.errors import OrderTooHigh, SignalTooShort
from repspeech.synth import synth_pulse_train

RATE = 16000


def assert_same_bits(got, expected):
    assert got.shape == expected.shape
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(expected).tobytes()


def pulse_frames(f0=200.0, length=0.060):
    n = int(length * RATE)
    x = synth_pulse_train(f0, length + 0.01, rate=RATE).signal[:n]
    return (x * np.hanning(n))[None, :]


def noise_frames(seeds, length=0.060):
    n = int(length * RATE)
    rows = []
    for seed in seeds:
        x = np.random.default_rng(seed).standard_normal(n)
        rows.append(0.5 * x / np.max(np.abs(x)) * np.hanning(n))
    return np.array(rows)


def hann_autocorrelation(frames, max_lag):
    n = frames.shape[1]
    nfft = next_pow2(n + max_lag + 1)
    return normalized_autocorrelation(frames, nfft, window_autocorr(np.hanning(n), nfft, max_lag))


# -- framing -------------------------------------------------------------------
# (at a rate of 1, the lengths given in seconds are lengths in samples)


def test_frame_count_arithmetic():
    centers, win_n = frame_centers(16000, RATE, 0.040, 0.010)
    assert win_n == 640
    assert len(centers) == 97
    assert centers[0] / RATE == pytest.approx(0.020)
    assert centers[1] - centers[0] == 160
    assert centers[-1] + 320 <= 16000


def test_single_frame_when_length_equals_duration():
    centers, _ = frame_centers(800, 1, 800, 160)
    assert list(centers) == [400]


def test_too_short_signal():
    with pytest.raises(SignalTooShort):
        frame_centers(480, 1, 640, 160)


def test_frames_are_windowed():
    x = np.arange(2000) / 2000.0
    centers, _ = frame_centers(len(x), 1, 800, 160)
    frames = gather_frames(x, centers, 800) * np.hanning(800)
    for c, frame in zip(centers, frames):
        np.testing.assert_array_equal(frame, x[c - 400 : c + 400] * np.hanning(800))


def test_gather_frames_equals_the_index_form():
    x = np.random.default_rng(3).normal(size=2880)
    win_n = 640
    centers, _ = frame_centers(len(x), 1, win_n, 160)
    assert centers[0] == win_n // 2 and centers[-1] + win_n // 2 == len(x)  # first and last frames touch the ends
    for c in (centers, centers[::-1], centers[[0]], centers[[-1]], np.zeros(0, dtype=int)):
        frames = gather_frames(x, c, win_n)
        expected = x[c[:, None] - win_n // 2 + np.arange(win_n)[None, :]]
        assert frames.shape == expected.shape and frames.tobytes() == expected.tobytes()
        assert frames.flags.c_contiguous and frames.flags.writeable and not np.shares_memory(frames, x)
    # no frame fits in a signal shorter than the window, but asking for none is not an error
    assert gather_frames(x[:100], np.zeros(0, dtype=int), win_n).shape == (0, win_n)


def test_chunks_cover_every_frame_in_order():
    n = 5000
    # a budget of 2,048 rows, and a row wider than the whole budget
    for row_bytes, sizes in ((CHUNK_BYTES // 2048, [2048, 2048, 904]), (CHUNK_BYTES + 1, [1] * n)):
        chunks = chunk_map(n, row_bytes, lambda rows: rows)
        assert [rows.stop - rows.start for rows in chunks] == sizes
        assert np.array_equal(np.concatenate([np.arange(n)[rows] for rows in chunks]), np.arange(n))
    assert chunk_map(0, 8, lambda rows: rows) == []


def test_frame_peaks_are_the_maximum_filter_at_the_centres():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(9000) * np.repeat(10.0 ** rng.uniform(-4, 0, 9), 1000)
    x[4000:4700] = 0.0
    for win_n, step_n in ((640, 32), (640, 640), (7, 1), (1, 3)):
        centers, _ = frame_centers(len(x), 1, win_n, step_n)
        expected = maximum_filter1d(np.abs(x), win_n)[centers]
        np.testing.assert_array_equal(frame_peaks(x, centers, win_n), expected)
        for rows in (slice(0, 1), slice(5, 9), slice(len(centers) - 3, len(centers)), slice(4, 4)):
            np.testing.assert_array_equal(frame_peaks(x, centers[rows], win_n), expected[rows])


# -- span selection ----------------------------------------------------------------


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.lists(st.integers(-3, 3), max_size=40),
    st.integers(-3, 3),
    st.integers(0, 4),
    st.integers(0, 4),
    st.integers(-3, 3),
)
def test_local_maxima_are_the_peaks_find_peaks_finds(values, edge, lead, trail, height):
    # quantized values make plateaus common, and edge runs make plateaus that touch an end
    x = 0.5 * np.array([edge] * lead + values + [edge] * trail, dtype=float)
    peaks = local_maxima(x)
    np.testing.assert_array_equal(peaks, find_peaks(x)[0])
    np.testing.assert_array_equal(peaks[x[peaks] >= 0.5 * height], find_peaks(x, height=0.5 * height)[0])


def _runs_loop(mask):
    """The scalar loop ``runs`` replaced in the pause detector: (value, start, stop) of each run."""
    out = []
    i = 0
    n = len(mask)
    while i < n:
        j = i
        while j < n and mask[j] == mask[i]:
            j += 1
        out.append((bool(mask[i]), i, j))
        i = j
    return out


@given(st.lists(st.booleans(), max_size=60))
@example([])
@example([True])
@example([False])
def test_runs_match_the_scalar_loop(values):
    mask = np.array(values, dtype=bool)
    starts, stops = runs(mask)
    assert [(bool(mask[a]), int(a), int(b)) for a, b in zip(starts, stops)] == _runs_loop(mask)


def test_center_and_window_is_the_out_of_place_product_in_place():
    rng = np.random.default_rng(3)
    frames = rng.standard_normal((5, 64)) + 0.7
    window = gaussian_window(64)
    expected = (frames - frames.mean(axis=1, keepdims=True)) * window
    out = center_and_window(frames, window)
    assert out is frames
    np.testing.assert_array_equal(out, expected)


def test_span_selects_what_the_bounds_mask_selects():
    times = np.array([0.0, 0.01, 0.02, 0.02, 0.03, 0.05, 0.08])
    bounds = [(0.0, 0.08), (0.01, 0.02), (0.02, 0.02), (0.015, 0.045), (-1.0, 0.0), (0.08, 9.0),
              (0.021, 0.029), (0.05, 0.01), (-2.0, -1.0), (0.09, 1.0)]
    for t0, t1 in bounds:
        mask = (times >= t0) & (times <= t1)
        np.testing.assert_array_equal(np.arange(len(times))[span(times, t0, t1)], np.flatnonzero(mask))
    assert times[span(np.zeros(0), 0.0, 1.0)].size == 0


def test_track_over_reads_the_kept_rows_of_the_span():
    times = np.array([0.0, 0.01, 0.02, 0.03, 0.04])
    values = np.arange(10.0).reshape(5, 2)
    every = Track(times, values, None)
    rows = every.over(0.01, 0.03)
    np.testing.assert_array_equal(rows, values[1:4])
    assert np.shares_memory(rows, values)  # a view: a whole-recording span copies nothing
    kept = Track(times, values, np.array([True, False, True, True, False]))
    np.testing.assert_array_equal(kept.over(0.01, 0.04), values[[2, 3]])
    assert kept.over(0.05, 1.0).shape == (0, 2)


# -- power spectrum --------------------------------------------------------------


def test_peak_bin_at_tone_frequency():
    t = np.arange(1024) / RATE
    frame = 0.5 * np.sin(2 * np.pi * 1000 * t) * np.hanning(1024)
    power = power_spectra(frame[None, :], 1024)[0]
    freqs = np.fft.rfftfreq(1024, 1.0 / RATE)
    assert abs(freqs[np.argmax(power)] - 1000) <= RATE / 1024


def test_zero_frame_gives_zero_spectrum():
    assert not np.any(power_spectra(np.zeros((1, 512)), 512))


def test_parseval_on_white_noise():
    frames = noise_frames(range(5))
    nfft = next_pow2(frames.shape[1])
    power = power_spectra(frames, nfft)
    # one-sided: interior bins stand for two, DC and Nyquist for one
    folded = power[:, 0] + 2.0 * power[:, 1:-1].sum(axis=1) + power[:, -1]
    np.testing.assert_allclose(folded / nfft, np.sum(frames**2, axis=1), rtol=1e-6)


def test_fft_linearity():
    rng = np.random.default_rng(21)
    x = rng.standard_normal(512)
    y = rng.standard_normal(512)
    a, b = 2.5, -0.75
    combined = np.fft.rfft(a * x + b * y)
    separate = a * np.fft.rfft(x) + b * np.fft.rfft(y)
    np.testing.assert_allclose(combined, separate, rtol=1e-6, atol=1e-9)


# -- power spectrum of a whole signal ------------------------------------------------


def splits(n):
    p = _largest_prime_factor(n)
    return n < p * p and p < n


def assert_is_rfft_power(x):
    """The single rfft's bits where the length does not split; within 1e-13 of the spectrum's maximum where it does."""
    expected = np.abs(np.fft.rfft(x)) ** 2
    got = signal_power_spectrum(x)
    if splits(len(x)):
        assert got.shape == expected.shape
        assert np.max(np.abs(got - expected)) <= 1e-13 * expected.max()
    else:
        assert_same_bits(got, expected)


def test_largest_prime_factor_by_trial_division():
    for n in range(1, 600):
        factors = [f for f in range(2, n + 1) if n % f == 0 and all(f % d for d in range(2, f))]
        assert _largest_prime_factor(n) == max(factors, default=1)


@pytest.mark.parametrize(
    "n, split",
    [
        # no prime factor above the square root, and primes, which have no split
        *((n, False) for n in (1, 2, 3, 4, 49, 75600, 1_024_000, 7, 4099, 65537)),
        *((n, True) for n in (2 * 4099, 5 * 65537, 19 * 4999, 1000 * 1009, 6)),
    ],
)
def test_power_spectrum_is_the_rfft_power(n, split):
    assert splits(n) == split
    assert_is_rfft_power(np.random.default_rng(n).standard_normal(n))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6000), st.integers(0, 2**32 - 1))
def test_power_spectrum_is_the_rfft_power_at_every_length(n, seed):
    assert_is_rfft_power(np.random.default_rng(seed).standard_normal(n))


# both lengths take several chunks of columns: few long phases, and many short ones
@pytest.mark.parametrize("n", [5 * 65537, 1000 * 1009])
def test_power_spectrum_bits_do_not_depend_on_the_core_count(n, monkeypatch):
    x = np.random.default_rng(n).standard_normal(n)
    spectra = []
    for cores in (1, 2):
        monkeypatch.setattr("repspeech.dsp.usable_cores", lambda: cores)
        spectra.append(signal_power_spectrum(x))
    assert_same_bits(spectra[0], spectra[1])


# -- autocorrelation -------------------------------------------------------------


def test_periodic_frame_peak_at_period():
    frames = pulse_frames(200.0)
    r, dead = hann_autocorrelation(frames, frames.shape[1] // 2)
    lag = RATE // 200
    assert not dead[0]
    assert r[0, 0] == pytest.approx(1.0)
    assert r[0, lag] >= 0.99


def test_white_noise_autocorrelation_low():
    frames = noise_frames(range(50))
    r, dead = hann_autocorrelation(frames, frames.shape[1] // 2)
    assert not np.any(dead)
    assert np.max(r[:, RATE // 1000 :]) < 0.3


def test_zero_energy_frame_is_dead_row():
    frames = np.vstack([np.zeros(480), noise_frames([0], 0.030)[0]])
    r, dead = hann_autocorrelation(frames, 240)
    assert list(dead) == [True, False]
    assert not np.any(r[0])
    alone, _ = hann_autocorrelation(frames[1:], 240)
    np.testing.assert_array_equal(r[1], alone[0])


def test_matches_brute_force_autocorrelation():
    """Window-compensated FFT path equals the direct O(n^2) definition."""
    rng = np.random.default_rng(11)
    n = 256
    window = np.hanning(n)
    xw = rng.standard_normal(n) * window
    r, _ = hann_autocorrelation(xw[None, :], 64)
    rx = np.array([np.dot(xw[: n - k], xw[k:]) for k in range(65)])
    rw = np.array([np.dot(window[: n - k], window[k:]) for k in range(65)])
    expected = np.clip((rx / rx[0]) / (rw / rw[0]), -1.0, 1.0)
    np.testing.assert_allclose(r[0], expected, atol=1e-10)


@pytest.mark.parametrize("n, nfft", [(641, 2048), (1500, 2048), (2057, 4096)])
def test_window_autocorrelation_is_the_frame_kernels_for_one_row(n, nfft):
    max_lag = min(n - 2, nfft - n - 1)
    for window in (gaussian_window(n), np.hanning(n)):
        r, dead = normalized_autocorrelation(window[None, :], nfft, np.ones(max_lag + 1))
        assert not dead[0]
        assert_same_bits(window_autocorr(window, nfft, max_lag), r[0])


# -- Burg linear prediction --------------------------------------------------------


def test_recovers_known_ar2_filter():
    # poles at 0.9 e^{+-j 0.3 pi}: a1 = -2 r cos(theta), a2 = r^2
    a1 = -2 * 0.9 * np.cos(0.3 * np.pi)
    a2 = 0.81
    rng = np.random.default_rng(5)
    x = rng.standard_normal(8192)
    from scipy.signal import lfilter

    y = lfilter([1.0], [1.0, a1, a2], x)
    coeffs = lpc_burg(y[1000:5096], 2)
    assert coeffs[1] == pytest.approx(a1, abs=1e-2)
    assert coeffs[2] == pytest.approx(a2, abs=1e-2)


def burg_reference(x, order):
    """The per-frame Burg recursion, one frame at a time."""
    a = np.zeros(order + 1)
    a[0] = 1.0
    fwd = x[1:].copy()
    bwd = x[:-1].copy()
    for i in range(order):
        den = float(np.dot(fwd, fwd) + np.dot(bwd, bwd))
        k = 0.0 if den <= np.finfo(float).tiny else -2.0 * float(np.dot(fwd, bwd)) / den
        prev = a.copy()
        a[1 : i + 2] = prev[1 : i + 2] + k * prev[i::-1]
        new_fwd = fwd[1:] + k * bwd[1:]
        bwd = bwd[:-1] + k * fwd[:-1]
        fwd = new_fwd
    return a


def test_batched_burg_matches_per_frame_recursion():
    frames = np.vstack([noise_frames(range(12)), pulse_frames(), np.zeros((1, 960))])
    coeffs = lpc_burg(frames, 10)
    assert coeffs.shape == (len(frames), 11)
    for row, frame in zip(coeffs, frames):
        np.testing.assert_allclose(row, burg_reference(frame, 10), rtol=0, atol=1e-12)
    np.testing.assert_array_equal(coeffs[-1], np.r_[1.0, np.zeros(10)])  # all-zero frame


def test_burg_filter_always_stable():
    for coeffs in lpc_burg(noise_frames(range(20)), 10):
        roots = np.roots(coeffs)
        assert np.all(np.abs(roots) < 1.0)


def test_order_too_high():
    with pytest.raises(OrderTooHigh):
        lpc_burg(np.ones((3, 8)), 8)


# -- real cepstrum ---------------------------------------------------------------


def test_pulse_train_cepstral_peak_at_period():
    ceps = log_db_cepstrogram(pulse_frames(200.0), 2048)[0]
    quefrencies = np.arange(len(ceps)) / RATE
    lo = int(0.002 * RATE)
    peak_q = quefrencies[lo + np.argmax(ceps[lo:])]
    assert abs(peak_q - 0.005) <= 1.0 / RATE


def test_noise_cepstrum_has_no_prominent_peak():
    ceps = log_db_cepstrogram(noise_frames(range(40)), 2048)
    quefrencies = np.arange(ceps.shape[1]) / RATE
    lo = int(0.001 * RATE)
    slope, intercept = trend_lines(ceps[:, lo:], quefrencies[lo:])
    residual = ceps[:, lo:] - (intercept[:, None] + slope[:, None] * quefrencies[None, lo:])
    assert np.max(residual) < 5.0


def test_cepstrum_zero_frame():
    frames = np.vstack([np.zeros(960), pulse_frames(200.0)[0]])
    ceps = log_db_cepstrogram(frames, 2048)
    # a flat floor spectrum: finite, with nothing past quefrency 0
    assert np.all(np.isfinite(ceps[0]))
    np.testing.assert_allclose(ceps[0, 1:], 0.0, atol=1e-9 * abs(ceps[0, 0]))
    np.testing.assert_array_equal(ceps[1], log_db_cepstrogram(frames[1:], 2048)[0])


def test_cepstrum_matches_inverse_fft():
    frames = np.vstack([noise_frames(range(8)), pulse_frames(), np.zeros((1, 960))])
    power = power_spectra(frames, 2048)
    floors = np.maximum(power.max(axis=1, keepdims=True) * 1e-12, np.finfo(float).tiny)
    level_db = 10.0 * np.log10(np.maximum(power, floors))
    expected = np.fft.irfft(level_db, 2048, axis=1)[:, :1025]
    ceps = log_db_cepstrogram(frames, 2048)
    peaks = np.abs(expected).max(axis=1, keepdims=True)
    assert np.all(np.abs(ceps - expected) <= 1e-12 * peaks)


@pytest.mark.parametrize("fft_size", [2048, 512])
def test_cepstrum_is_scipys_type_one_dct_bit_for_bit(fft_size):
    n = 3 * fft_size // 8
    rng = np.random.default_rng(fft_size)
    noise = rng.standard_normal((123, n)) * 10.0 ** rng.uniform(-6, 0, (123, 1))
    pulses = synth_pulse_train(200.0, 0.2, rate=RATE).signal[: 3 * n].reshape(3, n)
    stack = np.vstack([noise, pulses, np.zeros((1, n))]) * np.hanning(n)
    for rows in (1, 16, 17, 44, 127):  # a CPP chunk has 127 rows: 118 frames and their 9 halo frames
        frames = stack[-rows:]
        power = power_spectra(frames, fft_size)
        floors = np.maximum(power.max(axis=1, keepdims=True) * 1e-12, np.finfo(float).tiny)
        level_db = 10.0 * np.log10(np.maximum(power, floors))
        assert_same_bits(log_db_cepstrogram(frames, fft_size), scipy.fft.dct(level_db, type=1, axis=1) / fft_size)


@pytest.mark.parametrize("size", range(1, 12))
def test_moving_average_is_scipys_uniform_filter_bit_for_bit(size):
    rng = np.random.default_rng(size)
    for rows, n in itertools.product((1, 2, 5, 6, 127), (1, 2, 3, 5, 8, 13, 1025)):  # a CPP chunk has 127 rows
        x = rng.standard_normal((rows, n)) * 10.0 ** rng.uniform(-8, 8, (rows, 1))
        if rows > 1:
            x[-1] = -0.0  # a sum from 0.0 is +0.0, not -0.0
        got = moving_average(x, size)
        assert got.flags.c_contiguous
        assert_same_bits(got, uniform_filter1d(x, size, axis=1, mode="nearest"))


# the (up, down) of every resampling extraction does: 8-96 kHz input to the
# canonical 16 kHz, and 16 kHz to twice every formant ceiling from 3000 to
# 8000 Hz in 50 Hz steps
RESAMPLE_RATIOS = sorted(
    {Fraction(16000, r) for r in (8000, 11025, 12000, 22050, 24000, 32000, 44100, 48000, 88200, 96000)}
    | {Fraction(2 * ceiling, 16000) for ceiling in range(3000, 8001, 50)}
    - {Fraction(1)}
)


def test_resample_taps_are_scipys_kaiser_firwin_bit_for_bit():
    assert len(RESAMPLE_RATIOS) == 109
    for ratio in RESAMPLE_RATIOS:
        up, down = ratio.numerator, ratio.denominator
        numtaps = 20 * max(up, down) + 1
        alpha = (numtaps - 1) / 2.0
        beta = RESAMPLE_KAISER_BETA * np.sqrt(1 - ((np.arange(numtaps, dtype=np.float64) - alpha) / alpha) ** 2.0)
        assert_same_bits(_bessel_i0(beta), scipy.special.i0(beta))
        expected = firwin(numtaps, 1.0 / max(up, down), window=("kaiser", RESAMPLE_KAISER_BETA)) * up
        assert_same_bits(_resample_taps(up, down), expected)


@pytest.mark.parametrize("chunk_bytes", [CHUNK_BYTES, 1])
def test_resample_is_scipys_resample_poly_bit_for_bit_at_every_extraction_ratio(chunk_bytes, monkeypatch):
    # up to 2 * down samples fill one cycle of 2 * up outputs, the only chunk; at 1 byte every chunk is one cycle
    monkeypatch.setattr("repspeech.dsp.CHUNK_BYTES", chunk_bytes)
    for ratio in RESAMPLE_RATIOS:
        up, down = ratio.numerator, ratio.denominator
        rng = np.random.default_rng(up * 1000 + down)
        for n in (1, 2, 5, down + 1, 2 * down, 7 * down + 1):
            for x in (rng.uniform(-1.0, 1.0, n), -np.zeros(n)):  # a sum from +0.0 is +0.0
                expected = scipy.signal.resample_poly(x, up, down, window=("kaiser", RESAMPLE_KAISER_BETA))
                assert_same_bits(resample_poly(x, up, down), expected)


def test_bessel_i0_is_scipys_on_its_whole_range():
    x = np.concatenate([np.linspace(0.0, 8.0, 100_001), np.random.default_rng(0).uniform(0.0, 8.0, 100_000)])
    assert_same_bits(_bessel_i0(x), scipy.special.i0(x))


# -- peak refinement and lines ------------------------------------------------------


def test_parabolic_refine_exact_on_parabolas_and_inert_elsewhere():
    n = np.arange(9.0)
    y = np.vstack([
        5.0 - (n - 4.3) ** 2,  # vertex at 4.3, value 5
        5.0 - (n - 0.2) ** 2,  # maximum on the left edge
        np.ones(9),  # flat: no curvature
    ])
    delta, value = parabolic_refine(y, np.array([4, 0, 4]), 0.5)
    assert delta[0] == pytest.approx(0.3) and value[0] == pytest.approx(5.0)
    assert list(delta[1:]) == [0.0, 0.0]
    assert list(value[1:]) == [y[1, 0], 1.0]
    far, _ = parabolic_refine(y[:1], np.array([3]), 0.5)  # vertex 1.3 samples away
    assert far[0] == 0.5
    for out in parabolic_refine(y, np.zeros(0, dtype=np.int64), 0.5):  # no peak: empty floats
        assert out.dtype == np.float64 and out.shape == (0,)


def test_robust_line_exact_and_outlier_resistant():
    x = np.linspace(0, 1, 200)
    y = 3.0 * x + 1.0
    y_out = y.copy()
    y_out[::20] += 100.0  # 5% wild outliers
    slope, intercept = trend_lines(np.vstack([y, y_out]), x)
    assert slope[0] == pytest.approx(3.0, abs=1e-9)
    assert intercept[0] == pytest.approx(1.0, abs=1e-9)
    assert slope[1] == pytest.approx(3.0, abs=0.2)


@pytest.mark.parametrize("n", [200, 201, 1009, 1010])
def test_trend_line_medians_equal_numpy_median(n):
    rng = np.random.default_rng(n)
    x = np.sort(rng.uniform(0.0, 1.0, n))
    y = rng.standard_normal((7, n)) * 10.0 ** rng.uniform(-3, 3, (7, 1))
    y[0] = np.round(y[0])  # ties
    slope, intercept = trend_lines(y, x)
    h = n // 2
    expected = np.median((y[:, h:] - y[:, : n - h]) / (x[h:] - x[: n - h]), axis=1)
    np.testing.assert_array_equal(slope, expected)
    np.testing.assert_array_equal(intercept, np.median(y - expected[:, None] * x, axis=1))


def test_sinc_peak_recovers_fractional_maximum():
    # band-limited bumps: samples of cos around a fractional peak location;
    # the second is an even sequence peaking within the kernel depth of index 0
    n = np.arange(200)
    y = np.vstack([np.cos(2 * np.pi * 0.11 * (n - 100.37)), np.cos(2 * np.pi * n / 9.37)])
    loc, val = sinc_refine(y, np.array([0, 1]), np.array([100, 9]))
    np.testing.assert_allclose(loc, [100.37, 9.37], atol=0.01)
    np.testing.assert_allclose(val, 1.0, atol=1e-4)
    no_peak = np.zeros(0, dtype=np.int64)
    for out in sinc_refine(y, no_peak, no_peak):  # no peak: empty floats
        assert out.dtype == np.float64 and out.shape == (0,)


def test_gaussian_window_edges_near_zero():
    w = gaussian_window(256)
    assert w[0] == pytest.approx(0.0, abs=1e-5)
    assert w.max() <= 1.0
