"""Pitch, intensity, harmonicity, spectral slope, and cepstral peak features.

Pitch uses the classic short-term autocorrelation method: per frame, the
window-compensated normalized autocorrelation yields several period
candidates plus an unvoiced candidate, and a dynamic-programming path
through the candidates minimizes octave jumps and voicing flips.  A frame
keeps at most ``PITCH_CANDIDATES - 1`` voiced candidates, its strongest
positive autocorrelation maxima, strongest first with ties in lag order;
the five strongest get band-limited (sinc) refinement, the rest a
parabola.  The public entry point runs it twice, adapting the search range
to the speaker's quartiles, which avoids the false high readings that a
fixed wide ceiling produces.

Framing, span selection, windows, spectra, autocorrelation, cepstra,
moving averages, frame peaks, peak refinement and trend lines are the
batched kernels of ``dsp``.  Each track runs them in ``dsp.chunk_map``
over chunks of frames whose widest per-row array fills ``dsp.CHUNK_BYTES``,
so a track's working memory stays a few tens of MB whatever the
recording's length, and the chunks run on every usable core, on the
helper threads of the recording's ``dsp.helper_scope``, with results that
do not depend on the core count.  A chunk computes every row it is given,
silent or not, by one path; ``kept`` marks the rows a mean reads.
Only the pitch path (``_best_path``) stays a sequential loop over its
chunks, because each frame's score depends on the one before.  CPP reads
no other track, so ``analysis`` queues the whole of ``cpp_track`` on a
helper at the first span reduction and reduces it last: it runs beside
both pitch passes, their paths included, and the tracks that read pitch.

The intensity contour, the timing detectors that read it and the voiced
spectra share one grid: 40 ms Hann frames every 10 ms (``FRAME_LEN``,
``HOP``); CPP takes the same frames every 2 ms.  Every analysis setting is
a module constant, so the package version pins each one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .audio_io import AudioBuffer
from .dsp import (
    center_and_window,
    chunk_map,
    chunk_rows,
    frame_centers,
    frame_peaks,
    gather_frames,
    gaussian_window,
    log_db_cepstrogram,
    moving_average,
    next_pow2,
    normalized_autocorrelation,
    parabolic_refine,
    power_spectra,
    sinc_refine,
    span,
    spectrum_bytes,
    Track,
    trend_lines,
    window_autocorr,
)
from .errors import InsufficientBandwidth, NoVoicedFrames, SilentSignal

DB_REF_PRESSURE = 2e-5  # full-scale amplitude 1.0 is treated as 1.0 reference units
_MSQ_FLOOR = 1e-30  # mean square of a frame without energy
# the level of a frame at the floor, with slack for rounding; one nonzero
# 32-bit PCM sample lifts the frame centred on it some 90 dB above this
_FLOOR_DB = 10.0 * math.log10(_MSQ_FLOOR / DB_REF_PRESSURE**2) + 1e-6

# the one frame grid of the intensity contour, timing and spectral slope;
# CPP reads the same frame length at its own step
FRAME_LEN = 0.040  # s, Hann window
HOP = 0.010  # s


# ---------------------------------------------------------------------------
# pitch


# autocorrelation pitch settings, after common analysis defaults
PITCH_STEP = 0.010  # s between frame centres
PITCH_PERIODS_PER_WINDOW = 3.0  # periods of the floor per effective window
PITCH_CANDIDATES = 15  # per frame, the unvoiced candidate included
PITCH_SILENCE_THRESHOLD = 0.03  # frame peak against the recording's peak
PITCH_VOICING_THRESHOLD = 0.45
PITCH_OCTAVE_COST = 0.01  # strength bonus per octave above the floor
PITCH_OCTAVE_JUMP_COST = 0.35  # per octave moved between frames
PITCH_VOICED_UNVOICED_COST = 0.14
# the range of the exploratory pass, in Hz
EXPLORE_FLOOR = 50.0
EXPLORE_CEILING = 600.0


@dataclass(frozen=True)
class PitchTrack:
    """Frame times and fundamental frequency; f0 is 0 on unvoiced frames.

    ``floor`` and ``ceiling`` are the search range in Hz the track was made
    with, which HNR reads; the other tracks read its voicing.  So it keeps
    its own shape, not a ``dsp.Track``'s, with the same ``over``.
    """

    times: np.ndarray
    f0: np.ndarray
    floor: float
    ceiling: float

    @property
    def voiced(self) -> np.ndarray:
        return self.f0 > 0

    @property
    def voiced_f0(self) -> np.ndarray:
        return self.f0[self.voiced]

    def over(self, t0: float, t1: float) -> np.ndarray:
        """The f0 of the voiced frames in [t0, t1], as ``Track.over`` selects a span."""
        f0 = self.f0[span(self.times, t0, t1)]
        return f0[f0 > 0]

    def voiced_at_many(self, ts: np.ndarray) -> np.ndarray:
        """Voicing state of the nearest frame (within half a step) per query time."""
        ts = np.asarray(ts, dtype=np.float64)
        if len(self.times) == 0:
            return np.zeros(ts.shape, dtype=bool)
        right = np.searchsorted(self.times, ts)
        left = np.clip(right - 1, 0, len(self.times) - 1)
        right = np.clip(right, 0, len(self.times) - 1)
        pick_right = np.abs(self.times[right] - ts) < np.abs(self.times[left] - ts)
        nearest = np.where(pick_right, right, left)
        close = np.abs(self.times[nearest] - ts) <= 0.5 * PITCH_STEP + 1e-9
        return close & (self.f0[nearest] > 0)


def pitch_track(buf: AudioBuffer, floor: float, ceiling: float) -> PitchTrack:
    """Single-pass autocorrelation pitch analysis over a canonical buffer, searching floor-ceiling Hz."""
    if not 0 < floor < ceiling:
        raise ValueError("need 0 < floor < ceiling")
    x = buf.signal
    rate = buf.sample_rate
    # gaussian: physical length = 2x effective
    centers, win_n = frame_centers(len(x), rate, 2.0 * PITCH_PERIODS_PER_WINDOW / floor, PITCH_STEP)

    lag_min = max(2, int(math.floor(rate / ceiling)))
    lag_max = min(win_n // 2 - 2, int(math.ceil(rate / floor)))
    if lag_max <= lag_min + 1:
        raise ValueError("pitch range too narrow for this sample rate")
    lag_ext = min(win_n - 2, lag_max + 32)  # headroom for sinc interpolation

    window = gaussian_window(win_n)
    nfft = next_pow2(win_n + lag_ext + 1)
    rw = window_autocorr(window, nfft, lag_ext)
    global_peak = float(max(x.max(), -x.min()))  # x holds at least one frame

    n_frames = len(centers)
    freqs_mat = np.zeros((n_frames, PITCH_CANDIDATES))
    strengths_mat = np.full((n_frames, PITCH_CANDIDATES), -np.inf)
    vt, st = PITCH_VOICING_THRESHOLD, PITCH_SILENCE_THRESHOLD

    def candidates(rows: slice) -> None:
        """Column 0 of a frame is its unvoiced candidate, the next its voiced ones, strongest first."""
        frames = center_and_window(gather_frames(x, centers[rows], win_n), window)
        r, dead = normalized_autocorrelation(frames, nfft, rw)
        rel = np.where(dead, 0.0, frame_peaks(x, centers[rows], win_n) / max(global_peak, 1e-30))
        freqs, strengths = freqs_mat[rows], strengths_mat[rows]
        strengths[:, 0] = vt + np.maximum(0.0, 2.0 - rel / (st / (1.0 + vt)))

        # the positive local maxima of each row, the strongest few kept, ties in lag order
        seg = r[:, lag_min : lag_max + 1]
        inner = seg[:, 1:-1]
        peak = (inner > seg[:, :-2]) & (inner > seg[:, 2:]) & (inner > 0)
        order = np.argsort(np.where(peak, -inner, np.inf), axis=1, kind="stable")[:, : PITCH_CANDIDATES - 1]
        at, rank = np.nonzero(np.take_along_axis(peak, order, axis=1))  # by row, then strongest first
        ks = order[at, rank] + lag_min + 1

        # band-limited interpolation for the plausible winners, a parabola for the rest
        lags = ks.astype(np.float64)
        vals = np.empty(len(ks))
        fine = rank < 5
        lags[fine], vals[fine] = sinc_refine(r, at[fine], ks[fine])
        coarse = ~fine
        c_at, c_ks = at[coarse], ks[coarse]
        neighbours = r[c_at[:, None], c_ks[:, None] + np.arange(-1, 2)[None, :]]
        delta, vals[coarse] = parabolic_refine(neighbours, np.ones_like(c_ks), 0.5)
        lags[coarse] = c_ks + delta

        lag_s = np.clip(lags / rate, 1.0 / ceiling, 1.0 / floor)
        freqs[at, rank + 1] = 1.0 / lag_s
        strengths[at, rank + 1] = np.minimum(vals, 1.0) - PITCH_OCTAVE_COST * np.log2(floor * lag_s)

    chunk_map(n_frames, spectrum_bytes(nfft), candidates)

    path = _best_path(freqs_mat, strengths_mat)
    f0 = freqs_mat[np.arange(n_frames), path]
    return PitchTrack(centers / rate, f0, floor, ceiling)


def _best_path(freqs: np.ndarray, strengths: np.ndarray) -> np.ndarray:
    """Dynamic-programming candidate choice maximizing strength minus transition costs.

    Between adjacent frames, unvoiced-to-unvoiced is free, a voicing flip
    costs the fixed penalty, and voiced-to-voiced costs the octave-jump
    weight per octave moved.  The (cand, cand) costs of a ``CHUNK_BYTES``
    block of frame pairs are built in one array op.
    """
    n, n_cand = freqs.shape
    voiced = freqs > 0
    safe = np.where(voiced, freqs, 1.0)
    score = strengths[0].copy()
    back = np.zeros((n, n_cand), dtype=np.int64)
    cols = np.arange(n_cand)
    step = chunk_rows(8 * n_cand * n_cand)
    for start in range(1, n, step):
        cur = slice(start, min(n, start + step))
        prev = slice(start - 1, cur.stop - 1)
        pv = voiced[prev][:, :, None]
        cv = voiced[cur][:, None, :]
        # (frames, previous candidate, candidate), built in place; two
        # unvoiced candidates (safe frequency 1) cost log2(1) = 0
        costs = safe[cur][:, None, :] / safe[prev][:, :, None]
        np.log2(costs, out=costs)
        np.abs(costs, out=costs)
        costs *= PITCH_OCTAVE_JUMP_COST
        np.copyto(costs, PITCH_VOICED_UNVOICED_COST, where=pv != cv)
        for i, cost in enumerate(costs, start):
            total = score[:, None] - cost
            back[i] = np.argmax(total, axis=0)
            score = total[back[i], cols] + strengths[i]
    path = np.zeros(n, dtype=np.int64)
    path[-1] = int(np.argmax(score))
    for i in range(n - 1, 0, -1):
        path[i - 1] = back[i, path[i]]
    return path


def pitch_track_two_pass(buf: AudioBuffer) -> PitchTrack:
    """Two-pass pitch analysis with a speaker-adapted range.

    Pass 1 explores ``EXPLORE_FLOOR``-``EXPLORE_CEILING`` Hz; pass 2 re-runs
    with floor = 0.75 x Q1 and ceiling = 1.5 x Q3 of the voiced pass-1
    estimates.  The returned track carries the adapted range.
    """
    first = pitch_track(buf, EXPLORE_FLOOR, EXPLORE_CEILING)
    voiced = first.voiced_f0
    if voiced.size == 0:
        raise NoVoicedFrames("exploratory pass found no voicing")
    q1, q3 = np.quantile(voiced, [0.25, 0.75])
    return pitch_track(buf, 0.75 * float(q1), 1.5 * float(q3))


def pitch_stats(voiced: np.ndarray) -> tuple[float, float]:
    """Mean in Hz of the voiced f0 of a span (``PitchTrack.over``) and standard deviation of its semitones.

    The semitone transform (12 log2 of f0 against a 100 Hz reference) makes
    the spread invariant to multiplicative scaling of the contour.
    """
    if voiced.size == 0:
        raise NoVoicedFrames("track has no voiced frames")
    semitones = 12.0 * np.log2(voiced / 100.0)
    return float(np.mean(voiced)), float(np.std(semitones))


# ---------------------------------------------------------------------------
# intensity


INTENSITY_RANGE_DB = 30.0  # dB below the loudest frame that a mean still reads


def intensity_track(buf: AudioBuffer) -> Track:
    """Hann-weighted mean-square level per frame of the shared grid, in dB against the 2e-5 reference.

    A mean reads the frames that carry speech: those at most
    ``INTENSITY_RANGE_DB`` below the loudest frame of the whole track, so a
    mean shifts by exactly an applied gain and ignores lead-in silence.
    When every frame sits at the mean-square floor (no signal energy), it
    reads none.
    """
    x = buf.signal
    centers, win_n = frame_centers(len(x), buf.sample_rate, FRAME_LEN, HOP)
    w = np.hanning(win_n)
    wsum = float(np.sum(w))
    level = np.empty(len(centers))

    def levels(rows: slice) -> None:
        msq = (gather_frames(x, centers[rows], win_n) ** 2 @ w) / wsum
        level[rows] = 10.0 * np.log10(np.maximum(msq, _MSQ_FLOOR) / DB_REF_PRESSURE**2)

    chunk_map(len(centers), 8 * win_n, levels)
    peak = float(np.max(level))  # the grid holds at least one frame
    return Track(centers / buf.sample_rate, level, (level >= peak - INTENSITY_RANGE_DB) & (peak > _FLOOR_DB))


def intensity_mean(levels: np.ndarray) -> float:
    """Energy mean in dB of the speech frames of a span (``intensity_track(...).over``).

    Raises SilentSignal when the span holds none.
    """
    if len(levels) == 0:
        raise SilentSignal("no frame of the span above the silence floor")
    return 10.0 * math.log10(float(np.mean(10.0 ** (levels / 10.0))))


# ---------------------------------------------------------------------------
# harmonics-to-noise ratio


HNR_PERIODS_PER_WINDOW = 4.5  # gaussian window length in periods of the pitch floor


def hnr_track(buf: AudioBuffer, track: PitchTrack) -> Track:
    """Harmonics-to-noise ratio in dB, one row per voiced pitch frame whose window and period fit.

    For each voiced frame the window-compensated autocorrelation is
    evaluated at fractional lags around the tracked pitch period (exact
    band-limited interpolation via the cosine transform of the power
    spectrum); with r the peak value, HNR = 10 log10(r / (1 - r)), capped
    at 60 dB.  A mean reads the kept frames, those with signal; a row not kept is zero.
    """
    x = buf.signal
    rate = buf.sample_rate
    floor = track.floor
    win_n = int(round(2.0 * HNR_PERIODS_PER_WINDOW / floor * rate))
    window = gaussian_window(win_n)
    half = win_n // 2
    max_lag = min(win_n - 2, int(math.ceil(rate / floor)) + 4)
    nfft = next_pow2(win_n + max_lag + 1)
    n_bins = nfft // 2 + 1

    fold = np.full(n_bins, 2.0)
    fold[[0, -1]] = 1.0  # DC and Nyquist bins (nfft is even) appear once
    wpower = power_spectra(window[None, :], nfft)[0] * fold
    rw0 = float(wpower.sum())

    deltas = np.linspace(-2.0, 2.0, 41)
    k = np.arange(n_bins)
    # angle-addition split: cos(2 pi k (p + d) / nfft) built from per-frame
    # cos/sin at the period and fixed matrices at the offsets
    cos_d = np.cos(2.0 * np.pi * np.outer(deltas, k) / nfft)
    sin_d = np.sin(2.0 * np.pi * np.outer(deltas, k) / nfft)

    centers = np.round(track.times * rate).astype(int)
    periods = np.zeros(len(track.f0))
    vmask = track.voiced.copy()
    periods[vmask] = rate / track.f0[vmask]
    usable = (
        vmask
        & (centers - half >= 0)
        & (centers - half + win_n <= len(x))
        & (periods >= 2)
        & (periods + 2 < max_lag)
    )
    idx = np.flatnonzero(usable)
    values = np.zeros(len(idx))
    kept = np.zeros(len(idx), dtype=bool)

    def harmonicity(rows: slice) -> None:
        sel = idx[rows]
        frames = center_and_window(gather_frames(x, centers[sel], win_n), window)
        power = power_spectra(frames, nfft) * fold
        ang = 2.0 * np.pi * np.outer(periods[sel], k) / nfft
        ca, sa = np.cos(ang), np.sin(ang)
        rx = cos_d @ (power * ca).T - sin_d @ (power * sa).T  # (41, m)
        rx0 = power.sum(axis=1)
        rw = cos_d @ (wpower * ca).T - sin_d @ (wpower * sa).T
        good = rx0 > 0  # a frame without energy has none at lag 0
        r = np.zeros_like(rx)
        r[:, good] = (rx[:, good] / rx0[good]) / (rw[:, good] / rw0)
        _delta, val = parabolic_refine(r.T, np.argmax(r, axis=0), 1.0)
        val = np.clip(val, 1e-6, 1.0 - 1e-6)
        values[rows] = np.where(good, 10.0 * np.log10(val / (1.0 - val)), 0.0)
        kept[rows] = good

    chunk_map(len(idx), spectrum_bytes(nfft), harmonicity)
    return Track(track.times[idx], values, kept)


def hnr_mean(values: np.ndarray) -> float:
    """Mean HNR in dB of the frames of a span (``hnr_track(...).over``)."""
    if len(values) == 0:
        raise NoVoicedFrames("no analyzable voiced frames for harmonicity")
    return float(np.mean(values))


# ---------------------------------------------------------------------------
# spectral slope


SLOPE_BAND = (50.0, 5000.0)  # Hz, the range the line is fitted over


def voiced_frame_spectra(buf: AudioBuffer, track: PitchTrack) -> Track:
    """Power spectra of the voiced frames of the shared grid, one row each, on ``np.fft.rfftfreq``'s bins."""
    x = buf.signal
    centers, win_n = frame_centers(len(x), buf.sample_rate, FRAME_LEN, HOP)
    times = centers / buf.sample_rate
    keep = track.voiced_at_many(times)
    nfft = next_pow2(2 * win_n)
    w = np.hanning(win_n)
    kept = centers[keep]
    power = np.empty((len(kept), nfft // 2 + 1))

    def spectra(rows: slice) -> None:
        power[rows] = power_spectra(gather_frames(x, kept[rows], win_n) * w, nfft)

    chunk_map(len(kept), spectrum_bytes(nfft), spectra)
    return Track(times[keep], power, None)


def slope_from_spectrum(freqs: np.ndarray, power: np.ndarray) -> float:
    """Energy-weighted straight-line fit of level (dB) on log2 frequency over ``SLOPE_BAND``.

    The weights are the bin powers, so near-empty bins between harmonics do
    not drag the fit.  Requires energy in at least two octave bands of the
    fit range, otherwise the regression is degenerate.
    """
    lo, hi = SLOPE_BAND
    keep = (freqs >= lo) & (freqs <= hi) & (freqs > 0)
    f = freqs[keep]
    p = power[keep]
    total = float(np.sum(p))
    if total <= 0.0:
        raise SilentSignal("no energy in the slope band")
    octave_idx = np.floor(np.log2(f / lo)).astype(int)
    band_power = np.bincount(octave_idx, weights=p)
    # window leakage from a single component stays far below this share
    occupied = np.flatnonzero(band_power > 1e-6 * total)
    if len(occupied) < 2:
        raise InsufficientBandwidth("spectral energy spans fewer than two octave bands")
    w = p / total
    xlog = np.log2(f)
    y = 10.0 * np.log10(np.maximum(p, np.max(p) * 1e-12))
    xbar = float(np.sum(w * xlog))
    ybar = float(np.sum(w * y))
    var = float(np.sum(w * (xlog - xbar) ** 2))
    cov = float(np.sum(w * (xlog - xbar) * (y - ybar)))
    if var <= 0.0:
        raise InsufficientBandwidth("degenerate frequency spread")
    return cov / var


def spectral_slope(power: np.ndarray, rate: int) -> float:
    """Slope in dB/octave of the long-term average spectrum of a span's voiced frames, fitted over ``SLOPE_BAND``.

    ``power`` holds the rows of a span (``voiced_frame_spectra(...).over``)
    of a recording sampled at ``rate``.
    """
    if power.shape[0] == 0:
        raise NoVoicedFrames("no voiced frames for the long-term spectrum")
    ltas = power.mean(axis=0)
    return slope_from_spectrum(np.fft.rfftfreq(2 * (power.shape[1] - 1), 1.0 / rate), ltas)


# ---------------------------------------------------------------------------
# cepstral peak prominence


PRE_EMPHASIS_FROM = 50.0  # Hz, before CPP and formant analysis

# smoothed cepstral-peak settings; CPP frames are the 40 ms Hann frames of
# ``FRAME_LEN``, every ``CPP_STEP``
CPP_STEP = 0.002  # s
# the peak is searched between the periods of these two frequencies
CPP_SEARCH_FLOOR = 60.0  # Hz
CPP_SEARCH_CEILING = 330.0  # Hz
CPP_SMOOTH_TIME = 0.020  # s, moving average over frames
CPP_SMOOTH_QUEFRENCY = 0.0005  # s, moving average over quefrency
CPP_TREND_MIN_QUEFRENCY = 0.001  # s, where the trend-line fit starts
CPP_SILENCE_THRESHOLD = 0.03  # frame peak against the recording's peak


def pre_emphasize(x: np.ndarray, rate: int) -> np.ndarray:
    """First-difference pre-emphasis from ``PRE_EMPHASIS_FROM`` Hz, in one float64 copy of ``x``."""
    alpha = math.exp(-2.0 * math.pi * PRE_EMPHASIS_FROM / rate)
    y = np.empty(len(x))
    y[:1] = x[:1]
    np.multiply(x[:-1], -alpha, out=y[1:])
    y[1:] += x[1:]
    return y


def cpp_track(buf: AudioBuffer) -> Track:
    """Per-frame cepstral peak prominence in dB.

    A mean reads the frames whose local peak clears the silence threshold.
    Per frame, the smoothed dB power cepstrum is peak-picked inside the
    60-330 Hz quefrency band and referenced to a robust straight-line trend
    fit.
    """
    x = buf.signal
    rate = buf.sample_rate
    centers, win_n = frame_centers(len(x), rate, FRAME_LEN, CPP_STEP)
    n_frames = len(centers)
    # the silence gate: each frame's peak magnitude against the recording's
    # (an all-zero recording passes every frame here, but has no live frame)
    silence = CPP_SILENCE_THRESHOLD * max(x.max(), -x.min())
    emphasized = pre_emphasize(x, rate)
    w = np.hanning(win_n)

    nfft = next_pow2(2 * win_n)
    t_size = max(1, int(round(CPP_SMOOTH_TIME / CPP_STEP)))
    q_size = max(1, int(round(CPP_SMOOTH_QUEFRENCY * rate)))
    k_lo = max(2, int(math.ceil(rate / CPP_SEARCH_CEILING)))
    k_hi = min(nfft // 2 - 1, int(math.floor(rate / CPP_SEARCH_FLOOR)))
    k_trend = max(1, int(round(CPP_TREND_MIN_QUEFRENCY * rate)))
    quefrencies = np.arange(nfft // 2 + 1) / rate
    x_trend = quefrencies[k_trend:]

    included = np.zeros(n_frames, dtype=bool)
    values = np.zeros(n_frames)
    # each frame's time smoothing is the mean of the t_size frames from
    # ``before`` frames earlier, summed in one fixed order (the recording's
    # end frames repeat at its edges), so it does not depend on where a
    # chunk starts
    before = t_size // 2
    after = t_size - 1 - before

    def prominences(rows: slice) -> None:
        a, b = rows.start, rows.stop
        m = b - a
        padded = np.clip(np.arange(a - before, b + after), 0, n_frames - 1)
        frames = gather_frames(emphasized, centers[padded], win_n)
        frames *= w
        live = np.any(frames, axis=1)
        pc = log_db_cepstrogram(frames, nfft)
        # a frame without energy has no cepstrum: its zero row adds nothing to its neighbours' smoothing
        pc[~live] = 0.0
        np.square(pc, out=pc)
        smoothed = pc[0:m] + pc[1 : 1 + m]
        for j in range(2, t_size):
            smoothed += pc[j : j + m]
        smoothed /= t_size
        del pc
        level = moving_average(smoothed, q_size)
        del smoothed
        floors = np.maximum(level.max(axis=1, keepdims=True), 1e-30) * 1e-12
        np.maximum(level, floors, out=level)
        np.log10(level, out=level)
        level *= 10.0

        band = level[:, k_lo : k_hi + 1]
        mi = np.argmax(band, axis=1) + k_lo
        delta, peak_val = parabolic_refine(level, mi, 0.5)
        q_star = (mi + delta) / rate

        slope, intercept = trend_lines(level[:, k_trend:], x_trend)
        use = (frame_peaks(x, centers[rows], win_n) >= silence) & live[before : before + m]
        included[a:b] = use
        values[a:b] = np.where(use, peak_val - (intercept + slope * q_star), 0.0)

    chunk_map(n_frames, spectrum_bytes(nfft), prominences)
    return Track(centers / rate, values, included)


def cpp_mean(values: np.ndarray) -> float:
    """Mean cepstral peak prominence in dB of the non-silent frames of a span (``cpp_track(...).over``)."""
    if len(values) == 0:
        raise SilentSignal("no frames above the silence threshold")
    return float(np.mean(values))
