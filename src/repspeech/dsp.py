"""The batched numerical kernels that the feature extractors run.

Each operation has one kernel here, and each kernel works on many frames
at once, one frame per row: framing (frame centres, frame gathering),
span selection over frame times, the gaussian analysis window, power
spectra, window-compensated normalized autocorrelation, dB cepstra, Burg
linear prediction, parabolic and tapered-sinc peak refinement, and robust
trend lines.  Two kernels work on one signal: the local maxima of a
contour, and polyphase resampling.  Both give scipy's ``find_peaks`` and
``resample_poly`` results bit for bit, so extraction never loads scipy's
signal package.  Every kernel is a pure function over numpy arrays; the
feature modules compose them into the extractors.

``chunk_map`` is the one frame loop.  It splits a track's frames into
chunks whose widest per-row array fills ``CHUNK_BYTES`` and runs the
chunks on every usable core: each call starts one helper thread per other
core, the calling thread runs every chunk no helper has taken yet, and
the helpers are gone when the call returns, so no thread outlives it.
numpy, scipy.fft, scipy.ndimage and BLAS release the GIL on these arrays,
so the threads run in parallel.  The chunks do not depend on the number
of threads, so neither do the results, bit for bit.  A process started by
``multiprocessing`` (an ``extract --threads N`` pool worker) runs its
chunks in a plain loop.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, TypeVar

import numpy as np
import scipy.fft
import scipy.special
from numpy.lib.stride_tricks import sliding_window_view

from .errors import OrderTooHigh, SignalTooShort

# Bytes of the widest per-row array a chunk loop holds at once.  Sizing every
# chunk by bytes, not rows, keeps each loop's working set near the core's
# cache and its memory flat with duration, whatever the row width.  2 MiB
# (one core's L2 on the benchmark host) ran fastest of 1 to 16 MiB there.
CHUNK_BYTES = 2 << 20

T = TypeVar("T")


def next_pow2(n: int) -> int:
    p = 1
    while p < n:
        p *= 2
    return p


def gaussian_window(n: int) -> np.ndarray:
    """Gaussian analysis window of length n.

    It follows the e^-12 edge-value convention in which the effective
    analysis width is half the physical window length; that property is
    what makes autocorrelation window compensation accurate.
    """
    edge = np.exp(-12.0)
    x = (np.arange(n) - 0.5 * (n - 1)) / (0.5 * n)
    return (np.exp(-12.0 * x * x) - edge) / (1.0 - edge)


def frame_centers(n: int, win_n: int, step_n: int) -> np.ndarray:
    """Sample index of the centre of every whole ``win_n``-sample frame of an n-sample signal.

    Raises SignalTooShort when not one whole frame fits.
    """
    half = win_n // 2
    last = n - (win_n - half)
    if last < half:
        raise SignalTooShort(f"signal of {n} samples is shorter than one {win_n}-sample frame")
    return np.arange(half, last + 1, step_n)


def gather_frames(x: np.ndarray, centers: np.ndarray, win_n: int) -> np.ndarray:
    """The ``win_n``-sample frames of x around ``centers``, one per row, as a C-contiguous copy the caller may write."""
    if len(centers) == 0:  # also when x is shorter than one frame, where no window view exists
        return np.empty((0, win_n), dtype=x.dtype)
    return sliding_window_view(x, win_n)[centers - win_n // 2]


def chunk_rows(row_bytes: int) -> int:
    """Rows per chunk when the widest per-row array takes ``row_bytes``: CHUNK_BYTES worth, at least one."""
    return max(1, CHUNK_BYTES // row_bytes)


def spectrum_bytes(nfft: int) -> int:
    """Bytes per row of a complex ``nfft``-point rfft."""
    return 16 * (nfft // 2 + 1)


def chunk_map(n: int, row_bytes: int, body: Callable[[slice], T]) -> list[T]:
    """``[body(rows) for rows in chunks]`` over the ``chunk_rows(row_bytes)``-row slices of range(n), on all cores.

    ``row_bytes`` is the widest per-row array ``body`` derives from a row, so
    memory stays bounded whatever the length, and ``body`` gathers its own
    frames.  Each call starts up to one helper thread per other usable core
    and stops them before it returns.  Every chunk is queued for the
    helpers; the calling thread walks the queue in order and runs each chunk
    no helper has taken yet, then collects the results in chunk order.
    Chunks are the same whatever the number of threads and each is computed
    by one thread, so the result does not depend on the core count as long
    as each ``body`` writes only its own rows.  The error of the earliest
    failing chunk is raised, as in a plain loop; once the calling thread
    meets a failure or an interrupt, no further chunk starts.
    """
    step = chunk_rows(row_bytes)
    chunks = [slice(a, min(n, a + step)) for a in range(0, n, step)]
    # a process started by multiprocessing gets no helpers: its pool already puts one process on each core
    helpers = min(usable_cores() - 1, len(chunks) - 1) if multiprocessing.parent_process() is None else 0
    if helpers < 1:
        return [body(rows) for rows in chunks]
    pool = ThreadPoolExecutor(helpers, thread_name_prefix="repspeech-chunk")
    try:
        futures = [pool.submit(body, rows) for rows in chunks]
        mine: dict[int, T] = {}  # results of the chunks run by this thread
        for i, future in enumerate(futures):
            if future.cancel():  # no helper has taken it: run it here
                try:
                    mine[i] = body(chunks[i])
                except BaseException:
                    # every earlier chunk ran here or on a helper: wait for those, and raise the earliest error
                    pool.shutdown(cancel_futures=True)
                    for earlier in futures[:i]:
                        if not earlier.cancelled():
                            earlier.result()
                    raise
        return [mine[i] if i in mine else future.result() for i, future in enumerate(futures)]
    finally:
        pool.shutdown(cancel_futures=True)


def usable_cores() -> int:
    """The CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def span(times: np.ndarray, t0: float, t1: float) -> slice:
    """The frames of ascending ``times`` that lie in [t0, t1], as a slice (empty when none do)."""
    return slice(int(np.searchsorted(times, t0, "left")), int(np.searchsorted(times, t1, "right")))


def local_maxima(x: np.ndarray) -> np.ndarray:
    """Indices of the local maxima of x, the ones scipy's ``find_peaks`` finds.

    A maximum is a run of equal samples entered by a strict rise and left
    by a strict fall, so a run that touches either end of x is none; a
    plateau's index is its midpoint, ``(first + last) // 2``.
    """
    if len(x) < 3:
        return np.zeros(0, dtype=np.intp)
    starts = np.flatnonzero(np.concatenate(([True], x[1:] != x[:-1])))
    level = x[starts]
    lasts = np.append(starts[1:], len(x)) - 1
    peak = np.flatnonzero((level[1:-1] > level[:-2]) & (level[1:-1] > level[2:])) + 1
    return (starts[peak] + lasts[peak]) // 2


# the lowpass filter of ``resample_poly``: a Kaiser-windowed sinc of
# RESAMPLE_HALF_LENGTH x max(up, down) taps a side, cut at 1 / max(up, down)
# of the Nyquist frequency; beta 8.0 gives ~81 dB of stopband attenuation,
# past the 60 dB that keeps resampling aliases below feature-relevant levels
RESAMPLE_KAISER_BETA = 8.0
RESAMPLE_HALF_LENGTH = 10  # taps a side, per unit of max(up, down)


@functools.cache
def _resample_taps(up: int, down: int) -> np.ndarray:
    """The filter of ``resample_poly``, unit gain at DC, times ``up``, in scipy's ``firwin`` arithmetic step by step."""
    max_rate = max(up, down)
    numtaps = 2 * RESAMPLE_HALF_LENGTH * max_rate + 1
    cutoff = 1.0 / max_rate
    m = np.arange(numtaps, dtype=np.float64) - 0.5 * (numtaps - 1)
    h = cutoff * np.sinc(cutoff * m)
    alpha = (numtaps - 1) / 2.0
    ramp = 1 - ((np.arange(numtaps, dtype=np.float64) - alpha) / alpha) ** 2.0
    h *= scipy.special.i0(RESAMPLE_KAISER_BETA * np.sqrt(ramp)) / scipy.special.i0(np.float64(RESAMPLE_KAISER_BETA))
    h /= np.sum(h)
    h *= up
    h.flags.writeable = False  # shared by every call with these rates
    return h


def resample_poly(x: np.ndarray, up: int, down: int) -> np.ndarray:
    """Float64 x resampled by ``up / down`` (coprime, not both 1), bit for bit as
    scipy's ``resample_poly(x, up, down, window=("kaiser", RESAMPLE_KAISER_BETA))``.

    With h the filter, output o is the sum of ``x[s] * h[half + o * down -
    s * up]`` over the samples s the filter reaches, oldest first, added one
    tap at a time to +0.0 as scipy's ``upfirdn`` adds them.  Outputs come in
    cycles of ``up``, each with the same taps at offsets ``down`` samples
    apart, so the taps and sample offsets of one chunk of cycles serve every
    chunk: per tap, a chunk takes one gather, one multiply and one add.
    Samples past either end of x and taps past either end of h count as
    zeros, which leave every sum as it is (x must be finite).
    """
    h = _resample_taps(up, down)
    half = (len(h) - 1) // 2
    n_out = -(-len(x) * up // down)
    n_cycles = -(-n_out // up)
    # the samples in reach of each phase r of cycle 0, oldest to newest, padded in front to one count
    reach = half + np.arange(up) * down
    newest = reach // up
    taps = int(np.max(newest + (2 * half - reach) // up)) + 1
    offsets = newest[None, :] - (taps - 1) + np.arange(taps)[:, None]  # (taps, up)
    tap = reach[None, :] - offsets * up  # the tap of h each of those samples meets
    coefs = np.where(tap < len(h), h[np.minimum(tap, len(h) - 1)], 0.0)

    per_cycle = 16 * taps * up  # the offsets and coefficients a chunk holds per cycle
    cycles = min(chunk_rows(per_cycle), n_cycles)
    lo = int(offsets.min())
    # cycle p of a chunk reads the samples of cycle 0 p * down further on; from the chunk's first sample in reach
    rel = (offsets[:, None, :] + down * np.arange(cycles)[None, :, None] - lo).reshape(taps, cycles * up)
    coefs = np.tile(coefs, cycles)
    front = max(0, -lo)
    back = max(0, (n_cycles - 1) * down + int(offsets.max()) + 1 - len(x))
    padded = np.concatenate([np.zeros(front), x, np.zeros(back)])
    out = np.empty(n_cycles * up)

    def filtered(rows: slice) -> None:
        n = (rows.stop - rows.start) * up
        acc = out[rows.start * up : rows.stop * up]
        acc[:] = 0.0
        seg = padded[rows.start * down + lo + front :]
        term = np.empty(n)
        for j in range(taps):
            np.take(seg, rel[j, :n], out=term, mode="clip")  # in range by construction; "raise" would buffer out
            term *= coefs[j, :n]
            acc += term

    chunk_map(n_cycles, per_cycle, filtered)
    return out[:n_out]


def power_spectra(frames: np.ndarray, nfft: int) -> np.ndarray:
    """Squared rfft magnitudes of each row, zero-padded to ``nfft``."""
    return np.abs(np.fft.rfft(frames, nfft, axis=1)) ** 2


def window_autocorr(window: np.ndarray, nfft: int, max_lag: int) -> np.ndarray:
    """The window's own autocorrelation up to ``max_lag``, normalized to 1 at lag 0."""
    spec = np.fft.rfft(window, nfft)
    rw = np.fft.irfft(np.abs(spec) ** 2, nfft)[: max_lag + 1]
    return rw / rw[0]


def normalized_autocorrelation(frames: np.ndarray, nfft: int, rw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Window-compensated normalized autocorrelation of windowed frames, up to lag ``len(rw) - 1``.

    Each row's autocorrelation is divided by its lag-0 value and by the
    window's own (``rw``, from ``window_autocorr``), so it estimates the
    autocorrelation of the underlying signal, clipped to [-1, 1].  ``nfft``
    must be at least the frame length plus the largest lag plus one.
    Returns (autocorrelations, dead): a dead row has no energy, and its
    autocorrelation is zero.
    """
    ac = np.fft.irfft(power_spectra(frames, nfft), nfft, axis=1)[:, : len(rw)]
    r0 = ac[:, 0].copy()
    dead = r0 <= 0
    r0[dead] = 1.0
    return np.clip(ac / r0[:, None] / rw[None, :], -1.0, 1.0), dead


def log_db_cepstrogram(frames: np.ndarray, fft_size: int) -> np.ndarray:
    """Batched real cepstra (rows = frames) of dB log-power spectra, quefrencies 0 to fft_size / 2.

    The dB spectrum of a real frame is real and even, so its inverse
    transform is the type-I cosine transform of the one-sided half.
    """
    power = power_spectra(frames, fft_size)
    floors = power.max(axis=1, keepdims=True) * 1e-12
    floors = np.maximum(floors, np.finfo(float).tiny)
    level_db = 10.0 * np.log10(np.maximum(power, floors))
    return scipy.fft.dct(level_db, type=1, axis=1, overwrite_x=True) / fft_size


def lpc_burg(frames: np.ndarray, order: int) -> np.ndarray:
    """Burg-method linear prediction coefficients [1, a1, ..., a_order] of every frame.

    Frames run along the last axis, and the result keeps the leading
    shape.  The reflection coefficients are bounded by 1 in magnitude, so
    every resulting all-pole filter is stable; an all-zero frame gives
    [1, 0, ..., 0].
    """
    x = np.asarray(frames, dtype=np.float64)
    n = x.shape[-1]
    if order < 2:
        raise ValueError("order must be at least 2")
    if n <= order:
        raise OrderTooHigh(f"order {order} needs more than {order} samples, got {n}")
    a = np.zeros(x.shape[:-1] + (order + 1,))
    a[..., 0] = 1.0
    fwd = x[..., 1:]
    bwd = x[..., :-1]
    for i in range(order):
        den = np.einsum("...j,...j->...", fwd, fwd) + np.einsum("...j,...j->...", bwd, bwd)
        live = den > np.finfo(float).tiny
        k = np.where(live, -2.0 * np.einsum("...j,...j->...", fwd, bwd) / np.where(live, den, 1.0), 0.0)
        k = k[..., None]
        a[..., 1 : i + 2] = a[..., 1 : i + 2] + k * a[..., i::-1]
        fwd, bwd = fwd[..., 1:] + k * bwd[..., 1:], bwd[..., :-1] + k * fwd[..., :-1]
    return a


def parabolic_refine(y: np.ndarray, idx: np.ndarray, limit: float) -> tuple[np.ndarray, np.ndarray]:
    """Refine each row's maximum at ``y[i, idx[i]]`` by parabolic interpolation.

    Returns (offsets from ``idx``, clipped to +-``limit``; interpolated
    values).  A row whose index is on an edge, or whose curvature there is
    not concave, keeps offset 0 and the sample value.
    """
    rows = np.arange(len(idx))
    last = y.shape[1] - 1
    a = y[rows, np.maximum(idx - 1, 0)]
    b = y[rows, idx]
    c = y[rows, np.minimum(idx + 1, last)]
    denom = 2.0 * b - a - c
    refine = (idx > 0) & (idx < last) & (denom > 0)
    delta = np.zeros(len(idx))
    delta[refine] = np.clip(0.5 * (c[refine] - a[refine]) / denom[refine], -limit, limit)
    value = b.copy()
    value[refine] += 0.25 * (c[refine] - a[refine]) * delta[refine]
    return delta, value


_SINC_DEPTH = 30  # neighbours on each side of the interpolated peak
# BLAS hands a product of only a few rows to a small-matrix kernel that
# rounds differently (OpenBLAS 0.3.31: up to 29 rows of this kernel), so
# the peaks are interpolated at least this many rows at a time to keep each
# row's result, and the pitch path, independent of the chunk size
_GEMM_MIN_ROWS = 64


@functools.cache
def _sinc_kernel(half_width: float, depth: int) -> tuple[np.ndarray, np.ndarray]:
    tau_rel = np.linspace(-half_width, half_width, int(40 * half_width) + 1)
    idx_rel = np.arange(-depth, depth + 1, dtype=np.float64)
    d = tau_rel[:, None] - idx_rel[None, :]
    w = np.sinc(d) * (0.5 + 0.5 * np.cos(np.pi * np.clip(d / depth, -1.0, 1.0)))
    return tau_rel, w


def sinc_refine(y: np.ndarray, rows: np.ndarray, ks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Refine local maxima ``y[rows, ks]`` of band-limited, even sequences (one per row of y).

    Each neighbourhood of 30 samples a side is interpolated with a
    cosine-tapered sinc kernel on a 1/20-sample grid within one sample of
    ``ks``, and the best grid point is polished parabolically.  Rows are
    even-extended at index 0, as an autocorrelation is.  Returns (refined
    positions, refined values).  Autocorrelation peaks of strongly
    harmonic signals are only 2-3 samples wide, so a plain parabola
    underestimates them at fractional lags.
    """
    tau_rel, kernel = _sinc_kernel(1.0, _SINC_DEPTH)
    mirrored = np.concatenate([y[:, _SINC_DEPTH:0:-1], y], axis=1)
    gather = ks[:, None] + np.arange(2 * _SINC_DEPTH + 1)[None, :]  # shifted by +depth already
    segs = mirrored[rows[:, None], gather]
    if len(ks) < _GEMM_MIN_ROWS:
        segs = np.concatenate([segs, np.zeros((_GEMM_MIN_ROWS - len(ks), segs.shape[1]))])
    interp = (segs @ kernel.T)[: len(ks)]  # (len(ks), grid points)
    mi = np.argmax(interp, axis=1)
    delta, values = parabolic_refine(interp, mi, 1.0)
    step = tau_rel[1] - tau_rel[0]
    return ks + tau_rel[mi] + delta * step, values


def trend_lines(y: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise robust straight-line fits of y on x, insensitive to outliers.

    The slope is the median of the slopes between the point pairs half the
    row apart, and the intercept the median residual.  Returns (slopes,
    intercepts).
    """
    n = x.shape[0]
    h = n // 2
    dx = x[h:] - x[: n - h]
    slopes = (y[:, h:] - y[:, : n - h]) / dx[None, :]
    slope = _row_medians(slopes)
    intercept = _row_medians(y - slope[:, None] * x[None, :])
    return slope, intercept


def _row_medians(y: np.ndarray) -> np.ndarray:
    """``np.median(y, axis=1)`` for finite y, from a single partition of each row."""
    n = y.shape[1]
    h = n // 2
    part = np.partition(y, h, axis=1)
    if n % 2:
        return part[:, h]
    # the lower half holds the rest of the smallest values; its maximum is the other middle one
    return (part[:, :h].max(axis=1) + part[:, h]) / 2
