"""Formant estimation and spectral moments.

Formants come from Burg linear prediction of every voiced frame of a signal
resampled to twice the formant ceiling, batched over frames: polynomial
roots above the real axis map to candidate resonances, and the two lowest
in-band ones are F1 and F2.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .audio_io import AudioBuffer, resample
from .dsp import (
    center_and_window, chunk_map, frame_centers, gather_frames, gaussian_window, lpc_burg, signal_power_spectrum, Track
)
from .errors import NoMeasurableInstances, NoVoicedFrames, SilentSignal
from .phonation import PitchTrack, pre_emphasize

FORMANT_CEILING = 5500.0  # Hz, the default of ``extract --formant-ceiling``
N_FORMANTS = 5  # resonances below the ceiling; two prediction coefficients each
FORMANT_WINDOW = 0.025  # s, effective gaussian window (physical = 2x)
FORMANT_STEP = 0.010  # s
FORMANT_MAX_BANDWIDTH = 700.0  # Hz; broad spurious poles are not resonances
FORMANT_MARGIN = 50.0  # Hz; resonances are taken from this far above 0 Hz to this far below the ceiling


def formant_track(buf: AudioBuffer, track: PitchTrack, ceiling: float = FORMANT_CEILING) -> Track:
    """Burg-method formant analysis on the voiced frames of a recording: F1 and F2 in Hz, one row per frame.

    The signal is resampled to 2 x ceiling (Hz), pre-emphasized, and analyzed in
    gaussian-windowed frames.  A mean reads the valid frames, those where at
    least two in-band resonances survive, in ascending order; an invalid
    frame's row is zeros.
    """
    if not np.any(track.voiced):
        raise NoVoicedFrames("formant analysis needs voiced frames")
    analysis_rate = int(round(2.0 * ceiling))
    y = resample(buf.signal, buf.sample_rate, analysis_rate)
    y = pre_emphasize(y, analysis_rate)
    centers, win_n = frame_centers(len(y), analysis_rate, 2.0 * FORMANT_WINDOW, FORMANT_STEP)
    window = gaussian_window(win_n)
    voiced = centers[track.voiced_at_many(centers / analysis_rate)]

    def resonances(rows: slice) -> tuple[np.ndarray, np.ndarray]:
        frames = center_and_window(gather_frames(y, voiced[rows], win_n), window)
        live = np.any(frames, axis=1)  # an all-zero frame has no resonances to find
        lowest = _lowest_resonances(lpc_burg(frames[live], 2 * N_FORMANTS), analysis_rate, ceiling)
        return voiced[rows][live] / analysis_rate, lowest

    parts = chunk_map(len(voiced), 8 * win_n, resonances)
    if not any(len(t) for t, _ in parts):
        raise NoVoicedFrames("no voiced frames coincide with formant frames")
    times, lowest = (np.concatenate(a) for a in zip(*parts))
    valid = np.isfinite(lowest[:, 1])
    lowest[~valid] = 0.0
    return Track(times, lowest, valid)


def formant_means(formants: np.ndarray) -> tuple[float, float]:
    """Mean F1 and mean F2 in Hz of the valid frames of a span (``formant_track(...).over``).

    Each column is averaged on its own: a 1-D mean sums pairwise, where
    ``mean(axis=0)`` would add the rows in order and round differently.
    """
    if len(formants) == 0:
        raise NoMeasurableInstances("no valid formant frame in the span")
    return float(np.mean(formants[:, 0])), float(np.mean(formants[:, 1]))


def _lowest_resonances(coeffs: np.ndarray, rate: float, ceiling: float) -> np.ndarray:
    """The two lowest in-band resonances (Hz) of each row's prediction polynomial, inf where missing.

    The roots are the eigenvalues of the stacked companion matrices; a
    root above the real axis is a resonance at its angle, with a bandwidth
    set by its distance from the unit circle.
    """
    m, order = coeffs.shape[0], coeffs.shape[1] - 1
    companion = np.zeros((m, order, order))
    companion[:, 0, :] = -coeffs[:, 1:]  # the leading coefficient is 1
    companion[:, np.arange(1, order), np.arange(order - 1)] = 1.0
    roots = np.linalg.eigvals(companion)
    freqs = np.angle(roots) * rate / (2.0 * math.pi)
    bandwidths = -np.log(np.maximum(np.abs(roots), 1e-12)) * rate / math.pi
    keep = (
        (np.imag(roots) > 0)
        & (freqs > FORMANT_MARGIN)
        & (freqs < ceiling - FORMANT_MARGIN)
        & (bandwidths < FORMANT_MAX_BANDWIDTH)
    )
    return np.sort(np.where(keep, freqs, np.inf), axis=1)[:, :2]


class SpectralMoments(NamedTuple):
    gravity: float
    deviation: float


def spectral_moments(segment: AudioBuffer) -> SpectralMoments:
    """First two moments of the segment's power spectrum.

    Gravity is the power-weighted mean frequency; deviation the weighted
    standard deviation around it.  The segment is hann-windowed and
    mean-subtracted so DC leakage does not bias the moments.
    """
    x = segment.signal
    if len(x) == 0 or not np.any(x):
        raise SilentSignal("cannot take moments of a silent segment")
    x = x - x.mean()
    x *= np.hanning(len(x))  # in place, so the transform runs with one signal-length array alive
    power = signal_power_spectrum(x)
    total = float(np.sum(power))
    if total <= 0.0:
        raise SilentSignal("segment carries no spectral energy")
    freqs = np.fft.rfftfreq(len(x), 1.0 / segment.sample_rate)
    gravity = float(np.sum(freqs * power) / total)
    deviation = math.sqrt(float(np.sum((freqs - gravity) ** 2 * power) / total))
    return SpectralMoments(gravity, deviation)
