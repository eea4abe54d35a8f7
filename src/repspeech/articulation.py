"""Formant estimation and spectral moments.

Formants come from Burg linear prediction of every voiced frame of a signal
resampled to twice the formant ceiling, batched over frames: polynomial
roots above the real axis map to candidate resonances, and the two lowest
in-band ones are F1 and F2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .audio_io import AudioBuffer, resample
from .dsp import chunk_map, frame_centers, gather_frames, gaussian_window, lpc_burg, span
from .errors import NoVoicedFrames, SilentSignal
from .phonation import PitchTrack, pre_emphasize

FORMANT_CEILING = 5500.0  # Hz, the default of ``extract --formant-ceiling``
N_FORMANTS = 5  # resonances below the ceiling; two prediction coefficients each
FORMANT_WINDOW = 0.025  # s, effective gaussian window (physical = 2x)
FORMANT_STEP = 0.010  # s
FORMANT_MAX_BANDWIDTH = 700.0  # Hz; broad spurious poles are not resonances


@dataclass(frozen=True)
class FormantTrack:
    """Per-frame first and second formants with validity flags."""

    times: np.ndarray
    f1: np.ndarray
    f2: np.ndarray
    valid: np.ndarray

    def slice(self, tmin: float, tmax: float) -> "FormantTrack":
        keep = span(self.times, tmin, tmax)
        return FormantTrack(self.times[keep], self.f1[keep], self.f2[keep], self.valid[keep])

    def means(self) -> tuple[float | None, float | None]:
        """Mean F1/F2 over valid frames, or None when no frame is valid."""
        if not np.any(self.valid):
            return None, None
        return float(np.mean(self.f1[self.valid])), float(np.mean(self.f2[self.valid]))


def formant_track(buf: AudioBuffer, track: PitchTrack, ceiling: float = FORMANT_CEILING) -> FormantTrack:
    """Burg-method formant analysis on the voiced frames of a recording.

    The signal is resampled to 2 x ceiling (Hz), pre-emphasized, and analyzed in
    gaussian-windowed frames.  A frame is valid when at least two in-band
    resonances survive; it then contributes F1 and F2 in ascending order.
    """
    if not np.any(track.voiced):
        raise NoVoicedFrames("formant analysis needs voiced frames")
    analysis_rate = int(round(2.0 * ceiling))
    y = resample(buf.signal, buf.sample_rate, analysis_rate)
    y = pre_emphasize(y, analysis_rate)
    win_n = int(round(2.0 * FORMANT_WINDOW * analysis_rate))
    step_n = max(1, int(round(FORMANT_STEP * analysis_rate)))
    window = gaussian_window(win_n)
    centers = frame_centers(len(y), win_n, step_n)
    voiced = centers[track.voiced_at_many(centers / analysis_rate)]

    def resonances(rows: slice) -> tuple[np.ndarray, np.ndarray]:
        frames = gather_frames(y, voiced[rows], win_n)
        frames -= frames.mean(axis=1, keepdims=True)
        frames *= window
        live = np.any(frames, axis=1)  # an all-zero frame has no resonances to find
        lowest = _lowest_resonances(lpc_burg(frames[live], 2 * N_FORMANTS), analysis_rate, ceiling)
        return voiced[rows][live] / analysis_rate, lowest

    parts = chunk_map(len(voiced), 8 * win_n, resonances)
    if not any(len(t) for t, _ in parts):
        raise NoVoicedFrames("no voiced frames coincide with formant frames")
    times, lowest = (np.concatenate(a) for a in zip(*parts))
    valid = np.isfinite(lowest[:, 1])
    lowest[~valid] = 0.0
    return FormantTrack(times, lowest[:, 0], lowest[:, 1], valid)


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
        & (freqs > 50.0)
        & (freqs < ceiling - 50.0)
        & (bandwidths < FORMANT_MAX_BANDWIDTH)
    )
    return np.sort(np.where(keep, freqs, np.inf), axis=1)[:, :2]


@dataclass(frozen=True)
class SpectralMoments:
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
    x *= np.hanning(len(x))  # in place, so the rfft runs with one signal-length array alive
    power = np.abs(np.fft.rfft(x)) ** 2
    total = float(np.sum(power))
    if total <= 0.0:
        raise SilentSignal("segment carries no spectral energy")
    freqs = np.fft.rfftfreq(len(x), 1.0 / segment.sample_rate)
    gravity = float(np.sum(freqs * power) / total)
    deviation = math.sqrt(float(np.sum((freqs - gravity) ** 2 * power) / total))
    return SpectralMoments(gravity, deviation)
