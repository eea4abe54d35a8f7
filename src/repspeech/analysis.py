"""One analysis per recording: each track computed once, reduced over time spans.

An ``Analysis`` holds a canonical buffer and computes each analysis track
(pitch, intensity, harmonicity, cepstral peak, voiced-frame spectra,
formants) the first time a feature needs it.  A track that fails keeps its
error, so every feature that needs it reports the same error code.  Both
extraction levels are reductions of these tracks: the whole-recording level
reduces them over [0, duration], and the vowel level averages the same
reductions over the vowel spans.  This is the only module that computes
tracks; every feature reduction takes a track and a span.
"""

from __future__ import annotations

from typing import Callable, Iterable

# tracks are computed through their module attributes, so a wrapper
# installed on a module (a tracer, a test's call counter) sees every call
from . import articulation, phonation
from .articulation import FormantTrack
from .audio_io import AudioBuffer
from .errors import NoMeasurableInstances, RepSpeechError, error_code
from .phonation import IntensityTrack, PitchTrack

# the features that reduce over a span, in record order
A_FEATURES = (
    "intensity_mean",
    "pitch_mean",
    "pitch_sd",
    "hnr_mean",
    "spectral_slope",
    "cpp_mean",
    "f1_mean",
    "f2_mean",
    "spectral_gravity",
    "spectral_deviation",
)


def fill(
    features: dict[str, float | None],
    errors: dict[str, str],
    keys: tuple[str, ...],
    compute: Callable[[], Iterable[float]],
) -> None:
    """Store ``compute()``'s values under ``keys``, or the code of the error it raised under each key."""
    try:
        values = tuple(compute())
    except RepSpeechError as exc:
        errors.update(dict.fromkeys(keys, error_code(exc)))
        return
    features.update(zip(keys, values))


class Analysis:
    """The analysis tracks of one canonical recording, each computed on first use."""

    def __init__(self, buf: AudioBuffer, formant_ceiling: float):
        self.buf = buf
        self.formant_ceiling = formant_ceiling
        self._tracks: dict[object, object] = {}

    def _track(self, key: object, compute: Callable[[], object]):
        if key not in self._tracks:
            try:
                self._tracks[key] = compute()
            except RepSpeechError as exc:
                self._tracks[key] = exc
        track = self._tracks[key]
        if isinstance(track, RepSpeechError):
            raise track
        return track

    def pitch(self) -> PitchTrack:
        return self._track("pitch", lambda: phonation.pitch_track_two_pass(self.buf))

    def intensity(self) -> IntensityTrack:
        """The intensity contour, which intensity_mean and the timing detectors both read."""
        return self._track("intensity", lambda: phonation.intensity_track(self.buf))

    def hnr(self) -> tuple:
        return self._track("hnr", lambda: phonation.hnr_track(self.buf, self.pitch()))

    def cpp(self) -> tuple:
        return self._track("cpp", lambda: phonation.cpp_track(self.buf))

    def spectra(self) -> tuple:
        return self._track("spectra", lambda: phonation.voiced_frame_spectra(self.buf, self.pitch()))

    def formants(self) -> FormantTrack:
        return self._track(
            "formants", lambda: articulation.formant_track(self.buf, self.pitch(), self.formant_ceiling)
        )

    def _formant_means(self, t0: float, t1: float) -> tuple[float, float]:
        f1, f2 = self.formants().slice(t0, t1).means()
        if f1 is None:
            raise NoMeasurableInstances("no valid formant frame in the span")
        return f1, f2

    def span_features(self, t0: float, t1: float) -> tuple[dict[str, float | None], dict[str, str]]:
        """Every A_FEATURES value over [t0, t1], and the error code of each one left unmeasured.

        Each value is a reduction of a shared track over the span; spectral
        moments are taken on the span's own samples.  The moments run first:
        over a whole recording their spectrum is a large transient of an
        extraction, and before any track is computed it lands on an empty
        heap.
        """
        features: dict[str, float | None] = dict.fromkeys(A_FEATURES)
        errors: dict[str, str] = {}

        reductions = (
            (("spectral_gravity", "spectral_deviation"), lambda: _moments(self.buf.slice(t0, t1))),
            (("intensity_mean",), lambda: [phonation.intensity_mean(self.intensity(), t0, t1)]),
            (("pitch_mean", "pitch_sd"), lambda: phonation.pitch_stats(self.pitch().slice(t0, t1))),
            (("hnr_mean",), lambda: [phonation.hnr_mean(self.hnr(), t0, t1)]),
            (("spectral_slope",), lambda: [phonation.spectral_slope(self.spectra(), t0, t1)]),
            (("cpp_mean",), lambda: [phonation.cpp_mean(self.cpp(), t0, t1)]),
            (("f1_mean", "f2_mean"), lambda: self._formant_means(t0, t1)),
        )
        for keys, compute in reductions:
            fill(features, errors, keys, compute)
        return features, {k: errors[k] for k in A_FEATURES if k in errors}  # in record order


def _moments(segment: AudioBuffer) -> tuple[float, float]:
    m = articulation.spectral_moments(segment)
    return m.gravity, m.deviation
