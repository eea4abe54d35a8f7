"""One analysis per recording: each track computed once, reduced over a list of time spans.

An ``Analysis`` holds a canonical buffer and computes each analysis track
(pitch, intensity, harmonicity, cepstral peak, voiced-frame spectra,
formants) the first time a feature needs it.  A track that fails keeps its
error, so every feature that needs it reports the same error code.  Both
extraction levels are rows of one ``reduce`` call over one span list:
[0, duration] for the whole recording, then the vowel spans, whose rows
the vowel level averages.  This is the only module that computes tracks;
every feature reduces the rows a track's ``over(t0, t1)`` selects.  The
CPP track reads no other track: ``reduce`` queues it as one task on the
recording's helper scope (``dsp.background``), a helper computes it while
this thread runs every other reduction over every span, and ``cpp_mean``
is the last reduction.  In a scope without helpers it runs there.
"""

from __future__ import annotations

import copy
from typing import Callable, Iterable

# tracks are computed through their module attributes, so a wrapper
# installed on a module (a tracer, a test's call counter) sees every call
from . import articulation, dsp, phonation
from .audio_io import AudioBuffer
from .dsp import Track
from .errors import RepSpeechError, error_code
from .phonation import PitchTrack

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
        # how cpp() gets the track: inline until reduce() queues it; holds buf, not self
        self._cpp = lambda: phonation.cpp_track(buf)

    def _track(self, key: object, compute: Callable[[], object]):
        if key not in self._tracks:
            try:
                self._tracks[key] = compute()
            except RepSpeechError as exc:
                # kept without a traceback, whose frames hold self; each read raises a fresh copy
                self._tracks[key] = exc.with_traceback(None)
        track = self._tracks[key]
        if isinstance(track, RepSpeechError):
            raise copy.copy(track)
        return track

    def pitch(self) -> PitchTrack:
        return self._track("pitch", lambda: phonation.pitch_track_two_pass(self.buf))

    def intensity(self) -> Track:
        """The intensity contour, which intensity_mean and the timing detectors both read."""
        return self._track("intensity", lambda: phonation.intensity_track(self.buf))

    def hnr(self) -> Track:
        return self._track("hnr", lambda: phonation.hnr_track(self.buf, self.pitch()))

    def cpp(self) -> Track:
        return self._track("cpp", self._cpp)

    def spectra(self) -> Track:
        return self._track("spectra", lambda: phonation.voiced_frame_spectra(self.buf, self.pitch()))

    def formants(self) -> Track:
        return self._track(
            "formants", lambda: articulation.formant_track(self.buf, self.pitch(), self.formant_ceiling)
        )

    def reduce(self, spans: list[tuple[float, float]]) -> list[tuple[dict[str, float | None], dict[str, str]]]:
        """One ``(values, errors)`` row per span ``(t0, t1)``, in span order.

        ``values`` maps every A_FEATURES name to its value, and ``errors``
        gives the code of each one left unmeasured.  Each value reduces the rows of a shared track that ``over(t0, t1)``
        selects; spectral moments are taken on the span's own samples.
        Each reduction runs over every span before the next.  A non-empty
        list queues the CPP track, which no other track reads, on the open
        helper scope (``dsp.background``), so a helper computes it while
        this thread runs the rest, and ``cpp_mean`` is reduced last.  The
        moments run first: over a whole recording their spectrum is a large
        transient of an extraction, and before any other track is computed
        it lands on an empty heap.
        """
        if spans and "cpp" not in self._tracks:
            self._cpp = dsp.background(self._cpp)
        rows = [(dict.fromkeys(A_FEATURES), {}) for _ in spans]

        rate = self.buf.sample_rate
        reductions = (
            (
                ("spectral_gravity", "spectral_deviation"),
                lambda t0, t1: articulation.spectral_moments(self.buf.slice(t0, t1)),
            ),
            (("intensity_mean",), lambda t0, t1: [phonation.intensity_mean(self.intensity().over(t0, t1))]),
            (("pitch_mean", "pitch_sd"), lambda t0, t1: phonation.pitch_stats(self.pitch().over(t0, t1))),
            (("hnr_mean",), lambda t0, t1: [phonation.hnr_mean(self.hnr().over(t0, t1))]),
            (("spectral_slope",), lambda t0, t1: [phonation.spectral_slope(self.spectra().over(t0, t1), rate)]),
            (("f1_mean", "f2_mean"), lambda t0, t1: articulation.formant_means(self.formants().over(t0, t1))),
            (("cpp_mean",), lambda t0, t1: [phonation.cpp_mean(self.cpp().over(t0, t1))]),
        )
        for keys, reduction in reductions:
            for (t0, t1), (features, errors) in zip(spans, rows):
                fill(features, errors, keys, lambda: reduction(t0, t1))
        # each row's errors in record order
        return [(features, {k: errors[k] for k in A_FEATURES if k in errors}) for features, errors in rows]
