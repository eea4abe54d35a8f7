"""One analysis per recording: each track computed once, reduced over a list of time spans.

An ``Analysis`` holds a canonical buffer and computes each analysis track
(pitch, intensity, harmonicity, cepstral peak, voiced-frame spectra,
formants) the first time a feature needs it.  A track that fails keeps its
error, so every feature that needs it reports the same error code.  Both
extraction levels are rows of one ``reduce`` call over one span list:
[0, duration] for the whole recording, then the vowel spans, whose rows
the vowel level averages.  This is the only module that computes tracks;
every feature reduces the rows a track's ``over(t0, t1)`` selects, and
``FEATURES`` declares every feature once, which each other feature list
derives from.  The CPP track reads no other track: ``reduce`` queues it as
one task on the recording's helper scope (``dsp.background``), a helper
computes it while this thread runs every other reduction over every span,
and ``cpp_mean`` is the last reduction.  In a scope without helpers it
runs there.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable, Iterable

# tracks and reductions are reached through their module attributes when called, so a
# wrapper installed on a module (a tracer, a test's call counter) sees every call
from . import articulation, dsp, phonation
from .audio_io import AudioBuffer
from .dsp import Track
from .errors import RepSpeechError, error_code
from .phonation import PitchTrack


@dataclass(frozen=True)
class Feature:
    """One feature of a record; a span feature names the reduction in ``REDUCTIONS`` that yields it."""

    name: str  # the record key and CSV column
    label: str  # the summary table's row label, before the unit
    unit: str
    decimals: int  # the summary table shows the value / 10**power with this many decimals
    levels: tuple[str, ...]
    reduction: str | None = None
    power: int = 0


# the values of a span (t0, t1), in the order reduce runs them over every span: the moments first, so over a
# whole recording their large spectrum lands on a heap no track holds yet, and CPP last, so a helper computes
# its track meanwhile; each yields one value per feature that names it, in table order
REDUCTIONS = {
    "moments": lambda a, t0, t1: articulation.spectral_moments(a.buf.slice(t0, t1)),
    "intensity": lambda a, t0, t1: [phonation.intensity_mean(a.intensity().over(t0, t1))],
    "pitch": lambda a, t0, t1: phonation.pitch_stats(a.pitch().over(t0, t1)),
    "hnr": lambda a, t0, t1: [phonation.hnr_mean(a.hnr().over(t0, t1))],
    "slope": lambda a, t0, t1: [phonation.spectral_slope(a.spectra().over(t0, t1), a.buf.sample_rate)],
    "formants": lambda a, t0, t1: articulation.formant_means(a.formants().over(t0, t1)),
    "cpp": lambda a, t0, t1: [phonation.cpp_mean(a.cpp().over(t0, t1))],
}
# every feature of a record, in record order
FEATURES = (
    Feature("duration", "Duration", "s", 0, ("S",)),
    Feature("speaking_rate", "Speaking rate", "syllables/s", 2, ("S",)),
    Feature("articulation_rate", "Articulation rate", "syllables/s", 2, ("S",)),
    Feature("pause_rate", "Pause rate", "1/s", 3, ("S",)),
    Feature("intensity_mean", "Intensity (mean)", "dB", 1, ("S", "a"), "intensity"),
    Feature("pitch_mean", "Pitch (mean)", "Hz", 0, ("S", "a"), "pitch"),
    Feature("pitch_sd", "Pitch (std deviation)", "semitones", 2, ("S", "a"), "pitch"),
    Feature("hnr_mean", "Harmonics-to-noise ratio (mean)", "dB", 2, ("S", "a"), "hnr"),
    Feature("spectral_slope", "Spectral slope (mean)", "dB/octave", 1, ("S", "a"), "slope"),
    Feature("cpp_mean", "Cepstral peak prominence (mean)", "dB", 2, ("S", "a"), "cpp"),
    Feature("f1_mean", "First formant (mean)", "Hz", 0, ("S", "a"), "formants"),
    Feature("f2_mean", "Second formant (mean)", "Hz", 2, ("S", "a"), "formants", power=3),
    Feature("spectral_gravity", "Spectral gravity (mean)", "Hz", 0, ("S", "a"), "moments"),
    Feature("spectral_deviation", "Spectral deviation (mean)", "Hz", 0, ("S", "a"), "moments"),
)
LEVEL_FEATURES = {level: tuple(f.name for f in FEATURES if level in f.levels) for level in ("S", "a")}
# the features that reduce over a span, in record order
A_FEATURES = tuple(f.name for f in FEATURES if f.reduction)


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
        Each of ``REDUCTIONS`` runs over every span before the next, in its
        order.  A non-empty list queues the CPP track, which no other track
        reads, on the open helper scope (``dsp.background``), so a helper
        computes it while this thread runs the rest.
        """
        if spans and "cpp" not in self._tracks:
            self._cpp = dsp.background(self._cpp)
        rows = [(dict.fromkeys(A_FEATURES), {}) for _ in spans]
        for name, reduction in REDUCTIONS.items():
            keys = tuple(f.name for f in FEATURES if f.reduction == name)
            for (t0, t1), (features, errors) in zip(spans, rows):
                fill(features, errors, keys, lambda: reduction(self, t0, t1))
        # each row's errors in record order
        return [(features, {k: errors[k] for k in A_FEATURES if k in errors}) for features, errors in rows]
