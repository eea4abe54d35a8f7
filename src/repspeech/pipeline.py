"""Per-recording orchestration: canonicalize, analyze once, assemble records.

Every analysis track (pitch, intensity, harmonicity, cepstral peak,
voiced-frame spectra, formants) is computed at most once per recording, in
one ``Analysis``, and both levels are reductions of those tracks: level S
over the whole recording, level a averaged over the aligned vowels.  So
every feature sees the same voicing decisions, and asking for both levels
costs little more than asking for one.  A failure in one feature marks
that field absent with an error code instead of aborting the record, and
a file that cannot be read gives records whose every feature carries the
read error; long batch runs must survive degenerate files.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

from . import __version__
from .alignment import (
    DEFAULT_MIN_VOWEL_DURATION,
    DEFAULT_PHONE_TIER,
    DEFAULT_VOWEL_LABELS,
    find_target_vowels,
    read_textgrid,
    vowel_level_features,
)
from .analysis import A_FEATURES, Analysis, fill
from .articulation import FORMANT_CEILING
from .audio_io import read_wav, to_canonical
from .errors import AlignmentMissing, RepSpeechError, SignalTooShort, error_code
from .timing import NO_CONTOUR, TimingParams, timing_features

RATE_FEATURES = ("speaking_rate", "articulation_rate", "pause_rate")
S_FEATURES = ("duration", *RATE_FEATURES, *A_FEATURES)
LEVEL_FEATURES = {"S": S_FEATURES, "a": A_FEATURES}


@dataclass(frozen=True)
class PipelineParams:
    """The settings ``repspeech extract`` exposes as flags; every other setting is a module constant."""

    timing: TimingParams = field(default_factory=TimingParams)
    formant_ceiling: float = FORMANT_CEILING
    vowel_labels: frozenset[str] = DEFAULT_VOWEL_LABELS
    min_vowel_duration: float = DEFAULT_MIN_VOWEL_DURATION
    phone_tier: str = DEFAULT_PHONE_TIER


@dataclass(frozen=True)
class ExtractionRequest:
    audio_path: str
    textgrid_path: str | None = None
    levels: tuple[str, ...] = ("S",)
    params: PipelineParams = field(default_factory=PipelineParams)


@dataclass
class FeatureRecord:
    """The exemplar features for one recording at one extraction level."""

    recording: str
    level: str
    features: dict[str, float | None]
    errors: dict[str, str] = field(default_factory=dict)
    n_vowel_instances: int | None = None
    provenance: dict = field(default_factory=dict)


def _provenance(params: PipelineParams, analysis: Analysis | None) -> dict:
    """The version, every setting of ``params`` and, once pitch was tracked, its adapted range."""
    snap = {"version": __version__, **asdict(params), "vowel_labels": sorted(params.vowel_labels)}
    if analysis is None:  # the recording could not be read
        return snap
    try:
        pitch = analysis.pitch()
    except RepSpeechError:
        return snap
    snap["pitch_adapted"] = {"floor": pitch.floor, "ceiling": pitch.ceiling}
    return snap


def extract_recording(req: ExtractionRequest) -> list[FeatureRecord]:
    """Extract one FeatureRecord per requested level for a recording.

    Level S covers the whole canonical recording; level a aggregates over
    the aligned open-vowel instances of the TextGrid, and without one its
    features carry AlignmentMissing.  Both levels reduce the same tracks,
    each computed once.  A recording that cannot be read or decoded gives
    one record per level whose every feature carries the read error.
    """
    levels = tuple(req.levels)
    for level in levels:
        if level not in LEVEL_FEATURES:
            raise ValueError(f"unknown extraction level {level!r}")

    params = req.params
    name = Path(req.audio_path).stem
    try:
        buf = to_canonical(read_wav(req.audio_path))
    except RepSpeechError as exc:  # every feature of every level carries the read error
        code = error_code(exc)
        return [
            FeatureRecord(name, level, dict.fromkeys(LEVEL_FEATURES[level]),
                          dict.fromkeys(LEVEL_FEATURES[level], code), None, _provenance(params, None))
            for level in levels
        ]
    analysis = Analysis(buf, params.formant_ceiling)

    records = []
    if "S" in levels:
        records.append(_extract_suprasegmental(name, analysis, params))
    if "a" in levels:
        records.append(_extract_vowel_level(name, analysis, params, req.textgrid_path))
    return records


def _rates(analysis: Analysis, params: TimingParams) -> tuple[float, float, float]:
    try:
        pitch = analysis.pitch()
    except RepSpeechError:
        pitch = None  # every nucleus then counts as unvoiced
    try:
        contour = analysis.intensity()  # the contour intensity_mean reads
    except SignalTooShort:
        contour = NO_CONTOUR
    tf = timing_features(analysis.buf, contour, pitch, params)
    return tf.speaking_rate, tf.articulation_rate, tf.pause_rate


def _extract_suprasegmental(name: str, analysis: Analysis, params: PipelineParams) -> FeatureRecord:
    duration = analysis.buf.duration
    features: dict[str, float | None] = dict.fromkeys(S_FEATURES)
    features["duration"] = duration
    errors: dict[str, str] = {}
    # the span reductions first, so the whole-recording spectral moments run before any track exists
    span_values, span_errors = analysis.span_features(0.0, duration)
    fill(features, errors, RATE_FEATURES, lambda: _rates(analysis, params.timing))
    features.update(span_values)
    errors.update(span_errors)
    return FeatureRecord(name, "S", features, errors, None, _provenance(params, analysis))


def _extract_vowel_level(name: str, analysis: Analysis, params: PipelineParams, textgrid_path) -> FeatureRecord:
    try:
        if not textgrid_path:
            raise AlignmentMissing("vowel-level extraction requires a TextGrid path")
        grid = read_textgrid(textgrid_path)
        vowels = find_target_vowels(grid, params.vowel_labels, params.min_vowel_duration, params.phone_tier)
        agg = vowel_level_features(analysis, vowels)
    except RepSpeechError as exc:  # no alignment or no usable vowel: every feature is absent
        features, errors, n_instances = dict.fromkeys(A_FEATURES), dict.fromkeys(A_FEATURES, error_code(exc)), None
    else:
        features, errors, n_instances = dict(agg.means), dict(agg.errors), agg.n_instances
    return FeatureRecord(name, "a", features, errors, n_instances, _provenance(params, analysis))


def record_to_row(rec: FeatureRecord) -> dict:
    """Flatten a record into a CSV-ready row with feature names as columns."""
    row: dict[str, object] = {"recording": rec.recording, "level": rec.level}
    keys = LEVEL_FEATURES[rec.level]
    for k in S_FEATURES:
        row[k] = rec.features.get(k) if k in keys else None
    row["n_vowel_instances"] = rec.n_vowel_instances
    row["errors"] = json.dumps(rec.errors, sort_keys=True) if rec.errors else ""
    return row
