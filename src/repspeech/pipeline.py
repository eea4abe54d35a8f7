"""Per-recording orchestration: canonicalize, analyze once, assemble records.

Every analysis track (pitch, intensity, harmonicity, cepstral peak,
voiced-frame spectra, formants) is computed at most once per recording, in
one ``Analysis``, and both levels are rows of one reduction over one span
list: the whole recording for level S, then the aligned vowels, whose rows
level a averages.  So every feature sees the same voicing decisions, and
asking for both levels costs little more than asking for one.  A failure
in one feature marks that field absent with an error code instead of
aborting the record, and a file that cannot be read gives records whose
every feature carries the read error; long batch runs must survive
degenerate files.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

from . import __version__, dsp
from .alignment import (
    DEFAULT_MIN_VOWEL_DURATION,
    DEFAULT_PHONE_TIER,
    DEFAULT_VOWEL_LABELS,
    find_target_vowels,
    read_textgrid,
    vowel_level_features,
    vowel_spans,
)
from .analysis import A_FEATURES, Analysis, fill
from .articulation import FORMANT_CEILING, FORMANT_MARGIN
from .audio_io import CANONICAL_RATE, read_wav, to_canonical
from .errors import AlignmentMissing, BadSetting, RepSpeechError, SignalTooShort, error_code
from .timing import NO_CONTOUR, finite_at_least, timing_features

RATE_FEATURES = ("speaking_rate", "articulation_rate", "pause_rate")
S_FEATURES = ("duration", *RATE_FEATURES, *A_FEATURES)
LEVEL_FEATURES = {"S": S_FEATURES, "a": A_FEATURES}


@dataclass(frozen=True)
class PipelineParams:
    """The analysis settings ``repspeech extract`` exposes, one flag each; every other setting is a module constant.

    Each field is named after its flag's dest, which is also its ``--config``
    key and its key in a record's ``provenance["settings"]``.
    """

    silence_threshold_db: float = field(default=-25.0, metadata={"help": "dB relative to the loudest frame"})
    min_pause: float = field(default=0.30, metadata={"help": "seconds"})
    min_dip: float = field(default=2.0, metadata={"help": "dB"})
    formant_ceiling: float = field(default=FORMANT_CEILING, metadata={"help": "Hz"})
    vowel_labels: frozenset[str] = field(default=DEFAULT_VOWEL_LABELS, metadata={"help": "comma-separated labels"})
    min_vowel_duration: float = field(default=DEFAULT_MIN_VOWEL_DURATION, metadata={"help": "seconds"})
    phone_tier: str = field(default=DEFAULT_PHONE_TIER, metadata={"help": "name of the phone tier"})

    def __post_init__(self):
        if not finite_at_least(self.silence_threshold_db, float("-inf")):
            raise BadSetting(f"silence_threshold_db must be finite, got {self.silence_threshold_db!r}")
        for name in ("min_pause", "min_dip", "min_vowel_duration"):
            if not finite_at_least(getattr(self, name), 0.0):
                raise BadSetting(f"{name} must be finite and at least 0, got {getattr(self, name)!r}")
        # no resonance lies between the margins of a lower ceiling, and the canonical signal holds none past Nyquist
        lo, hi = 2 * FORMANT_MARGIN, CANONICAL_RATE / 2
        if not (finite_at_least(self.formant_ceiling, lo) and lo < self.formant_ceiling <= hi):
            raise BadSetting(f"formant_ceiling must lie in ({lo:g}, {hi:g}] Hz, got {self.formant_ceiling!r}")
        # a comma separates labels in the flag's text, so no label can hold one
        labels = self.vowel_labels
        if not (
            isinstance(labels, (set, frozenset))
            and labels
            and all(isinstance(v, str) and v and "," not in v for v in labels)
        ):
            raise BadSetting(f"vowel_labels must be a non-empty set of non-empty labels without commas, got {labels!r}")
        if not (isinstance(self.phone_tier, str) and self.phone_tier):
            raise BadSetting(f"phone_tier must be a non-empty tier name, got {self.phone_tier!r}")


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
    """The version, the settings of ``params`` in ``--config`` form and, once pitch was tracked, its adapted range.

    In config form a number and the tier stay as they are, and the label set becomes a sorted list.
    """
    settings = {**asdict(params), "vowel_labels": sorted(params.vowel_labels)}
    snap = {"version": __version__, "settings": settings}
    if analysis is None:  # the recording could not be read, or no span was measured
        return snap
    try:
        pitch = analysis.pitch()
    except RepSpeechError:
        return snap
    snap["pitch_adapted"] = {"floor": pitch.floor, "ceiling": pitch.ceiling}
    return snap


def extract_recording(req: ExtractionRequest) -> list[FeatureRecord]:
    """Extract one FeatureRecord per requested level for a recording, in level order: S, then a.

    Level S covers the whole canonical recording; level a aggregates over
    the aligned open-vowel instances of the TextGrid, and without one its
    features carry AlignmentMissing.  Both levels are rows of one
    ``Analysis.reduce`` call over one span list, so each track is computed
    once.  A recording that cannot be read or decoded gives
    one record per level whose every feature carries the read error.
    Every record, measured or not, is built at the one site at the end.
    """
    levels = tuple(req.levels)
    for level in levels:
        if level not in LEVEL_FEATURES:
            raise ValueError(f"unknown extraction level {level!r}")

    with dsp.helper_scope():  # one set of helper threads for the recording, gone when it returns
        params = req.params
        try:
            buf = to_canonical(read_wav(req.audio_path))
        except RepSpeechError as exc:  # every feature of every level carries the read error
            analysis = None
            measured = {level: _absent(level, error_code(exc)) for level in levels}
        else:
            measured = {}  # level -> (features, errors, n_vowel_instances)
            # one span list, reduced at once: the whole recording first, so its
            # spectral moments run before any track but CPP exists, then the vowels
            spans = [(0.0, buf.duration)] if "S" in levels else []
            n_whole = len(spans)
            if "a" in levels:
                try:
                    if not req.textgrid_path:
                        raise AlignmentMissing("vowel-level extraction requires a TextGrid path")
                    grid = read_textgrid(req.textgrid_path)
                    vowels = find_target_vowels(grid, params.vowel_labels, params.min_vowel_duration, params.phone_tier)
                    spans += vowel_spans(vowels, buf.duration)
                except RepSpeechError as exc:  # no alignment or no usable vowel: every level-a feature is absent
                    measured["a"] = _absent("a", error_code(exc))
            analysis = Analysis(buf, params.formant_ceiling) if spans else None  # no span, no track to compute
            rows = analysis.reduce(spans) if analysis else []
            if "S" in levels:
                features, errors = dict.fromkeys(S_FEATURES), {}
                features["duration"] = buf.duration
                fill(features, errors, RATE_FEATURES, lambda: _rates(analysis, params))
                features.update(rows[0][0])
                errors.update(rows[0][1])
                measured["S"] = (features, errors, None)
            if "a" in levels and "a" not in measured:
                agg = vowel_level_features(A_FEATURES, rows[n_whole:])
                measured["a"] = (agg.means, agg.errors, agg.n_instances)
        name = Path(req.audio_path).stem
        return [
            FeatureRecord(name, level, *measured[level], _provenance(params, analysis))
            for level in LEVEL_FEATURES
            if level in measured
        ]


def _absent(level: str, code: str) -> tuple[dict, dict, None]:
    """Every feature of ``level`` absent with ``code``."""
    return dict.fromkeys(LEVEL_FEATURES[level]), dict.fromkeys(LEVEL_FEATURES[level], code), None


def _rates(analysis: Analysis, params: PipelineParams) -> tuple[float, float, float]:
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


def record_to_row(rec: FeatureRecord) -> dict:
    """Flatten a record into a CSV-ready row with feature names as columns."""
    row: dict[str, object] = {"recording": rec.recording, "level": rec.level}
    for k in S_FEATURES:
        row[k] = rec.features.get(k)
    row["n_vowel_instances"] = rec.n_vowel_instances
    row["errors"] = json.dumps(rec.errors, sort_keys=True) if rec.errors else ""
    return row
