"""Read forced-alignment TextGrid files, select the target vowels, and average their features.

Only the long text format with interval tiers is accepted, which is what
alignment tools emit by default; short, binary, and point-tier variants
are rejected.  Labels are preserved verbatim, including embedded spaces
and doubled-quote escapes.  ``find_target_vowels`` returns the phone
tier's own ``Interval`` objects.  Nothing here reads an analysis track or
builds a record: the pipeline reduces the ``vowel_spans``,
``vowel_level_features`` averages their rows, and the pipeline builds
every record, level S then level a, at one site.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

from .errors import (
    IoFailure,
    MalformedTextGrid,
    MissingPhoneTier,
    NoMeasurableInstances,
    NonMonotoneIntervals,
    NoTargetVowels,
    VowelOutOfBounds,
)

DEFAULT_VOWEL_LABELS = frozenset({"AA", "AA0", "AA1", "AA2"})
DEFAULT_MIN_VOWEL_DURATION = 0.050
DEFAULT_PHONE_TIER = "phones"
_BOUNDARY_SLACK = 1e-6


@dataclass(frozen=True)
class Interval:
    xmin: float
    xmax: float
    label: str


@dataclass(frozen=True)
class Tier:
    name: str
    xmin: float
    xmax: float
    intervals: tuple[Interval, ...]


@dataclass(frozen=True)
class TierSet:
    xmin: float
    xmax: float
    tiers: tuple[Tier, ...]

    def tier(self, name: str) -> Tier | None:
        for t in self.tiers:
            if t.name == name:
                return t
        return None


# ---------------------------------------------------------------------------
# parsing


class _Cursor:
    def __init__(self, text: str):
        # split on plain newlines only; exotic Unicode separators may occur
        # inside quoted labels and must not break lines
        self.lines = [line.rstrip("\r") for line in text.split("\n")]
        self.pos = 0

    def next_line(self) -> str:
        while self.pos < len(self.lines):
            line = self.lines[self.pos].strip()
            self.pos += 1
            if line:
                return line
        raise MalformedTextGrid("unexpected end of file")

    def expect_header(self, *names: str) -> str:
        line = self.next_line()
        for name in names:
            if line.startswith(name):
                return line
        raise MalformedTextGrid(f"expected one of {names}, got {line!r}")

    def read_value(self, key: str) -> str:
        line = self.next_line()
        if "=" not in line:
            raise MalformedTextGrid(f"expected '{key} = ...', got {line!r}")
        lhs, rhs = line.split("=", 1)
        if lhs.strip() != key:
            raise MalformedTextGrid(f"expected key {key!r}, got {lhs.strip()!r}")
        return rhs.strip()

    def read_number(self, key: str) -> float:
        raw = self.read_value(key)
        try:
            return float(raw)
        except ValueError as exc:
            raise MalformedTextGrid(f"bad number for {key}: {raw!r}") from exc

    def read_count(self, key: str) -> int:
        """A count: a finite, non-negative whole number."""
        value = self.read_number(key)
        if not (math.isfinite(value) and value >= 0 and value.is_integer()):
            raise MalformedTextGrid(f"bad count for {key}: {value!r}")
        return int(value)

    def read_string(self, key: str) -> str:
        return _unquote(self.read_value(key))


def _unquote(raw: str) -> str:
    if len(raw) < 2 or not raw.startswith('"'):
        raise MalformedTextGrid(f"expected a quoted string, got {raw!r}")
    out = []
    i = 1
    while i < len(raw):
        ch = raw[i]
        if ch == '"':
            if i + 1 < len(raw) and raw[i + 1] == '"':
                out.append('"')
                i += 2
                continue
            tail = raw[i + 1 :].strip()
            if tail:
                raise MalformedTextGrid(f"trailing content after closing quote: {tail!r}")
            return "".join(out)
        out.append(ch)
        i += 1
    raise MalformedTextGrid(f"unterminated string: {raw!r}")


def _quote(label: str) -> str:
    if "\n" in label or "\r" in label:
        raise ValueError("labels cannot contain line breaks")
    return '"' + label.replace('"', '""') + '"'


def parse_textgrid(text: str) -> TierSet:
    """Parse long-format TextGrid file contents into a TierSet.

    Raises MalformedTextGrid on structural problems and
    NonMonotoneIntervals when a tier's intervals are empty, unordered, or
    overlapping.
    """
    if text.lstrip().startswith("ooBinaryFile"):
        raise MalformedTextGrid("binary TextGrid not supported; export the long text format")
    cur = _Cursor(text)
    if cur.read_string("File type") != "ooTextFile":
        raise MalformedTextGrid("not an ooTextFile")
    if cur.read_string("Object class") != "TextGrid":
        raise MalformedTextGrid("not a TextGrid object")
    xmin = cur.read_number("xmin")
    xmax = cur.read_number("xmax")
    exists = cur.next_line()
    if not exists.startswith("tiers?"):
        # short format puts a bare number where 'tiers? <exists>' belongs
        raise MalformedTextGrid("short-format TextGrid not supported; use the long text format")
    size = cur.read_count("size")
    cur.expect_header("item []")
    tiers = []
    for _ in range(size):
        cur.expect_header("item [")
        klass = cur.read_string("class")
        if klass != "IntervalTier":
            raise MalformedTextGrid(f"unsupported tier class {klass!r}; only interval tiers are read")
        name = cur.read_string("name")
        t_xmin = cur.read_number("xmin")
        t_xmax = cur.read_number("xmax")
        n_intervals = cur.read_count("intervals: size")
        intervals = []
        for _ in range(n_intervals):
            cur.expect_header("intervals [")
            i_xmin = cur.read_number("xmin")
            i_xmax = cur.read_number("xmax")
            label = cur.read_string("text")
            intervals.append(Interval(i_xmin, i_xmax, label))
        tiers.append(Tier(name, t_xmin, t_xmax, tuple(intervals)))
    grid = TierSet(xmin, xmax, tuple(tiers))
    _validate(grid)
    return grid


def read_textgrid(path) -> TierSet:
    """Read and parse a UTF-8 long-format TextGrid file.

    Raises IoFailure when the file cannot be read and MalformedTextGrid
    when it is not UTF-8 text, besides the errors of ``parse_textgrid``.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise MalformedTextGrid(f"not UTF-8 text: {exc}") from exc
    return parse_textgrid(text)


def _validate(grid: TierSet) -> None:
    for tier in grid.tiers:
        prev_end = None
        for iv in tier.intervals:
            if not (iv.xmin < iv.xmax):
                raise NonMonotoneIntervals(
                    f"tier {tier.name!r}: interval [{iv.xmin}, {iv.xmax}] is empty or inverted"
                )
            if prev_end is not None and iv.xmin < prev_end - 1e-9:
                raise NonMonotoneIntervals(
                    f"tier {tier.name!r}: interval starting {iv.xmin} overlaps previous end {prev_end}"
                )
            prev_end = iv.xmax
            if iv.xmin < tier.xmin - 1e-9 or iv.xmax > tier.xmax + 1e-9:
                raise NonMonotoneIntervals(
                    f"tier {tier.name!r}: interval [{iv.xmin}, {iv.xmax}] outside tier bounds"
                )


def _fmt_num(v: float) -> str:
    return repr(float(v))


def serialize_textgrid(grid: TierSet) -> str:
    """Emit the long text format; parse(serialize(g)) reproduces g exactly."""
    out = ['File type = "ooTextFile"', 'Object class = "TextGrid"', ""]
    out.append(f"xmin = {_fmt_num(grid.xmin)} ")
    out.append(f"xmax = {_fmt_num(grid.xmax)} ")
    out.append("tiers? <exists> ")
    out.append(f"size = {len(grid.tiers)} ")
    out.append("item []: ")
    for ti, tier in enumerate(grid.tiers, start=1):
        out.append(f"    item [{ti}]:")
        out.append('        class = "IntervalTier" ')
        out.append(f"        name = {_quote(tier.name)} ")
        out.append(f"        xmin = {_fmt_num(tier.xmin)} ")
        out.append(f"        xmax = {_fmt_num(tier.xmax)} ")
        out.append(f"        intervals: size = {len(tier.intervals)} ")
        for ii, iv in enumerate(tier.intervals, start=1):
            out.append(f"        intervals [{ii}]:")
            out.append(f"            xmin = {_fmt_num(iv.xmin)} ")
            out.append(f"            xmax = {_fmt_num(iv.xmax)} ")
            out.append(f"            text = {_quote(iv.label)} ")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# vowel selection


def find_target_vowels(
    grid: TierSet,
    target_labels: frozenset[str] | set[str],
    min_duration: float,
    tier_name: str,
) -> list[Interval]:
    """Select the intervals of tier ``tier_name`` whose label is a target and which last long enough.

    The tier's own intervals come back, in time order; the duration filter
    keeps anything at least ``min_duration`` long (a hair of float slack is
    allowed).  The ``DEFAULT_*`` constants above are the selection that both
    ``repspeech vowels`` and ``repspeech extract --level a`` make unless
    told otherwise.
    """
    tier = grid.tier(tier_name)
    if tier is None:
        raise MissingPhoneTier(f"no tier named {tier_name!r}")
    return [iv for iv in tier.intervals if iv.label in target_labels and iv.xmax - iv.xmin >= min_duration - 1e-12]


def vowel_spans(vowels: list[Interval], duration: float) -> list[tuple[float, float]]:
    """The ``(start, end)`` of each vowel, clipped to a ``duration``-second recording, in instance order.

    Raises NoTargetVowels on an empty list, and VowelOutOfBounds for a
    vowel reaching more than ``_BOUNDARY_SLACK`` past either end of the
    recording; a vowel within that slack is clipped and measured.
    """
    if not vowels:
        raise NoTargetVowels("no vowel instances to analyze")
    for v in vowels:
        if v.xmin < -_BOUNDARY_SLACK or v.xmax > duration + _BOUNDARY_SLACK:
            raise VowelOutOfBounds(
                f"vowel [{v.xmin:.3f}, {v.xmax:.3f}] outside the {duration:.3f} s recording"
            )
    return [(max(v.xmin, 0.0), min(v.xmax, duration)) for v in vowels]


# ---------------------------------------------------------------------------
# vowel-level features


@dataclass(frozen=True)
class VowelFeatureAggregate:
    """Per-feature means across vowel instances.

    A feature that could not be measured on any instance maps to None, and
    ``errors`` gives its code; ``feature_counts`` records how many
    instances contributed to each mean.
    """

    means: dict[str, float | None]
    n_instances: int
    feature_counts: dict[str, int] = field(default_factory=dict)
    errors: dict[str, str] = field(default_factory=dict)


def vowel_level_features(keys: tuple[str, ...], rows: list[tuple[dict, dict]]) -> VowelFeatureAggregate:
    """Average each feature in ``keys`` over ``rows``, one ``(values, errors)`` row per vowel instance.

    Sums run in row order.  An instance where a feature was not measured
    is skipped for that feature, and ``feature_counts`` says how many
    instances contributed.  A feature no instance measures carries the
    code every instance gave it (a failed track gives the same code on
    every span, the one level S reports), or NoMeasurableInstances when
    they differ.
    """
    unmeasured = NoMeasurableInstances.__name__
    sums = dict.fromkeys(keys, 0.0)
    counts = dict.fromkeys(keys, 0)
    codes: dict[str, set[str]] = {k: set() for k in keys}
    for values, span_errors in rows:
        for k in keys:
            value = values[k]
            if value is not None and math.isfinite(value):
                sums[k] += value
                counts[k] += 1
            else:
                codes[k].add(span_errors.get(k, unmeasured))

    means = {k: (sums[k] / counts[k] if counts[k] else None) for k in keys}
    errors = {k: (next(iter(codes[k])) if len(codes[k]) == 1 else unmeasured) for k in keys if not counts[k]}
    return VowelFeatureAggregate(means, len(rows), counts, errors)
