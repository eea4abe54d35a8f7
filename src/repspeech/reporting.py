"""Aggregate feature records into normative summary tables.

Cells hold median and quartiles computed by linear interpolation between
order statistics.  Markdown output mirrors the conventional presentation,
"median (q1, q3)" with per-feature display precision; CSV and JSON carry
full precision and round-trip losslessly.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .errors import EmptyGroup


@dataclass(frozen=True)
class FeatureFormat:
    display: str
    decimals: int
    scale: float = 1.0  # value is divided by this for display


# Display order and formatting for the exemplar feature set.
FEATURE_FORMATS: dict[str, FeatureFormat] = {
    "duration": FeatureFormat("Duration, s", 0),
    "speaking_rate": FeatureFormat("Speaking rate, syllables/s", 2),
    "articulation_rate": FeatureFormat("Articulation rate, syllables/s", 2),
    "pause_rate": FeatureFormat("Pause rate, 1/s", 3),
    "intensity_mean": FeatureFormat("Intensity (mean), dB", 1),
    "pitch_mean": FeatureFormat("Pitch (mean), Hz", 0),
    "pitch_sd": FeatureFormat("Pitch (std deviation), semitones", 2),
    "hnr_mean": FeatureFormat("Harmonics-to-noise ratio (mean), dB", 2),
    "spectral_slope": FeatureFormat("Spectral slope (mean), dB/octave", 1),
    "cpp_mean": FeatureFormat("Cepstral peak prominence (mean), dB", 2),
    "f1_mean": FeatureFormat("First formant (mean), Hz", 0),
    "f2_mean": FeatureFormat("Second formant (mean), Hz x10^3", 2, scale=1000.0),
    "spectral_gravity": FeatureFormat("Spectral gravity (mean), Hz", 0),
    "spectral_deviation": FeatureFormat("Spectral deviation (mean), Hz", 0),
}
FEATURE_ORDER = tuple(FEATURE_FORMATS)
LEVEL_ORDER = ("S", "a")


@dataclass(frozen=True)
class Cell:
    median: float
    q1: float
    q3: float
    n: int


@dataclass
class NormativeTable:
    groups: list[str]
    rows: list[tuple[str, str]]  # (feature, level)
    cells: dict[tuple[str, str, str], Cell] = field(default_factory=dict)
    group_sizes: dict[str, int] = field(default_factory=dict)


def quartiles(values: Iterable[float]) -> tuple[float, float, float]:
    """Median and quartiles by linear interpolation between order statistics."""
    arr = np.asarray(sorted(values), dtype=np.float64)
    if arr.size == 0:
        raise EmptyGroup("cannot summarize an empty value set")
    q1, med, q3 = np.quantile(arr, [0.25, 0.5, 0.75], method="linear")
    return float(med), float(q1), float(q3)


def summarize_features(records: Iterable[Mapping], group_key: str) -> NormativeTable:
    """Build a normative table from feature rows.

    Each record is a mapping with a ``level`` entry, the grouping column,
    and any subset of the feature identifiers.  Missing or non-numeric
    feature values are skipped.  Groups come out sorted so the result only
    depends on the multiset of records.
    """
    buckets: dict[tuple[str, str, str], list[float]] = {}
    group_records: dict[str, set] = {}
    count = 0
    for rec in records:
        count += 1
        group = str(rec.get(group_key, ""))
        level = str(rec.get("level", "S"))
        # group size counts distinct recordings, falling back to record count
        group_records.setdefault(group, set()).add(str(rec.get("recording", count)))
        for feature in FEATURE_ORDER:
            value = rec.get(feature)
            if value is None or value == "":
                continue
            try:
                value = float(value)
            except (TypeError, ValueError):
                continue
            if not np.isfinite(value):
                continue
            buckets.setdefault((feature, level, group), []).append(value)
    if count == 0:
        raise EmptyGroup("no records to summarize")
    groups = sorted(group_records)
    present = {(f, lv) for (f, lv, _g) in buckets}
    rows = [
        (f, lv)
        for f in FEATURE_ORDER
        for lv in LEVEL_ORDER
        if (f, lv) in present
    ]
    table = NormativeTable(groups=groups, rows=rows)
    table.group_sizes = {g: len(group_records[g]) for g in groups}
    for (feature, level, group), values in buckets.items():
        med, q1, q3 = quartiles(values)
        table.cells[(feature, level, group)] = Cell(med, q1, q3, len(values))
    return table


def format_cell(feature: str, cell: Cell) -> str:
    fmt = FEATURE_FORMATS.get(feature, FeatureFormat(feature, 2))
    def one(v: float) -> str:
        return f"{v / fmt.scale:.{fmt.decimals}f}"
    return f"{one(cell.median)} ({one(cell.q1)}, {one(cell.q3)})"


def _emit_markdown(table: NormativeTable) -> str:
    header = ["Feature", "L"] + [
        f"{g} (n = {table.group_sizes.get(g, 0)})" for g in table.groups
    ]
    lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    for feature, level in table.rows:
        fmt = FEATURE_FORMATS.get(feature, FeatureFormat(feature, 2))
        row = [fmt.display, level]
        for g in table.groups:
            cell = table.cells.get((feature, level, g))
            row.append(format_cell(feature, cell) if cell else "")
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines) + "\n"


def _emit_csv(table: NormativeTable) -> str:
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["feature", "level", "group", "median", "q1", "q3", "n"])
    for feature, level in table.rows:
        for g in table.groups:
            cell = table.cells.get((feature, level, g))
            if cell:
                writer.writerow([feature, level, g, repr(cell.median), repr(cell.q1), repr(cell.q3), cell.n])
    return out.getvalue()


def _emit_json(table: NormativeTable) -> str:
    payload = {
        "groups": table.groups,
        "group_sizes": table.group_sizes,
        "rows": [
            {
                "feature": feature,
                "level": level,
                "cells": {
                    g: {
                        "median": cell.median,
                        "q1": cell.q1,
                        "q3": cell.q3,
                        "n": cell.n,
                    }
                    for g in table.groups
                    if (cell := table.cells.get((feature, level, g)))
                },
            }
            for feature, level in table.rows
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def emit_table(table: NormativeTable, fmt: str) -> str:
    if fmt == "markdown":
        return _emit_markdown(table)
    if fmt == "csv":
        return _emit_csv(table)
    if fmt == "json":
        return _emit_json(table)
    raise ValueError(f"unknown table format {fmt!r}")


def table_from_csv(text: str) -> NormativeTable:
    reader = csv.DictReader(io.StringIO(text))
    cells: dict[tuple[str, str, str], Cell] = {}
    for row in reader:
        key = (row["feature"], row["level"], row["group"])
        cells[key] = Cell(float(row["median"]), float(row["q1"]), float(row["q3"]), int(row["n"]))
    groups = sorted({g for (_f, _l, g) in cells})
    present = {(f, lv) for (f, lv, _g) in cells}
    rows = [(f, lv) for f in FEATURE_ORDER for lv in LEVEL_ORDER if (f, lv) in present]
    extra = sorted(present - set(rows))
    table = NormativeTable(groups=groups, rows=rows + extra)
    table.cells = cells
    return table


def table_from_json(text: str) -> NormativeTable:
    payload = json.loads(text)
    table = NormativeTable(groups=list(payload["groups"]), rows=[])
    table.group_sizes = {k: int(v) for k, v in payload.get("group_sizes", {}).items()}
    for row in payload["rows"]:
        table.rows.append((row["feature"], row["level"]))
        for g, cell in row["cells"].items():
            table.cells[(row["feature"], row["level"], g)] = Cell(
                float(cell["median"]), float(cell["q1"]), float(cell["q3"]), int(cell["n"])
            )
    return table
