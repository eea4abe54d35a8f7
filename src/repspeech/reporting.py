"""Aggregate feature records into normative summary tables.

Cells hold median and quartiles computed by linear interpolation between
order statistics.  Markdown output mirrors the conventional presentation,
"median (q1, q3)" with per-feature display precision; CSV and JSON carry
every value at full precision, so parsing one gives back the exact floats.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .analysis import FEATURES, LEVEL_FEATURES
from .errors import EmptyGroup, RepSpeechError


# a summary table's rows: each feature, in record order, at each level
FEATURE_FORMATS = {f.name: f for f in FEATURES}
FEATURE_ORDER = tuple(FEATURE_FORMATS)
LEVEL_ORDER = tuple(LEVEL_FEATURES)


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

    Each record is a mapping with a ``level`` entry (``S`` when absent),
    the grouping column, and any subset of the feature identifiers.
    Missing or non-numeric feature values are skipped.  A group's size
    counts its recordings, and a record without a ``recording`` entry
    counts as one; a level ``FEATURES`` does not name, or two records of
    one recording at one level, raise ``RepSpeechError``.  Groups come out
    sorted so the result only depends on the multiset of records.
    """
    buckets: dict[tuple[str, str, str], list[float]] = {}
    group_records: dict[str, set] = {}
    seen: set[tuple[str, str]] = set()
    count = 0
    for rec in records:
        count += 1
        group = str(rec.get(group_key, ""))
        level = str(rec.get("level", "S"))
        recording = rec.get("recording")
        if level not in LEVEL_ORDER:
            known = ", ".join(LEVEL_ORDER)
            raise RepSpeechError(f"recording {recording!r} has a row at unknown level {level!r}; levels are {known}")
        if recording is not None:
            recording = str(recording)
            if (recording, level) in seen:
                raise RepSpeechError(f"recording {recording!r} has more than one row at level {level}")
            seen.add((recording, level))
        group_records.setdefault(group, set()).add(count if recording is None else recording)
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
    rows = [(f, lv) for f in FEATURE_ORDER for lv in LEVEL_ORDER if (f, lv) in present]
    table = NormativeTable(groups=groups, rows=rows)
    table.group_sizes = {g: len(group_records[g]) for g in groups}
    for (feature, level, group), values in buckets.items():
        med, q1, q3 = quartiles(values)
        table.cells[(feature, level, group)] = Cell(med, q1, q3, len(values))
    return table


def format_cell(feature: str, cell: Cell) -> str:
    fmt = FEATURE_FORMATS[feature]
    def one(v: float) -> str:
        return f"{v / 10**fmt.power:.{fmt.decimals}f}"
    return f"{one(cell.median)} ({one(cell.q1)}, {one(cell.q3)})"


def _emit_markdown(table: NormativeTable) -> str:
    header = ["Feature", "L"] + [
        f"{g} (n = {table.group_sizes.get(g, 0)})" for g in table.groups
    ]
    lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    for feature, level in table.rows:
        fmt = FEATURE_FORMATS[feature]
        row = [f"{fmt.label}, {fmt.unit}" + (f" x10^{fmt.power}" if fmt.power else ""), level]
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

