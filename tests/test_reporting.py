"""Normative table aggregation and emission."""

import csv
import io
import json
import random

import pytest

from helpers import sort_based_quartiles

from repspeech.errors import EmptyGroup
from repspeech.pipeline import LEVEL_FEATURES, S_FEATURES
from repspeech.reporting import (
    FEATURE_FORMATS,
    LEVEL_ORDER,
    emit_table,
    format_cell,
    Cell,
    quartiles,
    summarize_features,
)


def test_table_rows_follow_the_record_features():
    assert tuple(FEATURE_FORMATS) == S_FEATURES
    assert LEVEL_ORDER == tuple(LEVEL_FEATURES)


def test_odd_count_quartiles():
    assert quartiles([1, 2, 3, 4, 5]) == (3.0, 2.0, 4.0)


def test_single_value():
    assert quartiles([7.25]) == (7.25, 7.25, 7.25)


def test_matches_sort_oracle():
    rng = random.Random(0)
    for _ in range(25):
        values = [rng.uniform(-50, 50) for _ in range(rng.randint(1, 40))]
        med, q1, q3 = quartiles(values)
        o_med, o_q1, o_q3 = sort_based_quartiles(values)
        assert med == pytest.approx(o_med, rel=1e-12, abs=1e-12)
        assert q1 == pytest.approx(o_q1, rel=1e-12, abs=1e-12)
        assert q3 == pytest.approx(o_q3, rel=1e-12, abs=1e-12)


def records(seed=0, groups=("Week", "Day1"), n=12):
    rng = random.Random(seed)
    rows = []
    for g in groups:
        for i in range(n):
            rows.append(
                {
                    "recording": f"{g}_{i}",
                    "level": "S",
                    "cohort": g,
                    "speaking_rate": rng.uniform(3.0, 4.5),
                    "pitch_mean": rng.uniform(110, 220),
                }
            )
    return rows


def test_summary_shape_and_ordering_invariance():
    rows = records()
    table = summarize_features(rows, "cohort")
    assert table.groups == ["Day1", "Week"]
    assert ("speaking_rate", "S") in table.rows
    shuffled = list(rows)
    random.Random(5).shuffle(shuffled)
    table2 = summarize_features(shuffled, "cohort")
    assert table.cells == table2.cells
    assert table.rows == table2.rows


def test_quartile_order_in_every_cell():
    table = summarize_features(records(3), "cohort")
    for cell in table.cells.values():
        assert cell.q1 <= cell.median <= cell.q3


def test_markdown_formatting_examples():
    assert format_cell("speaking_rate", Cell(3.6912, 3.4001, 3.9897, 26)) == "3.69 (3.40, 3.99)"
    assert format_cell("pitch_mean", Cell(187.2, 120.4, 202.0, 26)) == "187 (120, 202)"
    assert format_cell("f2_mean", Cell(1652.1, 1561.0, 1720.9, 26)) == "1.65 (1.56, 1.72)"


def test_markdown_table_contains_cells():
    table = summarize_features(
        [
            {"recording": "r1", "level": "S", "cohort": "Week", "speaking_rate": 3.6912},
            {"recording": "r2", "level": "S", "cohort": "Week", "speaking_rate": 3.6912},
        ],
        "cohort",
    )
    text = emit_table(table, "markdown")
    assert "3.69 (3.69, 3.69)" in text
    assert "Speaking rate" in text


def test_empty_table_header_only():
    table = summarize_features([{"recording": "r", "level": "S", "cohort": "A"}], "cohort")
    text = emit_table(table, "markdown")
    assert text.count("\n") == 2  # header + separator only


def test_empty_records_raises():
    with pytest.raises(EmptyGroup):
        summarize_features([], "cohort")


def test_csv_and_json_carry_every_cell_exactly():
    table = summarize_features(records(7), "cohort")
    csv_rows = list(csv.DictReader(io.StringIO(emit_table(table, "csv"))))
    from_csv = {
        (r["feature"], r["level"], r["group"]): Cell(float(r["median"]), float(r["q1"]), float(r["q3"]), int(r["n"]))
        for r in csv_rows
    }
    payload = json.loads(emit_table(table, "json"))
    from_json = {
        (row["feature"], row["level"], g): Cell(cell["median"], cell["q1"], cell["q3"], cell["n"])
        for row in payload["rows"]
        for g, cell in row["cells"].items()
    }
    assert len(table.cells) == 4
    assert from_csv == table.cells  # float equality: every digit survives
    assert from_json == table.cells
    assert list(dict.fromkeys((r["feature"], r["level"]) for r in csv_rows)) == table.rows
    assert [(row["feature"], row["level"]) for row in payload["rows"]] == table.rows
    assert payload["group_sizes"] == table.group_sizes


def test_none_and_empty_values_skipped():
    rows = [
        {"recording": "a", "level": "S", "cohort": "X", "pitch_mean": 150.0, "hnr_mean": None},
        {"recording": "b", "level": "S", "cohort": "X", "pitch_mean": "", "hnr_mean": 9.0},
    ]
    table = summarize_features(rows, "cohort")
    assert table.cells[("pitch_mean", "S", "X")].n == 1
    assert table.cells[("hnr_mean", "S", "X")].n == 1
