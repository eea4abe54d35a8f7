"""Correctness checks of extracted records against synthesis ground truth.

Tolerances are the acceptance suite's: pitch within 1% of the synthesized
f0 (ac01), F1 within 50 Hz and F2 within 75 Hz of the resonators (ac04).
Counts are exact (ac03).
"""

from __future__ import annotations

import math

PITCH_REL_TOL = 0.01
F1_TOL_HZ = 50.0
F2_TOL_HZ = 75.0
COUNT_TOL = 1e-6  # rate x duration reproduces an integer count up to rounding


def _count(features: dict, rate_key: str) -> float | None:
    rate, duration = features.get(rate_key), features.get("duration")
    if rate is None or duration is None:
        return None
    return rate * duration


def check_record(rec: dict, truth) -> list[str]:
    """Problems with one record (empty when it is correct).

    ``rec`` has ``level``, ``features``, ``errors`` and ``n_vowel_instances``;
    ``truth`` is the ``corpus.Recording`` it was extracted from.
    """
    problems = []
    features, errors = rec["features"], rec["errors"]
    for key, value in features.items():
        if value is None:
            if key not in errors:
                problems.append(f"{key} absent without an error code")
        elif not math.isfinite(value):
            problems.append(f"{key} not finite: {value}")

    def expect_count(label: str, measured: float | None, truth_n: int) -> None:
        if measured is None or abs(measured - truth_n) > COUNT_TOL:
            problems.append(f"{label} {measured} != {truth_n}")

    def expect_near(key: str, target: float, tol: float) -> None:
        value = features.get(key)
        if value is None or not abs(value - target) <= tol:
            problems.append(f"{key} {value} not within {tol:g} of {target:g}")

    expect_near("pitch_mean", truth.f0, PITCH_REL_TOL * truth.f0)
    if rec["level"] == "S":
        expect_count("syllable nuclei", _count(features, "speaking_rate"), truth.n_bursts)
        expect_count("pauses", _count(features, "pause_rate"), truth.n_pauses)
    else:
        expect_count("vowel instances", rec["n_vowel_instances"], truth.n_vowels)
        expect_near("f1_mean", truth.f1, F1_TOL_HZ)
        expect_near("f2_mean", truth.f2, F2_TOL_HZ)
    return problems


def max_rel_diff(records: list[dict], golden: list[dict]) -> float:
    """Largest relative difference of any feature from the golden records.

    A record, feature or error code present on one side only counts as 1.0.
    """
    ref = {(g["recording"], g["level"]): g for g in golden}
    got = {(r["recording"], r["level"]): r for r in records}
    if ref.keys() != got.keys():
        return 1.0
    worst = 0.0
    for key, g in ref.items():
        r = got[key]
        if r["errors"] != g["errors"] or r["n_vowel_instances"] != g["n_vowel_instances"]:
            return 1.0
        if r["features"].keys() != g["features"].keys():
            return 1.0
        for name, want in g["features"].items():
            have = r["features"][name]
            if (want is None) != (have is None):
                return 1.0
            if want is not None and have != want:
                worst = max(worst, abs(have - want) / max(abs(want), 1e-300))
    return worst
