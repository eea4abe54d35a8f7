"""Extraction reproduces the benchmark's stored golden records exactly.

The benchmark's ``read_sa`` smoke corpus (seed 0) covers both levels; its
records in ``bench/golden.json`` were written by the code before any later
refactor, so a refactor that changes a feature value shows here.
"""

import json
import sys
from pathlib import Path

import pytest

from repspeech.pipeline import ExtractionRequest, extract_recording

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def bench_modules():
    sys.path.insert(0, str(BENCH))
    try:
        import corpus
        import oracle
    finally:
        sys.path.remove(str(BENCH))
    return corpus, oracle


def test_read_sa_matches_golden(bench_modules, tmp_path):
    corpus, oracle = bench_modules
    workload = corpus.build("read_sa", 0, tmp_path, "smoke")
    records = [
        {
            "recording": rec.recording,
            "level": rec.level,
            "features": rec.features,
            "errors": rec.errors,
            "n_vowel_instances": rec.n_vowel_instances,
        }
        for r in workload.recordings
        for rec in extract_recording(ExtractionRequest(r.wav, r.textgrid, workload.levels))
    ]
    golden = json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))["read_sa"]
    assert oracle.max_rel_diff(records, golden) <= 1e-12
