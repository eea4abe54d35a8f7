"""Extraction reproduces the benchmark's stored golden records exactly.

The benchmark's smoke corpora (seed 0) cover both levels (``read_sa``),
long passages (``long_s``) and 44.1/48 kHz stereo and 16 kHz mono
sustained vowels (``vowels_batch``, the only one with resampling); their
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


@pytest.mark.parametrize("name", ["read_sa", "vowels_batch", "long_s"])
def test_matches_golden(bench_modules, tmp_path, name):
    corpus, oracle = bench_modules
    workload = corpus.build(name, 0, tmp_path, "smoke")
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
    golden = json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))[name]
    assert oracle.max_rel_diff(records, golden) <= 1e-12
