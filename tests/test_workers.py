"""Extraction in fresh processes: rows that do not depend on the BLAS environment, and pool workers that start warm."""

import json
import os
import platform
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repspeech
from repspeech.audio_io import write_wav
from repspeech.synth import synth_formant_voice

SRC = str(Path(repspeech.__file__).resolve().parent.parent)
# the variables numpy's OpenBLAS reads its thread count from, most specific first
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def fresh_python(args: list[str], blas_threads: str | None = None, path: tuple[str, ...] = ()) -> str:
    """Stdout of a new interpreter running ``args`` with OpenBLAS threads unset (None) or set; fails on exit != 0."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    env["PYTHONPATH"] = os.pathsep.join([SRC, *path, *filter(None, [os.environ.get("PYTHONPATH")])])
    done = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_rows_do_not_depend_on_blas_threads_or_workers(tmp_path):
    voices = {"low": (120, ((700, 80), (1200, 90)), 1.5), "high": (210, ((500, 80), (1500, 90)), 2.0)}
    wavs = [str(tmp_path / f"{name}.wav") for name in voices]
    for wav, voice in zip(wavs, voices.values()):
        write_wav(synth_formant_voice(*voice), wav)
    extract = ["-m", "repspeech.cli", "extract", "--format", "json", *wavs, "--threads"]
    outputs = {
        (blas, workers): fresh_python([*extract, workers], blas)
        for blas in (None, "1", "2")
        for workers in ("1", "2")
    }
    pinned = outputs[("1", "1")]
    assert len(json.loads(pinned)) == 2
    assert {key for key, out in outputs.items() if out != pinned} == set()


# run by a fresh interpreter: the minor page faults of a pool worker's first extraction and its threads
# after it, in a plain pool and in the pool ``extract --threads 2`` starts
FAULT_PROBE = """
    import json, os, resource
    from repspeech import cli

    EXTRACT = cli._extract_one
    first = True

    def faults_of_first(req):
        global first
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        rows = EXTRACT(req)
        if first:
            first = False
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
            path = os.path.join(os.environ["FAULT_DIR"], f"{os.getpid()}.json")
            with open(path, "w") as fh:
                json.dump([faults, len(os.listdir("/proc/self/task"))], fh)
        return rows
"""
FAULT_RUN = """
    import glob, json, multiprocessing, os, sys
    from concurrent.futures import ProcessPoolExecutor
    import probe
    from repspeech import cli
    from repspeech.pipeline import ExtractionRequest

    def worker_reports():
        found = glob.glob(os.path.join(os.environ["FAULT_DIR"], "*.json"))
        reports = []
        for path in found:
            with open(path) as fh:
                reports.append(json.load(fh))
            os.remove(path)
        return reports

    wav, twin, out_dir = sys.argv[1:4]
    with ProcessPoolExecutor(1) as pool:
        pool.submit(probe.faults_of_first, ExtractionRequest(wav)).result(timeout=120)
    plain = worker_reports()
    cli._extract_one = probe.faults_of_first
    assert cli.main(["extract", "--threads", "2", wav, twin, "-o", os.path.join(out_dir, "rows.csv")]) == 0
    print(json.dumps({"plain": plain, "extract": worker_reports(), "start": multiprocessing.get_start_method()}))
"""


@pytest.mark.skipif(
    sys.platform != "linux" or platform.libc_ver()[0] != "glibc", reason="the mmap threshold is glibc's"
)
def test_pool_worker_starts_with_a_trained_allocator_and_one_thread(tmp_path, monkeypatch):
    wav = tmp_path / "voice.wav"
    write_wav(synth_formant_voice(120, ((700, 80), (1200, 90), (2600, 120)), 6.0), wav)
    twin = tmp_path / "twin.wav"  # a second input, so extract starts two workers; one stem names one input
    shutil.copyfile(wav, twin)
    (tmp_path / "probe.py").write_text(textwrap.dedent(FAULT_PROBE))
    faults = tmp_path / "faults"
    faults.mkdir()
    monkeypatch.setenv("FAULT_DIR", str(faults))
    script = textwrap.dedent(FAULT_RUN)
    reports = json.loads(fresh_python(["-c", script, str(wav), str(twin), str(tmp_path)], path=(str(tmp_path),)))
    ((plain, _),) = reports["plain"]
    assert reports["extract"] and all(faults <= plain / 3 for faults, _ in reports["extract"]), reports
    if reports["start"] == "fork":  # a worker that imports numpy afresh starts OpenBLAS's threads with it
        # OpenBLAS, left to its default thread count, started no thread beside the worker's own
        assert all(threads == 1 for _, threads in reports["extract"]), reports
