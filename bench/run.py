"""repspeech benchmark: one command, three corpus workloads.

    python3 bench/run.py --workload read_sa --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --smoke            # tiny inputs, every workload, both modes
    python3 bench/run.py --write-golden     # regenerate bench/golden.json

Run from the repository root.  Inputs are synthesized from the seed and
written as WAV/TextGrid files before any timing starts.  With ``--trace 0``
the last stdout line carries the end-to-end metrics (throughput, peak RSS,
import set-up time); with ``--trace 1`` it carries the per-layer metrics of
a separate traced run.  Every record is checked against its synthesis
ground truth; misses count as ``failed``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN_PATH = BENCH_DIR / "golden.json"
WORKLOADS = ("read_sa", "long_s", "vowels_batch")
DEFAULT_SEED = 0
# One BLAS/OpenMP thread per process: the benchmark process and each of the
# two pool workers would otherwise each start nproc threads and oversubscribe.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 5  # timed fresh-interpreter imports per run
SETUP_IMPORT = "import repspeech.cli, repspeech.pipeline"
RUN_LIMIT_S = 170.0  # a run must end within 180 s


def child_env() -> dict:
    return dict(os.environ, **THREAD_ENV, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH_DIR)]))


def run_child(argv: list[str], deadline: float) -> None:
    """Run a child in its own process group; past the deadline kill the group and wait."""
    proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT, start_new_session=True, stdout=sys.stderr)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if code != 0:
        raise RuntimeError(f"{' '.join(argv[:2])} exited with {code}")


def measure_setup(deadline: float) -> float:
    """Median wall time of a fresh interpreter importing the CLI and pipeline."""
    argv = [sys.executable, "-c", SETUP_IMPORT]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        run_child(argv, deadline)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_worker(spec: dict, work: Path, deadline: float) -> dict:
    spec_path = work / f"{spec['mode']}-spec.json"
    spec["result"] = str(work / f"{spec['mode']}-result.json")
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    run_child([sys.executable, str(BENCH_DIR / "worker.py"), str(spec_path)], deadline)
    return json.loads(Path(spec["result"]).read_text(encoding="utf-8"))


def device_groups(wl) -> dict | None:
    """Recordings per device that ``summarize_features`` must report for a batch."""
    if not wl.batch:
        return None
    from repspeech import protocol

    sizes: dict[str, int] = {}
    for r in wl.recordings:
        device = protocol.parse_recording_filename(Path(r.wav).name).device
        sizes[device] = sizes.get(device, 0) + 1
    return sizes


def tally(wl, items: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, first problems) over every record the items should hold."""
    truth = {Path(r.wav).stem: r for r in wl.recordings}
    groups = device_groups(wl)
    attempted = failed = 0
    problems: list[str] = []
    for item in items:
        got = {(r["recording"], r["level"]): r for r in item["records"]}
        for stem in item["recordings"]:
            for level in wl.levels:
                attempted += 1
                rec = got.get((stem, level))
                if rec is None:
                    issues = [item.get("error") or "no record"]
                else:
                    issues = oracle.check_record(rec, truth[stem])
                    if groups is not None and item.get("group_sizes") != groups:
                        issues.append(f"summary group sizes {item.get('group_sizes')} != {groups}")
                if issues:
                    failed += 1
                    if len(problems) < 5:
                        problems.append(f"{stem} {level}: {'; '.join(issues)}")
    return attempted, failed, problems


def end_to_end(result: dict, setup_s: float) -> dict:
    rates = [it["audio_s"] / it["wall_s"] for it in result["items"]]
    return {
        "audio_s_per_s": {"value": statistics.median(rates), "unit": "s/s"},
        "peak_rss_mb": {"value": result["peak_rss_kb"] / 1024.0, "unit": "MB"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }


def per_layer(tr: dict, golden_diff: float) -> dict:
    """Per-recording layer stats of the span and memory passes, plus counts and ratios."""
    n = len(tr["span"]["recordings"])
    c = tr["counts"]
    metrics = {}
    for name in spans.SPAN_NAMES:
        s = tr["layers"][name]
        metrics[f"{name}.calls"] = (s["calls"] / n, "count")
        metrics[f"{name}.busy_s"] = (s["busy_s"] / n, "s")
        metrics[f"{name}.self_s"] = (s["self_s"] / n, "s")
        metrics[f"{name}.peak_mb"] = (tr["peak_bytes"].get(name, 0) / 2**20, "MB")

    def per_recording(key: str) -> float:
        return c.get(key, 0) / n

    def ratio(num: str, den: str) -> float:
        return c.get(num, 0) / c[den] if c.get(den) else 0.0

    metrics["phonation.pitch_track.frames"] = (per_recording("phonation.pitch_track.frames"), "count")
    metrics["phonation.pitch_track.voiced_ratio"] = (
        ratio("phonation.pitch_track.voiced", "phonation.pitch_track.frames"), "ratio")
    metrics["phonation.cpp_track.frames"] = (per_recording("phonation.cpp_track.frames"), "count")
    metrics["articulation.formant_track.frames"] = (per_recording("articulation.formant_track.frames"), "count")
    metrics["alignment.vowels_selected"] = (per_recording("alignment.vowels_selected"), "count")
    metrics["alignment.vowels_measured_ratio"] = (
        ratio("alignment.vowel_features_measured", "alignment.vowel_features_possible"), "ratio")
    metrics["audio_io.bytes_read"] = (per_recording("audio_io.bytes_read"), "bytes")
    pool = 0.0
    if "pool" in tr:  # batches only
        serial_busy = tr["layers"]["pipeline.extract_recording"]["busy_s"]
        pool = serial_busy / (tr["pool_workers"] * tr["pool"]["wall_s"])
    metrics["cli.pool_efficiency"] = (pool, "ratio")
    metrics["trace.overhead_ratio"] = (tr["span"]["wall_s"] / tr["untraced"]["wall_s"], "ratio")
    metrics["pipeline.golden_max_rel_diff"] = (golden_diff, "ratio")
    metrics["timing.edge_voice_nuclei_missed"] = (tr["edge_nuclei_missed"], "count")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def golden_diff(name: str, items: list[dict]) -> float:
    """Largest relative difference from the stored golden records; 1.0 when none are stored."""
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8")) if GOLDEN_PATH.exists() else {}
    if name not in golden:
        return 1.0
    return oracle.max_rel_diff([r for item in items for r in item["records"]], golden[name])


def environment(seed: int) -> dict:
    import numpy
    import scipy
    import worker

    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pool_workers": worker.POOL_WORKERS,
        **THREAD_ENV,
    }


def run_once(name: str, seed: int, seconds: float, trace: bool, size: str, work: Path) -> dict:
    """One benchmark run: the result object for the last line, and report lines."""
    import corpus  # imports repspeech, so only once src/ is on the path

    deadline = time.monotonic() + RUN_LIMIT_S
    wl = corpus.build(name, seed, work / "inputs", size)
    corpus.save(wl, work / "workload.json")
    spec = {"workload": str(work / "workload.json"), "scratch": str(work)}
    lines = []
    if not trace:
        setup_s = measure_setup(deadline)
        warmup = corpus.build(name, seed, work / "warmup", "smoke")
        corpus.save(warmup, work / "warmup.json")
        result = run_worker({**spec, "mode": "timed", "seconds": seconds, "warmup": str(work / "warmup.json")},
                            work, deadline)
        attempted, failed, problems = tally(wl, result["items"])
        w_attempted, w_failed, w_problems = tally(warmup, result["warmup_items"])
        attempted, failed, problems = attempted + w_attempted, failed + w_failed, problems + w_problems
        metrics = end_to_end(result, setup_s)
        lines.append(f"items {len(result['items'])}, audio {sum(i['audio_s'] for i in result['items']):.1f} s, "
                     f"wall {sum(i['wall_s'] for i in result['items']):.2f} s, "
                     "item s/s " + " ".join(f"{i['audio_s'] / i['wall_s']:.3f}" for i in result["items"]))
    else:
        golden = corpus.build(name, DEFAULT_SEED, work / "golden", "smoke")
        corpus.save(golden, work / "golden.json")
        tr = run_worker({**spec, "mode": "trace", "golden": str(work / "golden.json")}, work, deadline)
        names = [k for k in ("pool", "untraced", "span", "memory") if k in tr]
        passes = [tr[k] for k in names]
        attempted, failed, problems = tally(wl, passes)
        g_attempted, g_failed, g_problems = tally(golden, tr["golden_items"])
        attempted, failed, problems = attempted + g_attempted, failed + g_failed, problems + g_problems
        metrics = per_layer(tr, golden_diff(name, tr["golden_items"]))
        lines.append("pass wall s: " + ", ".join(f"{k} {p['wall_s']:.2f}" for k, p in zip(names, passes)))
    lines.append(f"error_rate {failed / attempted if attempted else 1.0:.4f} ratio ({failed} of {attempted} records)")
    lines += [f"problem: {p}" for p in problems]
    lines += [f"{k} {m['value']:.6g} {m['unit']}" for k, m in metrics.items()]
    result = {"correct": failed == 0 and attempted > 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return {"lines": lines, "result": result}


def smoke(seed: int, work: Path) -> int:
    """Every workload at tiny size, both modes: every named metric present, nothing failed."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ok = True
    for name in WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            out = run_once(name, seed, 0.0, trace, "smoke", work / f"{name}-{int(trace)}")
            res = out["result"]
            missing = sorted({m["name"] for m in spec[key]} - set(res["metrics"]))
            good = res["correct"] and not missing
            ok &= good
            print(f"[{'PASS' if good else 'FAIL'}] {name} trace={int(trace)}: "
                  f"{res['failed']} of {res['attempted']} records failed, missing metrics {missing}")
            for line in out["lines"]:
                if line.startswith(("problem", "error_rate", "pipeline.golden")):
                    print("   ", line)
    print(json.dumps({"smoke": "pass" if ok else "fail"}))
    return 0 if ok else 1


def write_golden(work: Path) -> int:
    """Extract the default-seed smoke corpus of every workload and store the records."""
    import corpus
    import worker

    golden = {}
    for name in WORKLOADS:
        wl = corpus.build(name, DEFAULT_SEED, work / name, "smoke")
        golden[name] = [r for item in worker.extract_all(wl, 1, work) for r in item["records"]]
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH.relative_to(ROOT)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)
    if not (args.workload or args.smoke or args.write_golden):
        parser.error("one of --workload, --smoke or --write-golden is required")
    if not (SRC / "repspeech" / "__init__.py").is_file():
        print(f"bench: no repspeech sources under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2

    os.environ.update(THREAD_ENV)  # before numpy loads, here and in every child
    sys.path.insert(0, str(SRC))
    work = ROOT / ".bench_work" / f"{args.workload or 'all'}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.write_golden:
            return write_golden(work)
        if args.smoke:
            return smoke(args.seed, work)
        out = run_once(args.workload, args.seed, args.seconds, bool(args.trace), "full", work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still be using it
            work.parent.rmdir()
    print(json.dumps({"environment": environment(args.seed), "workload": args.workload, "trace": args.trace}))
    for line in out["lines"]:
        print(line)
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
