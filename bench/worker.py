"""The measured process: runs one workload's inputs through repspeech.

Started by ``run.py`` in a fresh interpreter, so its peak RSS (and that of
the ``repspeech extract`` pool workers it waits for) belongs to the
workload alone.  Usage: ``python3 bench/worker.py <spec.json>``; the spec
names the mode, the workload file and where to write the result JSON.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

import corpus
import spans
from repspeech import audio_io, cli, pipeline, protocol, reporting, synth

POOL_WORKERS = 2  # at most nproc = 2 workers, fixed so runs compare across machines


def _from_record(rec) -> dict:
    return {
        "recording": rec.recording,
        "level": rec.level,
        "features": dict(rec.features),
        "errors": dict(rec.errors),
        "n_vowel_instances": rec.n_vowel_instances,
    }


def _from_row(row: dict) -> dict:
    keys = pipeline.S_FEATURES if row["level"] == "S" else pipeline.A_FEATURES
    return {
        "recording": row["recording"],
        "level": row["level"],
        "features": {k: row[k] for k in keys},
        "errors": json.loads(row["errors"]) if row["errors"] else {},
        "n_vowel_instances": row["n_vowel_instances"],
    }


def items(wl: corpus.Workload) -> list[tuple[corpus.Recording, ...]]:
    """The closed loop's unit of work: one batch, or one recording at a time."""
    return [wl.recordings] if wl.batch else [(r,) for r in wl.recordings]


def run_item(wl: corpus.Workload, recs, threads: int, scratch: Path) -> dict:
    """Extract one unit of work; every call goes through module attributes so spans see it."""
    if not wl.batch:
        (rec,) = recs
        req = pipeline.ExtractionRequest(rec.wav, rec.textgrid, wl.levels)
        return {"records": [_from_record(r) for r in pipeline.extract_recording(req)]}
    out = scratch / "features.json"
    argv = ["extract", "--level", ",".join(wl.levels), "--threads", str(threads), "--format", "json", "-o", str(out)]
    code = cli.main(argv + [r.wav for r in recs])
    if code != 0:
        raise RuntimeError(f"repspeech extract exited with {code}")
    rows = json.loads(out.read_text(encoding="utf-8"))
    for row in rows:
        row["device"] = protocol.parse_recording_filename(row["recording"]).device
    table = reporting.summarize_features(rows, "device")
    return {"records": [_from_row(r) for r in rows], "group_sizes": table.group_sizes}


def _attempt(wl, recs, threads, scratch) -> dict:
    start = time.perf_counter()
    try:
        out = run_item(wl, recs, threads, scratch)
    except Exception:  # the loop must go on; the failure is counted and reported
        out = {"records": [], "error": traceback.format_exc(limit=3)}
    out["wall_s"] = time.perf_counter() - start
    out["audio_s"] = sum(r.duration for r in recs)
    out["recordings"] = [Path(r.wav).stem for r in recs]
    return out


def extract_all(wl: corpus.Workload, threads: int, scratch: Path) -> list[dict]:
    """Every item of the workload once."""
    return [_attempt(wl, unit, threads, scratch) for unit in items(wl)]


def timed(wl: corpus.Workload, warmup: corpus.Workload, seconds: float, scratch: Path) -> dict:
    """Closed loop over the workload's items until ``seconds`` have passed.

    One untimed pass over the small ``warmup`` corpus first loads the
    lazily imported modules and fills the allocator, as a long batch would.
    """
    warm = extract_all(warmup, POOL_WORKERS, scratch)
    units = items(wl)
    done = []
    deadline = time.perf_counter() + seconds
    while not done or time.perf_counter() < deadline:
        done.append(_attempt(wl, units[len(done) % len(units)], POOL_WORKERS, scratch))
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {"items": done, "warmup_items": warm, "peak_rss_kb": max(own, children)}


def edge_nuclei_missed(scratch: Path) -> float:
    """Syllable nuclei missed on a steady 150 Hz pulse train of 2 s read back from 16-bit WAV.

    Voiced from the first sample to the last, it holds one nucleus; the
    sustained-vowel defect of ROADMAP item 2 reads 0.  The workloads' vowels
    start and end in silence, so this probe is where that defect shows.
    """
    path = scratch / "edge-probe.wav"
    audio_io.write_wav(synth.synth_pulse_train(150.0, 2.0), path)
    (rec,) = pipeline.extract_recording(pipeline.ExtractionRequest(str(path), None, ("S",)))
    rate, duration = rec.features["speaking_rate"], rec.features["duration"]
    return abs(1.0 - (rate * duration if rate is not None and duration is not None else 0.0))


def traced(wl: corpus.Workload, golden: corpus.Workload, scratch: Path) -> dict:
    """Golden pass, edge probe, untraced pass, span pass and tracemalloc pass over one trace item.

    Batches run serially (``--threads 1``) in the traced passes so every span
    lands in this process; an extra untraced pass at the real thread count
    gives the batch wall time for ``cli.pool_efficiency``.
    """
    unit = items(wl)[0]
    result = {"golden_items": extract_all(golden, 1, scratch), "pool_workers": POOL_WORKERS}
    result["edge_nuclei_missed"] = edge_nuclei_missed(scratch)
    if wl.batch:
        result["pool"] = _attempt(wl, unit, POOL_WORKERS, scratch)
    result["untraced"] = _attempt(wl, unit, 1, scratch)
    with spans.Tracer() as tracer:
        result["span"] = _attempt(wl, unit, 1, scratch)
    result["layers"] = tracer.layer_stats()
    result["counts"] = dict(tracer.counts)
    with spans.Tracer(memory=True) as mem:
        result["memory"] = _attempt(wl, unit, 1, scratch)
    result["peak_bytes"] = dict(mem.peaks)
    return result


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    wl = corpus.load(Path(spec["workload"]))
    scratch = Path(spec["scratch"])
    if spec["mode"] == "timed":
        result = timed(wl, corpus.load(Path(spec["warmup"])), spec["seconds"], scratch)
    else:
        result = traced(wl, corpus.load(Path(spec["golden"])), scratch)
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
