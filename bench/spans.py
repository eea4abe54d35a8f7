"""Per-layer spans recorded from outside the program.

``Tracer.install()`` replaces each traced public function, in every loaded
``repspeech`` module that binds it, with a wrapper that records a span
(name, start, end, parent) or, in memory mode, the ``tracemalloc`` peak
above the call's entry level.  Nothing in ``src/`` changes.  Time and
memory are never taken in the same pass: ``tracemalloc`` slows
allocation-heavy layers several-fold.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass

# (module, function) under ``repspeech``; dsp is reached only through
# phonation and articulation, and synth is the load generator.
TARGETS = (
    ("audio_io", "read_wav"),
    ("audio_io", "to_canonical"),
    ("phonation", "pitch_track"),
    ("phonation", "intensity_track"),
    ("phonation", "hnr_track"),
    ("phonation", "voiced_frame_spectra"),
    ("phonation", "cpp_track"),
    ("articulation", "formant_track"),
    ("articulation", "spectral_moments"),
    ("timing", "timing_features"),
    ("alignment", "parse_textgrid"),
    ("alignment", "vowel_level_features"),
    ("pipeline", "extract_recording"),
    ("cli", "main"),
    ("reporting", "summarize_features"),
    ("protocol", "parse_recording_filename"),
)
SPAN_NAMES = tuple(f"{m}.{f}" for m, f in TARGETS)


def _observe_pitch(counts, args, result):
    counts["phonation.pitch_track.frames"] += len(result.f0)
    counts["phonation.pitch_track.voiced"] += int((result.f0 > 0).sum())


def _observe_cpp(counts, args, result):
    counts["phonation.cpp_track.frames"] += len(result[0])


def _observe_formants(counts, args, result):
    counts["articulation.formant_track.frames"] += len(result.times)


def _observe_vowels(counts, args, result):
    counts["alignment.vowels_selected"] += len(args[1])
    counts["alignment.vowel_features_measured"] += sum(result.feature_counts.values())
    counts["alignment.vowel_features_possible"] += len(result.feature_counts) * result.n_instances


def _observe_read(counts, args, result):
    counts["audio_io.bytes_read"] += os.path.getsize(args[0])


OBSERVERS = {
    "phonation.pitch_track": _observe_pitch,
    "phonation.cpp_track": _observe_cpp,
    "articulation.formant_track": _observe_formants,
    "alignment.vowel_level_features": _observe_vowels,
    "audio_io.read_wav": _observe_read,
}


@dataclass
class _Frame:
    name: str
    span_id: int
    start: float
    mem_base: int = 0
    mem_max: int = 0


class Tracer:
    """Records spans (``memory=False``) or per-call memory peaks (``memory=True``)."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.peaks: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[_Frame] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "repspeech" or n.startswith("repspeech.")]
        for mod_name, fn_name in TARGETS:
            original = getattr(importlib.import_module(f"repspeech.{mod_name}"), fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, original))
                        setattr(module, attr, wrapper)
        if self.memory:
            tracemalloc.start()

    def uninstall(self) -> None:
        if self.memory:
            tracemalloc.stop()
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, name, fn):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if observe is not None:
                observe(self.counts, args, result)
            return result

        return wrapper

    # -- span bookkeeping ---------------------------------------------------

    def _enter(self, name: str) -> None:
        frame = _Frame(name, len(self.spans) + len(self._stack), 0.0)
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if self._stack:
                parent = self._stack[-1]
                parent.mem_max = max(parent.mem_max, peak)
            tracemalloc.reset_peak()
            frame.mem_base = frame.mem_max = current
        self._stack.append(frame)
        frame.start = time.perf_counter()

    def _exit(self) -> None:
        end = time.perf_counter()
        frame = self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        if self.memory:
            _, peak = tracemalloc.get_traced_memory()
            frame.mem_max = max(frame.mem_max, peak)
            self.peaks[frame.name] = max(self.peaks[frame.name], frame.mem_max - frame.mem_base)
            if parent is not None:
                parent.mem_max = max(parent.mem_max, frame.mem_max)
        self.spans.append((frame.span_id, parent.span_id if parent else None, frame.name, frame.start, end))

    # -- aggregation --------------------------------------------------------

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """calls, busy_s (inclusive) and self_s (minus child spans) per span name."""
        child_time: dict[int, float] = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        stats = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for name in SPAN_NAMES}
        for span_id, _, name, start, end in self.spans:
            s = stats[name]
            s["calls"] += 1
            s["busy_s"] += end - start
            s["self_s"] += end - start - child_time[span_id]
        return stats
