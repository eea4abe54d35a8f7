"""The batched numerical kernels that the feature extractors run.

Each operation has one kernel here, and each kernel works on many frames
at once, one frame per row: framing (the frame grid in seconds, frame
gathering), span selection over frame times, the gaussian analysis
window, in-place mean removal and windowing of frames, power spectra,
window-compensated normalized autocorrelation, dB cepstra, moving averages
along rows, peak magnitudes of frames, Burg linear prediction, parabolic
and tapered-sinc peak refinement, and robust trend lines.  Four kernels work on one
signal: the runs of equal values and the local maxima of a contour,
polyphase resampling, and the power spectrum of a whole signal
(``signal_power_spectrum``).  Every kernel is a pure function over
numpy arrays; the feature modules compose them into the extractors.
Every track they make is a ``Track`` of frame times, one row of values
per frame and the frames a mean reads, and every feature reduces the rows
its ``over(t0, t1)`` selects.
Extraction loads no scipy module: where a kernel stands in for a scipy
function (``find_peaks``, ``resample_poly`` and its ``special.i0``, the
DCT-I of ``fft.dct``, ``ndimage``'s moving average and moving maximum),
it gives scipy's result bit for bit.

``chunk_map`` is the one frame loop.  It splits a track's frames into
chunks whose widest per-row array fills ``CHUNK_BYTES`` and queues them
on the calling thread's helper scope (``helper_scope``).  Every frame
loop runs in a scope, which has no helpers in a pool worker; elsewhere
it has up to one helper thread per other usable core and lives for one
recording (``pipeline.extract_recording`` opens it) or for one loop
called outside one.  ``background`` queues a whole track on the same
scope, as ``analysis`` queues CPP.  numpy releases the GIL on these
arrays, so the threads run in parallel.  The chunks do not depend on the
number of threads and each is computed by one thread, so neither do the
results, bit for bit.  While a scope is open, numpy's OpenBLAS is held
at one thread (``ONE_BLAS_THREAD``), so each BLAS product takes the same
path, and gives the same bits, whatever ``OPENBLAS_NUM_THREADS`` says.
"""

from __future__ import annotations

import contextlib
import functools
import math
import multiprocessing
import os
import threading
from typing import Callable, Iterator, NamedTuple, TypeVar

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import OrderTooHigh, SignalTooShort

# Bytes of the widest per-row array a chunk loop holds at once.  Sizing every
# chunk by bytes, not rows, keeps each loop's working set near the core's
# cache and its memory flat with duration, whatever the row width.  2 MiB
# (one core's L2 on the benchmark host) ran fastest of 1 to 16 MiB there.
CHUNK_BYTES = 2 << 20

T = TypeVar("T")


def next_pow2(n: int) -> int:
    p = 1
    while p < n:
        p *= 2
    return p


def gaussian_window(n: int) -> np.ndarray:
    """Gaussian analysis window of length n.

    It follows the e^-12 edge-value convention in which the effective
    analysis width is half the physical window length; that property is
    what makes autocorrelation window compensation accurate.
    """
    edge = np.exp(-12.0)
    x = (np.arange(n) - 0.5 * (n - 1)) / (0.5 * n)
    return (np.exp(-12.0 * x * x) - edge) / (1.0 - edge)


def frame_centers(n: int, rate: float, window: float, step: float) -> tuple[np.ndarray, int]:
    """The frame grid of an n-sample signal at ``rate``: frames ``window`` seconds long, ``step`` seconds apart.

    Returns the sample index of the centre of every whole frame, and the
    frame length in samples.  Each length in seconds is rounded to whole
    samples, the step to at least one.  Raises SignalTooShort when not one
    whole frame fits.
    """
    win_n = int(round(window * rate))
    step_n = max(1, int(round(step * rate)))
    half = win_n // 2
    last = n - (win_n - half)
    if last < half:
        raise SignalTooShort(f"signal of {n} samples is shorter than one {win_n}-sample frame")
    return np.arange(half, last + 1, step_n), win_n


def gather_frames(x: np.ndarray, centers: np.ndarray, win_n: int) -> np.ndarray:
    """The ``win_n``-sample frames of x around ``centers``, one per row, as a C-contiguous copy the caller may write."""
    if len(centers) == 0:  # also when x is shorter than one frame, where no window view exists
        return np.empty((0, win_n), dtype=x.dtype)
    return sliding_window_view(x, win_n)[centers - win_n // 2]


def chunk_rows(row_bytes: int) -> int:
    """Rows per chunk when the widest per-row array takes ``row_bytes``: CHUNK_BYTES worth, at least one."""
    return max(1, CHUNK_BYTES // row_bytes)


def spectrum_bytes(nfft: int) -> int:
    """Bytes per row of a complex ``nfft``-point rfft."""
    return 16 * (nfft // 2 + 1)


@functools.cache
def openblas_threads() -> tuple[Callable[[int], None], Callable[[], int]] | None:
    """The (setter, getter) of numpy's OpenBLAS thread count, or None where numpy bundles no OpenBLAS.

    numpy's wheels load ``numpy.libs/libscipy_openblas64_*.so``; opening it
    again through ctypes returns the copy already loaded.  Looked up on
    first use, so importing this module stays as fast.
    """
    import ctypes
    import glob

    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas64_*.so")
    for path in sorted(glob.glob(pattern)):
        try:
            lib = ctypes.CDLL(path)
            setter, getter = lib.scipy_openblas_set_num_threads64_, lib.scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):  # not loadable, or no such symbol
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], None
        getter.argtypes, getter.restype = [], ctypes.c_int
        return setter, getter
    return None


class _OneBlasThread:
    """Context manager: numpy's OpenBLAS runs one thread while any thread of the process is inside.

    The thread count is one per process, so one instance serves every
    caller: the first to enter saves the count and sets one, the last to
    leave restores it, whether its block returned or raised.  Where
    ``openblas_threads`` finds no setter, or the count is already one, it
    does nothing.  A process forked inside a hold inherits it: its count
    stays one, and its own holds change nothing.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._inside = 0
        self._restore: int | None = None  # the count to restore, when this hold changed it

    def __enter__(self) -> None:
        with self._lock:
            if self._inside == 0:
                found = openblas_threads()
                if found is not None and (count := found[1]()) != 1:
                    found[0](1)
                    self._restore = count
            self._inside += 1

    def __exit__(self, *exc_info) -> None:
        with self._lock:
            self._inside -= 1
            if self._inside == 0 and self._restore is not None:
                openblas_threads()[0](self._restore)
                self._restore = None


ONE_BLAS_THREAD = _OneBlasThread()


class _Task:
    """One queued call: a chunk of a frame loop, or a whole track (``failed`` None).

    The chunks of one ``chunk_map`` call share ``failed``, a one-item list
    set once one of them fails; no chunk of the call is claimed after that.
    """

    __slots__ = ("call", "failed", "done", "result", "error")

    def __init__(self, call: Callable[[], object], failed: list[bool] | None):
        self.call: Callable[[], object] | None = call  # None once a thread has claimed it
        self.failed = failed
        self.done = False
        self.result: object = None
        self.error: BaseException | None = None


_local = threading.local()  # .scope: the helper scope this thread queues its tasks on


class _HelperScope:
    """Up to ``helpers`` helper threads and the one queue of tasks they claim from, for the length of one block.

    The thread that opens the scope and every helper queue their tasks on
    it.  A helper claims the oldest queued task, chunk or whole track.  A
    thread that waits on a task another thread runs claims queued chunks
    meanwhile, never a whole track.  Each call that queues tasks starts a
    helper per task while the scope has helpers left to start, and claims
    the helper's first task before it returns, so every thread takes part
    however short the chunks.  Closing the scope drops every task no
    thread has claimed and joins the helpers.  Tasks are claimed, dropped
    and finished under the one lock of ``_cond``, and a finished task
    wakes the threads waiting on it.
    """

    def __init__(self, helpers: int):
        self._cond = threading.Condition()
        self._queue: dict[_Task, bool] = {}  # the tasks no thread has claimed, oldest first, each to True
        self._open = True
        self._helpers = helpers  # helpers not started yet
        self._threads: list[threading.Thread] = []  # the helpers started, joined on exit

    def __enter__(self) -> "_HelperScope":
        _local.scope = self
        return self

    def __exit__(self, *exc_info) -> None:
        _local.scope = None
        with self._cond:
            self._open = False
            for task in list(self._queue):
                self._claim(task)  # drops it: the scope is closed
            self._cond.notify_all()
        for thread in self._threads:
            thread.join()

    def _put(self, tasks: list[_Task]) -> None:
        """Queue ``tasks``, and start a helper per task while helpers are left, each on a task claimed here."""
        with self._cond:
            self._queue.update(dict.fromkeys(tasks, True))
            self._cond.notify_all()
            for _ in range(min(self._helpers, len(tasks)) if self._open else 0):
                self._helpers -= 1
                name = f"repspeech-chunk_{len(self._threads)}"
                thread = threading.Thread(target=self._serve, args=([self._next(whole=True)],), name=name)
                thread.start()
                self._threads.append(thread)

    def _serve(self, first: list[tuple[_Task, Callable[[], object]]]) -> None:
        """A helper's loop: the task ``_put`` claimed for it, then the oldest queued task while the scope is open.

        ``first`` holds the claimed task until it is popped here, as the
        helper's Thread keeps its arguments as long as it runs.
        """
        _local.scope = self
        claimed = first.pop()
        while True:
            try:
                self._run(*claimed)
            except BaseException:  # kept in the task, for the thread that collects it
                pass
            with self._cond:
                while (claimed := self._next(whole=True)) is None:  # holds no finished task while it waits
                    if not self._open:
                        return
                    self._cond.wait()

    def _claim(self, task: _Task) -> Callable[[], object] | None:
        """Take the call of ``task`` for this thread (lock held); None if it was taken, or is dropped here.

        Every task is dropped once the scope has closed, and a queued chunk
        once a chunk of its map has failed.  The first chunk of a map is
        never queued: its caller runs it.
        """
        call, task.call = task.call, None
        queued = self._queue.pop(task, False)
        if call is None or self._open and not (queued and task.failed is not None and task.failed[0]):
            return call
        self._finish(task, None, RuntimeError("the task was dropped before it ran"))
        return None

    def _next(self, whole: bool) -> tuple[_Task, Callable[[], object]] | None:
        """Claim the oldest queued chunk or, when ``whole``, the oldest queued task of either kind (lock held)."""
        while True:
            task = next((t for t in self._queue if whole or t.failed is not None), None)
            if task is None:
                return None
            if (call := self._claim(task)) is not None:
                return task, call

    def _finish(self, task: _Task, result: object, error: BaseException | None) -> None:
        """Keep the result or error of ``task`` and wake the waiting threads (lock held)."""
        task.result, task.error, task.done = result, error, True
        if error is not None and task.failed is not None:
            task.failed[0] = True
        self._cond.notify_all()

    def _run(self, task: _Task, call: Callable[[], object]) -> None:
        """Run the claimed ``call`` of ``task``, keeping its result or error.

        An interrupt, or another error that is no ``Exception``, is raised
        here too, so it stops this thread as well.
        """
        try:
            result, error = call(), None
        except BaseException as exc:
            result, error = None, exc
        with self._cond:
            self._finish(task, result, error)
        if error is not None and not isinstance(error, Exception):
            raise error

    def _wait(self, task: _Task) -> None:
        """Return once ``task`` has finished, running queued chunks meanwhile."""
        while True:
            with self._cond:
                while not task.done and (claimed := self._next(whole=False)) is None:
                    self._cond.wait()
                if task.done:
                    return
            self._run(*claimed)

    def _run_unclaimed(self, task: _Task) -> None:
        """Run ``task`` here unless a thread has claimed it or it is dropped."""
        with self._cond:
            call = self._claim(task)
        if call is not None:
            self._run(task, call)

    def map(self, body: Callable[[slice], T], chunks: list[slice]) -> list[T]:
        failed = [False]
        tasks = [_Task(functools.partial(body, rows), failed) for rows in chunks]
        self._put(tasks[1:])  # the first is this thread's
        try:
            for task in tasks:  # in order: run each chunk no other thread has claimed; after a failure, drop it
                self._run_unclaimed(task)
            for task in tasks:
                self._wait(task)
        except BaseException:
            failed[0] = True  # no further chunk of this call starts
            raise
        return [self._result(task) for task in tasks]  # in order: the earliest error, as in a plain loop

    def submit(self, compute: Callable[[], T]) -> Callable[[], T]:
        task = _Task(compute, None)
        self._put([task])
        return functools.partial(self._collect, task)

    def _collect(self, task: _Task):
        self._run_unclaimed(task)  # no helper took it: run it here
        self._wait(task)
        return self._result(task)

    @staticmethod
    def _result(task: _Task):
        if task.error is not None:
            raise task.error
        return task.result


def _helpers_allowed() -> int:
    """Helper threads a scope may start: one per other usable core, none in a process started by multiprocessing.

    A ``multiprocessing`` pool already puts one process on each core.
    """
    return usable_cores() - 1 if multiprocessing.parent_process() is None else 0


@contextlib.contextmanager
def helper_scope() -> Iterator[_HelperScope]:
    """Run the block's frame loops and background tracks in one helper scope: this thread's, or one opened here.

    A scope opened here may start one helper per other usable core
    (``_helpers_allowed``) and holds OpenBLAS at one thread
    (``ONE_BLAS_THREAD``) until the block ends.  Its helpers end with the
    block: whether it returned or raised, every task no thread has claimed
    is dropped and the helpers are joined before the block's error goes on.
    """
    scope = getattr(_local, "scope", None)
    if scope is not None:
        yield scope
        return
    with ONE_BLAS_THREAD, _HelperScope(_helpers_allowed()) as scope:
        yield scope


def background(compute: Callable[[], T]) -> Callable[[], T]:
    """Queue ``compute()`` as one task of this thread's helper scope, and return the call that collects it.

    Collecting waits for the task: it runs here if no helper has claimed
    it, and while a helper runs it the caller runs queued chunks.  The
    task's error is raised by the collecting call.  Outside a scope,
    ``compute`` itself is returned, to run when collected.
    """
    scope = getattr(_local, "scope", None)
    return compute if scope is None else scope.submit(compute)


def chunk_map(n: int, row_bytes: int, body: Callable[[slice], T]) -> list[T]:
    """``[body(rows) for rows in chunks]`` over the ``chunk_rows(row_bytes)``-row slices of range(n), on all cores.

    ``row_bytes`` is the widest per-row array ``body`` derives from a row, so
    memory stays bounded whatever the length, and ``body`` gathers its own
    frames.  The chunks are queued on this thread's helper scope, or on one
    opened for this call alone (``helper_scope``), which starts no more
    helpers than there are chunks after the first.  The calling thread
    runs the first chunk and walks the rest in order, running each one no
    helper has claimed yet, then collects the results in chunk order,
    running other queued chunks while it waits.  Chunks are the same
    whatever the number of threads and each is computed by one thread, so
    the result does not depend on the core count as long as each ``body``
    writes only its own rows.  The error of the earliest failing chunk is
    raised, as in a plain loop, and once a chunk fails or the calling
    thread is interrupted, no further chunk of the call starts.
    """
    step = chunk_rows(row_bytes)
    with helper_scope() as scope:
        return scope.map(body, [slice(a, min(n, a + step)) for a in range(0, n, step)])


def usable_cores() -> int:
    """The CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def span(times: np.ndarray, t0: float, t1: float) -> slice:
    """The frames of ascending ``times`` that lie in [t0, t1], as a slice (empty when none do)."""
    return slice(int(np.searchsorted(times, t0, "left")), int(np.searchsorted(times, t1, "right")))


class Track(NamedTuple):
    """An analysis track: frame times in seconds (ascending), one row of ``values`` per frame.

    A track's rows are the frames it analysed; ``kept`` marks the ones a
    mean reads, or is None when it reads every frame.  Every feature is a
    reduction of ``over(t0, t1)``.
    """

    times: np.ndarray
    values: np.ndarray
    kept: np.ndarray | None

    def over(self, t0: float, t1: float) -> np.ndarray:
        """The rows of the kept frames in [t0, t1]; a view of ``values`` when every frame is kept."""
        frames = span(self.times, t0, t1)
        return self.values[frames] if self.kept is None else self.values[frames][self.kept[frames]]


def runs(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The maximal runs of equal values of 1-D x, in order, as (first index, last index + 1) of each."""
    n = len(x)
    bounds = np.concatenate(([0], np.flatnonzero(x[1:] != x[:-1]) + 1, [n])) if n else np.zeros(1, np.intp)
    return bounds[:-1], bounds[1:]


def local_maxima(x: np.ndarray) -> np.ndarray:
    """Indices of the local maxima of x, the ones scipy's ``find_peaks`` finds.

    A maximum is a run of equal samples entered by a strict rise and left
    by a strict fall, so a run that touches either end of x is none; a
    plateau's index is its midpoint, ``(first + last) // 2``.
    """
    if len(x) < 3:
        return np.zeros(0, dtype=np.intp)
    starts, stops = runs(x)
    level = x[starts]
    peak = np.flatnonzero((level[1:-1] > level[:-2]) & (level[1:-1] > level[2:])) + 1
    return (starts[peak] + stops[peak] - 1) // 2


# the lowpass filter of ``resample_poly``: a Kaiser-windowed sinc of
# RESAMPLE_HALF_LENGTH x max(up, down) taps a side, cut at 1 / max(up, down)
# of the Nyquist frequency; beta 8.0 gives ~81 dB of stopband attenuation,
# past the 60 dB that keeps resampling aliases below feature-relevant levels
RESAMPLE_KAISER_BETA = 8.0
RESAMPLE_HALF_LENGTH = 10  # taps a side, per unit of max(up, down)


# exp(-x) I0(x) on [0, 8] as the Chebyshev series in x / 2 - 2 of Cephes'
# ``i0``, which scipy.special.i0 evaluates
_I0_CHEBYSHEV = (
    -4.4153416464793395e-18, 3.3307945188222384e-17, -2.431279846547955e-16, 1.715391285555133e-15,
    -1.1685332877993451e-14, 7.676185498604936e-14, -4.856446783111929e-13, 2.95505266312964e-12,
    -1.726826291441556e-11, 9.675809035373237e-11, -5.189795601635263e-10, 2.6598237246823866e-09,
    -1.300025009986248e-08, 6.046995022541919e-08, -2.670793853940612e-07, 1.1173875391201037e-06,
    -4.4167383584587505e-06, 1.6448448070728896e-05, -5.754195010082104e-05, 0.00018850288509584165,
    -0.0005763755745385824, 0.0016394756169413357, -0.004324309995050576, 0.010546460394594998,
    -0.02373741480589947, 0.04930528423967071, -0.09490109704804764, 0.17162090152220877,
    -0.3046826723431984, 0.6767952744094761,
)


def _bessel_i0(x: np.ndarray) -> np.ndarray:
    """The modified Bessel function I0 of each 0 <= x <= 8 (1-D), bit for bit as ``scipy.special.i0``.

    Cephes' recurrence sums the series one coefficient at a time, and the
    result is scaled by libm's exp, as Cephes scales it: numpy's own
    vectorized exp rounds some arguments the other way.
    """
    y = x / 2.0 - 2.0
    b0, b1, b2 = _I0_CHEBYSHEV[0], 0.0, 0.0
    for c in _I0_CHEBYSHEV[1:]:
        b2 = b1
        b1 = b0
        b0 = y * b1 - b2 + c
    return np.array([math.exp(v) for v in x.tolist()]) * (0.5 * (b0 - b2))


@functools.cache
def _resample_taps(up: int, down: int) -> np.ndarray:
    """The filter of ``resample_poly``, unit gain at DC, times ``up``, in scipy's ``firwin`` arithmetic step by step."""
    max_rate = max(up, down)
    numtaps = 2 * RESAMPLE_HALF_LENGTH * max_rate + 1
    cutoff = 1.0 / max_rate
    m = np.arange(numtaps, dtype=np.float64) - 0.5 * (numtaps - 1)
    h = cutoff * np.sinc(cutoff * m)
    alpha = (numtaps - 1) / 2.0
    ramp = 1 - ((np.arange(numtaps, dtype=np.float64) - alpha) / alpha) ** 2.0
    h *= _bessel_i0(RESAMPLE_KAISER_BETA * np.sqrt(ramp)) / _bessel_i0(np.array([RESAMPLE_KAISER_BETA]))
    h /= np.sum(h)
    h *= up
    h.flags.writeable = False  # shared by every call with these rates
    return h


def resample_poly(x: np.ndarray, up: int, down: int) -> np.ndarray:
    """Float64 x resampled by ``up / down`` (coprime, not both 1), bit for bit as
    scipy's ``resample_poly(x, up, down, window=("kaiser", RESAMPLE_KAISER_BETA))``.

    With h the filter, output o is the sum of ``x[s] * h[half + o * down -
    s * up]`` over the samples s the filter reaches, oldest first, added one
    tap at a time to +0.0 as scipy's ``upfirdn`` adds them.  Outputs come in
    cycles, each with the same taps at offsets a fixed number of samples
    apart, so the sample indices and taps of one chunk of cycles serve every
    chunk: a chunk takes one gather, one multiply and one sum over taps.
    Samples past either end of x and taps past either end of h count as
    zeros, which leave every sum as it is (x must be finite).
    """
    h = _resample_taps(up, down)
    half = (len(h) - 1) // 2
    n_out = -(-len(x) * up // down)
    # A cycle is two periods of the phases: 2 * up outputs, 2 * down samples on
    # from the last cycle's.  numpy sums an axis-0 reduction row by row, tap by
    # tap, only when it writes two or more outputs; one output it sums
    # pairwise.  Two periods keep even a one-cycle chunk at two outputs or more.
    width, stride = 2 * up, 2 * down
    n_cycles = -(-n_out // width)
    # the samples in reach of each output of cycle 0, oldest to newest, padded in front to one count
    reach = half + np.arange(width) * down
    newest = reach // up
    taps = int(np.max(newest + (2 * half - reach) // up)) + 1
    offsets = newest - (taps - 1) + np.arange(taps)[:, None]  # (taps, width)
    tap = reach - offsets * up  # the tap of h each of those samples meets
    coefs = np.where(tap < len(h), h[np.minimum(tap, len(h) - 1)], 0.0)

    front = taps - 1 - int(newest[0])  # zeros before x, so cycle 0's oldest sample is padded[0]
    back = max(0, (n_cycles - 1) * stride + int(newest[-1]) + 1 - len(x))
    padded = np.concatenate([np.zeros(front), x, np.zeros(back)])
    per_cycle = 24 * taps * width  # the indices, coefficients and terms a chunk holds per cycle
    cycles = min(chunk_rows(per_cycle), n_cycles)
    # cycle p of a chunk reads the samples of cycle 0 p * stride further on
    index = (offsets[:, None, :] + front + stride * np.arange(cycles)[:, None]).reshape(taps, cycles * width)
    coefs = np.tile(coefs, cycles)
    out = np.empty(n_cycles * width)

    def filtered(rows: slice) -> None:
        n = (rows.stop - rows.start) * width
        terms = np.take(padded[rows.start * stride :], index[:, :n])
        terms *= coefs[:, :n]
        np.add.reduce(terms, axis=0, out=out[rows.start * width : rows.stop * width], initial=0.0)

    chunk_map(n_cycles, per_cycle, filtered)
    return out[:n_out]


def power_spectra(frames: np.ndarray, nfft: int) -> np.ndarray:
    """Squared rfft magnitudes of each row, zero-padded to ``nfft``."""
    return np.abs(np.fft.rfft(frames, nfft, axis=1)) ** 2


def _largest_prime_factor(n: int) -> int:
    """The largest prime factor of n >= 1 (n itself when n is prime, 1 when n is 1)."""
    p, f = 1, 2
    while f * f <= n:
        while n % f == 0:
            p, n = f, n // f
        f += 1 if f == 2 else 2
    return max(p, n)


def signal_power_spectrum(x: np.ndarray) -> np.ndarray:
    """|DFT_N(x)|^2 of one real signal at its own length N, bins 0 to N // 2.

    pocketfft takes a long signal whose largest prime factor p exceeds
    sqrt(N) down its Bluestein path, which pads to about 2N complex
    samples: ~130 MB of peak RSS for a 56 s recording.  When p < N, such a
    length is split into N = m * p with m < p, and no transform is longer
    than p:

    1. the p-point rffts of the m phases ``x[r::m]``, in one numpy call:
       numpy builds a pocketfft plan per call, so chunks on k cores would
       hold k Bluestein plans and buffer sets at once;
    2. each column k times its twiddles exp(-2 pi i r k / N), where r * k
       < N is an exact int64 product, and built per chunk of columns;
    3. the m-point ffts over r, in place, which put bin p * k1 + k in row
       k1 of column k.

    Hermitian symmetry gives every bin from the columns k <= p // 2: bin
    N - (p * k1 + k) has the same power.  Steps 2 and 3 run through
    ``chunk_map``, whose chunks do not depend on the core count, and
    neither does the result.  It differs from the single rfft's power by
    rounding only (about 1e-15 of the spectrum's maximum).  Every other
    length, primes included, is ``np.abs(np.fft.rfft(x)) ** 2`` bit for bit.
    """
    n = len(x)
    p = _largest_prime_factor(n)
    if p * p <= n or p >= n:  # no large factor, a prime, or no sample
        return np.abs(np.fft.rfft(x)) ** 2
    m = n // p
    half = p // 2 + 1  # p is odd
    phases = x.reshape(p, m).T  # row r is x[r::m]
    spectra = np.empty((m, half), dtype=np.complex128)
    np.fft.rfft(phases, axis=1, out=spectra)
    power = np.empty((m, p))  # row k1, column k: bin p * k1 + k
    r = np.arange(m)

    def combine(cols: slice) -> None:
        k = np.arange(cols.start, cols.stop)[:, None]
        block = spectra[:, cols].T * np.exp(1j * ((k * r) * (-2.0 * math.pi / n)))
        np.fft.fft(block, axis=1, out=block)
        mag = np.abs(block.T) ** 2
        power[:, cols] = mag
        first = max(cols.start, 1)  # column 0 is its own mirror
        power[::-1, p - first : p - cols.stop : -1] = mag[:, first - cols.start :]

    chunk_map(half, 16 * m, combine)
    return power.reshape(-1)[: n // 2 + 1]


def _autocorrelations(frames: np.ndarray, nfft: int, n_lags: int) -> np.ndarray:
    """Each row's autocorrelation at lags 0 to ``n_lags - 1``: the inverse rfft of its power spectrum."""
    return np.fft.irfft(power_spectra(frames, nfft), nfft, axis=1)[:, :n_lags]


def window_autocorr(window: np.ndarray, nfft: int, max_lag: int) -> np.ndarray:
    """The window's own autocorrelation up to ``max_lag``, normalized to 1 at lag 0."""
    rw = _autocorrelations(window[None, :], nfft, max_lag + 1)[0]
    return rw / rw[0]


def normalized_autocorrelation(frames: np.ndarray, nfft: int, rw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Window-compensated normalized autocorrelation of windowed frames, up to lag ``len(rw) - 1``.

    Each row's autocorrelation is divided by its lag-0 value and by the
    window's own (``rw``, from ``window_autocorr``), so it estimates the
    autocorrelation of the underlying signal, clipped to [-1, 1].  ``nfft``
    must be at least the frame length plus the largest lag plus one.
    Returns (autocorrelations, dead): a dead row has no energy, and its
    autocorrelation is zero.
    """
    ac = _autocorrelations(frames, nfft, len(rw))
    r0 = ac[:, 0].copy()
    dead = r0 <= 0
    r0[dead] = 1.0
    return np.clip(ac / r0[:, None] / rw[None, :], -1.0, 1.0), dead


def log_db_cepstrogram(frames: np.ndarray, fft_size: int) -> np.ndarray:
    """Batched real cepstra (rows = frames) of dB log-power spectra, quefrencies 0 to fft_size / 2.

    The dB spectrum of a real frame is real and even, so its inverse
    transform is the type-I cosine transform of the one-sided half: the
    real part of the rfft of the half's even extension.  That is how
    pocketfft, which numpy and scipy.fft share, computes a DCT-I, so the
    cepstra are ``scipy.fft.dct(level_db, type=1) / fft_size`` bit for bit.
    """
    power = power_spectra(frames, fft_size)
    floors = power.max(axis=1, keepdims=True) * 1e-12
    floors = np.maximum(floors, np.finfo(float).tiny)
    level_db = np.maximum(power, floors, out=power)
    np.log10(level_db, out=level_db)
    level_db *= 10.0
    even = np.concatenate([level_db, level_db[:, -2:0:-1]], axis=1)
    return np.fft.rfft(even, axis=1).real / fft_size


def moving_average(x: np.ndarray, size: int) -> np.ndarray:
    """The running mean of ``size`` samples along each row of 2-D x, its end samples repeated past either end.

    Output j averages the samples from ``j - size // 2`` on, bit for bit as
    scipy's ``uniform_filter1d(x, size, axis=1, mode="nearest")``: the
    first window is summed from 0.0 one sample at a time, each next sum is
    the last plus (entering sample - leaving sample), and each sum is
    divided by ``size``.  The sums run down the columns of x's transpose,
    so each step is one add across every row.
    """
    rows, n = x.shape
    left = size // 2
    ext = np.empty((n + size - 1, rows))
    ext[left : left + n] = x.T
    ext[:left] = ext[left]
    ext[left + n :] = ext[left + n - 1]
    sums = np.empty((n, rows))
    sums[0] = 0.0
    for j in range(size):
        sums[0] += ext[j]
    np.subtract(ext[size:], ext[: n - 1], out=sums[1:])
    np.cumsum(sums, axis=0, out=sums)
    out = np.empty((rows, n))
    np.divide(sums.T, size, out=out)
    return out


def center_and_window(frames: np.ndarray, window: np.ndarray) -> np.ndarray:
    """``frames`` with each row's mean subtracted, times ``window``, computed in place and returned."""
    frames -= frames.mean(axis=1, keepdims=True)
    frames *= window
    return frames


def frame_peaks(x: np.ndarray, centers: np.ndarray, win_n: int) -> np.ndarray:
    """The largest magnitude of x in each whole ``win_n``-sample frame around evenly spaced ``centers``.

    The frames are those of ``gather_frames``, read through a strided
    window view, so none is copied.
    """
    if len(centers) == 0:
        return np.zeros(0)
    step = int(centers[1] - centers[0]) if len(centers) > 1 else 1
    first = int(centers[0]) - win_n // 2
    frames = sliding_window_view(x, win_n)[first : first + step * (len(centers) - 1) + 1 : step]
    peaks = frames.max(axis=1)
    np.maximum(peaks, -frames.min(axis=1), out=peaks)
    return peaks


def lpc_burg(frames: np.ndarray, order: int) -> np.ndarray:
    """Burg-method linear prediction coefficients [1, a1, ..., a_order] of every frame.

    Frames run along the last axis, and the result keeps the leading
    shape.  The reflection coefficients are bounded by 1 in magnitude, so
    every resulting all-pole filter is stable; an all-zero frame gives
    [1, 0, ..., 0].
    """
    x = np.asarray(frames, dtype=np.float64)
    n = x.shape[-1]
    if order < 2:
        raise ValueError("order must be at least 2")
    if n <= order:
        raise OrderTooHigh(f"order {order} needs more than {order} samples, got {n}")
    a = np.zeros(x.shape[:-1] + (order + 1,))
    a[..., 0] = 1.0
    fwd = x[..., 1:]
    bwd = x[..., :-1]
    for i in range(order):
        den = np.einsum("...j,...j->...", fwd, fwd) + np.einsum("...j,...j->...", bwd, bwd)
        live = den > np.finfo(float).tiny
        k = np.where(live, -2.0 * np.einsum("...j,...j->...", fwd, bwd) / np.where(live, den, 1.0), 0.0)
        k = k[..., None]
        a[..., 1 : i + 2] = a[..., 1 : i + 2] + k * a[..., i::-1]
        fwd, bwd = fwd[..., 1:] + k * bwd[..., 1:], bwd[..., :-1] + k * fwd[..., :-1]
    return a


def parabolic_refine(y: np.ndarray, idx: np.ndarray, limit: float) -> tuple[np.ndarray, np.ndarray]:
    """Refine each row's maximum at ``y[i, idx[i]]`` by parabolic interpolation.

    Returns (offsets from ``idx``, clipped to +-``limit``; interpolated
    values).  A row whose index is on an edge, or whose curvature there is
    not concave, keeps offset 0 and the sample value.
    """
    rows = np.arange(len(idx))
    last = y.shape[1] - 1
    a = y[rows, np.maximum(idx - 1, 0)]
    b = y[rows, idx]
    c = y[rows, np.minimum(idx + 1, last)]
    denom = 2.0 * b - a - c
    refine = (idx > 0) & (idx < last) & (denom > 0)
    delta = np.zeros(len(idx))
    delta[refine] = np.clip(0.5 * (c[refine] - a[refine]) / denom[refine], -limit, limit)
    value = b.copy()
    value[refine] += 0.25 * (c[refine] - a[refine]) * delta[refine]
    return delta, value


_SINC_DEPTH = 30  # neighbours on each side of the interpolated peak
# BLAS hands a product of only a few rows to a small-matrix kernel that
# rounds differently (OpenBLAS 0.3.31: up to 29 rows of this kernel), so
# the peaks are interpolated at least this many rows at a time to keep each
# row's result, and the pitch path, independent of the chunk size
_GEMM_MIN_ROWS = 64


@functools.cache
def _sinc_kernel(half_width: float, depth: int) -> tuple[np.ndarray, np.ndarray]:
    tau_rel = np.linspace(-half_width, half_width, int(40 * half_width) + 1)
    idx_rel = np.arange(-depth, depth + 1, dtype=np.float64)
    d = tau_rel[:, None] - idx_rel[None, :]
    w = np.sinc(d) * (0.5 + 0.5 * np.cos(np.pi * np.clip(d / depth, -1.0, 1.0)))
    return tau_rel, w


def sinc_refine(y: np.ndarray, rows: np.ndarray, ks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Refine local maxima ``y[rows, ks]`` of band-limited, even sequences (one per row of y).

    Each neighbourhood of 30 samples a side is interpolated with a
    cosine-tapered sinc kernel on a 1/20-sample grid within one sample of
    ``ks``, and the best grid point is polished parabolically.  Rows are
    even-extended at index 0, as an autocorrelation is.  Returns (refined
    positions, refined values).  Autocorrelation peaks of strongly
    harmonic signals are only 2-3 samples wide, so a plain parabola
    underestimates them at fractional lags.
    """
    tau_rel, kernel = _sinc_kernel(1.0, _SINC_DEPTH)
    mirrored = np.concatenate([y[:, _SINC_DEPTH:0:-1], y], axis=1)
    gather = ks[:, None] + np.arange(2 * _SINC_DEPTH + 1)[None, :]  # shifted by +depth already
    segs = mirrored[rows[:, None], gather]
    if len(ks) < _GEMM_MIN_ROWS:
        segs = np.concatenate([segs, np.zeros((_GEMM_MIN_ROWS - len(ks), segs.shape[1]))])
    interp = (segs @ kernel.T)[: len(ks)]  # (len(ks), grid points)
    mi = np.argmax(interp, axis=1)
    delta, values = parabolic_refine(interp, mi, 1.0)
    step = tau_rel[1] - tau_rel[0]
    return ks + tau_rel[mi] + delta * step, values


def trend_lines(y: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise robust straight-line fits of y on x, insensitive to outliers.

    The slope is the median of the slopes between the point pairs half the
    row apart, and the intercept the median residual.  Returns (slopes,
    intercepts).
    """
    n = x.shape[0]
    h = n // 2
    dx = x[h:] - x[: n - h]
    slopes = (y[:, h:] - y[:, : n - h]) / dx[None, :]
    slope = _row_medians(slopes)
    intercept = _row_medians(y - slope[:, None] * x[None, :])
    return slope, intercept


def _row_medians(y: np.ndarray) -> np.ndarray:
    """``np.median(y, axis=1)`` for finite y, from a single partition of each row."""
    n = y.shape[1]
    h = n // 2
    part = np.partition(y, h, axis=1)
    if n % 2:
        return part[:, h]
    # the lower half holds the rest of the smallest values; its maximum is the other middle one
    return (part[:, :h].max(axis=1) + part[:, h]) / 2
