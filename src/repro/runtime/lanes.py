"""Lanes: the compiled runtime's one pool of CPU-pinned worker threads.

AERO reconstructs each star on its own, and its window-wise GCN couples
stars only inside one window, so the windows of a batch (and the stacks of
an incremental tick) share no arithmetic.  A *lane* is a contiguous range
of them scored on one worker thread; numpy releases the GIL inside ufuncs
and BLAS, so lanes occupy separate cores.  Each lane runs the very
per-slice kernels one lane would, so scores are bit-identical whatever the
lane count.

Two callers share the pool:

* the incremental tick (:mod:`repro.runtime.incremental`) splits its
  stacks over lanes, each with its own scratch arena;
* :func:`score_batch`, the batch entry behind every full-forward scorer —
  ``AeroDetector.score`` and everything built on it (fit's train-score
  pass, set-up and loop calibration), ``CompiledDetector.score`` and
  ``score_stack``, and so a fleet's batched replay
  (:meth:`repro.streaming.FleetManager.run`).

Plan memos (the time-embedding cache with its token counter, the decoder
self-stage memo, the default-times memo) and the noise plan's published
graph are written by the calling thread only: lanes run the side-effect-free
:meth:`~repro.runtime.plans.CompiledModel.propagate` with a memo-reading
(never inserting) timeline, and the caller publishes the last window's
graph after every lane has joined.
"""

from __future__ import annotations

import itertools
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from typing import TYPE_CHECKING, Callable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - imports only for type checkers
    from .plans import CompiledModel

__all__ = ["usable_cpus", "lane_pool", "run_lanes", "split", "score_batch"]

#: Encoder work — folded sequences × encoder rows × ``d_model`` — each lane
#: of a batch must keep for a second lane to pay.  Pinned from the 1-vs-2-lane
#: crossover of ``score_stack`` at the golden geometry (4 variates folded
#: univariate, 24 encoder rows, ``d_model`` 24, ``batch_size`` 16; 2-vCPU VM,
#: BLAS on one thread, 8 interleaved blocks per size): two lanes lost every
#: block at 2 and 4 windows, 5 of 8 at 8 windows (4 a lane), and won every
#: block from 12 windows on (0.76× at 12, 0.64× at 16, 0.58× at 64).  A lane
#: keeps 8 windows' worth: 32 folded sequences.
_MIN_BATCH_LANE_WORK = 32 * 24 * 24


def _cpu_set() -> list[int]:
    try:
        return sorted(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return list(range(os.cpu_count() or 1))


def usable_cpus() -> int:
    return len(_cpu_set())


def lanes_for(work: int, minimum: int) -> int:
    """One lane per usable CPU while each lane keeps ``minimum`` of ``work``."""
    if work < 2 * minimum:  # one lane whatever the CPUs: skip the affinity query
        return 1
    return min(usable_cpus(), work // minimum)


def encoder_work(model: "CompiledModel", windows: int, window: int, omega: int) -> int:
    """Folded sequences × encoder rows × ``d_model`` of ``windows`` windows."""
    temporal = model.temporal
    sequences = windows if temporal.multivariate_input else windows * model.num_variates
    rows = window - omega if temporal.conditioning == "masked" else window
    return sequences * rows * temporal.encoder_embedding_w.shape[1]


def split(total: int, count: int) -> list[tuple[int, int]]:
    """``count`` contiguous ranges over ``total`` items, the first ones one longer."""
    count = max(1, min(count, total))
    size, extra = divmod(total, count)
    bounds = [0]
    for index in range(count):
        bounds.append(bounds[-1] + size + (index < extra))
    return list(zip(bounds, bounds[1:]))


_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def lane_pool() -> ThreadPoolExecutor:
    """The process-wide pool lanes run on: one worker pinned to each usable CPU.

    A multi-lane call runs every lane here while the calling thread waits.
    Left to the scheduler's wake-up placement, a worker could share the
    calling thread's CPU for a whole run (two lanes on one core lose to one
    lane); the calling thread belongs to the caller and cannot be pinned,
    so it does not run a lane.
    """
    global _pool
    with _pool_lock:
        if _pool is None:
            cpus = _cpu_set()
            _pool = ThreadPoolExecutor(
                len(cpus),
                thread_name_prefix="repro-lane",
                initializer=_pin_worker,
                initargs=(cpus, itertools.count()),
            )
        return _pool


def _pin_worker(cpus: list[int], started) -> None:
    try:
        os.sched_setaffinity(0, {cpus[next(started) % len(cpus)]})
    except (AttributeError, OSError):  # no per-thread affinity here
        pass


def _forget_pool() -> None:
    # A pool inherited over fork has no threads, so its futures would never
    # complete: a forked child starts its own on first use.
    global _pool, _pool_lock
    _pool = None
    _pool_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def run_lanes(function: Callable, lanes) -> list:
    """``function(lane)`` for every lane on the pool; joins all, then re-raises.

    Every lane is joined before this returns or raises, so no lane is
    still writing when the caller moves on.
    """
    pool = lane_pool()
    futures = [pool.submit(function, lane) for lane in lanes]
    wait(futures)
    return [future.result() for future in futures]


# ----------------------------------------------------------------------
# batch scoring
# ----------------------------------------------------------------------
def _batch_lane_count(model: "CompiledModel", count: int, window: int, omega: int) -> int:
    """Lanes for a batch of ``count`` windows.

    One lane for temporal-free models (no encoder work to split) and for
    ``graph_mode="dynamic"``, whose smoothed adjacency is a recurrence over
    the batch; otherwise one per usable CPU while each lane keeps
    :data:`_MIN_BATCH_LANE_WORK` of encoder work.
    """
    if model.temporal is None or model.graph_mode == "dynamic":
        return 1
    return lanes_for(encoder_work(model, count, window, omega), _MIN_BATCH_LANE_WORK)


def score_batch(
    model: "CompiledModel",
    config,
    windows: Callable,
    long_times: np.ndarray | None,
    short_times: np.ndarray | None,
    count: int,
) -> np.ndarray:
    """``(count, N)`` scores of a batch of ``config``-geometry windows.

    ``windows(start, stop)`` stages the ``(long, short)`` window arrays of
    windows ``[start, stop)`` — it runs on the lanes, so it must only slice
    or copy; ``long_times``/``short_times`` are the batch's ``(count, W)``
    and ``(count, omega)`` timestamps (``None``: the default cadence).

    The batch splits into contiguous per-lane ranges (:func:`split`), each
    scored in micro-batches of ``config.batch_size // lanes`` windows, so
    the lanes together hold what one ``batch_size`` micro-batch holds.  One
    lane is the plain loop of :meth:`CompiledModel.forward` calls.  On
    several, the calling thread first runs each lane's first timeline stage
    (the only memo writes, so a steady cadence hits the memos on every
    later micro-batch), then the lanes run the side-effect-free forward,
    and after the join the caller publishes the last window's graph.
    """
    window, omega, batch_size = config.window, config.short_window, config.batch_size
    lanes = _batch_lane_count(model, count, window, omega)
    if lanes == 1:
        parts = []
        for start in range(0, count, batch_size):
            stop = min(start + batch_size, count)
            long, short = windows(start, stop)
            parts.append(model.forward(
                long, short, _rows(long_times, start, stop), _rows(short_times, start, stop)
            ).scores)
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    if long_times is None:
        # Resolved here: the default-times memo is the calling thread's too.
        long_times = np.broadcast_to(np.arange(window, dtype=np.float64), (count, window))
        short_times = long_times[:, window - omega :]
    scores = np.empty((count, model.num_variates), dtype=model.dtype)
    micro = max(1, batch_size // lanes)
    ranges = split(count, lanes)
    for start, stop in ranges:
        stop = min(start + micro, stop)
        model.timeline(
            stop - start, window, omega,
            _rows(long_times, start, stop), _rows(short_times, start, stop),
        )

    def lane(bounds: tuple[int, int]):
        graph = None
        for start in range(bounds[0], bounds[1], micro):
            stop = min(start + micro, bounds[1])
            long, short = windows(start, stop)
            shared = model.timeline(
                stop - start, window, omega,
                _rows(long_times, start, stop), _rows(short_times, start, stop),
                memoize=False,
            )
            result, graph = model.propagate(long, short, shared)
            scores[start:stop] = result.scores
        return graph

    graph = run_lanes(lane, ranges)[-1]
    model.publish(graph)
    return scores


def _rows(array: np.ndarray | None, start: int, stop: int) -> np.ndarray | None:
    return None if array is None else array[start:stop]
