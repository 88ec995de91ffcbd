"""Batch scoring on lanes: bit-equality, memo ownership, memory and fork safety.

``repro.runtime.lanes.score_batch`` splits a window batch into contiguous
per-lane ranges scored in micro-batches of ``batch_size // lanes`` windows
on the runtime's pinned pool.  Each lane runs the very per-slice kernels
one lane runs, so every batch entry point — ``AeroDetector.score``,
``CompiledDetector.score`` and ``score_stack`` — must return the same bits
whatever the lane count (every ablation variant is covered by
``tests/streaming/test_stream_batch_contract.py``).  A count is forced by
patching the automatic rule's inputs: ``usable_cpus`` and the per-lane
minimum of work.
"""

import multiprocessing
import threading
import tracemalloc

import numpy as np
import pytest

from repro import AeroConfig
from repro.core.variants import build_variant
from repro.runtime import compile_detector, lanes
from repro.runtime.plans import NoisePlan, TemporalPlan, TimeEmbeddingPlan

NUM_VARIATES = 5
WINDOW = 16
SHORT = 6


def _make_series(num_points: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    phases = rng.uniform(0.0, 2.0 * np.pi, NUM_VARIATES)
    t = np.arange(num_points)
    base = 0.5 + 0.3 * np.sin(2.0 * np.pi * t[:, None] / 24.0 + phases[None, :])
    return base + 0.05 * rng.standard_normal((num_points, NUM_VARIATES))


#: One irregular cadence: 140 training rows, then the 600-row test night.
CADENCE = np.cumsum(0.8 + 0.4 * np.random.default_rng(3).random(140 + 600))


@pytest.fixture(scope="module")
def fitted():
    config = AeroConfig(
        window=WINDOW, short_window=SHORT, d_model=8, num_heads=2, train_stride=3,
        max_epochs_stage1=1, max_epochs_stage2=1, batch_size=8,
    )
    train = _make_series(140, seed=7)
    return {
        name: build_variant(name, config=config).fit(train, CADENCE[:140])
        for name in ("full", "dynamic_graph", "no_temporal")
    }


@pytest.fixture(scope="module")
def night():
    """A long test series on an irregular cadence: every window misses the memo."""
    return _make_series(600, seed=11), CADENCE[140:]


def _force(monkeypatch, count: int) -> None:
    monkeypatch.setattr(lanes, "usable_cpus", lambda: count)
    monkeypatch.setattr(lanes, "_MIN_BATCH_LANE_WORK", 1)


def _record_lane_calls(monkeypatch) -> list:
    calls = []
    run_lanes = lanes.run_lanes

    def recording(function, ranges):
        calls.append(list(ranges))
        return run_lanes(function, ranges)

    monkeypatch.setattr(lanes, "run_lanes", recording)
    return calls


@pytest.mark.parametrize("cadence", ["index", "irregular"])
def test_long_batches_are_lane_count_invariant(fitted, night, cadence, monkeypatch):
    """600 irregular windows mint >64 memo entries on one lane: eviction included."""
    detector = fitted["full"]
    series, times = night
    times = times if cadence == "irregular" else None
    calls = _record_lane_calls(monkeypatch)
    reference, memos = None, []
    for count in (1, 2, 3):
        _force(monkeypatch, count)
        compiled = compile_detector(detector)
        compiled32 = compile_detector(detector, dtype="float32")
        scores = (detector.score(series, times), compiled.score(series, times),
                  compiled32.score(series, times))
        memos.append(compiled.model.temporal.time_embedding)
        if reference is None:
            reference = scores
            assert np.array_equal(scores[0], scores[1])
            continue
        for got, want in zip(scores, reference):
            assert got.dtype == want.dtype and np.array_equal(got, want), count
    assert [len(ranges) for ranges in calls] == [2, 2, 2, 3, 3, 3]
    # The contiguous ranges cover the batch once, in order.
    assert calls[3][0][0] == 0 and all(a[1] == b[0] for a, b in zip(calls[3], calls[3][1:]))
    if cadence == "irregular":
        assert memos[0]._next_token > TimeEmbeddingPlan.MAX_CACHE  # one lane evicted
        # Lanes only read the memo: the caller warms each lane's first micro-batch.
        assert memos[1]._next_token <= 2 * 2


@pytest.mark.parametrize("timestamps", [False, True])
def test_score_stack_is_lane_count_invariant(fitted, night, timestamps, monkeypatch):
    compiled = compile_detector(fitted["full"])
    series, times = night
    scaled = compiled.scaler.transform(series)
    stack = np.stack([scaled[i : i + WINDOW] for i in range(0, 40 * 3, 3)])
    stack_times = np.stack([times[i : i + WINDOW] for i in range(0, 40 * 3, 3)])
    stack_times = stack_times if timestamps else None
    results = []
    for count in (1, 2, 3):
        _force(monkeypatch, count)
        results.append(compiled.score_stack(stack, stack_times))
    assert np.array_equal(results[0], results[1]) and np.array_equal(results[0], results[2])


def test_one_lane_models(fitted, night, monkeypatch):
    """Dynamic graphs (a recurrence over the batch) and temporal-free models."""
    series, _ = night
    calls = _record_lane_calls(monkeypatch)
    _force(monkeypatch, 3)
    for name in ("dynamic_graph", "no_temporal"):
        first = fitted[name].score(series)
        assert np.array_equal(first, compile_detector(fitted[name]).score(series))
    assert calls == []


def test_learned_graph_is_the_last_window_adjacency(fitted, night, monkeypatch):
    detector = fitted["full"]
    series, _ = night
    graphs = []
    for count in (1, 3):
        _force(monkeypatch, count)
        detector.score(series)
        graphs.append(detector.learned_graph())
    scaled = detector.scaler.transform(series[-WINDOW:])
    last = scaled.T[None]
    detector.score_windows(last, last[:, :, WINDOW - SHORT :])
    assert np.array_equal(graphs[0], graphs[1])
    assert np.array_equal(graphs[1], detector.learned_graph())


class _GuardedDict(dict):
    """A memo dict that records every write from a lane thread."""

    writes: list

    def _check(self):
        if threading.current_thread().name.startswith("repro-lane"):
            self.writes.append(threading.current_thread().name)

    def __setitem__(self, key, value):
        self._check()
        super().__setitem__(key, value)

    def __delitem__(self, key):
        self._check()
        super().__delitem__(key)

    def pop(self, *args):
        self._check()
        return super().pop(*args)


def test_lanes_never_write_plan_state(fitted, night, monkeypatch):
    """Plan attributes and memos are the calling thread's to write."""
    writes = []
    _GuardedDict.writes = writes

    def guarded(plan, attr, value):
        if threading.current_thread().name.startswith("repro-lane"):
            writes.append(attr)
        object.__setattr__(plan, attr, value)

    for cls in (NoisePlan, TemporalPlan, TimeEmbeddingPlan):
        monkeypatch.setattr(cls, "__setattr__", guarded)
    calls = _record_lane_calls(monkeypatch)
    _force(monkeypatch, 2)
    series, times = night
    compiled = compile_detector(fitted["full"])
    temporal = compiled.model.temporal
    for plan, name in ((temporal.time_embedding, "_cache"), (temporal, "_self_stage_cache"),
                       (temporal, "_default_times")):
        object.__setattr__(plan, name, _GuardedDict())
    for cadence in (None, times):
        compiled.score(series, cadence)
        compiled.score_stack(np.zeros((12, WINDOW, NUM_VARIATES)))
    fitted["full"].score(series, times)
    assert len(calls) == 5 and writes == []
    assert compiled.model.noise.last_adjacency is not None


def test_failing_lane_is_joined_before_the_batch_raises(fitted, night, monkeypatch):
    compiled = compile_detector(fitted["full"])
    series, _ = night
    _force(monkeypatch, 3)
    propagate = type(compiled.model).propagate
    lock, failed, finished = threading.Lock(), [], []

    def failing(model, *args):
        with lock:
            fail = not failed
            failed.append(threading.current_thread().name)
        if fail:
            raise RuntimeError("lane broke")
        result = propagate(model, *args)
        finished.append(threading.current_thread().name)
        return result

    monkeypatch.setattr(type(compiled.model), "propagate", failing)
    with pytest.raises(RuntimeError, match="lane broke"):
        compiled.score(series)
    # 600 windows: three ranges of 200 in micro-batches of 8 // 3 = 2.  The
    # broken lane stopped at its first; the other two finished first.
    assert len(finished) == 2 * 100


def test_two_lane_peak_stays_within_one_micro_batch(fitted, night, monkeypatch):
    """Two lanes of ``batch_size // 2`` hold what one ``batch_size`` micro-batch holds.

    Traced over the whole call (tracemalloc follows every thread), on the
    index cadence so that memo churn does not enter the peak.  The 10%
    margin covers the allocations every micro-batch makes whatever its
    size (measured: +6%); two lanes of ``batch_size`` windows each peak
    1.8 times as high.
    """
    compiled = compile_detector(fitted["full"])
    series, _ = night
    peaks = {}
    for count in (1, 2):
        _force(monkeypatch, count)
        compiled.score(series)  # warm the pool, the memos and the allocator
        tracemalloc.start()
        try:
            baseline, _ = tracemalloc.get_traced_memory()
            compiled.score(series)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks[count] = peak - baseline
    assert peaks[2] <= 1.1 * peaks[1], peaks


def _score_in_child(detector, series, connection):
    connection.send(detector.score(series))
    connection.close()


@pytest.mark.filterwarnings("ignore::DeprecationWarning")  # fork() with live threads
def test_batch_score_in_a_forked_child(fitted, night, monkeypatch):
    """``FleetTrainer``'s process executor forks; a child must start its own pool."""
    detector = fitted["full"]
    series, _ = night
    _force(monkeypatch, 2)
    calls = _record_lane_calls(monkeypatch)
    expected = detector.score(series)  # the parent's pool is live
    assert calls
    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)
    child = context.Process(target=_score_in_child, args=(detector, series, sender))
    child.start()
    sender.close()
    try:
        assert receiver.poll(60), "the forked child's batch score never finished"
        from_child = receiver.recv()
    finally:
        child.join(5)
        if child.is_alive():
            child.kill()
            child.join()
    assert child.exitcode == 0
    assert np.array_equal(from_child, expected)


def test_automatic_rule(fitted, monkeypatch):
    model = compile_detector(fitted["full"]).model
    # Encoder work per window: N folded sequences x (W - omega) rows x d_model.
    per_window = NUM_VARIATES * (WINDOW - SHORT) * 8
    enough = -(-lanes._MIN_BATCH_LANE_WORK // per_window)  # windows for one lane's minimum
    monkeypatch.setattr(lanes, "usable_cpus", lambda: 4)
    assert lanes._batch_lane_count(model, enough, WINDOW, SHORT) == 1
    assert lanes._batch_lane_count(model, 2 * enough, WINDOW, SHORT) == 2
    assert lanes._batch_lane_count(model, 64 * enough, WINDOW, SHORT) == 4
    for name in ("dynamic_graph", "no_temporal"):
        other = compile_detector(fitted[name]).model
        assert lanes._batch_lane_count(other, 64 * enough, WINDOW, SHORT) == 1
    monkeypatch.setattr(lanes, "usable_cpus", lambda: 1)
    assert lanes._batch_lane_count(model, 64 * enough, WINDOW, SHORT) == 1


def test_the_real_cpu_count_decides(fitted):
    """On one usable CPU (``taskset -c 0``) the automatic rule gives one lane."""
    model = compile_detector(fitted["full"]).model
    wide = lanes._batch_lane_count(model, 10_000, WINDOW, SHORT)
    assert wide == len(lanes._cpu_set())
