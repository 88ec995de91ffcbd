"""The stream/batch contract: a single stream scores what the batch path scores.

``detector.stream(backend=b)`` is a one-shard :class:`FleetManager`; fed a
series tick by tick as ``(1, N)`` rows it must emit, bit for bit
(``np.array_equal``), the scores ``detector.score`` returns for the same
series — for every ablation variant (the dynamic graph included: one shard
has no neighbour to chain smoothed-adjacency state into), both conditioning
modes, with and without real timestamps, on the compiled and the
incremental backend — stepped tick by tick, and replayed with the batched
``run``.  The batch scorers themselves return the same bits whatever the
number of lanes they run on.
"""

import numpy as np
import pytest

from repro import AeroConfig
from repro.core.variants import ABLATION_VARIANTS, build_variant
from repro.runtime import compile_detector, lanes
from repro.streaming import FleetManager

NUM_VARIATES = 5
WINDOW = 16
SHORT = 6


def _make_series(num_points: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    phases = rng.uniform(0.0, 2.0 * np.pi, NUM_VARIATES)
    t = np.arange(num_points)
    base = 0.5 + 0.3 * np.sin(2.0 * np.pi * t[:, None] / 24.0 + phases[None, :])
    return base + 0.05 * rng.standard_normal((num_points, NUM_VARIATES))


@pytest.fixture(scope="module")
def series():
    """``(train, train_times, test, test_times)`` on one irregular cadence."""
    rng = np.random.default_rng(3)
    times = np.cumsum(0.8 + 0.4 * rng.random(140 + 90))
    return _make_series(140, seed=7), times[:140], _make_series(90, seed=11), times[140:]


@pytest.fixture(scope="module")
def fitted(series):
    """Every ablation variant in both conditioning modes, fitted with timestamps."""
    train, train_times, _, _ = series
    detectors = {}

    def get(variant, conditioning):
        key = (variant, conditioning)
        if key not in detectors:
            config = AeroConfig(
                window=WINDOW, short_window=SHORT, d_model=8, num_heads=2,
                train_stride=3, max_epochs_stage1=2, max_epochs_stage2=2,
                batch_size=8, conditioning=conditioning,
            )
            detectors[key] = build_variant(variant, config=config).fit(train, train_times)
        return detectors[key]

    return get


@pytest.mark.parametrize("backend", ["compiled", "incremental"])
@pytest.mark.parametrize("timed", [False, True], ids=["index", "timestamps"])
@pytest.mark.parametrize("conditioning", ["masked", "full"])
@pytest.mark.parametrize("variant", sorted(ABLATION_VARIANTS))
def test_stream_run_equals_batch_score(fitted, series, variant, conditioning, timed, backend):
    detector = fitted(variant, conditioning)
    _, _, test, test_times = series
    times = test_times if timed else None
    batch = detector.score(test, times)
    stream = detector.stream(backend=backend)
    assert isinstance(stream, FleetManager) and stream.num_shards == 1
    results = [
        stream.step(row[None], None if times is None else float(times[tick]))
        for tick, row in enumerate(test)
    ]
    assert all(result.ready for result in results)
    streamed = np.stack([result.scores[0] for result in results])
    assert np.array_equal(streamed, batch), (
        f"{np.count_nonzero(streamed != batch)} of {batch.size} entries differ, "
        f"max diff {np.abs(streamed - batch).max():.3e}"
    )
    # The batched replay keeps the contract too.
    replayed = detector.stream(backend=backend).run(test[:, None, :], times)
    assert np.array_equal(np.stack([result.scores[0] for result in replayed]), batch)


@pytest.mark.parametrize("conditioning", ["masked", "full"])
@pytest.mark.parametrize("variant", sorted(ABLATION_VARIANTS))
def test_batch_scores_are_lane_count_invariant(fitted, series, variant, conditioning, monkeypatch):
    """Batch scorers on 2 and 3 forced lanes return the one-lane bits."""
    detector = fitted(variant, conditioning)
    _, _, test, test_times = series
    engine = compile_detector(detector)
    engine32 = compile_detector(detector, dtype="float32")
    scaled = engine.scaler.transform(test)
    stack = np.stack([scaled[i : i + WINDOW] for i in range(0, 60, 3)])
    stack_times = np.stack([test_times[i : i + WINDOW] for i in range(0, 60, 3)])
    # 40 windows still split unevenly over three lanes of 2-window micro-batches.
    test, test_times = test[:40], test_times[:40]

    def scores():
        return [
            detector.score(test), detector.score(test, test_times),
            engine.score(test, test_times), engine32.score(test, test_times),
            engine.score_stack(stack), engine.score_stack(stack, stack_times),
            engine32.score_stack(stack, stack_times),
        ]

    monkeypatch.setattr(lanes, "_MIN_BATCH_LANE_WORK", 1)
    expected = None
    for forced in (1, 2, 3):
        monkeypatch.setattr(lanes, "usable_cpus", lambda forced=forced: forced)
        got = scores()
        if expected is None:
            expected = got
        for index, (a, b) in enumerate(zip(got, expected)):
            assert a.dtype == b.dtype and np.array_equal(a, b), (forced, index)
