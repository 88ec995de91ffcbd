"""The stream/batch contract: a single stream scores what the batch path scores.

``detector.stream(backend=b)`` is a one-shard :class:`FleetManager`; fed a
series tick by tick as ``(1, N)`` rows it must emit, bit for bit
(``np.array_equal``), the scores ``detector.score`` returns for the same
series — for every ablation variant (the dynamic graph included: one shard
has no neighbour to chain smoothed-adjacency state into), both conditioning
modes, with and without real timestamps, on the compiled and the
incremental backend.
"""

import numpy as np
import pytest

from repro import AeroConfig
from repro.core.variants import ABLATION_VARIANTS, build_variant
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
    results = stream.run(test[:, None, :], times)
    assert all(result.ready for result in results)
    streamed = np.stack([result.scores[0] for result in results])
    assert np.array_equal(streamed, batch), (
        f"{np.count_nonzero(streamed != batch)} of {batch.size} entries differ, "
        f"max diff {np.abs(streamed - batch).max():.3e}"
    )
