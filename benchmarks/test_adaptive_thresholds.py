"""Benchmark S2 — per-star adaptive thresholds: vectorized vs scalar-loop POT.

A 1k-star fleet served through per-star SPOT instances pays one Python
``IncrementalPOT.update`` call per star per tick (the scalar oracle of
``tests/streaming/pot_oracle.py``); the
:class:`~repro.streaming.VectorizedIncrementalPOT` advances the whole fleet
with one array-native update.  This benchmark enforces the two acceptance
criteria at production scale:

* **bit-equality** — over the whole stream the vectorized fleet's alarms,
  thresholds, observation counts, excess sets and re-fit cadence equal 1k
  independent scalar instances (same ``refit_interval``, same
  ``max_excesses``);
* **speed** — the vectorized per-tick update is at least 10x faster than
  the scalar loop.
"""

import copy
import time

import numpy as np
import pytest

from conftest import run_once

from repro.streaming import VectorizedIncrementalPOT

from pot_oracle import IncrementalPOT

NUM_STARS = 1000
TICKS = 300
CALIBRATION = 2000
KWARGS = dict(q=1e-3, level=0.99, refit_interval=32, max_excesses=256)


def _run_comparison():
    rng = np.random.default_rng(0)
    calibration = rng.exponential(size=CALIBRATION)

    reference = IncrementalPOT(**KWARGS).fit(calibration)
    # Shared calibration: cloning the fitted reference is state-identical to
    # fitting each star separately and keeps the setup out of the timings.
    scalars = [copy.deepcopy(reference) for _ in range(NUM_STARS)]
    vec = VectorizedIncrementalPOT(**KWARGS).fit(calibration, num_stars=NUM_STARS)

    # Per-star drift so the streams (and staggered re-fits) diverge star by
    # star — the scenario a frozen global threshold silently mislabels.
    drift = 1.0 + 0.5 * np.arange(NUM_STARS) / NUM_STARS
    streams = rng.exponential(size=(TICKS, NUM_STARS)) * drift

    started = time.perf_counter()
    scalar_alarms = np.empty((TICKS, NUM_STARS), dtype=np.int64)
    for tick in range(TICKS):
        row = streams[tick]
        scalar_alarms[tick] = [
            pot.update(float(score)) for pot, score in zip(scalars, row)
        ]
    scalar_seconds = time.perf_counter() - started

    started = time.perf_counter()
    vector_alarms = np.empty((TICKS, NUM_STARS), dtype=np.int64)
    for tick in range(TICKS):
        vector_alarms[tick] = vec.update(streams[tick])
    vector_seconds = time.perf_counter() - started

    return {
        "scalars": scalars,
        "vec": vec,
        "scalar_alarms": scalar_alarms,
        "vector_alarms": vector_alarms,
        "scalar_tick_ms": 1e3 * scalar_seconds / TICKS,
        "vector_tick_ms": 1e3 * vector_seconds / TICKS,
        "speedup": scalar_seconds / vector_seconds,
    }


@pytest.mark.slow
def test_vectorized_pot_bit_equal_and_10x(benchmark):
    result = run_once(benchmark, _run_comparison)
    scalars, vec = result["scalars"], result["vec"]

    np.testing.assert_array_equal(result["vector_alarms"], result["scalar_alarms"])
    np.testing.assert_array_equal(vec.thresholds, [pot.threshold for pot in scalars])
    np.testing.assert_array_equal(
        vec.num_observations, [pot.num_observations for pot in scalars]
    )
    np.testing.assert_array_equal(vec.num_excesses, [pot.num_excesses for pot in scalars])
    np.testing.assert_array_equal(vec.num_refits, [pot.num_refits for pot in scalars])
    for star, pot in enumerate(scalars):
        np.testing.assert_array_equal(
            vec._pool[star, : vec._counts[star]], pot._excesses[: pot.num_excesses]
        )

    print(
        f"\n[adaptive thresholds] {NUM_STARS} stars x {TICKS} ticks: "
        f"scalar loop {result['scalar_tick_ms']:.2f} ms/tick, "
        f"vectorized {result['vector_tick_ms']:.3f} ms/tick "
        f"({result['speedup']:.1f}x), total refits {vec.total_refits}"
    )
    assert result["speedup"] >= 10.0, (
        f"vectorized POT only {result['speedup']:.1f}x faster than the scalar loop"
    )
