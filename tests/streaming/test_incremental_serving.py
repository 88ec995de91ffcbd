"""Serving-front tests for ``backend="incremental"``.

The streaming contract: a fleet (or a single stream, its one-shard case)
on the incremental backend must emit bit-identical scores, labels and
thresholds to the same front on the compiled backend — through warm-up,
missing observations, dropout/rejoin re-arm guards, duplicate and
out-of-order frames, and hot model swaps (each swap discards the cross-tick
state, which transparently rebuilds from the ring buffers on the next
tick).
"""

import numpy as np
import pytest

from repro import AeroConfig, AeroDetector
from repro.core.variants import build_variant
from repro.obs.metrics import MetricsRegistry
from repro.runtime import compile_detector
from repro.simulation import ReplayHarness, ScenarioConfig, build_scenario
from repro.streaming import FleetManager

NUM_SHARDS = 2
NUM_VARIATES = 4
WINDOW = 16
SHORT = 6


def _fast_config(**overrides) -> AeroConfig:
    settings = dict(
        window=WINDOW,
        short_window=SHORT,
        d_model=8,
        num_heads=2,
        train_stride=3,
        max_epochs_stage1=2,
        max_epochs_stage2=2,
        batch_size=8,
    )
    settings.update(overrides)
    return AeroConfig(**settings)


@pytest.fixture(scope="module")
def scenario():
    return build_scenario(
        ScenarioConfig(
            num_shards=NUM_SHARDS,
            num_variates=NUM_VARIATES,
            train_length=220,
            calibration_length=0,
            night_length=90,
            num_events=2,
            num_duplicate_frames=3,
            num_reordered_frames=3,
            seed=5,
        )
    )


@pytest.fixture(scope="module")
def detector(scenario):
    fitted = AeroDetector(_fast_config())
    fitted.fit(scenario.train)
    return fitted


@pytest.fixture(scope="module")
def swap_detector(scenario):
    # Same geometry, different weights: a plausible retrain to swap in.
    fitted = AeroDetector(_fast_config())
    fitted.fit(scenario.train[7:])
    return fitted


def _assert_results_equal(result_a, result_b, context=""):
    assert result_a.step == result_b.step, context
    assert np.array_equal(result_a.scores, result_b.scores, equal_nan=True), (
        f"{context}: max diff "
        f"{np.nanmax(np.abs(result_a.scores - result_b.scores))}"
    )
    assert np.array_equal(result_a.labels, result_b.labels), context
    if result_a.thresholds is None:
        assert result_b.thresholds is None, context
    else:
        assert np.array_equal(result_a.thresholds, result_b.thresholds), context


class TestFleetIncrementalBackend:
    def test_replay_with_duplicates_and_out_of_order_frames(self, scenario, detector):
        """Raw delivery order (dedupe off) through the replay harness.

        The scenario's arrival schedule contains duplicate and reordered
        frames; both fronts ingest the identical raw sequence, so every
        emitted tick must match bit for bit.
        """
        fleet_compiled = FleetManager(detector, num_shards=NUM_SHARDS, backend="compiled")
        fleet_incremental = FleetManager(
            detector, num_shards=NUM_SHARDS, backend="incremental"
        )
        assert fleet_incremental.backend == "incremental"
        _, trace_compiled = ReplayHarness(fleet_compiled, scenario, dedupe=False).run()
        _, trace_incremental = ReplayHarness(fleet_incremental, scenario, dedupe=False).run()
        assert np.array_equal(
            trace_compiled.scores, trace_incremental.scores, equal_nan=True
        )
        assert np.array_equal(trace_compiled.labels, trace_incremental.labels)
        assert np.array_equal(trace_compiled.thresholds, trace_incremental.thresholds)
        stats = fleet_incremental.incremental_stats()
        assert stats["rebuilds"] == 1
        # The rebuild tick is also served by the incremental kernels (from
        # the freshly seeded rings), so every tick counts as incremental.
        assert stats["incremental_ticks"] == stats["ticks"]
        assert stats["fallback_ticks"] == 0
        assert fleet_compiled.incremental_stats() is None

    def test_hot_swap_mid_stream(self, scenario, detector, swap_detector):
        fleet_compiled = FleetManager(detector, num_shards=NUM_SHARDS, backend="compiled")
        fleet_incremental = FleetManager(
            detector, num_shards=NUM_SHARDS, backend="incremental"
        )
        frames = scenario.frames()[:50]
        for tick, frame in enumerate(frames):
            if tick == 25:
                fleet_compiled.swap_model(swap_detector)
                fleet_incremental.swap_model(swap_detector)
                assert fleet_incremental.backend == "incremental"
            result_compiled = fleet_compiled.step(frame.rows, frame.timestamp)
            result_incremental = fleet_incremental.step(frame.rows, frame.timestamp)
            _assert_results_equal(result_compiled, result_incremental, f"tick {tick}")
        stats = fleet_incremental.incremental_stats()
        # One rebuild at warm start plus one after the swap; the retired
        # pre-swap state's accounting stays in the cumulative totals.
        assert stats["rebuilds"] == 2
        assert stats["ticks"] == len(frames)

    def test_dropout_rejoin_under_rearm_guard(self, scenario, detector):
        rng = np.random.default_rng(23)
        exposures = np.stack([scenario.train[-40:]] * NUM_SHARDS, axis=1)
        exposures = exposures + 0.002 * rng.standard_normal(exposures.shape)
        exposures[10:16, 1, :] = np.nan  # 6-tick dropout, beyond the re-arm gap
        exposures[25, 0, 2] = np.nan     # single-exposure blip
        timestamps = np.cumsum(np.full(len(exposures), 15.0))
        fleet_compiled = FleetManager(
            detector, num_shards=NUM_SHARDS, backend="compiled", rearm_min_gap=3
        )
        fleet_incremental = FleetManager(
            detector, num_shards=NUM_SHARDS, backend="incremental", rearm_min_gap=3
        )
        saw_masked_rejoin = False
        for tick, rows in enumerate(exposures):
            result_compiled = fleet_compiled.step(rows, float(timestamps[tick]))
            result_incremental = fleet_incremental.step(rows, float(timestamps[tick]))
            _assert_results_equal(result_compiled, result_incremental, f"tick {tick}")
            if tick == 16:  # first tick after the dropout: re-arm masked
                assert np.isnan(result_incremental.scores[1]).all()
                saw_masked_rejoin = True
        assert saw_masked_rejoin
        assert fleet_incremental.health().rejoins == fleet_compiled.health().rejoins

    def test_telemetry_counters(self, scenario, detector):
        registry = MetricsRegistry()
        fleet = FleetManager(
            detector, num_shards=NUM_SHARDS, backend="incremental", registry=registry
        )
        rng = np.random.default_rng(31)
        exposures = np.stack([scenario.train[-20:]] * NUM_SHARDS, axis=1)
        exposures = exposures + 0.002 * rng.standard_normal(exposures.shape)
        for rows in exposures:
            fleet.step(rows)
        assert registry.counter("fleet_incremental_rebuilds_total").value == 1
        assert registry.counter("fleet_incremental_ticks_total").value == len(exposures) - 1
        assert registry.counter("fleet_incremental_fallbacks_total").value == 0

    def test_unsupported_profile_counts_fallbacks(self, scenario):
        # Long-window reconstruction has no exact incremental plan: every
        # tick runs the full compiled forward from the state's rings.
        registry = MetricsRegistry()
        detector = build_variant("no_short_window", config=_fast_config())
        detector.fit(scenario.train)
        fleet_compiled = FleetManager(detector, num_shards=NUM_SHARDS, backend="compiled")
        fleet_incremental = FleetManager(
            detector, num_shards=NUM_SHARDS, backend="incremental", registry=registry
        )
        rng = np.random.default_rng(37)
        exposures = np.stack([scenario.train[-15:]] * NUM_SHARDS, axis=1)
        exposures = exposures + 0.002 * rng.standard_normal(exposures.shape)
        for tick, rows in enumerate(exposures):
            result_compiled = fleet_compiled.step(rows)
            result_incremental = fleet_incremental.step(rows)
            _assert_results_equal(result_compiled, result_incremental, f"tick {tick}")
        stats = fleet_incremental.incremental_stats()
        assert stats["fallback_ticks"] == len(exposures)
        assert stats["incremental_ticks"] == 0
        assert registry.counter("fleet_incremental_fallbacks_total").value == len(exposures)
        assert registry.counter("fleet_incremental_ticks_total").value == 0


class TestStreamIncrementalBackend:
    """A single stream (``detector.stream()``, a one-shard fleet)."""

    def test_chunked_micro_batches_match_compiled(self, scenario, detector):
        # The reference stream gets its own engine object so nothing is
        # shared with the incremental stream's cached one.
        stream_compiled = detector.stream(backend=compile_detector(detector))
        stream_incremental = detector.stream(backend="incremental")
        assert stream_incremental.backend == "incremental"
        series = scenario.train[-60:].copy()
        series[12, 1] = np.nan
        series[13, 1] = np.nan
        series[30] = np.nan
        cursor = 0
        for chunk in (7, 1, 13, 5, 20, 11, 3):
            rows = series[cursor : cursor + chunk, None, :]
            cursor += chunk
            for result_compiled, result_incremental in zip(
                stream_compiled.run(rows), stream_incremental.run(rows)
            ):
                assert result_compiled.ready == result_incremental.ready
                _assert_results_equal(result_compiled, result_incremental, f"tick {cursor}")

    def test_hot_swap_mid_stream(self, scenario, detector, swap_detector):
        stream_compiled = detector.stream(backend=compile_detector(detector))
        stream_incremental = detector.stream(backend="incremental")
        series = scenario.train[-50:]
        for tick in range(len(series)):
            if tick == 20:
                stream_compiled.swap_model(swap_detector)
                stream_incremental.swap_model(swap_detector)
                assert stream_incremental.backend == "incremental"
            result_compiled = stream_compiled.step(series[tick][None])
            result_incremental = stream_incremental.step(series[tick][None])
            _assert_results_equal(result_compiled, result_incremental, f"tick {tick}")

    def test_univariate_stream_matches_batch_scores(self, scenario, detector):
        # The incremental backend must preserve the stream/batch contract
        # end to end (the full matrix lives in test_stream_batch_contract).
        stream_incremental = detector.stream(backend="incremental")
        series = scenario.train[-70:]
        results = stream_incremental.run(series[:, None, :])
        streamed = np.stack([result.scores[0] for result in results])
        batch = detector.score(series)
        assert np.array_equal(streamed, batch, equal_nan=True)

    def test_adaptive_pot_rides_along(self, scenario, detector):
        stream_compiled = detector.stream(
            backend=compile_detector(detector), threshold_mode="per_star"
        )
        stream_incremental = detector.stream(backend="incremental", threshold_mode="per_star")
        series = scenario.train[-40:]
        for tick in range(len(series)):
            result_compiled = stream_compiled.step(series[tick][None])
            result_incremental = stream_incremental.step(series[tick][None])
            _assert_results_equal(result_compiled, result_incremental, f"tick {tick}")
