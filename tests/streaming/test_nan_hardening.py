"""NaN hardening of the streaming path: missing observations must not poison
ring buffers, POT state or alert streaks, and dropped-out stars must re-arm
cleanly after rejoining.  Also covers the StreamingService backpressure
contract (bounded submits, partial drains)."""

import numpy as np
import pytest

from repro import AeroConfig, AeroDetector
from repro.data import load_synthetic
from repro.streaming import (
    AlertPolicy,
    FleetManager,
    StreamingService,
    VectorizedIncrementalPOT,
)
from repro.streaming.timeline import StreamTimeline

from pot_oracle import IncrementalPOT


@pytest.fixture(scope="module")
def fitted():
    config = AeroConfig(
        window=24, short_window=8, d_model=16, num_heads=2,
        train_stride=3, max_epochs_stage1=4, max_epochs_stage2=3,
        batch_size=16, learning_rate=5e-3,
    )
    dataset = load_synthetic("SyntheticMiddle", scale=0.05)
    detector = AeroDetector(config)
    detector.fit(dataset.train)
    return detector, dataset


class TestIncrementalPOTNaN:
    def _fitted_pot(self, **kwargs):
        rng = np.random.default_rng(0)
        return IncrementalPOT(**kwargs).fit(rng.normal(size=500))

    def test_nan_update_is_a_no_op(self):
        pot = self._fitted_pot()
        rng = np.random.default_rng(1)
        for score in rng.normal(size=50):
            pot.update(float(score))
        before = (
            pot.threshold, pot.num_observations, pot.num_excesses,
            pot._excesses[: pot.num_excesses].copy(), pot.num_refits,
        )
        for bad in (np.nan, np.inf, -np.inf):
            assert pot.update(bad) is False
        after = (
            pot.threshold, pot.num_observations, pot.num_excesses,
            pot._excesses[: pot.num_excesses].copy(), pot.num_refits,
        )
        assert before[0] == after[0]
        assert before[1] == after[1] and before[2] == after[2]
        np.testing.assert_array_equal(before[3], after[3])
        assert before[4] == after[4]

    def test_vectorized_all_nan_tick_leaves_state_untouched(self):
        rng = np.random.default_rng(2)
        pot = VectorizedIncrementalPOT().fit(rng.normal(size=400), num_stars=6)
        for _ in range(30):
            pot.update(rng.normal(size=6))
        before = pot.state_dict()
        alarms = pot.update(np.full(6, np.nan))
        np.testing.assert_array_equal(alarms, np.zeros(6, dtype=np.int64))
        after = pot.state_dict()
        assert set(before) == set(after)
        for key in before:
            np.testing.assert_array_equal(before[key], after[key], err_msg=key)

    def test_vectorized_partial_nan_only_advances_observed_stars(self):
        rng = np.random.default_rng(3)
        pot = VectorizedIncrementalPOT().fit(rng.normal(size=400), num_stars=4)
        observations_before = pot.num_observations.copy()
        scores = np.array([0.1, np.nan, 0.2, np.nan])
        pot.update(scores)
        delta = pot.num_observations - observations_before
        np.testing.assert_array_equal(delta, [1, 0, 1, 0])

    def test_scalar_vector_equivalence_on_gappy_streams(self):
        rng = np.random.default_rng(4)
        calibration = rng.normal(size=300)
        stars = 5
        vector = VectorizedIncrementalPOT(refit_interval=8).fit(calibration, num_stars=stars)
        scalars = [IncrementalPOT(refit_interval=8).fit(calibration) for _ in range(stars)]
        for _ in range(120):
            scores = rng.normal(size=stars) * 2.0
            scores[rng.random(stars) < 0.15] = np.nan
            flags = vector.update(scores)
            expected = [int(pot.update(float(s))) for pot, s in zip(scalars, scores)]
            np.testing.assert_array_equal(flags, expected)
            np.testing.assert_array_equal(
                vector.thresholds, [pot.threshold for pot in scalars]
            )
            np.testing.assert_array_equal(
                vector.num_observations, [pot.num_observations for pot in scalars]
            )
            np.testing.assert_array_equal(
                vector.num_excesses, [pot.num_excesses for pot in scalars]
            )


class TestAlertPolicyNaN:
    def test_streak_survives_nan_and_fires_after_rejoin(self):
        """The alerts.py NaN rule: a gap neither breaks nor advances a streak."""
        policy = AlertPolicy(min_consecutive=3, cooldown=0)
        assert policy.update(0, np.array([2.0]), 1.0) == []
        assert policy.update(1, np.array([2.0]), 1.0) == []
        assert policy.update(2, np.array([np.nan]), 1.0) == []   # gap mid-streak
        assert policy.update(3, np.array([np.nan]), 1.0) == []   # longer gap
        alerts = policy.update(4, np.array([2.0]), 1.0)          # rejoin completes it
        assert len(alerts) == 1 and alerts[0].step == 4

    def test_star_rearms_after_cooldown_across_a_gap(self):
        policy = AlertPolicy(min_consecutive=1, cooldown=3)
        assert len(policy.update(0, np.array([2.0]), 1.0)) == 1
        assert policy.update(1, np.array([np.nan]), 1.0) == []   # muted + gap
        assert policy.update(3, np.array([2.0]), 1.0) == []      # still muted
        assert len(policy.update(4, np.array([2.0]), 1.0)) == 1  # re-armed

    def test_nan_never_fires_even_when_streak_is_ripe(self):
        policy = AlertPolicy(min_consecutive=1, cooldown=0)
        assert policy.update(0, np.array([np.nan]), 1.0) == []
        assert policy.alerts_fired == 0


class TestStreamingDetectorNaN:
    """A single stream (``detector.stream()``, a one-shard fleet)."""

    def test_single_gap_does_not_poison_later_ticks(self, fitted):
        detector, dataset = fitted
        stream = detector.stream()
        clean = detector.stream()
        test = dataset.test[:30].copy()
        gap_tick, gap_star = 10, 2
        gappy = test.copy()
        gappy[gap_tick, gap_star] = np.nan

        gap_results = [stream.step(row[None]) for row in gappy]
        clean_results = [clean.step(row[None]) for row in test]
        # The batched replay masks the same gap.
        for mine, theirs in zip(detector.stream().run(gappy[:, None, :]), gap_results):
            np.testing.assert_array_equal(mine.scores, theirs.scores)

        # The gap tick masks exactly the missing star.
        assert np.isnan(gap_results[gap_tick].scores[0, gap_star])
        finite = np.delete(gap_results[gap_tick].scores[0], gap_star)
        assert np.isfinite(finite).all()
        assert gap_results[gap_tick].labels[0, gap_star] == 0
        # Every later tick emits fully finite scores again (no NaN poisoning
        # of the ring buffer for the next W steps).
        for result in gap_results[gap_tick + 1 :]:
            assert np.isfinite(result.scores).all()
        # Before the gap the streams are bit-identical.
        for mine, theirs in zip(gap_results[:gap_tick], clean_results[:gap_tick]):
            np.testing.assert_array_equal(mine.scores, theirs.scores)

    def test_adaptive_pot_skips_gap_ticks(self, fitted):
        detector, dataset = fitted
        stream = detector.stream(threshold_mode="per_star")
        observations = stream.adaptive_pot.num_observations.copy()
        row = dataset.test[0].copy()
        row[:] = np.nan
        stream.step(row[None])
        np.testing.assert_array_equal(stream.adaptive_pot.num_observations, observations)

    def test_consecutive_gaps_carry_last_value_forward(self, fitted):
        detector, dataset = fitted
        stream = detector.stream()
        stream.step(dataset.test[0][None])
        buffer = stream._buffers[0]
        last_scaled = buffer.view(1)[0].copy()
        gap = np.full((1, detector.model.num_variates), np.nan)
        stream.step(gap)
        stream.step(gap)
        np.testing.assert_array_equal(buffer.view(1)[0], last_scaled)


class TestFleetNaN:
    def test_missing_star_masks_only_its_shard_entry(self, fitted):
        detector, dataset = fitted
        fleet = FleetManager(detector, num_shards=2, rearm_min_gap=0)
        clean = FleetManager(detector, num_shards=2, rearm_min_gap=0)
        rows = np.stack([dataset.test[0], dataset.test[1]])
        gappy = rows.copy()
        gappy[0, 1] = np.nan

        result = fleet.step(gappy)
        reference = clean.step(rows)
        assert np.isnan(result.scores[0, 1])
        assert result.labels[0, 1] == 0
        # The untouched shard is bit-identical to the clean fleet.
        np.testing.assert_array_equal(result.scores[1], reference.scores[1])
        # Later ticks are finite everywhere again.
        later = fleet.step(rows)
        assert np.isfinite(later.scores).all()

    def test_dropout_rejoin_rearms_before_scoring_again(self, fitted):
        detector, dataset = fitted
        fleet = FleetManager(detector, num_shards=1, rearm_min_gap=3)
        star, gap = 1, 6
        for tick in range(3):
            fleet.step(dataset.test[tick][None, :])
        for tick in range(gap):
            row = dataset.test[3 + tick].copy()
            row[star] = np.nan
            result = fleet.step(row[None, :])
            assert np.isnan(result.scores[0, star])
        # Rejoin: scores stay masked while the window is dominated by
        # imputed rows (gap ticks, since gap < W - 1), then return.
        for tick in range(gap):
            result = fleet.step(dataset.test[9 + tick][None, :])
            assert np.isnan(result.scores[0, star]), f"re-arm tick {tick}"
            assert np.isfinite(np.delete(result.scores[0], star)).all()
        result = fleet.step(dataset.test[15][None, :])
        assert np.isfinite(result.scores).all()

    def test_second_dropout_never_shortens_active_rearm(self, fitted):
        """A fresh short gap during re-arm must extend, not replace, the mask."""
        detector, dataset = fitted
        fleet = FleetManager(detector, num_shards=1, rearm_min_gap=3)
        star = 0
        tick = iter(range(len(dataset.test)))

        def step(missing: bool):
            row = dataset.test[next(tick)].copy()
            if missing:
                row[star] = np.nan
            return fleet.step(row[None, :])

        step(False)
        for _ in range(8):                      # first dropout: suppression 8
            step(True)
        step(False)                             # rejoin; 7 re-arm ticks remain
        step(False)                             # 6 remain
        for _ in range(3):                      # second, shorter dropout
            step(True)
        # Remaining re-arm (6) exceeds the new gap (3): the star must stay
        # masked for all 6 ticks, not un-mask after 3.
        for remaining in range(6):
            result = step(False)
            assert np.isnan(result.scores[0, star]), f"re-arm tick {remaining}"
        assert np.isfinite(step(False).scores).all()

    def test_threshold_override_rejected_in_per_star_mode(self, fitted):
        detector, _ = fitted
        with pytest.raises(ValueError, match="global"):
            FleetManager(detector, num_shards=1, threshold_mode="per_star", threshold=1.0)

    def test_swap_model_threshold_handling(self, fitted):
        """A swap resets to the new model's calibration unless the caller
        passes a freshly recalibrated serving override."""
        detector, _ = fitted
        fleet = FleetManager(detector, num_shards=1, threshold=9.9)
        assert fleet.threshold == 9.9
        fleet.swap_model(detector)
        assert fleet.threshold == detector.threshold()   # override not carried
        fleet.swap_model(detector, threshold=7.7)
        assert fleet.threshold == 7.7                    # recalibrated override

    def test_short_blip_skips_rearm(self, fitted):
        detector, dataset = fitted
        fleet = FleetManager(detector, num_shards=1, rearm_min_gap=3)
        fleet.step(dataset.test[0][None, :])
        row = dataset.test[1].copy()
        row[0] = np.nan
        fleet.step(row[None, :])
        result = fleet.step(dataset.test[2][None, :])
        assert np.isfinite(result.scores).all()

    def test_per_star_mode_keeps_pot_state_on_all_nan_tick(self, fitted):
        detector, dataset = fitted
        fleet = FleetManager(detector, num_shards=1, threshold_mode="per_star")
        fleet.step(dataset.test[0][None, :])
        before = fleet.adaptive_pot.state_dict()
        fleet.step(np.full((1, detector.model.num_variates), np.nan))
        after = fleet.adaptive_pot.state_dict()
        for key in before:
            np.testing.assert_array_equal(before[key], after[key], err_msg=key)

    def test_rearm_validation(self, fitted):
        detector, _ = fitted
        with pytest.raises(ValueError):
            FleetManager(detector, num_shards=1, rearm_min_gap=-1)


class TestNonFiniteTimestamps:
    """One bad exposure time must be rejected, not blank the fleet.

    A NaN time entering the timeline ring would reach every window for the
    next ``W`` ticks and turn every star's score NaN.  The fronts reject it
    before touching any state, so a finite retry serves bit-identically to
    a front that never saw the bad call.
    """

    @staticmethod
    def _times(count: int) -> np.ndarray:
        rng = np.random.default_rng(5)
        return 100.0 + np.cumsum(0.5 + rng.random(count))

    @pytest.mark.parametrize("backend", ["compiled", "incremental"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("first", [False, True])
    def test_fleet_rejects_and_retry_is_bit_identical(self, fitted, backend, bad, first):
        # ``first``: the very first call must not lock the timestamp mode.
        detector, dataset = fitted
        window = detector.config.window
        fleets = [
            FleetManager(
                detector, num_shards=2, seed_context=False, backend=backend,
                threshold_mode="per_star",
            )
            for _ in range(2)
        ]
        ticks = 2 * window + 6
        times = self._times(ticks)
        rows = np.stack([dataset.test[:ticks], dataset.test[1 : ticks + 1]], axis=1)
        bad_tick = 0 if first else window + 4
        for tick in range(ticks):
            if tick == bad_tick:
                with pytest.raises(ValueError, match="finite"):
                    fleets[0].step(rows[tick], bad)
            mine, theirs = (fleet.step(rows[tick], times[tick]) for fleet in fleets)
            np.testing.assert_array_equal(mine.scores, theirs.scores)
            np.testing.assert_array_equal(mine.labels, theirs.labels)
            np.testing.assert_array_equal(mine.thresholds, theirs.thresholds)
            assert mine.step == theirs.step
            if tick >= window - 1:
                assert np.isfinite(mine.scores).all()

    def test_rejected_first_call_leaves_the_mode_unlocked(self):
        timeline = StreamTimeline(8, None, 0)
        with pytest.raises(ValueError, match="finite"):
            timeline.resolve(1, [np.nan])
        assert timeline.mode is None
        # A front that never saw the bad call may still choose index mode.
        np.testing.assert_array_equal(timeline.resolve(1, None), [0.0])
        assert timeline.mode == "index"

    @pytest.mark.parametrize("backend", [None, "incremental"])
    def test_stream_rejects_and_retry_is_bit_identical(self, fitted, backend):
        detector, dataset = fitted
        window = detector.config.window
        streams = [detector.stream(seed_context=False, backend=backend) for _ in range(2)]
        ticks = 2 * window + 6
        times = self._times(ticks)
        bad_tick = window + 4
        for tick in range(ticks):
            if tick == bad_tick:
                with pytest.raises(ValueError, match="finite"):
                    streams[0].step(dataset.test[tick][None], np.nan)
                with pytest.raises(ValueError, match="finite"):
                    streams[0].step(dataset.test[tick][None], np.inf)
            mine, theirs = (
                stream.step(dataset.test[tick][None], times[tick]) for stream in streams
            )
            np.testing.assert_array_equal(mine.scores, theirs.scores)
            if tick >= window - 1:
                assert np.isfinite(mine.scores).all()


class _CountingFleet:
    """Minimal step(rows, timestamp) scorer for service-level tests."""

    num_stars = 4

    def __init__(self):
        self.steps = 0

    def step(self, rows, timestamp=None):
        self.steps += 1

        class Result:
            scores = np.zeros(4)
            alerts = ()
            step = self.steps

        return Result()


class TestServiceBackpressure:
    def test_submit_sheds_load_at_max_queue(self):
        service = StreamingService(_CountingFleet(), max_queue=3)
        rows = np.zeros((1, 4))
        assert all(service.submit(rows) for _ in range(3))
        assert service.submit(rows) is False          # shed
        assert service.submit(rows) is False          # shed again
        stats = service.stats()
        assert stats.dropped_steps == 2
        assert stats.queue_depth == 3 and stats.max_queue_depth == 3

    def test_under_pressure_flips_at_half_full(self):
        service = StreamingService(_CountingFleet(), max_queue=4)
        rows = np.zeros((1, 4))
        assert not service.under_pressure
        service.submit(rows)
        service.submit(rows)
        assert not service.under_pressure                 # exactly half
        service.submit(rows)
        assert service.under_pressure                     # beyond half

    def test_partial_drain_respects_max_steps(self):
        fleet = _CountingFleet()
        service = StreamingService(fleet, max_queue=8)
        rows = np.zeros((1, 4))
        for _ in range(6):
            service.submit(rows)
        first = service.drain(max_steps=2)
        assert len(first) == 2 and fleet.steps == 2
        assert service.queue_depth == 4
        rest = service.drain()
        assert len(rest) == 4 and service.queue_depth == 0
        assert service.stats().processed_steps == 6

    def test_drain_after_shedding_processes_survivors_in_order(self):
        fleet = _CountingFleet()
        service = StreamingService(fleet, max_queue=2)
        for value in range(5):
            service.submit(np.full((1, 4), float(value)))
        results = service.drain()
        assert len(results) == 2                      # only the queued two
        assert service.stats().dropped_steps == 3

    def test_submitted_rows_are_copied(self):
        service = StreamingService(_CountingFleet(), max_queue=2)
        rows = np.zeros((1, 4))
        service.submit(rows)
        rows[:] = 99.0                                # producer reuses buffer
        queued, _ = service._queue[0]
        np.testing.assert_array_equal(queued, np.zeros((1, 4)))
