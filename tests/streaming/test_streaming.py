"""Unit tests for the streaming subsystem: ring buffer, online scoring,
incremental POT, fleet serving, alerting and the ingestion service."""

import numpy as np
import pytest

from repro import AeroConfig, AeroDetector
from repro.data import load_synthetic
from repro.evaluation import pot_threshold
from repro.streaming import (
    AlertPolicy,
    FleetManager,
    RingBuffer,
    StreamingService,
)

from pot_oracle import IncrementalPOT


class TestRingBuffer:
    def test_append_and_view(self):
        buf = RingBuffer(4, num_variates=2)
        assert len(buf) == 0 and not buf.is_full
        for i in range(3):
            buf.append([float(i), float(i) + 10.0])
        assert len(buf) == 3
        np.testing.assert_allclose(buf.view()[:, 0], [0.0, 1.0, 2.0])
        np.testing.assert_allclose(buf.view(2)[:, 0], [1.0, 2.0])

    def test_eviction_keeps_last_capacity_rows(self):
        buf = RingBuffer(3, num_variates=1)
        for i in range(10):
            buf.append([float(i)])
        assert len(buf) == 3 and buf.is_full
        assert buf.total_appended == 10
        np.testing.assert_allclose(buf.view().ravel(), [7.0, 8.0, 9.0])

    def test_wraparound_views_stay_contiguous_and_correct(self):
        # Push far past several compactions and check every intermediate view.
        capacity = 5
        buf = RingBuffer(capacity, num_variates=1)
        for i in range(7 * capacity + 3):
            buf.append([float(i)])
            expected = np.arange(max(0, i - capacity + 1), i + 1, dtype=np.float64)
            view = buf.view(min(len(buf), capacity))
            assert view.flags["C_CONTIGUOUS"]
            np.testing.assert_allclose(view.ravel(), expected)

    def test_scalar_buffer_wraparound(self):
        buf = RingBuffer(4)
        for i in range(25):
            buf.append(float(i))
        np.testing.assert_allclose(buf.view(), [21.0, 22.0, 23.0, 24.0])

    def test_view_is_zero_copy(self):
        buf = RingBuffer(4, num_variates=2)
        for i in range(4):
            buf.append([float(i), 0.0])
        view = buf.view()
        assert view.base is buf._data

    def test_array_is_a_safe_copy(self):
        buf = RingBuffer(2, num_variates=1)
        buf.append([1.0])
        buf.append([2.0])
        snapshot = buf.array()
        buf.append([3.0])
        np.testing.assert_allclose(snapshot.ravel(), [1.0, 2.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            RingBuffer(0)
        with pytest.raises(ValueError):
            RingBuffer(3, num_variates=0)
        buf = RingBuffer(3, num_variates=2)
        with pytest.raises(ValueError):
            buf.append([1.0])
        with pytest.raises(ValueError):
            buf.view(1)

    def test_extend_and_clear(self):
        buf = RingBuffer(3, num_variates=1)
        buf.extend([[1.0], [2.0], [3.0], [4.0]])
        np.testing.assert_allclose(buf.view().ravel(), [2.0, 3.0, 4.0])
        buf.clear()
        assert len(buf) == 0 and buf.total_appended == 0


@pytest.fixture(scope="module")
def fitted():
    """A small fitted detector plus its dataset, shared across tests."""
    config = AeroConfig(
        window=24, short_window=8, d_model=16, num_heads=2,
        train_stride=3, max_epochs_stage1=4, max_epochs_stage2=3,
        batch_size=16, learning_rate=5e-3,
    )
    dataset = load_synthetic("SyntheticMiddle", scale=0.05)
    detector = AeroDetector(config)
    detector.fit(dataset.train, dataset.train_timestamps)
    return detector, dataset


class TestStreamingEquivalence:
    """``detector.stream()`` is a one-shard fleet: ``(1, N)`` rows in."""

    @staticmethod
    def stream_scores(stream, series, timestamps=None):
        results = stream.run(np.asarray(series)[:, None, :], timestamps)
        return np.stack([result.scores[0] for result in results])

    def test_score_series_matches_batch_bit_for_bit(self, fitted):
        detector, dataset = fitted
        batch_scores = detector.score(dataset.test)
        stream_scores = self.stream_scores(detector.stream(), dataset.test)
        assert np.array_equal(batch_scores, stream_scores)

    def test_score_series_matches_batch_with_timestamps(self, fitted):
        detector, dataset = fitted
        batch_scores = detector.score(dataset.test, dataset.test_timestamps)
        stream = FleetManager(detector, num_shards=1)
        stream_scores = self.stream_scores(stream, dataset.test, dataset.test_timestamps)
        assert np.array_equal(batch_scores, stream_scores)

    def test_step_by_step_matches_batch(self, fitted):
        detector, dataset = fitted
        batch_scores = detector.score(dataset.test)
        stream = detector.stream()
        per_step = np.stack([stream.step(row[None]).scores[0] for row in dataset.test])
        assert np.array_equal(per_step, batch_scores)

    def test_labels_match_detect(self, fitted):
        detector, dataset = fitted
        batch_labels = detector.detect(dataset.test)
        results = detector.stream().run(dataset.test[:, None, :])
        stream_labels = np.stack([result.labels[0] for result in results])
        assert np.array_equal(batch_labels, stream_labels)

    def test_stream_requires_fitted_detector(self):
        with pytest.raises(RuntimeError):
            AeroDetector(AeroConfig.fast()).stream()

    def test_step_validates_row_shape(self, fitted):
        detector, dataset = fitted
        stream = detector.stream()
        with pytest.raises(ValueError):
            stream.step(np.zeros(3))
        with pytest.raises(ValueError, match="shape"):
            stream.step(dataset.test[0])  # rows go in as (1, N)

    def test_timestamp_mode_is_locked(self, fitted):
        detector, dataset = fitted
        stream = detector.stream()
        stream.step(dataset.test[0][None], timestamp=float(dataset.test_timestamps[0]))
        with pytest.raises(ValueError):
            stream.step(dataset.test[1][None])

    def test_late_timestamps_raise_instead_of_silently_dropping(self, fitted):
        # Symmetric with the real->missing direction: once the stream locked
        # into index mode while real times were available, supplying one
        # later is an inconsistency, not a no-op.
        detector, dataset = fitted
        stream = detector.stream()
        stream.step(dataset.test[0][None])
        with pytest.raises(ValueError):
            stream.step(dataset.test[1][None], timestamp=float(dataset.test_timestamps[1]))

    def test_timestamps_ignored_when_detector_has_no_tail_times(self, fitted):
        # Batch parity: a detector fitted without timestamps ignores caller
        # timestamps, so the stream must accept (and ignore) them too.
        detector, dataset = fitted
        no_times = AeroDetector(detector.config)
        no_times.fit(dataset.train)  # no timestamps stored
        batch_scores = no_times.score(dataset.test, dataset.test_timestamps)
        stream_scores = self.stream_scores(
            no_times.stream(), dataset.test, dataset.test_timestamps
        )
        assert np.array_equal(batch_scores, stream_scores)

    def test_adaptive_pot_tracks_per_star_thresholds(self, fitted):
        detector, dataset = fitted
        stream = detector.stream(threshold_mode="per_star", pot_refit_interval=8)
        result = None
        for row in dataset.test[:10]:
            result = stream.step(row[None])
        assert result.thresholds.shape == (1, stream.num_variates)
        assert np.isfinite(result.thresholds).all()

    def test_adaptive_pot_matches_scalar_per_variate_reference(self, fitted):
        # The stream's vectorized POT must equal one scalar IncrementalPOT
        # per variate, calibrated on that variate's training scores, and
        # label each tick against the per-star thresholds it held before.
        detector, dataset = fitted
        stream = detector.stream(threshold_mode="per_star", pot_refit_interval=8)
        train = np.asarray(detector.train_scores_)
        refs = [
            IncrementalPOT(
                q=detector.config.pot_q, level=detector.config.pot_level, refit_interval=8
            ).fit(train[:, v])
            for v in range(stream.num_variates)
        ]
        for row in dataset.test[:20]:
            result = stream.step(row[None])
            np.testing.assert_array_equal(result.thresholds[0], [ref.threshold for ref in refs])
            expected = [ref.update(float(score)) for ref, score in zip(refs, result.scores[0])]
            np.testing.assert_array_equal(result.labels[0], expected)
        np.testing.assert_array_equal(
            stream.adaptive_pot.thresholds, [ref.threshold for ref in refs]
        )

    def test_threshold_state_round_trip(self, fitted):
        detector, dataset = fitted
        stream = detector.stream(threshold_mode="per_star")
        for row in dataset.test[:10]:
            stream.step(row[None])
        state = stream.threshold_state()
        other = detector.stream()
        assert other.threshold_state() is None
        other.load_threshold_state(state)
        assert other.threshold_mode == "per_star"
        np.testing.assert_array_equal(
            other.adaptive_pot.thresholds, stream.adaptive_pot.thresholds
        )


class TestStreamingWarmup:
    def test_short_training_series_still_matches_batch(self):
        # fit() clamps the window to the train length, so even a tiny train
        # series yields a full context tail; equivalence must survive the clamp.
        config = AeroConfig(
            window=20, short_window=6, d_model=8, num_heads=2,
            train_stride=2, max_epochs_stage1=2, max_epochs_stage2=2,
            batch_size=8, learning_rate=5e-3,
        )
        rng = np.random.default_rng(7)
        train = rng.normal(size=(12, 3))
        test = rng.normal(size=(40, 3))
        detector = AeroDetector(config).fit(train)
        batch_scores = detector.score(test)
        stream_scores = TestStreamingEquivalence.stream_scores(detector.stream(), test)
        assert np.array_equal(batch_scores, stream_scores)

    def test_cold_start_warmup_reports_not_ready(self, fitted):
        detector, dataset = fitted
        stream = detector.stream(seed_context=False)
        first = stream.step(dataset.test[0][None])
        assert not first.ready
        assert np.isnan(first.scores).all()
        assert not stream.health().warmed_up
        for t in range(1, detector.config.window):
            result = stream.step(dataset.test[t][None])
        assert result.ready and stream.health().warmed_up
        assert np.isfinite(result.scores).all()


class TestIncrementalPOT:
    def test_matches_batch_pot_at_calibration(self):
        rng = np.random.default_rng(0)
        scores = rng.exponential(size=4000)
        inc = IncrementalPOT(q=1e-3, level=0.99).fit(scores)
        batch = pot_threshold(scores, level=0.99, q=1e-3)
        assert inc.threshold == pytest.approx(batch, rel=0.15)

    def test_anomaly_branch_refreshes_threshold(self):
        rng = np.random.default_rng(6)
        cal = rng.exponential(size=2000)
        anomalous, benign = IncrementalPOT().fit(cal), IncrementalPOT().fit(cal)
        assert anomalous.update(1e9)       # anomaly branch
        assert not benign.update(1e-9)     # benign, below the initial threshold
        # Both saw one more observation and no new excess, so their
        # closed-form thresholds must agree — the anomaly branch used to
        # return early with a stale observation count.
        assert anomalous.threshold == benign.threshold

    def test_flags_extreme_scores(self):
        rng = np.random.default_rng(1)
        inc = IncrementalPOT().fit(rng.exponential(size=2000))
        assert inc.update(1e6)
        assert not inc.update(1e-6)

    def test_refit_is_amortised(self):
        rng = np.random.default_rng(2)
        inc = IncrementalPOT(level=0.5, refit_interval=16).fit(rng.exponential(size=500))
        refits_before = inc.num_refits
        # Feed scores in the excess band (above initial, below final threshold).
        band = (inc.initial_threshold + inc.threshold) / 2.0
        for _ in range(64):
            inc.update(band)
        new_refits = inc.num_refits - refits_before
        assert 1 <= new_refits <= 64 // 16 + 1

    def test_threshold_tightens_with_observations(self):
        rng = np.random.default_rng(3)
        inc = IncrementalPOT().fit(rng.exponential(size=2000))
        before = inc.threshold
        for _ in range(500):
            inc.update(0.01)
        # More observations with no new excesses -> larger n/N_t ratio ->
        # the tail quantile moves (monotonically, for a fixed fit).
        assert inc.threshold != before
        assert inc.num_observations == 2500

    def test_max_excesses_bounds_memory(self):
        rng = np.random.default_rng(4)
        inc = IncrementalPOT(level=0.5, max_excesses=32).fit(rng.exponential(size=400))
        band = inc.initial_threshold * 1.01
        for _ in range(200):
            inc.update(band)
        assert inc.num_excesses <= 32

    def test_max_excesses_does_not_collapse_threshold(self):
        # Trimming excesses must discount n too, or q*n/N_t inflates and the
        # threshold decays to the clamp floor on long stationary streams.
        rng = np.random.default_rng(5)
        capped = IncrementalPOT(q=1e-3, level=0.99, max_excesses=64).fit(rng.exponential(size=5000))
        uncapped = IncrementalPOT(q=1e-3, level=0.99).fit(rng.exponential(size=5000))
        for score in rng.exponential(size=20000):
            capped.update(float(min(score, capped.threshold * 0.999)))
            uncapped.update(float(min(score, uncapped.threshold * 0.999)))
        assert capped.threshold > capped.initial_threshold * 1.05
        assert capped.threshold == pytest.approx(uncapped.threshold, rel=0.35)

    def test_validation(self):
        with pytest.raises(ValueError):
            IncrementalPOT(q=0.0)
        with pytest.raises(ValueError):
            IncrementalPOT(refit_interval=0)
        with pytest.raises(RuntimeError):
            IncrementalPOT().update(1.0)


class TestAlertPolicy:
    def test_debounce_requires_consecutive_exceedances(self):
        policy = AlertPolicy(min_consecutive=3, cooldown=0)
        scores = np.array([[10.0, 0.0]])
        assert policy.update(0, scores, 1.0) == []
        assert policy.update(1, scores, 1.0) == []
        alerts = policy.update(2, scores, 1.0)
        assert len(alerts) == 1
        assert alerts[0].star == 0 and alerts[0].variate == 0 and alerts[0].step == 2

    def test_streak_resets_on_gap(self):
        policy = AlertPolicy(min_consecutive=2, cooldown=0)
        hot = np.array([5.0])
        cold = np.array([0.0])
        policy.update(0, hot, 1.0)
        policy.update(1, cold, 1.0)
        assert policy.update(2, hot, 1.0) == []  # streak restarted

    def test_cooldown_suppresses_repeat_alerts(self):
        policy = AlertPolicy(min_consecutive=1, cooldown=5)
        hot = np.array([9.0])
        assert len(policy.update(0, hot, 1.0)) == 1
        for step in range(1, 6):
            assert policy.update(step, hot, 1.0) == []
        assert len(policy.update(6, hot, 1.0)) == 1
        assert policy.alerts_fired == 2

    def test_nan_scores_do_not_fire_or_reset(self):
        policy = AlertPolicy(min_consecutive=2, cooldown=0)
        hot = np.array([9.0])
        nan = np.array([np.nan])
        policy.update(0, hot, 1.0)
        assert policy.update(1, nan, 1.0) == []
        # NaN neither fired nor broke the streak; next exceedance completes it.
        assert len(policy.update(2, hot, 1.0)) == 1

    def test_shard_decoding(self):
        policy = AlertPolicy(min_consecutive=1, cooldown=0)
        scores = np.zeros((2, 3))
        scores[1, 2] = 7.0
        alerts = policy.update(0, scores, 1.0)
        assert len(alerts) == 1
        assert alerts[0].shard == 1 and alerts[0].variate == 2 and alerts[0].star == 5

    def test_explicit_shard_width_fixes_flattened_input(self):
        # Pre-flattened fleet scores carry no geometry; inferring the shard
        # width from the last axis would decode every alert as shard 0.
        policy = AlertPolicy(min_consecutive=1, cooldown=0)
        flat = np.zeros(6)
        flat[5] = 7.0
        alerts = policy.update(0, flat, 1.0, shard_width=3)
        assert len(alerts) == 1
        assert alerts[0].shard == 1 and alerts[0].variate == 2 and alerts[0].star == 5
        with pytest.raises(ValueError):
            policy.update(1, flat, 1.0, shard_width=0)

    def test_per_star_thresholds_gate_and_are_recorded(self):
        policy = AlertPolicy(min_consecutive=1, cooldown=0)
        scores = np.array([2.0, 2.0, 2.0])
        thresholds = np.array([1.0, 3.0, 1.5])
        alerts = policy.update(0, scores, thresholds)
        assert [a.star for a in alerts] == [0, 2]
        # Each alert records the threshold that actually fired it.
        assert [a.threshold for a in alerts] == [1.0, 1.5]
        with pytest.raises(ValueError):
            policy.update(1, scores, np.array([1.0, 2.0]))


class TestFleetManager:
    def test_fleet_matches_single_stream(self, fitted):
        # Shards are independent batch elements: every shard of a fleet
        # scores what a one-shard stream scores on the same rows.
        detector, dataset = fitted
        num_shards = 3
        fleet = FleetManager(detector, num_shards=num_shards,
                             alert_policy=AlertPolicy(min_consecutive=1, cooldown=0))
        stream = detector.stream()
        for t in range(12):
            rows = np.stack([dataset.test[t]] * num_shards)
            fleet_result = fleet.step(rows)
            stream_result = stream.step(dataset.test[t][None])
            for shard in range(num_shards):
                np.testing.assert_allclose(
                    fleet_result.scores[shard], stream_result.scores[0], rtol=0, atol=1e-10
                )

    def test_fleet_with_real_timestamps_matches_stream(self, fitted):
        detector, dataset = fitted
        fleet = FleetManager(detector, num_shards=2)
        stream = detector.stream()
        for t in range(12):
            rows = np.stack([dataset.test[t]] * 2)
            timestamp = float(dataset.test_timestamps[t])
            fleet_result = fleet.step(rows, timestamp)
            stream_result = stream.step(dataset.test[t][None], timestamp)
            for shard in range(2):
                np.testing.assert_allclose(
                    fleet_result.scores[shard], stream_result.scores[0], rtol=0, atol=1e-10
                )

    def test_fleet_timestamp_mode_is_locked(self, fitted):
        detector, dataset = fitted
        fleet = FleetManager(detector, num_shards=2)
        fleet.step(np.stack([dataset.test[0]] * 2), float(dataset.test_timestamps[0]))
        with pytest.raises(ValueError):
            fleet.step(np.stack([dataset.test[1]] * 2))

    def test_fleet_rejects_dynamic_graph_mode(self, fitted):
        # Dynamic-graph smoothing chains state across batch elements, which
        # would couple unrelated shards; the fleet must refuse upfront.
        _, dataset = fitted
        config = AeroConfig(
            window=24, short_window=8, d_model=16, num_heads=2,
            train_stride=3, max_epochs_stage1=1, max_epochs_stage2=1,
            batch_size=16, learning_rate=5e-3,
        )
        dynamic = AeroDetector(config, graph_mode="dynamic")
        dynamic.fit(dataset.train[:60])
        with pytest.raises(ValueError):
            FleetManager(dynamic, num_shards=2)

    def test_fleet_step_shape_validation(self, fitted):
        detector, _ = fitted
        fleet = FleetManager(detector, num_shards=2)
        with pytest.raises(ValueError):
            fleet.step(np.zeros((3, detector.model.num_variates)))

    def test_cold_start_warms_up(self, fitted):
        detector, dataset = fitted
        fleet = FleetManager(detector, num_shards=2, seed_context=False)
        result = fleet.step(np.stack([dataset.test[0]] * 2))
        assert not result.ready
        for t in range(1, detector.config.window):
            result = fleet.step(np.stack([dataset.test[t % len(dataset.test)]] * 2))
        assert result.ready
        assert np.isfinite(result.scores).all()

    def test_global_mode_reports_uniform_thresholds(self, fitted):
        detector, dataset = fitted
        fleet = FleetManager(detector, num_shards=2)
        result = fleet.step(np.stack([dataset.test[0]] * 2))
        assert fleet.threshold_mode == "global"
        assert fleet.adaptive_pot is None
        assert fleet.threshold_refits == 0
        np.testing.assert_array_equal(
            result.thresholds, np.full(result.scores.shape, fleet.threshold)
        )

    def test_threshold_mode_is_validated(self, fitted):
        detector, _ = fitted
        with pytest.raises(ValueError):
            FleetManager(detector, num_shards=2, threshold_mode="adaptive")

    def test_run_collects_alerts(self, fitted):
        detector, dataset = fitted
        fleet = FleetManager(detector, num_shards=2,
                             alert_policy=AlertPolicy(min_consecutive=1, cooldown=0))
        exposures = np.stack([np.stack([row] * 2) for row in dataset.test[:10]])
        results = fleet.run(exposures)
        assert len(results) == 10
        assert all(r.scores.shape == (2, detector.model.num_variates) for r in results)


class TestPerStarFleet:
    """threshold_mode='per_star': adaptive thresholds as a fleet capability."""

    @staticmethod
    def scalar_references(detector, num_stars, refit_interval=32):
        """One scalar IncrementalPOT per star, per-variate calibration tiled."""
        train = np.asarray(detector.train_scores_)
        num_variates = train.shape[1]
        return [
            IncrementalPOT(
                q=detector.config.pot_q,
                level=detector.config.pot_level,
                refit_interval=refit_interval,
            ).fit(train[:, star % num_variates])
            for star in range(num_stars)
        ]

    def test_per_star_ticks_match_scalar_pot_instances(self, fitted):
        detector, dataset = fitted
        fleet = FleetManager(detector, num_shards=2, threshold_mode="per_star")
        refs = self.scalar_references(detector, fleet.num_stars)
        np.testing.assert_array_equal(
            fleet.adaptive_pot.thresholds, [ref.threshold for ref in refs]
        )
        for t in range(15):
            result = fleet.step(np.stack([dataset.test[t]] * 2))
            # Result thresholds are the pre-update snapshot: the values the
            # tick's labels were decided against.
            np.testing.assert_array_equal(
                result.thresholds.ravel(), [ref.threshold for ref in refs]
            )
            expected = np.array(
                [ref.update(float(s)) for ref, s in zip(refs, result.scores.ravel())],
                dtype=np.int64,
            )
            np.testing.assert_array_equal(result.labels.ravel(), expected)

    def test_alerts_record_the_per_star_threshold_that_fired(self, fitted):
        detector, dataset = fitted
        fleet = FleetManager(
            detector, num_shards=2, threshold_mode="per_star",
            alert_policy=AlertPolicy(min_consecutive=1, cooldown=0),
        )
        spike = np.stack([dataset.test[0]] * 2) + 50.0
        result = fleet.step(spike)
        assert result.alerts
        thresholds = result.thresholds
        for alert in result.alerts:
            assert alert.threshold == thresholds[alert.shard, alert.variate]

    def test_swap_model_carries_adaptive_state(self, fitted):
        detector, dataset = fitted
        fleet = FleetManager(detector, num_shards=2, threshold_mode="per_star")
        for t in range(10):
            fleet.step(np.stack([dataset.test[t]] * 2))
        pot = fleet.adaptive_pot
        thresholds = pot.thresholds.copy()
        observations = pot.num_observations.copy()
        fleet.swap_model(detector)
        assert fleet.adaptive_pot is pot
        np.testing.assert_array_equal(fleet.adaptive_pot.thresholds, thresholds)
        np.testing.assert_array_equal(fleet.adaptive_pot.num_observations, observations)
        # And the stream keeps adapting after the swap.
        result = fleet.step(np.stack([dataset.test[10]] * 2))
        assert result.ready
        assert (fleet.adaptive_pot.num_observations == observations + 1).all()

    def test_threshold_state_round_trip_between_fleets(self, fitted):
        detector, dataset = fitted
        fleet = FleetManager(detector, num_shards=2, threshold_mode="per_star")
        for t in range(10):
            fleet.step(np.stack([dataset.test[t]] * 2))
        state = fleet.threshold_state()
        other = FleetManager(detector, num_shards=2)
        assert other.threshold_state() is None
        other.load_threshold_state(state)
        assert other.threshold_mode == "per_star"
        np.testing.assert_array_equal(
            other.adaptive_pot.thresholds, fleet.adaptive_pot.thresholds
        )
        wrong = FleetManager(detector, num_shards=3)
        with pytest.raises(ValueError):
            wrong.load_threshold_state(state)

    def test_cold_start_reports_calibration_thresholds(self, fitted):
        detector, dataset = fitted
        fleet = FleetManager(detector, num_shards=2, seed_context=False,
                             threshold_mode="per_star")
        calibration = fleet.adaptive_pot.thresholds.copy()
        result = fleet.step(np.stack([dataset.test[0]] * 2))
        assert not result.ready
        np.testing.assert_array_equal(result.thresholds.ravel(), calibration)
        # Warm-up ticks must not advance the POT (no scores were emitted).
        np.testing.assert_array_equal(fleet.adaptive_pot.thresholds, calibration)


class TestStreamingService:
    def test_submit_drain_and_stats(self, fitted):
        detector, dataset = fitted
        fleet = FleetManager(detector, num_shards=2)
        service = StreamingService(fleet, max_queue=8)
        for t in range(6):
            assert service.submit(np.stack([dataset.test[t]] * 2))
        results = service.drain()
        assert len(results) == 6
        stats = service.stats()
        assert stats.processed_steps == 6
        assert stats.dropped_steps == 0
        assert stats.p99_latency_ms >= stats.p50_latency_ms >= 0.0
        assert stats.stars_per_second > 0
        assert "stars/s" in stats.format()

    def test_submit_copies_rows(self, fitted):
        # A producer reusing its exposure buffer must not corrupt queued
        # entries awaiting a deferred drain.
        detector, dataset = fitted
        fleet = FleetManager(detector, num_shards=2)
        reference = StreamingService(FleetManager(detector, num_shards=2))
        for t in range(3):
            reference.submit(np.stack([dataset.test[t]] * 2))
        expected = [r.scores.copy() for r in reference.drain()]

        service = StreamingService(fleet)
        shared = np.empty((2, detector.model.num_variates))
        for t in range(3):
            shared[:] = dataset.test[t]
            service.submit(shared)  # same buffer every time
        results = service.drain()
        for result, want in zip(results, expected):
            np.testing.assert_allclose(result.scores, want, rtol=0, atol=1e-10)

    def test_backpressure_sheds_load(self, fitted):
        detector, dataset = fitted
        fleet = FleetManager(detector, num_shards=2)
        service = StreamingService(fleet, max_queue=3)
        rows = np.stack([dataset.test[0]] * 2)
        accepted = [service.submit(rows) for _ in range(5)]
        assert accepted == [True, True, True, False, False]
        assert service.stats().dropped_steps == 2
        assert service.under_pressure
        service.drain()
        assert service.queue_depth == 0

    def test_run_processes_whole_stream(self, fitted):
        detector, dataset = fitted
        fleet = FleetManager(detector, num_shards=2)
        service = StreamingService(fleet)
        exposures = [np.stack([row] * 2) for row in dataset.test[:5]]
        results = service.run(exposures)
        assert len(results) == 5
        assert service.stats().processed_steps == 5

    def test_throughput_counts_variates_of_a_bare_stream(self, fitted):
        # A single stream (a one-shard fleet) scores N variates per step,
        # not 1 star.
        detector, dataset = fitted
        service = StreamingService(detector.stream())
        for t in range(4):
            service.submit(dataset.test[t][None])
        service.drain()
        stats = service.stats()
        mean_seconds = stats.mean_latency_ms / 1e3
        expected = detector.model.num_variates / mean_seconds
        assert stats.stars_per_second == pytest.approx(expected)

    def test_single_latency_sample_reports_itself(self, fitted):
        detector, dataset = fitted
        service = StreamingService(FleetManager(detector, num_shards=2))
        service.submit(np.stack([dataset.test[0]] * 2))
        service.drain()
        stats = service.stats()
        assert stats.p50_latency_ms == stats.p99_latency_ms == pytest.approx(
            stats.mean_latency_ms
        )

    def test_stats_report_threshold_refits(self, fitted):
        detector, dataset = fitted
        fleet = FleetManager(detector, num_shards=2, threshold_mode="per_star")
        service = StreamingService(fleet)
        for t in range(5):
            service.submit(np.stack([dataset.test[t]] * 2))
        service.drain()
        stats = service.stats()
        assert stats.threshold_refits == fleet.adaptive_pot.total_refits
        assert "refits=" in stats.format()

    def test_run_returns_only_its_own_results(self, fitted):
        detector, dataset = fitted
        fleet = FleetManager(detector, num_shards=2)
        service = StreamingService(fleet)
        rows = np.stack([dataset.test[0]] * 2)
        service.submit(rows)
        service.drain()
        second = service.run([np.stack([row] * 2) for row in dataset.test[1:4]])
        assert len(second) == 3
        assert service.stats().processed_steps == 4
