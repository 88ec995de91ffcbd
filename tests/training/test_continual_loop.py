"""Closed continual-learning loop: trigger → retrain → canary → promote → watch.

The load-bearing acceptance pair mirrors ``tests/obs/test_drift.py``'s
drift night (test directories are not packages, so the scenario constants
are duplicated here): a drift-faulted survey night served through a
:class:`~repro.training.ContinualLearningController` must trip, retrain,
clear the canary, promote and survive its watch window — while the
*matching* quiet night (same seed, bit-identical train/calibration data,
same detector and monitor) never triggers at all.  Both runs are
bit-reproducible under the loop seed, and a deliberately blinded candidate
is rejected with the live model untouched.
"""

import numpy as np
import pytest

from repro import AeroConfig, AeroDetector
from repro.evaluation import pot_threshold
from repro.obs import SLOMonitor, calibrate_drift_monitor
from repro.simulation import ReplayHarness, ScenarioConfig, build_scenario
from repro.streaming import AlertPolicy, FleetManager
from repro.training import (
    CanaryBudget,
    CanaryReport,
    ContinualLearningController,
    GateResult,
    ModelRegistry,
    ShadowTraffic,
    evaluate_canary,
    inject_probes,
    score_psi,
)
from repro.training.loop import held_back_scores

LOOP_SEED = 23
MODEL_NAME = "gwac-field"

#: Same night family as tests/obs/test_drift.py (longer, so the full
#: trigger → reject → retrigger → promote → watch-clear arc fits): the
#: drifted variant trips the serving monitor around tick ~116, the quiet
#: one never does, and both share bit-identical train and calibration
#: stretches.
LOOP_BASE = dict(
    seed=11, train_length=240, calibration_length=160, night_length=280,
    num_events=0, num_dropouts=0, nan_fraction=0.0,
    num_duplicate_frames=0, num_reordered_frames=0,
)

LOOP_MONITOR = dict(
    halflife=48, check_interval=4, min_observations=64, warmup_ticks=48,
    psi_trip=1.0, psi_clear=0.30, ks_trip=0.60, ks_clear=0.20,
    trip_after=2, clear_after=8,
)

LOOP_DETECTOR = AeroConfig.fast(window=24, short_window=8).scaled(
    max_epochs_stage1=2, max_epochs_stage2=1, learning_rate=5e-3,
    d_model=16, num_heads=2, train_stride=3, batch_size=16,
)

#: With the drift trip landing around tick ~116, the ring holds the whole
#: night so far (>= 80 ticks of history) and the retrain holds back the
#: trailing 48 ticks for calibration.  Cycle 1's candidate (68 train
#: ticks) is genuinely under-trained — its recalibrated threshold is less
#: sensitive than live and the canary's recall gate rejects it; after the
#: cooldown, cycle 2 (112 train ticks) passes, promotes around tick ~163
#: and its 48-tick watch window clears inside the 280-tick night.
LOOP_KWARGS = dict(
    history_ticks=160, min_history_ticks=80, calibration_ticks=48,
    cooldown_ticks=48, watch_ticks=48, pot_q=5e-3, seed=LOOP_SEED,
)


@pytest.fixture(scope="module")
def loop_night():
    """Quiet and drift-faulted variants of one night, plus a shared detector."""
    quiet = build_scenario(ScenarioConfig(num_drift_stars=0, **LOOP_BASE))
    drifted = build_scenario(
        ScenarioConfig(num_drift_stars=2, drift_amplitude=1.0, **LOOP_BASE)
    )
    assert np.array_equal(quiet.train, drifted.train)
    assert np.array_equal(quiet.calibration, drifted.calibration)
    detector = AeroDetector(LOOP_DETECTOR)
    detector.fit(quiet.train, quiet.train_timestamps)
    cal_scores = detector.score(quiet.calibration, quiet.calibration_timestamps)
    threshold = float(pot_threshold(cal_scores, q=5e-3))
    return quiet, drifted, detector, cal_scores, threshold


def _build_controller(scenario, detector, cal_scores, threshold, root, *, slo=None, **overrides):
    """A monitored fleet plus a controller over a fresh registry/workdir."""
    monitor = calibrate_drift_monitor(
        cal_scores, num_stars=scenario.num_stars, **LOOP_MONITOR
    )
    fleet = FleetManager(
        detector,
        num_shards=scenario.config.num_shards,
        alert_policy=AlertPolicy(min_consecutive=2, cooldown=30),
        threshold=threshold,
        drift_monitor=monitor,
    )
    registry = ModelRegistry(root / "registry")
    kwargs = dict(LOOP_KWARGS)
    kwargs.update(overrides)
    controller = ContinualLearningController(
        fleet, registry, MODEL_NAME, root / "work", slo=slo, **kwargs
    )
    return controller, fleet, registry


@pytest.fixture(scope="module")
def drifted_run(loop_night, tmp_path_factory):
    """One full closed-loop pass over the drifted night (shared: read-only)."""
    _, drifted, detector, cal_scores, threshold = loop_night
    root = tmp_path_factory.mktemp("drifted-loop")
    controller, fleet, registry = _build_controller(
        drifted, detector, cal_scores, threshold, root
    )
    _, trace = ReplayHarness(controller, drifted).run()
    return controller, fleet, registry, trace


# ---------------------------------------------------------------------------
# acceptance: the loop closes
# ---------------------------------------------------------------------------
class TestClosedLoopAcceptance:
    def test_drifted_night_promotes_and_watch_clears(self, drifted_run):
        controller, fleet, registry, _ = drifted_run
        counts = controller.decision_counts()
        assert counts.get("baseline") == 1
        assert counts.get("trigger") == 2
        assert counts.get("retrain") == 2
        assert counts.get("canary_fail") == 1
        assert counts.get("canary_pass") == 1
        assert counts.get("promote") == 1
        assert counts.get("watch_clear") == 1
        assert counts.get("rollback", 0) == 0
        assert counts.get("retrain_failed", 0) == 0

        # Cycle 1 retrained on ~68 ticks of night: a genuinely
        # under-trained candidate whose recalibrated threshold is *less*
        # sensitive than live.  The canary's recall gate — not luck —
        # rejected it, and the live model kept serving.
        fail = next(e for e in controller.events if e.kind == "canary_fail")
        assert fail.detail["failed_gates"] == ["recall"]

        # The decisions happened in loop order: trigger → retrain →
        # reject, cooldown, trigger → retrain → pass → promote → clear.
        kinds = [event.kind for event in controller.events]
        assert kinds[0] == "baseline"
        assert kinds[1:] == [
            "trigger", "retrain", "canary_fail",
            "trigger", "retrain", "canary_pass", "promote", "watch_clear",
        ]

        # Both triggers fired on real drift, with enough history recorded.
        for trigger in (e for e in controller.events if e.kind == "trigger"):
            assert trigger.detail["action"] == "retrain"
            assert trigger.detail["tripped_stars"] >= 1

        # The promotion is live: new registry version serving in the fleet,
        # with its re-fitted threshold carried across the swap.
        assert registry.versions(MODEL_NAME) == [1, 2]
        assert controller.live_version == 2
        assert fleet.model_version == f"{MODEL_NAME}@v0002"
        promote = next(e for e in controller.events if e.kind == "promote")
        assert promote.detail["previous_version"] == 1
        assert float(fleet.threshold) == promote.detail["threshold"]
        meta = registry.get(MODEL_NAME, 2).metadata
        assert meta["source"] == "continual-loop"
        assert meta["parent_version"] == 1
        assert float(meta["threshold"]) == promote.detail["threshold"]
        assert registry.get(MODEL_NAME, 2).has_drift_reference

        # The fresh drift reference cleared the fleet's drift state: the
        # watch window ended with the promoted model, not a rollback.
        assert not controller.watching
        assert fleet.drift_monitor.tripped_stars == 0
        watch_clear = next(e for e in controller.events if e.kind == "watch_clear")
        assert watch_clear.step <= LOOP_BASE["night_length"]
        assert watch_clear.step - promote.step >= LOOP_KWARGS["watch_ticks"]

    def test_quiet_night_never_triggers(self, loop_night, tmp_path):
        quiet, _, detector, cal_scores, threshold = loop_night
        controller, fleet, registry = _build_controller(
            quiet, detector, cal_scores, threshold, tmp_path
        )
        ReplayHarness(controller, quiet).run()
        assert [event.kind for event in controller.events] == ["baseline"]
        assert controller.cycles == 0
        assert registry.versions(MODEL_NAME) == [1]
        assert fleet.model_version == f"{MODEL_NAME}@v0001"
        assert float(fleet.threshold) == threshold
        assert fleet.drift_monitor.trips_total == 0

    def test_loop_is_bit_reproducible(self, loop_night, drifted_run, tmp_path):
        _, drifted, detector, cal_scores, threshold = loop_night
        controller_a, fleet_a, _, trace_a = drifted_run
        controller_b, fleet_b, _ = _build_controller(
            drifted, detector, cal_scores, threshold, tmp_path
        )
        _, trace_b = ReplayHarness(controller_b, drifted).run()

        assert [(e.step, e.kind) for e in controller_a.events] == [
            (e.step, e.kind) for e in controller_b.events
        ]
        promote_a = next(e for e in controller_a.events if e.kind == "promote")
        promote_b = next(e for e in controller_b.events if e.kind == "promote")
        assert promote_a.detail["threshold"] == promote_b.detail["threshold"]
        assert float(fleet_a.threshold) == float(fleet_b.threshold)
        assert np.array_equal(trace_a.scores, trace_b.scores, equal_nan=True)
        assert np.array_equal(trace_a.thresholds, trace_b.thresholds, equal_nan=True)
        assert np.array_equal(trace_a.labels, trace_b.labels)
        assert np.array_equal(trace_a.alert_seqs, trace_b.alert_seqs)
        assert np.array_equal(trace_a.alert_stars, trace_b.alert_stars)

    def test_broken_candidate_is_rejected(self, loop_night, tmp_path, monkeypatch):
        _, drifted, detector, cal_scores, threshold = loop_night
        controller, fleet, registry = _build_controller(
            drifted, detector, cal_scores, threshold, tmp_path
        )

        def blinded_candidate(step, cycle, rows, times):
            # The live model again, but behind an absurd threshold: a
            # candidate that can never alert.  Degraded recall, loudly.
            controller._record(step, "retrain", cycle=cycle, blinded=True)
            return detector, 1.0e9, np.asarray(cal_scores, dtype=np.float64)

        monkeypatch.setattr(controller, "_train_candidate", blinded_candidate)
        ReplayHarness(controller, drifted).run()

        counts = controller.decision_counts()
        assert counts.get("canary_fail", 0) >= 1
        assert counts.get("canary_pass", 0) == 0
        assert counts.get("promote", 0) == 0
        fail = next(e for e in controller.events if e.kind == "canary_fail")
        assert "recall" in fail.detail["failed_gates"]
        assert fail.detail["probes_injected"] is True
        assert fail.detail["candidate_recall"] < fail.detail["live_recall"]

        # The live model is untouched: baseline version, original threshold.
        assert registry.versions(MODEL_NAME) == [1]
        assert controller.live_version == 1
        assert fleet.detector is detector
        assert float(fleet.threshold) == threshold
        assert fleet.model_version == f"{MODEL_NAME}@v0001"

    def test_watch_window_rollback_restores_previous_version(self, loop_night, tmp_path):
        _, drifted, detector, cal_scores, threshold = loop_night
        controller, fleet, registry = _build_controller(
            drifted, detector, cal_scores, threshold, tmp_path
        )
        # Manufacture a fresh promotion (v2 live, watch window armed) and
        # force the drift-retrip condition: any trip total beats baseline.
        v2 = registry.publish(
            MODEL_NAME, detector,
            metadata={"threshold": threshold * 2.0},
            drift_reference=fleet.drift_monitor,
        )
        registry.deploy(MODEL_NAME, fleet, version=v2.version, threshold=threshold * 2.0)
        controller._live_version = v2.version
        controller._watch_until = 10 ** 9
        controller._watch_baseline_trips = -1
        controller._rollback_version = 1
        controller._rollback_threshold = threshold
        assert controller.watching

        controller.step(drifted.exposures[0], float(drifted.timestamps[0]))

        counts = controller.decision_counts()
        assert counts.get("rollback") == 1
        assert controller.live_version == 1
        assert not controller.watching
        assert fleet.model_version == f"{MODEL_NAME}@v0001"
        assert float(fleet.threshold) == threshold
        rollback = next(e for e in controller.events if e.kind == "rollback")
        assert rollback.detail["rolled_back_version"] == 2
        assert rollback.detail["drift_retripped"] is True

    def test_slo_burn_triggers_the_loop(self, loop_night, tmp_path):
        quiet, _, detector, cal_scores, threshold = loop_night
        slo = SLOMonitor(window=64)
        controller, _, _ = _build_controller(
            quiet, detector, cal_scores, threshold, tmp_path, slo=slo
        )
        # Saturate the alert-rate window with bad events: the burn rate is
        # far past the page threshold before any tick is served.
        slo.slos[SLOMonitor.ALERT_RATE].record(good=0, bad=64)
        controller.step(quiet.exposures[0], float(quiet.timestamps[0]))
        trigger = next(e for e in controller.events if e.kind == "trigger")
        # One tick of history cannot feed a retrain: deferred, not crashed.
        assert trigger.detail["action"] == "deferred"
        assert "alert_rate" in trigger.detail["slo_burning"]


# ---------------------------------------------------------------------------
# controller construction contracts
# ---------------------------------------------------------------------------
class TestControllerValidation:
    def test_requires_fitted_drift_monitor(self, loop_night, tmp_path):
        quiet, _, detector, _, threshold = loop_night
        bare = FleetManager(
            detector, num_shards=quiet.config.num_shards, threshold=threshold
        )
        with pytest.raises(ValueError, match="DriftMonitor"):
            ContinualLearningController(
                bare, ModelRegistry(tmp_path / "r"), MODEL_NAME, tmp_path / "w"
            )

    def test_rejects_per_star_fleets(self, loop_night, tmp_path):
        quiet, _, detector, cal_scores, _ = loop_night
        monitor = calibrate_drift_monitor(
            cal_scores, num_stars=quiet.num_stars, **LOOP_MONITOR
        )
        adaptive = FleetManager(
            detector,
            num_shards=quiet.config.num_shards,
            threshold_mode="per_star",
            drift_monitor=monitor,
        )
        with pytest.raises(ValueError, match="global"):
            ContinualLearningController(
                adaptive, ModelRegistry(tmp_path / "r"), MODEL_NAME, tmp_path / "w"
            )

    def test_rejects_bad_window_settings(self, loop_night, tmp_path):
        quiet, _, detector, cal_scores, threshold = loop_night
        for match, overrides in (
            ("calibration_ticks", dict(calibration_ticks=8)),
            ("min_history_ticks", dict(history_ticks=100, min_history_ticks=300)),
            ("watch_ticks", dict(watch_ticks=0)),
        ):
            with pytest.raises(ValueError, match=match):
                _build_controller(
                    quiet, detector, cal_scores, threshold, tmp_path, **overrides
                )


# ---------------------------------------------------------------------------
# canary internals
# ---------------------------------------------------------------------------
class TestCanaryUnits:
    def test_inject_probes_is_deterministic(self):
        rng = np.random.default_rng(5)
        rows = rng.normal(12.0, 0.3, size=(96, 2, 3))
        traffic = ShadowTraffic(rows=rows)
        budget = CanaryBudget()
        probed_a = inject_probes(traffic, budget, seed=41)
        probed_b = inject_probes(traffic, budget, seed=41)
        probed_c = inject_probes(traffic, budget, seed=42)
        assert probed_a.events == probed_b.events
        assert np.array_equal(probed_a.rows, probed_b.rows)
        assert probed_a.events != probed_c.events
        assert len(probed_a.events) == budget.num_probes
        assert len({event.star for event in probed_a.events}) == budget.num_probes
        for event in probed_a.events:
            assert budget.warmup_ticks <= event.start <= event.end < 96
            shard, variate = divmod(event.star, 3)
            window = slice(event.start, event.end + 1)
            assert not np.allclose(
                probed_a.rows[window, shard, variate], rows[window, shard, variate]
            )
        # The recorded traffic itself is never mutated.
        assert np.array_equal(traffic.rows, rows)

    def test_inject_probes_rejects_thin_traffic(self):
        traffic = ShadowTraffic(rows=np.zeros((40, 2, 3)))
        with pytest.raises(ValueError, match="too short"):
            inject_probes(traffic, CanaryBudget(), seed=0)

    def test_score_psi_flags_shifted_scores(self):
        rng = np.random.default_rng(9)
        reference = rng.normal(0.0, 1.0, size=(512, 4))
        same = rng.normal(0.0, 1.0, size=(256, 2, 4))
        assert score_psi(reference, same) < 0.15
        assert score_psi(reference, same + 3.0) > 1.0
        # Canary-sized windows: the sampling-noise floor stays well under
        # the default promotion budget.
        small = rng.normal(0.0, 1.0, size=(96, 2, 4))
        assert score_psi(reference[:48], small) < CanaryBudget().psi_budget / 2

    def test_score_psi_exclusion_mask(self):
        rng = np.random.default_rng(10)
        reference = rng.normal(0.0, 1.0, size=(128, 2))
        spiked = rng.normal(0.0, 1.0, size=(80, 1, 2))
        spiked[20:40, 0, 0] += 50.0
        exclude = np.zeros((80, 2), dtype=bool)
        exclude[20:40, 0] = True
        masked = score_psi(reference, spiked, exclude=exclude)
        assert score_psi(reference, spiked) > masked
        assert masked < 0.2

    def test_report_gates_and_summary(self):
        report = CanaryReport(
            gates=(
                GateResult("traffic", True, 100.0, 64.0),
                GateResult("recall", False, 0.5, 0.95),
            ),
            live_recall=1.0,
            candidate_recall=0.5,
            quiet_false_alerts=0,
            psi_max=0.1,
            num_ticks=100,
            num_events=3,
            probes_injected=True,
        )
        assert not report.passed
        assert report.gate("recall").passed is False
        with pytest.raises(KeyError):
            report.gate("nope")
        assert "FAIL" in report.format()
        assert report.summary()["failed_gates"] == ["recall"]


class TestCompiledCalibrationAndCanary:
    @pytest.mark.parametrize("timed", [True, False])
    def test_held_back_scores_equal_full_history_tail(self, loop_night, timed):
        _, drifted, detector, _, _ = loop_night
        rng = np.random.default_rng(17)
        for _ in range(10):
            length = int(rng.integers(40, 160))
            held_back = int(rng.integers(1, length // 2 + 1))
            start = int(rng.integers(0, drifted.exposures.shape[0] - length + 1))
            shard = int(rng.integers(0, drifted.exposures.shape[1]))
            block = drifted.exposures[start:start + length, shard]
            times = drifted.timestamps[start:start + length] if timed else None
            full = detector.score(block, times)[length - held_back:]
            assert np.array_equal(held_back_scores(detector, block, times, held_back), full)

    def test_shadow_replay_leaves_live_incremental_fleet_untouched(self, loop_night):
        # Shadow fleets share the live detector's cached compiled engine —
        # and with it the time-embedding memo the incremental fleet reads.
        _, drifted, detector, cal_scores, threshold = loop_night
        rows, times = drifted.exposures[:60], drifted.timestamps[:60]

        def live_fleet():
            return FleetManager(
                detector, num_shards=drifted.config.num_shards,
                backend="incremental", threshold=threshold,
            )

        reference = [result.scores for result in live_fleet().run(rows, times)]
        fleet = live_fleet()
        assert fleet._engine is detector.compile()
        memo = detector.compile().model.temporal.time_embedding
        rng = np.random.default_rng(5)
        traffic = ShadowTraffic(
            rows=drifted.exposures[:120],
            timestamps=times[0] + np.cumsum(rng.uniform(5.0, 50.0, size=120)),
        )
        for tick in range(len(rows)):
            if tick == 30:
                tokens = memo._next_token
                evaluate_canary(
                    detector, detector, traffic,
                    live_threshold=threshold, candidate_threshold=threshold,
                    candidate_calibration=cal_scores,
                )
                assert memo._next_token > tokens
                # Batch replays on lanes only read the memo, so evict it
                # outright as well: the live fleet must not depend on it.
                live_keys = set(memo._cache)
                for _ in range(memo.MAX_CACHE):
                    memo.embed(np.cumsum(rng.uniform(5.0, 50.0, size=(1, 8)), axis=1))
                assert not live_keys & set(memo._cache)
            scores = fleet.step(rows[tick], float(times[tick])).scores
            assert np.array_equal(scores, reference[tick], equal_nan=True)
