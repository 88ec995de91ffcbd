"""The batched replay contract: ``FleetManager.run`` equals stepping.

``run`` ingests a block of ticks, scores every window of the block in one
lane call and then finishes the ticks in order.  Whatever the backend,
threshold mode, warm-up, lane count or block split, the trace it returns —
scores, labels, thresholds and alerts — and the state it leaves behind
(flight-recorder dumps, drift trips, re-arm and gap accounting) must be
those of calling ``step`` once per tick, float64 scores bit for bit.
"""

import numpy as np
import pytest

from repro import AeroConfig, AeroDetector
from repro.evaluation import pot_threshold
from repro.obs import FlightRecorder, calibrate_drift_monitor
from repro.runtime import compile_detector, lanes
from repro.simulation import ScenarioConfig, build_scenario
from repro.streaming import AlertPolicy, FleetManager, fleet as fleet_module

NUM_SHARDS = 3
NUM_VARIATES = 4
#: The run side's plan: ``("run", n)`` replays the next ``n`` ticks,
#: ``("step", n)`` steps them; ``None`` is the rest of the night.  Blocks of
#: 7 ticks (see ``_RUN_BLOCK_WINDOWS`` below) split every run unevenly.
PLAN = (("run", 5), ("step", 3), ("run", 23), ("run", 31), ("step", 4), ("run", None))


@pytest.fixture(scope="module")
def night():
    """NaN gaps, two dropouts long enough to re-arm, a jittered cadence."""
    return build_scenario(
        ScenarioConfig(
            num_shards=NUM_SHARDS, num_variates=NUM_VARIATES, train_length=220,
            calibration_length=120, night_length=90, num_events=3,
            nan_fraction=0.08, num_dropouts=2, dropout_length_range=(6, 12),
            cadence_jitter_seconds=2.0, num_drift_stars=2, drift_amplitude=1.0, seed=13,
        )
    )


@pytest.fixture(scope="module")
def fitted(night):
    config = AeroConfig(
        window=16, short_window=6, d_model=8, num_heads=2, train_stride=3,
        max_epochs_stage1=2, max_epochs_stage2=2, batch_size=8,
    )
    detector = AeroDetector(config).fit(night.train, night.train_timestamps)
    calibration = detector.score(night.calibration, night.calibration_timestamps)
    return detector, calibration


def _fleet(fitted, night, backend, threshold_mode, seed_context):
    detector, calibration = fitted
    if backend == "compiled32":
        backend = compile_detector(detector, dtype="float32")
    kwargs = {}
    if threshold_mode == "global":
        kwargs["threshold"] = pot_threshold(calibration, q=0.05)
    return FleetManager(
        detector,
        num_shards=NUM_SHARDS,
        seed_context=seed_context,
        alert_policy=AlertPolicy(min_consecutive=1, cooldown=6),
        backend=backend,
        threshold_mode=threshold_mode,
        pot_refit_interval=8,
        drift_monitor=calibrate_drift_monitor(
            calibration, num_stars=NUM_SHARDS * NUM_VARIATES, halflife=16.0,
            check_interval=4, trip_after=1, clear_after=4, min_observations=16,
            warmup_ticks=4, psi_trip=0.1, psi_clear=0.05,
        ),
        recorder=FlightRecorder(
            capacity=12, cooldown=8, alert_storm_window=8, alert_storm_threshold=4
        ),
        **kwargs,
    )


def _replay(fleet, night, plan):
    results, cursor = [], 0
    for how, count in plan:
        stop = len(night.exposures) if count is None else cursor + count
        rows, times = night.exposures[cursor:stop], night.timestamps[cursor:stop]
        if how == "run":
            results.extend(fleet.run(rows, times))
        else:
            results.extend(fleet.step(row, float(t)) for row, t in zip(rows, times))
        cursor = stop
    return results


def _assert_same_trace(stepped, replayed):
    assert len(stepped) == len(replayed)
    for tick, (a, b) in enumerate(zip(stepped, replayed)):
        assert (a.step, a.ready, a.threshold) == (b.step, b.ready, b.threshold), tick
        assert np.array_equal(a.scores, b.scores, equal_nan=True), tick
        assert np.array_equal(a.labels, b.labels), tick
        assert np.array_equal(a.thresholds, b.thresholds), tick
        assert a.alerts == b.alerts, tick


def _assert_same_state(stepped, replayed):
    for name in ("_gap_streak", "_suppress", "_missing_total"):
        assert np.array_equal(getattr(stepped, name), getattr(replayed, name)), name
    assert (stepped._dropouts, stepped._rejoins) == (replayed._dropouts, replayed._rejoins)
    assert stepped.alert_policy.alerts_fired == replayed.alert_policy.alerts_fired
    assert stepped.threshold_refits == replayed.threshold_refits
    drift_a, drift_b = stepped.drift_monitor, replayed.drift_monitor
    assert drift_a.trips_total == drift_b.trips_total
    assert np.array_equal(drift_a.tripped, drift_b.tripped)
    records_a, records_b = stepped.recorder.records, replayed.recorder.records
    assert [r.reason for r in records_a] == [r.reason for r in records_b]
    for a, b in zip(records_a, records_b):
        for field in ("seqs", "steps", "timestamps", "rows", "scores", "thresholds",
                      "labels", "alert_stars", "alert_scores"):
            assert np.array_equal(getattr(a, field), getattr(b, field), equal_nan=True), field


#: Every pair of backend, threshold mode and warm-up appears on two lanes
#: (a pairwise cover of the 12 combinations), plus one and three lanes.
MATRIX = [
    ("compiled", "global", True, 2),
    ("compiled", "per_star", False, 2),
    ("incremental", "global", False, 2),
    ("incremental", "per_star", True, 2),
    ("compiled32", "global", True, 2),
    ("compiled32", "per_star", False, 2),
    ("compiled", "per_star", False, 1),
    ("incremental", "global", True, 3),
]


@pytest.mark.parametrize("backend,threshold_mode,seed_context,forced", MATRIX)
def test_run_equals_step(fitted, night, backend, threshold_mode, seed_context, forced,
                         monkeypatch):
    monkeypatch.setattr(fleet_module, "_RUN_BLOCK_WINDOWS", 7 * NUM_SHARDS)
    monkeypatch.setattr(lanes, "usable_cpus", lambda: forced)
    monkeypatch.setattr(lanes, "_MIN_BATCH_LANE_WORK", 1)
    stepped = _fleet(fitted, night, backend, threshold_mode, seed_context)
    replayed = _fleet(fitted, night, backend, threshold_mode, seed_context)
    stepped_trace = _replay(stepped, night, (("step", None),))
    replayed_trace = _replay(replayed, night, PLAN)
    _assert_same_trace(stepped_trace, replayed_trace)
    _assert_same_state(stepped, replayed)
    # The night exercises what it is meant to.
    scores = np.stack([result.scores for result in stepped_trace])
    assert np.isnan(scores[~np.isnan(scores).all(axis=(1, 2))]).any()
    assert stepped._rejoins > 0 and stepped.alert_policy.alerts_fired > 0
    assert stepped.drift_monitor.trips_total > 0 and stepped.recorder.records
    if backend == "incremental":
        # A replay retires the cross-tick state and is not counted in it;
        # the first ready step after a replay rebuilds it.
        kinds = _plan_kinds(len(replayed_trace))
        ready_steps = [r.ready and kind == "step" for kind, r in zip(kinds, replayed_trace)]
        rebuilds = sum(
            ready and not any(ready_steps[:tick][-1:]) for tick, ready in enumerate(ready_steps)
        )
        stats = replayed.incremental_stats()
        assert (stats["ticks"], stats["rebuilds"]) == (sum(ready_steps), rebuilds)
        assert replayed._inc_state is None  # the plan ends on a replay
        assert stepped.incremental_stats()["rebuilds"] == 1


def _plan_kinds(total):
    kinds = []
    for how, count in PLAN:
        kinds.extend([how] * ((total - len(kinds)) if count is None else count))
    return kinds


def test_rejected_tick_finishes_the_block_before_raising(fitted, night):
    """A bad timestamp mid-block leaves the fleet where stepping leaves it."""
    stepped = _fleet(fitted, night, "compiled", "global", True)
    replayed = _fleet(fitted, night, "compiled", "global", True)
    times = night.timestamps[:20].copy()
    times[12] = np.nan
    for tick in range(12):
        stepped.step(night.exposures[tick], float(times[tick]))
    with pytest.raises(ValueError, match="finite"):
        stepped.step(night.exposures[12], float(times[12]))
    with pytest.raises(ValueError, match="finite"):
        replayed.run(night.exposures[:20], times)
    _assert_same_state(stepped, replayed)
    tail = [stepped.step(night.exposures[t], float(night.timestamps[t])) for t in range(12, 20)]
    _assert_same_trace(tail, replayed.run(night.exposures[12:20], night.timestamps[12:20]))
