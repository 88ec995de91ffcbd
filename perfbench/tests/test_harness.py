"""Tests of the benchmark's own harness (not of the system it measures)."""

import json
from pathlib import Path

import numpy as np
import pytest

from perfbench.harness import METRIC_NAME, Metrics, SpanClock, counted_logs, tail_percentile

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# -- metric names -------------------------------------------------------------
def test_declared_metric_and_workload_names_are_well_formed():
    declared = json.loads(BENCHMARK.read_text())
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in declared[key]]
    names += [w["name"] for w in declared["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert METRIC_NAME.fullmatch(name) and len(name) <= 64, name
    assert {"setup_s"} <= {m["name"] for m in declared["end_to_end"]}


def test_metrics_table_rejects_bad_and_duplicate_names():
    metrics = Metrics()
    metrics.add("tick_p50_ms", 1.5, "ms")
    with pytest.raises(ValueError):
        metrics.add("tick p50", 1.0, "ms")
    with pytest.raises(ValueError):
        metrics.add("tick_p50_ms", 2.0, "ms")
    with pytest.raises(KeyError):
        metrics.select(["tick_p50_ms", "absent"])
    assert metrics.select(["tick_p50_ms"]) == {"tick_p50_ms": {"value": 1.5, "unit": "ms"}}


# -- percentiles --------------------------------------------------------------
def test_p99_needs_ten_samples_beyond_its_rank():
    assert np.isnan(tail_percentile(list(range(999)), 99))
    samples = list(range(1000, 0, -1))               # 1..1000, unsorted
    assert tail_percentile(samples, 99) == 990.0      # ten samples (991..1000) beyond
    assert tail_percentile(list(range(1, 1001)), 99) == tail_percentile(samples, 99)


def test_median_rank_needs_ten_samples_beyond():
    assert np.isnan(tail_percentile(list(range(19)), 50))
    assert tail_percentile(list(range(1, 21)), 50) == 10.0
    assert np.isnan(tail_percentile([], 50))


# -- best-of-repeats statistics ----------------------------------------------
def test_best_ticks_takes_each_ticks_fastest_pass():
    from perfbench.workloads import best_ticks

    passes = [[3.0, 1.0, 9.0], [2.0, 5.0, 8.0], [4.0, 1.5, 7.5]]
    assert best_ticks(passes).tolist() == [2.0, 1.0, 7.5]


def test_best_fit_sums_each_epochs_fastest_time_and_the_fastest_rest():
    from perfbench.fitjob import best_fit_seconds

    fits = [
        {"fit_s": 10.0, "stage1_epochs": [3.0, 2.0], "stage2_epochs": [1.0]},   # rest 4.0
        {"fit_s": 8.0, "stage1_epochs": [2.0, 3.0], "stage2_epochs": [1.5]},    # rest 1.5
    ]
    assert best_fit_seconds(fits) == pytest.approx(2.0 + 2.0 + 1.0 + 1.5)
    fits[1]["stage2_epochs"].append(1.0)
    with pytest.raises(ValueError):
        best_fit_seconds(fits)


def test_quiet_gate_judges_probes_against_recent_runs(tmp_path, monkeypatch):
    import perfbench.workloads as workloads

    probes = iter([0.010, 0.013, 0.011, 0.020])
    monkeypatch.setattr(workloads, "host_probe_seconds", lambda: next(probes))
    path = tmp_path / "host_probe.json"
    first = workloads.QuietGate(path)
    assert first.probe()                       # no earlier run: everything is quiet
    first.save()
    second = workloads.QuietGate(path)
    assert second.reference == 0.010
    assert not second.probe()                  # 0.013 > 1.2 x 0.010
    assert second.probe()                      # 0.011 <= 1.2 x 0.010
    second.save()
    assert json.loads(path.read_text()) == {"recent_probe_s": [0.010, 0.011]}
    third = workloads.QuietGate(path)
    assert third.reference == pytest.approx(0.0105)   # median of the recent runs
    assert not third.probe()


def test_host_probe_is_positive_and_finite():
    from perfbench.harness import host_probe_seconds

    assert 0.0 < host_probe_seconds(repeats=2) < 1.0


# -- self-time arithmetic -----------------------------------------------------
def test_step_self_time_is_step_minus_timed_children():
    now = FakeClock()
    clock = SpanClock(now=now)

    def work(seconds):
        now.now += seconds

    def step():
        work(0.5)                                    # ingest before the forward
        clock.call("runtime", work, 3.0)
        clock.call("alerts", work, 0.25)
        clock.call("runtime", work, 1.0)             # a second forward call
        work(0.25)
        return "result"

    assert clock.call("fleet.step", step) == "result"
    clock.end_tick(("fleet.step", "runtime", "alerts", "pot"))
    assert clock.ticks["fleet.step"] == [5.0]
    assert clock.ticks["runtime"] == [4.0]
    assert clock.ticks["alerts"] == [0.25]
    assert clock.ticks["pot"] == [0.0]
    assert clock.ticks_self["fleet.step"] == [0.75]
    assert clock.ticks_self["fleet.step"][0] + clock.ticks["runtime"][0] \
        + clock.ticks["alerts"][0] == clock.ticks["fleet.step"][0]
    assert clock.calls["runtime"] == 2 and clock.max["runtime"] == 3.0


def test_reentrant_layer_is_not_counted_twice():
    now = FakeClock()
    clock = SpanClock(now=now)

    def inner():
        now.now += 1.0

    def outer():
        clock.call("runtime", inner)
        now.now += 1.0

    clock.call("runtime", outer)
    clock.end_tick(("runtime",))
    assert clock.ticks["runtime"] == [2.0]
    assert clock.calls["runtime"] == 1


def test_patched_restores_class_attributes_and_wrap_is_idempotent():
    class Layer:
        def update(self, x):
            return x + 1

    clock = SpanClock()
    original = Layer.__dict__["update"]
    with clock.patched([(Layer, "update", "layer")]):
        assert Layer().update(1) == 2
    assert Layer.__dict__["update"] is original
    assert clock.calls["layer"] == 1

    layer = Layer()
    clock.wrap(layer, "update", "layer")
    wrapped = layer.update
    clock.wrap(layer, "update", "layer")
    assert layer.update is wrapped
    assert layer.update(2) == 3 and clock.calls["layer"] == 2


def test_counted_logs_counts_warnings_without_propagating():
    import logging

    logger = logging.getLogger("repro.perfbench-test")
    with counted_logs() as handler:
        logger.warning("star_dropout")
        logger.info("not counted")
        logger.error("counted")
    assert handler.warnings == 2
    assert logging.getLogger("repro").propagate


# -- wrappers leave the system's outputs bit-identical -------------------------
@pytest.fixture(scope="module")
def small_night(tmp_path_factory):
    from repro.core import AeroConfig, AeroDetector
    from repro.simulation import ScenarioConfig, build_scenario

    scenario = build_scenario(ScenarioConfig(
        seed=3, train_length=120, calibration_length=64, night_length=90,
        num_events=2, event_length_range=(8, 16), event_separation=10,
    ))
    config = AeroConfig.fast(window=16, short_window=6).scaled(
        d_model=8, num_heads=2, max_epochs_stage1=1, max_epochs_stage2=1,
    )
    detector = AeroDetector(config).fit(scenario.train, scenario.train_timestamps)
    calibration = detector.score(scenario.calibration, scenario.calibration_timestamps)
    artifact = detector.save(tmp_path_factory.mktemp("perfbench") / "detector.npz")
    return scenario, artifact, calibration


@pytest.mark.parametrize("backend,mode", [("compiled", "global"), ("incremental", "per_star")])
def test_timing_wrappers_leave_scores_bit_identical(small_night, backend, mode):
    from repro.core import AeroDetector
    from repro.evaluation import pot_threshold
    from repro.obs import FlightRecorder, calibrate_drift_monitor
    from repro.simulation import ReplayHarness
    from repro.streaming import AlertPolicy, FleetManager

    from perfbench.workloads import TICK_LAYERS, TickTimer, wrap_engine, wrap_fleet

    scenario, artifact, calibration = small_night

    def replay(clock):
        detector = AeroDetector.load(artifact)
        engine = detector.compile()
        if clock is not None:
            wrap_engine(clock, engine)
        fleet = FleetManager(
            detector,
            num_shards=scenario.config.num_shards,
            alert_policy=AlertPolicy(min_consecutive=2, cooldown=30),
            backend=backend,
            threshold_mode=mode,
            threshold=pot_threshold(calibration, q=5e-3) if mode == "global" else None,
            drift_monitor=calibrate_drift_monitor(calibration, num_stars=scenario.num_stars),
            recorder=FlightRecorder(capacity=scenario.config.night_length),
        )
        if clock is not None:
            wrap_fleet(clock, fleet)
        return ReplayHarness(TickTimer(fleet, clock, TICK_LAYERS), scenario).run()[1]

    clock = SpanClock()
    plain = replay(None)
    traced = replay(clock)
    assert traced.diff(plain) == []
    assert len(clock.ticks["fleet.step"]) == scenario.config.night_length
    assert clock.calls["runtime"] > 0 and clock.calls["alerts"] > 0
    assert (clock.calls["pot"] > 0) == (mode == "per_star")
