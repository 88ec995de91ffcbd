"""DriftMonitor: streaming sketches, divergence, hysteresis, serving wiring.

The load-bearing acceptance test lives at the bottom: a drift-faulted
survey night (``apply_baseline_drift``) served through a monitored fleet
trips the monitor within a bounded number of ticks, while the *matching*
quiet night — same seed, same train/calibration data, same detector, same
monitor settings — never trips at all.
"""

import numpy as np
import pytest

from conftest import OBS_DETECTOR

from repro import AeroDetector
from repro.evaluation import pot_threshold
from repro.obs import DriftMonitor, FlightRecorder, calibrate_drift_monitor
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.simulation import ReplayHarness, ScenarioConfig, build_scenario


def _reference(rng, size=512):
    return rng.normal(0.0, 1.0, size=size)


def _quick_monitor(**overrides):
    """A monitor tuned to react within a handful of ticks (unit tests)."""
    settings = dict(
        halflife=8.0, num_bins=4, check_interval=2, trip_after=2, clear_after=2,
        min_observations=8, warmup_ticks=0, psi_trip=0.5, psi_clear=0.3,
        ks_trip=0.5, ks_clear=0.3,
    )
    settings.update(overrides)
    return DriftMonitor(**settings)


# ---------------------------------------------------------------------------
# construction + fit validation
# ---------------------------------------------------------------------------
def test_constructor_rejects_bad_settings():
    for bad in (
        dict(halflife=0.0),
        dict(num_bins=1),
        dict(psi_trip=0.1, psi_clear=0.2),
        dict(ks_trip=0.1, ks_clear=0.2),
        dict(check_interval=0),
        dict(trip_after=0),
        dict(clear_after=0),
        dict(min_observations=0),
        dict(warmup_ticks=-1),
    ):
        with pytest.raises(ValueError):
            DriftMonitor(**bad)


def test_fit_validates_reference_shapes():
    rng = np.random.default_rng(0)
    monitor = DriftMonitor()
    with pytest.raises(ValueError, match="num_stars"):
        monitor.fit(_reference(rng))                       # 1-D needs num_stars
    with pytest.raises(ValueError, match="1-D .* or 2-D"):
        monitor.fit(np.zeros((2, 3, 4)))
    with pytest.raises(ValueError, match="finite reference scores"):
        monitor.fit(rng.normal(size=8), num_stars=4)       # too few points
    with pytest.raises(ValueError, match="does not match reference rows"):
        monitor.fit(rng.normal(size=(3, 200)), num_stars=4)
    with pytest.raises(RuntimeError, match="fitted"):
        DriftMonitor().update(np.zeros(4))
    with pytest.raises(RuntimeError, match="fitted"):
        DriftMonitor().divergence()


def test_fit_snapshots_per_star_reference():
    rng = np.random.default_rng(1)
    monitor = DriftMonitor(num_bins=8).fit(_reference(rng), num_stars=3)
    assert monitor.num_stars == 3
    assert monitor.ref_edges.shape == (3, 7)
    assert monitor.ref_probs.shape == (3, 8)
    np.testing.assert_allclose(monitor.ref_probs.sum(axis=1), 1.0)
    # Equal-mass bins on a continuous sample: every bin close to 1/8.
    np.testing.assert_allclose(monitor.ref_probs, 1.0 / 8.0, atol=0.01)
    # A shared 1-D reference broadcasts identically to every star.
    assert np.array_equal(monitor.ref_edges[0], monitor.ref_edges[2])
    with pytest.raises(ValueError, match="one score per star"):
        monitor.update(np.zeros(5))


# ---------------------------------------------------------------------------
# streaming sketches
# ---------------------------------------------------------------------------
def test_stationary_stream_live_histogram_converges_to_reference():
    rng = np.random.default_rng(7)
    monitor = DriftMonitor(halflife=512.0, min_observations=16, warmup_ticks=0).fit(
        _reference(rng, size=4096), num_stars=2
    )
    samples = rng.normal(0.0, 1.0, size=(4000, 2))
    for row in samples:
        monitor.update(row)
    evidence = monitor.snapshot()
    live = evidence["live_probs"]                      # (K, B)
    assert live.shape == monitor.ref_probs.shape
    np.testing.assert_allclose(live.sum(axis=1), 1.0)
    np.testing.assert_array_equal(evidence["ref_probs"], monitor.ref_probs)
    # The EW histogram holds ~2.9 x halflife ~ 1480 effective draws, so a
    # bin mass of 1/8 carries a sampling error of ~0.009; edges estimated
    # from 4096 reference draws add ~0.005.  0.05 is five of those.
    np.testing.assert_allclose(live, monitor.ref_probs, atol=0.05)
    assert np.all(np.abs(monitor.live_mean) < 0.1)
    np.testing.assert_allclose(monitor.live_std, 1.0, atol=0.15)


def test_nan_scores_are_per_star_no_ops():
    rng = np.random.default_rng(3)
    monitor = _quick_monitor().fit(_reference(rng), num_stars=3)
    for _ in range(20):
        monitor.update(rng.normal(size=3))
    before_obs = monitor.num_observations.copy()
    before_mean = monitor.live_mean.copy()
    monitor.update([np.nan, 0.5, np.nan])              # only star 1 observes
    assert np.array_equal(monitor.num_observations, before_obs + [0, 1, 0])
    assert monitor.live_mean[0] == before_mean[0]
    assert monitor.live_mean[2] == before_mean[2]
    assert monitor.live_mean[1] != before_mean[1]
    # An all-NaN tick advances nothing but the tick counter.
    all_before = monitor.num_observations.copy()
    monitor.update(np.full(3, np.nan))
    assert np.array_equal(monitor.num_observations, all_before)


def test_warmup_ticks_discard_the_seam():
    rng = np.random.default_rng(4)
    monitor = _quick_monitor(warmup_ticks=10).fit(_reference(rng), num_stars=2)
    for _ in range(10):                                # transient junk
        assert monitor.update([50.0, -50.0]) == 0
    assert monitor.num_observations.sum() == 0        # nothing ingested
    for _ in range(12):
        monitor.update(rng.normal(size=2))
    assert np.array_equal(monitor.num_observations, [12, 12])
    # The +/-50 junk left no residue in the sketches: the EW means sit on
    # the N(0,1) stream, nowhere near the discarded transient.
    assert np.all(np.abs(monitor.live_mean) < 2.0)


# ---------------------------------------------------------------------------
# divergence + hysteresis
# ---------------------------------------------------------------------------
def test_shifted_star_trips_and_clears_with_hysteresis():
    rng = np.random.default_rng(5)
    registry = MetricsRegistry()
    with use_registry(registry):
        monitor = _quick_monitor()
    monitor.fit(_reference(rng), num_stars=2)
    # Star 1 jumps four sigmas; star 0 keeps sampling the reference.
    tick = 0
    while not monitor.tripped.any():
        monitor.update([rng.normal(), 4.0 + rng.normal()])
        tick += 1
        assert tick < 64, "shifted star failed to trip"
    assert np.array_equal(monitor.tripped, [False, True])
    assert monitor.tripped_stars == 1
    assert monitor.trips_total == 1
    assert monitor.first_trip_step[1] == tick
    assert monitor.first_trip_step[0] == -1
    psi, ks = monitor.divergence()
    assert psi[1] > monitor.psi_trip or ks[1] > monitor.ks_trip
    verdict = monitor.last_verdict
    assert verdict is not None and "worst star=1" in verdict.format()
    # Back on the reference distribution: the short halflife washes the
    # shifted mass out and the star clears after clear_after passing checks.
    while monitor.tripped.any():
        monitor.update(rng.normal(size=2))
        tick += 1
        assert tick < 256, "shifted star failed to clear"
    assert monitor.tripped_stars == 0
    assert monitor.trips_total == 1                    # clearing is not a trip
    assert monitor.first_trip_step[1] > 0              # first trip is sticky
    assert registry.get("drift_trips_total").value == 1
    assert registry.get("drift_tripped_stars").value == 0
    assert registry.get("drift_checks_total").value > 0
    evidence = monitor.snapshot()
    assert set(evidence) >= {"psi", "ks", "tripped", "first_trip_step"}


def test_quiet_sampling_noise_stays_below_default_bounds():
    rng = np.random.default_rng(6)
    monitor = DriftMonitor(warmup_ticks=0).fit(_reference(rng), num_stars=4)
    for _ in range(600):
        monitor.update(rng.normal(size=4))
    assert not monitor.tripped.any()
    psi, ks = monitor.divergence()
    assert psi.max() < monitor.psi_trip
    assert ks.max() < monitor.ks_trip


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------
def test_state_dict_round_trips(tmp_path):
    rng = np.random.default_rng(8)
    monitor = DriftMonitor(
        halflife=17.0, num_bins=6, psi_trip=0.4,
        check_interval=3, min_observations=11, warmup_ticks=5,
    ).fit(rng.normal(size=(3, 300)))
    state = monitor.state_dict()
    restored = DriftMonitor.from_state_dict(state)
    assert restored.halflife == monitor.halflife
    assert restored.num_bins == monitor.num_bins
    assert restored.warmup_ticks == monitor.warmup_ticks
    assert restored.min_observations == monitor.min_observations
    for name in ("ref_edges", "ref_probs", "ref_mean", "ref_std"):
        np.testing.assert_array_equal(getattr(restored, name), getattr(monitor, name))
    # Live sketches start fresh: only the calibration reference travels.
    assert restored.num_observations.sum() == 0
    # And through an npz on disk, as the registry sidecar stores it.
    path = tmp_path / "drift.npz"
    np.savez_compressed(path, **state)
    with np.load(path) as archive:
        from_disk = DriftMonitor.from_state_dict({k: archive[k] for k in archive.files})
    np.testing.assert_array_equal(from_disk.ref_probs, monitor.ref_probs)


def test_from_state_dict_validates():
    rng = np.random.default_rng(9)
    state = DriftMonitor().fit(_reference(rng), num_stars=2).state_dict()
    broken = dict(state)
    del broken["ref_probs"]
    with pytest.raises(ValueError, match="missing keys"):
        DriftMonitor.from_state_dict(broken)
    mismatched = dict(state)
    mismatched["ref_edges"] = state["ref_edges"][:1]
    with pytest.raises(ValueError, match="disagree on the star count"):
        DriftMonitor.from_state_dict(mismatched)
    for name in ("ref_mean", "ref_std"):
        short = dict(state)
        short[name] = state[name][:1]
        with pytest.raises(ValueError, match="disagree on the star count"):
            DriftMonitor.from_state_dict(short)
    wrong_bins = dict(state)
    wrong_bins["num_bins"] = np.asarray(4, dtype=np.int64)
    with pytest.raises(ValueError, match="bin geometry"):
        DriftMonitor.from_state_dict(wrong_bins)


def test_from_state_dict_ignores_retired_quantile_keys():
    # Sidecars published before the quantile sketch was retired still carry
    # its probe quantiles and reference quantiles; they load unchanged.
    rng = np.random.default_rng(12)
    monitor = DriftMonitor().fit(rng.normal(size=(2, 200)))
    legacy = monitor.state_dict()
    legacy["quantiles"] = np.asarray((0.5, 0.9, 0.99))
    legacy["ref_quantiles"] = np.zeros((3, 2))
    restored = DriftMonitor.from_state_dict(legacy)
    assert restored.settings() == monitor.settings()
    np.testing.assert_array_equal(restored.ref_edges, monitor.ref_edges)
    assert not hasattr(restored, "ref_quantiles")


def test_calibrate_tiles_variate_references_across_shards():
    rng = np.random.default_rng(10)
    cal = rng.normal(size=(300, 3)) * np.array([1.0, 2.0, 3.0])  # (T, N)
    monitor = calibrate_drift_monitor(cal, num_stars=6)          # 2 shards x 3
    assert monitor.num_stars == 6
    # Star shard*N + v carries variate v's reference, both shards alike.
    for v in range(3):
        np.testing.assert_array_equal(monitor.ref_edges[v], monitor.ref_edges[3 + v])
    assert not np.array_equal(monitor.ref_edges[0], monitor.ref_edges[1])
    # A star count that is no multiple of N falls back to one pooled reference.
    pooled = calibrate_drift_monitor(cal, num_stars=5)
    assert pooled.num_stars == 5
    np.testing.assert_array_equal(pooled.ref_edges[0], pooled.ref_edges[4])


# ---------------------------------------------------------------------------
# the acceptance criterion: drifted night trips, matching quiet night doesn't
# ---------------------------------------------------------------------------
DRIFT_BASE = dict(
    seed=11, train_length=240, calibration_length=160, night_length=200,
    num_events=0, num_dropouts=0, nan_fraction=0.0,
    num_duplicate_frames=0, num_reordered_frames=0,
)

#: Frozen serving-monitor settings for the drift night.  ``warmup_ticks=48``
#: covers the seam transient (2x the detector window: a freshly started
#: fleet's first windows straddle the gap between seeded context and the
#: night, and sinusoidal stars jump phase across it); ``psi_trip=1.0`` sits
#: ~2x above the quiet night's worst sustained PSI (~0.6 — genuine mild
#: night-vs-calibration nonstationarity, not noise).
DRIFT_MONITOR = dict(
    halflife=48, check_interval=4, min_observations=64, warmup_ticks=48,
    psi_trip=1.0, psi_clear=0.30, ks_trip=0.60, ks_clear=0.20,
    trip_after=2, clear_after=8,
)

#: Every trip must land inside the night; in practice the drifted night
#: trips around tick ~120 of 200 with the settings above.
MAX_TRIP_TICK = 180


@pytest.fixture(scope="module")
def drift_night():
    """Quiet and drift-faulted variants of one night, plus a shared detector.

    Fault knobs are applied after the pre-night data is drawn, so both
    scenarios share bit-identical train and calibration stretches — one
    detector and one reference serve both, and the *only* difference
    between the runs is the injected baseline drift.
    """
    quiet = build_scenario(ScenarioConfig(num_drift_stars=0, **DRIFT_BASE))
    drifted = build_scenario(
        ScenarioConfig(num_drift_stars=2, drift_amplitude=1.0, **DRIFT_BASE)
    )
    assert np.array_equal(quiet.train, drifted.train)
    assert np.array_equal(quiet.calibration, drifted.calibration)
    detector = AeroDetector(OBS_DETECTOR)
    detector.fit(quiet.train, quiet.train_timestamps)
    cal_scores = detector.score(quiet.calibration, quiet.calibration_timestamps)
    threshold = pot_threshold(cal_scores, q=5e-3)
    return quiet, drifted, detector, cal_scores, threshold


def _serve_night(scenario, detector, cal_scores, threshold, make_obs_fleet):
    monitor = calibrate_drift_monitor(
        cal_scores, num_stars=scenario.num_stars, **DRIFT_MONITOR
    )
    fleet = make_obs_fleet(
        detector, scenario, threshold,
        drift_monitor=monitor, recorder=FlightRecorder(capacity=256),
    )
    ReplayHarness(fleet, scenario).run()
    return fleet


def test_drifted_night_trips_quiet_night_does_not(drift_night, make_obs_fleet):
    quiet, drifted, detector, cal_scores, threshold = drift_night

    served_quiet = _serve_night(quiet, detector, cal_scores, threshold, make_obs_fleet)
    quiet_monitor = served_quiet.drift_monitor
    assert quiet_monitor.trips_total == 0
    assert not quiet_monitor.tripped.any()
    assert (quiet_monitor.first_trip_step == -1).all()
    assert served_quiet.recorder.records == []
    assert served_quiet.health().drift_tripped_stars == 0

    served = _serve_night(drifted, detector, cal_scores, threshold, make_obs_fleet)
    monitor = served.drift_monitor
    assert monitor.trips_total >= 1
    tripped = np.flatnonzero(monitor.first_trip_step >= 0)
    assert tripped.size >= 1
    # Bounded detection latency: every trip lands well inside the night.
    assert int(monitor.first_trip_step[tripped].max()) <= MAX_TRIP_TICK
    # The detector is multivariate per shard, so injected drift bleeds into
    # shard-mates' scores; what must hold is that a drift-faulted shard is
    # among the tripped ones.
    num_variates = drifted.config.num_variates
    faulted_shards = {
        fault.star // num_variates for fault in drifted.faults if fault.kind == "drift"
    }
    tripped_shards = {int(star) // num_variates for star in tripped}
    assert tripped_shards & faulted_shards
    assert served.health().drift_tripped_stars == monitor.tripped_stars
    # The trip froze the flight recorder exactly once (cooldown absorbs
    # follow-on trips of the same incident).
    reasons = [record.reason for record in served.recorder.records]
    assert reasons == ["drift_trip"]


def test_drift_monitoring_is_bit_transparent(drift_night, make_obs_fleet):
    """Scores, thresholds, labels and alerts are identical with the full
    model-quality stack attached (monitor + recorder) or absent."""
    _, drifted, detector, cal_scores, threshold = drift_night
    plain = make_obs_fleet(detector, drifted, threshold)
    _, trace_off = ReplayHarness(plain, drifted).run()
    monitored = _serve_night(drifted, detector, cal_scores, threshold, make_obs_fleet)
    assert monitored.drift_monitor.trips_total >= 1    # the stack actually ran
    _, trace_on = ReplayHarness(
        make_obs_fleet(
            detector, drifted, threshold,
            drift_monitor=calibrate_drift_monitor(
                cal_scores, num_stars=drifted.num_stars, **DRIFT_MONITOR
            ),
            recorder=FlightRecorder(capacity=256),
        ),
        drifted,
    ).run()
    assert np.array_equal(trace_off.scores, trace_on.scores, equal_nan=True)
    assert np.array_equal(trace_off.thresholds, trace_on.thresholds, equal_nan=True)
    assert np.array_equal(trace_off.labels, trace_on.labels)
    assert np.array_equal(trace_off.alert_seqs, trace_on.alert_seqs)
    assert np.array_equal(trace_off.alert_stars, trace_on.alert_stars)
    assert np.array_equal(trace_off.alert_scores, trace_on.alert_scores)


def test_fleet_rejects_mismatched_monitor(drift_night, make_obs_fleet):
    quiet, _, detector, cal_scores, threshold = drift_night
    rng = np.random.default_rng(12)
    small = DriftMonitor().fit(rng.normal(size=300), num_stars=3)
    with pytest.raises(ValueError, match="drift monitor covers 3 stars"):
        make_obs_fleet(detector, quiet, threshold, drift_monitor=small)


def test_fleet_drift_state_round_trip(drift_night, make_obs_fleet):
    quiet, _, detector, cal_scores, threshold = drift_night
    monitor = calibrate_drift_monitor(
        cal_scores, num_stars=quiet.num_stars, **DRIFT_MONITOR
    )
    fleet = make_obs_fleet(detector, quiet, threshold, drift_monitor=monitor)
    state = fleet.drift_state()
    fresh = make_obs_fleet(detector, quiet, threshold)
    assert fresh.drift_state() is None
    fresh.load_drift_state(state)
    np.testing.assert_array_equal(
        fresh.drift_monitor.ref_probs, monitor.ref_probs
    )
    with pytest.raises(ValueError, match="fleet serves"):
        rng = np.random.default_rng(13)
        wrong = DriftMonitor().fit(rng.normal(size=300), num_stars=5)
        fresh.load_drift_state(wrong.state_dict())
