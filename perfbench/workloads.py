"""The three benchmark workloads: golden-night, wide-night and retrain-loop.

Each workload drives the system only through public functions.  It builds
a seeded survey night and loads the detector it serves, fitted once per
checkout by :mod:`perfbench.fitjob`.  Then it runs whole *passes* until at
least :data:`MIN_PASSES` passes and :data:`MIN_TICKS` ticks are timed and
the requested seconds were spent serving.  A pass is set-up (load the
artifact, compile, calibrate thresholds and drift, build the fleet)
followed by one replay of the night.  One closed-loop caller feeds each
exposure as soon as the previous tick returns.  The timed fits follow the
passes.

Every pass replays the same night and must compute the same trace, so
tick ``i`` does the same work in every pass.  The tick metrics are taken
over each tick's fastest time across passes (:func:`best_ticks`): the host
has slow stretches seconds long, which rarely cover the same tick in
every pass.  Longer slow periods are handled by :class:`QuietGate`.

With tracing on, untraced passes (the reference for ``trace_overhead``)
alternate with passes that have the layer wrappers of
:mod:`perfbench.harness` installed.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import math
import os
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from repro.core import AeroDetector
from repro.evaluation import pot_threshold
from repro.obs import FlightRecorder, calibrate_drift_monitor
from repro.simulation import ReplayHarness, ReplayTrace, ScenarioConfig, build_scenario
from repro.streaming import AlertPolicy, FleetManager, VectorizedIncrementalPOT
from repro.training import ContinualLearningController, ModelRegistry

from .fitjob import ensure_artifact, summarise_fits, timed_fit
from .harness import (
    Metrics, SpanClock, counted_logs, host_probe_seconds, median, peak_rss_mb, tail_percentile,
)

GOLDEN_SEED = 7
POT_Q = 5e-3
MIN_TICKS = 1000
#: Each tick's best time is taken over at least this many untraced passes.
MIN_PASSES = 4
#: QuietGate: a probe within this factor of the reference is quiet; the
#: reference is the median of the last REFERENCE_RUNS runs' fastest probes.
QUIET_TOLERANCE = 1.2
REFERENCE_RUNS = 9
#: An end-to-end run serves on until this many passes began on a quiet
#: host, and fits on until one fit did, spending at most MAX_EXTRA_SECONDS
#: on the extra passes and fits together.
QUIET_PASSES = 2
MAX_EXTRA_SECONDS = 45.0
#: Untimed serving before measuring, so start-up costs are paid first: the
#: first night served in a process ticks ~50% slower than later ones.
WARM_UP_SECONDS = 1.5
#: The wide night serves this many times the golden night's stars (128);
#: 256 stars would not fit the run budget.
WIDE_SCALE = 16

#: Detector configs as ``AeroConfig.fast(window=32, short_window=8)`` overrides.
#: The golden-trace fixture config serves golden-night and wide-night.
ARTIFACT_CONFIG = dict(
    max_epochs_stage1=16, max_epochs_stage2=8, learning_rate=5e-3,
    d_model=24, num_heads=2, train_stride=2, batch_size=16,
)
#: The retrain-loop's served model: the recorded 8 + 4 epoch loop config,
#: with early stopping out of reach so every seed trains the same epochs.
LOOP_CONFIG = dict(ARTIFACT_CONFIG, max_epochs_stage1=8, max_epochs_stage2=4, patience=100)
#: The timed fits (``fit_s`` from FIT_REPEATS of them): 2 + 1 epochs, no early stop.
FIT_CONFIG = dict(LOOP_CONFIG, max_epochs_stage1=2, max_epochs_stage2=1)
FIT_REPEATS = 6
#: Recorded-traffic ring of the retrain-loop's controller.  Every retrain
#: then fits the same 80 ticks (128 minus 48 held back for calibration), so
#: its cost and memory do not depend on the tick at which drift tripped.
LOOP_HISTORY_TICKS = 128

LOOP_DECISIONS = ["baseline", "trigger", "retrain", "canary_pass", "promote", "watch_clear"]

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
#: Fitted serving artifacts, reused by later runs in the same checkout.
ARTIFACT_CACHE = HERE / ".work" / "artifacts"
#: The fastest host probes of the last runs in this checkout (QuietGate).
HOST_REFERENCE = HERE / ".work" / "host_probe.json"
GOLDEN_TRACE = REPO / "tests" / "simulation" / "golden" / "survey_night_seed7.npz"
WIDE_REFERENCE = HERE / "reference" / "wide_night_seed7.npz"
TRACE_RTOL, TRACE_ATOL = 1e-6, 1e-9

#: Layers whose per-tick time is kept; ``fleet.step`` self time is ingest.
TICK_LAYERS = ("fleet.step", "runtime", "pot", "alerts", "drift", "recorder")
LOOP_LAYERS = ("controller.step", "loop.retrain", "loop.canary", "loop.publish", "loop.deploy")


def golden_scenario(seed: int):
    """The golden survey night (2 shards x 4 variates) at ``seed``."""
    return build_scenario(ScenarioConfig(seed=seed))


def wide_scenario(seed: int):
    """The same sky at :data:`WIDE_SCALE` times the shards.

    Events, quiet stars, dropouts and drifting stars scale with the star
    count.  The scenario RNG draws the star profiles, the reference archive
    and the calibration stretch before any shard, so the golden night's
    detector at the same seed serves this night too.
    """
    base = ScenarioConfig(seed=seed)
    return build_scenario(dataclasses.replace(
        base,
        num_shards=base.num_shards * WIDE_SCALE,
        num_events=base.num_events * WIDE_SCALE,
        num_quiet_stars=base.num_quiet_stars * WIDE_SCALE,
        num_dropouts=base.num_dropouts * WIDE_SCALE,
        num_drift_stars=base.num_drift_stars * WIDE_SCALE,
    ))


def artifact_path(config: dict, seed: int) -> Path:
    """Cache path of the detector fitted with ``config`` on the seed's archive.

    The key covers the config, the seed and every source file of ``repro``,
    so an artifact is reused only by the code that fitted it.
    """
    digest = hashlib.sha256(json.dumps(config, sort_keys=True).encode())
    for source in sorted((REPO / "src" / "repro").rglob("*.py")):
        digest.update(source.relative_to(REPO).as_posix().encode())
        digest.update(source.read_bytes())
    return ARTIFACT_CACHE / f"seed{seed}-{digest.hexdigest()[:16]}.npz"


def loop_scenario(seed: int):
    """The golden night, twice as long and with its drift fault strengthened.

    Two stars drift by 1 mag instead of one by 0.15, as in
    ``examples/continual_loop.py``: on the plain golden night drift trips
    at some seeds only, and a seed without a trip never runs the loop.
    The longer night keeps the few slow ticks of each pass (state rebuilds,
    the flight dump at the trip) well inside the top 1%, so they do not
    decide ``tick_p99_ms``.  The reference archive and calibration stretch
    are the golden night's.
    """
    return build_scenario(ScenarioConfig(
        seed=seed, night_length=600, num_drift_stars=2, drift_amplitude=1.0,
    ))


def best_ticks(series: list[list[float]]) -> np.ndarray:
    """Each tick's fastest time over passes that replayed the same night."""
    return np.min(np.asarray(series, dtype=np.float64), axis=0)


class QuietGate:
    """Tells whether the host runs at its usual speed right now.

    The host has slow periods, up to minutes long, in which everything,
    CPU time included, runs 30-50% slower.  A whole run can fall inside
    one, and then no statistic over that run removes it.  Each probe times
    a fixed task (:func:`host_probe_seconds`).  It is *quiet* when within
    :data:`QUIET_TOLERANCE` of ``reference``: the median of the fastest
    probes of the last :data:`REFERENCE_RUNS` runs in this checkout (kept
    in ``path``).  A median, so that a slow period covering a few runs
    does not move it, while a lasting change of the host does within a few
    runs instead of extending every later run.  The first run of a
    checkout finds every probe quiet.
    """

    def __init__(self, path: Path):
        self.path = path
        try:
            self.recent = [float(s) for s in json.loads(path.read_text())["recent_probe_s"]]
        except (OSError, ValueError, KeyError, TypeError):
            self.recent = []
        self.reference = median(self.recent) if self.recent else math.inf
        self.best = math.inf
        self.quiet_passes = 0
        self.quiet_fits = 0

    def probe(self) -> bool:
        seconds = host_probe_seconds()
        self.best = min(self.best, seconds)
        return seconds <= QUIET_TOLERANCE * self.reference

    def save(self) -> None:
        """Add this run's fastest probe to the recent ones (written atomically)."""
        if math.isfinite(self.best):
            recent = (self.recent + [self.best])[-REFERENCE_RUNS:]
            partial = self.path.with_name(f"{self.path.name}.{os.getpid()}")
            partial.write_text(json.dumps({"recent_probe_s": recent}))
            os.replace(partial, self.path)


class Outcome:
    """Attempted / failed operations and the reasons for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


class TickTimer:
    """The closed-loop caller: steps ``target`` once per frame and times it.

    Ticks on which a retrain cycle started are remembered, so the serving
    tick distribution and the retrain-cycle times can be reported apart.
    """

    def __init__(self, target, clock: SpanClock | None, layers):
        self.target = target
        self.clock = clock
        self.layers = layers
        self.seconds: list[float] = []
        self.cycle_ticks: list[int] = []

    def step(self, rows, timestamp):
        cycles = getattr(self.target, "cycles", 0)
        started = time.perf_counter()
        result = self.target.step(rows, timestamp)
        self.seconds.append(time.perf_counter() - started)
        if getattr(self.target, "cycles", 0) != cycles:
            self.cycle_ticks.append(len(self.seconds) - 1)
        if self.clock is not None:
            self.clock.end_tick(self.layers)
        return result


def wrap_engine(clock: SpanClock, engine) -> None:
    """Time a compiled engine's serving entry points and its incremental states."""

    def wrap_state(state):
        clock.wrap(state, "rebuild", "runtime")
        clock.wrap(state, "score", "runtime")

    clock.wrap(engine, "score_stack", "runtime")
    clock.wrap(engine, "score_stack_step", "runtime")
    clock.wrap(engine, "new_incremental_state", "runtime", on_result=wrap_state)


def wrap_fleet(clock: SpanClock, fleet) -> None:
    """Time a fleet's tick and the per-tick layer objects it was handed."""
    clock.wrap(fleet, "step", "fleet.step")
    clock.wrap(fleet.alert_policy, "update", "alerts")
    clock.wrap(fleet.drift_monitor, "update", "drift")
    clock.wrap(fleet.recorder, "record", "recorder")
    if fleet.adaptive_pot is not None:
        clock.wrap(fleet.adaptive_pot, "update", "pot")


class Workload:
    """Shared pass loop, set-up timing, output checks and metric assembly."""

    name = ""
    #: Config of the detector the workload serves.
    artifact_config = ARTIFACT_CONFIG
    #: The trace every pass must match at GOLDEN_SEED; ``None``: not pinned.
    reference_path: Path | None = None

    def __init__(self, seed: int, seconds: float, workdir: Path):
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.outcome = Outcome()
        self.metrics = Metrics()
        self.scenario = self.build_scenario()
        self.reference = None
        if seed == GOLDEN_SEED and self.reference_path and self.reference_path.exists():
            self.reference = ReplayTrace.load(self.reference_path)
        self.first_trace = None
        self.first_shape = None
        self.gate = QuietGate(HOST_REFERENCE)
        self.served = 0.0
        #: Seconds spent on passes and fits the quiet-host gate added.
        self.extra = 0.0
        self.artifact = artifact_path(self.artifact_config, seed)
        self.untraced_p50 = float("nan")

    # -- hooks ---------------------------------------------------------
    def build_scenario(self):
        raise NotImplementedError

    def build_fleet(self, detector, calibration_scores) -> FleetManager:
        raise NotImplementedError

    def serving_target(self, fleet, pass_dir: Path):
        """What the closed-loop caller steps (the fleet, or a controller around it)."""
        return fleet

    def class_layers(self) -> list:
        """Class- or module-level callables wrapped during traced passes."""
        return []

    def check_pass(self, index: int, target, trace) -> None:
        """Workload-specific output checks of one pass."""

    # -- the run -------------------------------------------------------
    def run(self, trace: bool) -> Metrics:
        ensure_artifact(self.seed, self.artifact_config, self.artifact)
        with counted_logs() as logs:
            self.warm_up()
            plain, traced, clock = self.measure(trace, logs)
            # Read before the fits: training's peak is far above serving's.
            peak_mb = peak_rss_mb()
            fits = self.timed_fits(trace)
        self.gate.save()
        gate, m = self.gate, self.metrics
        m.add("host.probe_ms", gate.best * 1e3, "ms", "fastest host probe of this run")
        m.add("host.reference_ms", gate.reference * 1e3, "ms",
              f"median of {len(gate.recent)} earlier runs' fastest")
        m.add("host.quiet_passes", gate.quiet_passes, "count", f"{gate.quiet_fits} quiet fits")
        m.add("served_s", self.served, "s", "serving time of all passes")
        m.add("host.extra_s", self.extra, "s", "passes and fits added by the quiet-host gate")
        try:
            fitted = summarise_fits(fits, trace)
        except ValueError as error:
            self.outcome.check(False, str(error))
        if not self.outcome.failed:  # a failed run's timings would mislead
            self.report_end_to_end(plain, fitted, peak_mb)
            if trace:
                self.report_layers(traced, clock, fitted)
        o = self.outcome
        self.metrics.add("failed_frac", o.failed / max(o.attempted, 1), "ratio",
                         f"{o.failed} of {o.attempted} operations")
        return self.metrics

    def warm_up(self) -> None:
        """Serve fresh nights, untimed and unchecked, for :data:`WARM_UP_SECONDS`."""
        started = time.perf_counter()
        night = 0
        while time.perf_counter() - started < WARM_UP_SECONDS:
            _, target, _ = self.setup(None, self.workdir / f"warm-up-{night}")
            for frame in self.scenario.frames():
                target.step(frame.rows, frame.timestamp)
                if time.perf_counter() - started >= WARM_UP_SECONDS:
                    break
            night += 1
        gc.collect()

    def measure(self, trace: bool, logs):
        """Run passes until enough passes and ticks are timed and the seconds are spent.

        With ``trace`` the passes alternate untraced / traced, so both
        sets see the same machine and their tick metrics give the tracing
        overhead.  They share the seconds, and only the end-to-end run
        needs :data:`MIN_PASSES` and :data:`MIN_TICKS`; a traced run needs
        two passes of each kind.

        An end-to-end run then goes on while :class:`QuietGate` finds the
        host slow, until :data:`QUIET_PASSES` passes began on a quiet host
        or :data:`MAX_EXTRA_SECONDS` were spent on extra passes.
        """
        plain = self.new_stats()
        traced = self.new_stats()
        clock = SpanClock()
        sets = [(plain, None), (traced, clock)] if trace else [(plain, None)]
        min_passes, min_ticks = (2, 0) if trace else (MIN_PASSES, MIN_TICKS)
        gate = self.gate
        served = 0.0
        index = 0
        while not self.outcome.failed:
            enough = (min(stats["passes"] for stats, _ in sets) >= min_passes
                      and sum(len(t) for t in plain["ticks"]) >= min_ticks
                      and served >= self.seconds)
            if enough and (trace or gate.quiet_passes >= QUIET_PASSES
                           or self.extra >= MAX_EXTRA_SECONDS):
                break
            quiet = gate.probe()
            stats, pass_clock = sets[index % len(sets)]
            gate.quiet_passes += quiet and stats is plain
            warnings = logs.warnings
            started = time.perf_counter()
            try:
                with pass_clock.patched(self.class_layers()) if pass_clock else nullcontext():
                    self.one_pass(index, pass_clock, stats)
            except Exception:  # a pass that raises is a counted failure, not a crash
                traceback.print_exc()
                self.outcome.check(False, f"pass {index} raised")
            elapsed = time.perf_counter() - started
            served += elapsed
            self.extra += elapsed if enough else 0.0
            # The last pass's fleets and controllers hold reference cycles;
            # collect them now, not in a random later tick.
            gc.collect()
            stats["passes"] += 1
            stats["warn_events"] += logs.warnings - warnings
            index += 1
        self.served = served
        return plain, traced, clock

    def timed_fits(self, trace: bool) -> list[dict]:
        """An untimed warm-up fit, then :data:`FIT_REPEATS` timed ones.

        The first fit in a process runs ~20% slower.  An end-to-end run
        fits on until one fit began on a quiet host, within what is left of
        :data:`MAX_EXTRA_SECONDS`.
        """
        timed_fit(FIT_CONFIG, self.seed, False)
        fits: list[dict] = []
        gate = self.gate
        while len(fits) < FIT_REPEATS or not (
            trace or gate.quiet_fits or self.extra >= MAX_EXTRA_SECONDS
        ):
            quiet = gate.probe()
            started = time.perf_counter()
            fits.append(timed_fit(FIT_CONFIG, self.seed, trace))
            self.extra += time.perf_counter() - started if len(fits) > FIT_REPEATS else 0.0
            gate.quiet_fits += quiet
        return fits

    @staticmethod
    def new_stats() -> dict:
        return {"passes": 0, "ticks": [], "cycle_ticks": [], "cycle_index": [], "setup": [],
                "reports": [], "counts": [], "warn_events": 0}

    def setup(self, clock: SpanClock | None, pass_dir: Path):
        """Artifact -> compiled engine -> calibration -> fleet: the set-up of one pass."""
        t0 = time.perf_counter()
        detector = AeroDetector.load(self.artifact)
        t1 = time.perf_counter()
        engine = detector.compile()
        t2 = time.perf_counter()
        if clock is not None:
            wrap_engine(clock, engine)
        scenario = self.scenario
        calibration_scores = detector.score(scenario.calibration, scenario.calibration_timestamps)
        t3 = time.perf_counter()
        fleet = self.build_fleet(detector, calibration_scores)
        target = self.serving_target(fleet, pass_dir)
        t4 = time.perf_counter()
        times = {"setup_s": t4 - t0, "load": t1 - t0, "compile": t2 - t1,
                 "calibrate": t3 - t2, "fleet_build": t4 - t3}
        return fleet, target, times

    def one_pass(self, index: int, clock: SpanClock | None, stats: dict) -> None:
        pass_dir = self.workdir / f"pass-{'traced' if clock else 'plain'}-{index}"
        fleet, target, times = self.setup(clock, pass_dir)
        layers = TICK_LAYERS
        if clock is not None:
            wrap_fleet(clock, fleet)
            if target is not fleet:
                layers = TICK_LAYERS + LOOP_LAYERS
                self.wrap_loop(clock, target, fleet)
        base = len(clock.ticks["fleet.step"]) if clock is not None else 0
        scorer = TickTimer(target, clock, layers)
        report, trace = ReplayHarness(scorer, self.scenario).run()
        self.outcome.attempted += len(scorer.seconds)
        self.outcome.check(trace.num_ticks == self.scenario.config.night_length,
                           f"pass {index}: {trace.num_ticks} ticks served")
        self.check_trace(index, trace)
        self.check_pass(index, target, trace)
        # best_ticks() lines passes up tick by tick: every pass must step the
        # same frames and start its retrain cycles on the same ticks.
        shape = (len(scorer.seconds), scorer.cycle_ticks)
        if self.first_shape is None:
            self.first_shape = shape
        if shape != self.first_shape:
            self.outcome.check(False, f"pass {index}: ticks / cycle ticks {shape} "
                                      f"differ from the first pass's {self.first_shape}")
            return
        stats["ticks"].append(scorer.seconds)
        stats["cycle_ticks"] = scorer.cycle_ticks
        stats["cycle_index"].extend(base + i for i in scorer.cycle_ticks)
        stats["setup"].append(times)
        stats["reports"].append(report)
        stats["counts"].append(self.pass_counts(fleet, target, trace))

    def wrap_loop(self, clock: SpanClock, target, fleet) -> None:
        """Time the controller around the fleet and its registry, if there is one."""

    def pass_counts(self, fleet, target, trace) -> dict:
        inc = fleet.incremental_stats() or {}
        return {
            "alerts.fired": fleet.alert_policy.alerts_fired,
            "drift.tripped_stars": fleet.drift_monitor.tripped_stars,
            "recorder.dumps": len(fleet.recorder.records),
            "pot.refits": fleet.threshold_refits,
            "pot.refit_failures": fleet.threshold_refit_failures,
            "fleet.masked_scores": int(np.isnan(trace.scores).sum()),
            "runtime.rebuilds": inc.get("rebuilds", 0),
            "runtime.fallback_ticks": inc.get("fallback_ticks", 0),
            "runtime.cache_hit_ratio": (
                inc["incremental_ticks"] / inc["ticks"] if inc.get("ticks") else 0.0
            ),
            "loop.cycles": getattr(target, "cycles", 0),
        }

    def check_trace(self, index: int, trace) -> None:
        """Every pass, traced or not, must equal the first one bit for bit.

        At the golden seed each pass is also diffed against the pinned
        reference; at any seed a missing observation must score NaN.
        """
        if self.first_trace is None:
            self.first_trace = trace
        else:
            self.outcome.check(not trace.diff(self.first_trace),
                               f"pass {index} differs from the first pass")
        if self.seed == GOLDEN_SEED and self.reference_path is not None:
            ok = self.reference is not None and not trace.diff(
                self.reference, rtol=TRACE_RTOL, atol=TRACE_ATOL
            )
            self.outcome.check(ok, f"pass {index} differs from the pinned reference trace")
        missing = ~np.isfinite(self.scenario.exposures)
        scores = trace.scores[np.argsort(trace.seqs)]
        self.outcome.check(bool(np.isnan(scores[missing]).all()),
                           f"pass {index}: a missing observation was scored")

    # -- metrics -------------------------------------------------------
    @staticmethod
    def serving_p50(stats: dict) -> float:
        """Median over the night's serving ticks of each tick's best time, in seconds."""
        return median(np.delete(best_ticks(stats["ticks"]), stats["cycle_ticks"]))

    def report_end_to_end(self, stats: dict, fitted: dict, peak_mb: float) -> None:
        m = self.metrics
        passes = len(stats["ticks"])
        best = best_ticks(stats["ticks"])
        cycles = stats["cycle_ticks"]
        stars = self.scenario.num_stars
        setups = [t["setup_s"] for t in stats["setup"]]
        m.add("setup_s", median(setups), "s", f"median of {len(setups)} set-ups")
        m.add("tick_p50_ms", self.serving_p50(stats) * 1e3, "ms",
              f"median over {len(best) - len(cycles)} serving ticks of each one's best of "
              f"{passes} passes")
        m.add("star_ticks_per_s", stars * len(best) / best.sum(), "1/s",
              f"{stars} stars x {len(best)} ticks / their best times, retrain ticks included")
        m.add("fit_s", fitted["fit_s"], "s",
              f"best epochs over {fitted['fits']} fits of 2+1 epochs")
        m.add("peak_mem_mb", peak_mb, "MB", "max RSS when serving ended")
        pooled = [s for ticks in stats["ticks"] for i, s in enumerate(ticks) if i not in cycles]
        m.add("tick_p99_ms", tail_percentile(pooled, 99) * 1e3, "ms",
              f"nearest rank of {len(pooled)} pooled ticks")
        m.add("fit_median_s", fitted["fit_median_s"], "s", f"median of {fitted['fits']} whole fits")
        reports = stats["reports"]
        m.add("event_recall", np.mean([r.recall for r in reports]), "ratio",
              f"{reports[0].num_events} events per night")
        m.add("quiet_false_alerts", np.mean([r.quiet_star_false_alerts for r in reports]),
              "count", "per night")
        if cycles:
            m.add("retrain_cycle_s", best[cycles].sum(), "s",
                  f"best trigger tick of {passes} passes")
        self.untraced_p50 = self.serving_p50(stats)

    def report_layers(self, stats: dict, clock: SpanClock, fitted: dict) -> None:
        m = self.metrics
        cycles = set(stats["cycle_index"])
        serving = [i for i in range(len(clock.ticks["fleet.step"])) if i not in cycles]
        per_tick = {layer: [clock.ticks[layer][i] for i in serving] for layer in TICK_LAYERS}
        ingest = [clock.ticks_self["fleet.step"][i] for i in serving]
        stars = self.scenario.num_stars
        forward_ms = median(per_tick["runtime"]) * 1e3
        m.add("runtime.forward_ms", forward_ms, "ms", "median per tick")
        m.add("runtime.forward_us_per_star", forward_ms * 1e3 / stars, "us")
        m.add("fleet.ingest_ms", median(ingest) * 1e3, "ms", "fleet.step self time")
        for layer, name in (("alerts", "alerts.update_ms"), ("drift", "drift.update_ms"),
                            ("recorder", "recorder.record_ms")):
            m.add(name, median(per_tick[layer]) * 1e3, "ms", "median per tick")
        if clock.calls["pot"]:
            m.add("pot.update_ms", median(per_tick["pot"]) * 1e3, "ms", "median per tick")
            m.add("pot.update_max_ms", clock.max["pot"] * 1e3, "ms", "slowest update")
        children = ("runtime", "pot", "alerts", "drift", "recorder")
        accounted = median(ingest) + sum(median(per_tick[layer]) for layer in children)
        m.add("trace.accounted_ratio", accounted / median(per_tick["fleet.step"]), "ratio",
              "sum of layer medians / median fleet.step")
        counts = stats["counts"]
        for key in counts[0]:
            unit = "ratio" if key.endswith("ratio") else "count"
            m.add(key, float(np.mean([c[key] for c in counts])), unit, "per night")
        m.add("log.warn_events", stats["warn_events"] / stats["passes"], "count", "per night")
        for key, unit in (("load", "ms"), ("compile", "ms"), ("calibrate", "s"),
                          ("fleet_build", "ms")):
            values = [t[key] for t in stats["setup"]]
            scale = 1e3 if unit == "ms" else 1.0
            m.add(f"setup.{key}_{unit}", median(values) * scale, unit,
                  f"median of {len(values)}")
        for key in ("train.stage1_epoch_s", "train.stage2_epoch_s", "train.forward_s",
                    "train.backward_s", "train.optim_s"):
            m.add(key, fitted[key], "s", "median of the timed fits")
        m.add("train.epochs", fitted["train.epochs"], "count", "median of the timed fits")
        m.add("trace_overhead", self.serving_p50(stats) / self.untraced_p50, "ratio",
              "traced / untraced tick_p50_ms")
        if cycles:
            self.report_loop(stats, clock, sorted(cycles))

    def report_loop(self, stats: dict, clock: SpanClock, cycles: list[int]) -> None:
        """Loop layer times over the ticks on which a retrain cycle ran."""


class GoldenNight(Workload):
    """8 stars, compiled backend, global threshold: fixed per-tick cost dominates."""

    name = "golden-night"
    reference_path = GOLDEN_TRACE

    def build_scenario(self):
        return golden_scenario(self.seed)

    def build_fleet(self, detector, calibration_scores):
        scenario = self.scenario
        return FleetManager(
            detector,
            num_shards=scenario.config.num_shards,
            alert_policy=AlertPolicy(min_consecutive=2, cooldown=30),
            backend="compiled",
            threshold=pot_threshold(calibration_scores, q=POT_Q),
            drift_monitor=calibrate_drift_monitor(calibration_scores, num_stars=scenario.num_stars),
            recorder=FlightRecorder(capacity=scenario.config.night_length),
        )


class WideNight(Workload):
    """128 stars, incremental backend, per-star POT: the forward dominates."""

    name = "wide-night"
    reference_path = WIDE_REFERENCE

    def build_scenario(self):
        return wide_scenario(self.seed)

    def build_fleet(self, detector, calibration_scores):
        scenario = self.scenario
        shards = scenario.config.num_shards
        fleet = FleetManager(
            detector,
            num_shards=shards,
            alert_policy=AlertPolicy(min_consecutive=2, cooldown=30),
            backend="incremental",
            threshold_mode="per_star",
            drift_monitor=calibrate_drift_monitor(calibration_scores, num_stars=scenario.num_stars),
            recorder=FlightRecorder(capacity=scenario.config.night_length),
        )
        # Per-star thresholds start from the held-out calibration at POT_Q
        # (one state per variate, tiled across shards), as the global
        # threshold of the other workloads does.
        pot = VectorizedIncrementalPOT(q=POT_Q, level=detector.config.pot_level)
        fleet.load_threshold_state(pot.fit(calibration_scores.T).tile(shards).state_dict())
        return fleet


class RetrainLoop(Workload):
    """The golden night through the continual-learning controller.

    Drift trips, the model fine-tunes, the canary replays shadow fleets,
    the candidate is published and hot-swapped into the incremental fleet.
    """

    name = "retrain-loop"
    artifact_config = LOOP_CONFIG
    first_decisions = None

    def build_scenario(self):
        return loop_scenario(self.seed)

    def build_fleet(self, detector, calibration_scores):
        scenario = self.scenario
        return FleetManager(
            detector,
            num_shards=scenario.config.num_shards,
            alert_policy=AlertPolicy(min_consecutive=2, cooldown=30),
            backend="incremental",
            threshold=pot_threshold(calibration_scores, q=POT_Q),
            drift_monitor=calibrate_drift_monitor(calibration_scores, num_stars=scenario.num_stars),
            recorder=FlightRecorder(capacity=scenario.config.night_length),
        )

    def serving_target(self, fleet, pass_dir):
        # The cooldown outlasts the night: one retrain cycle per night whether
        # or not its canary passes, so every seed does the same loop work.
        return ContinualLearningController(
            fleet, ModelRegistry(pass_dir / "registry"), "bench-model", pass_dir / "work",
            history_ticks=LOOP_HISTORY_TICKS, cooldown_ticks=self.scenario.config.night_length,
            seed=self.seed,
        )

    def class_layers(self):
        import repro.training.loop as loop_module
        from repro.training import FleetTrainer

        return [
            (FleetTrainer, "train", "loop.retrain"),
            (loop_module, "evaluate_canary", "loop.canary"),
        ]

    def wrap_loop(self, clock, target, fleet):
        def rewrap_drift(_deployed):
            # A deploy restores the published drift reference as a new monitor.
            clock.wrap(fleet.drift_monitor, "update", "drift")

        clock.wrap(target, "step", "controller.step")
        clock.wrap(target.registry, "publish", "loop.publish")
        clock.wrap(target.registry, "deploy", "loop.deploy", on_result=rewrap_drift)
        # The deployed version is compiled by the swap; compiling it here,
        # inside the deploy span, lets the new engine be wrapped too.
        clock.wrap(target.registry, "load_detector", "loop.deploy",
                   on_result=lambda detector: wrap_engine(clock, detector.compile()))

    def check_pass(self, index, target, trace):
        kinds = [event.kind for event in target.events]
        # At every seed the night must run the loop exactly once, or the
        # workload would stop measuring what it exists for.
        self.outcome.check(target.cycles == 1, f"pass {index}: {target.cycles} retrain cycles")
        failed = kinds.count("retrain_failed")
        self.outcome.attempted += target.cycles
        self.outcome.failed += failed
        if failed:
            self.outcome.problems.append(f"pass {index}: {failed} retrain cycle(s) failed")
        decisions = [(event.step, event.kind) for event in target.events]
        if self.first_decisions is None:
            self.first_decisions = decisions
        else:
            self.outcome.check(decisions == self.first_decisions,
                               f"pass {index}: loop decisions differ from the first pass")
        if self.seed == GOLDEN_SEED:
            self.outcome.check(kinds == LOOP_DECISIONS and target.live_version == 2,
                               f"pass {index}: decisions {kinds}, live v{target.live_version}")

    def report_loop(self, stats, clock, cycles):
        m = self.metrics
        for layer in ("loop.retrain", "loop.canary", "loop.publish", "loop.deploy"):
            m.add(f"{layer}_s", median([clock.ticks[layer][i] for i in cycles]), "s",
                  f"median of {len(cycles)} cycles")
        m.add("loop.calibrate_s", median([clock.ticks_self["controller.step"][i] for i in cycles]),
              "s", "trigger tick minus its timed children")
        passed = failed = 0
        for counts in stats["counts"]:
            passed += counts["loop.canary_passes"]
            failed += counts["loop.canary_fails"]
        m.add("loop.canary_pass_ratio", passed / max(passed + failed, 1), "ratio",
              f"{passed} of {passed + failed} canaries")

    def pass_counts(self, fleet, target, trace):
        counts = super().pass_counts(fleet, target, trace)
        decisions = target.decision_counts()
        counts["loop.canary_passes"] = decisions.get("canary_pass", 0)
        counts["loop.canary_fails"] = decisions.get("canary_fail", 0)
        return counts


WORKLOADS = {cls.name: cls for cls in (GoldenNight, WideNight, RetrainLoop)}
