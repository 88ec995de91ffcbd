"""Closed-loop continual learning: drift trips → retrain → canary → promote.

The integration layer over everything the previous subsystems built.  A
:class:`ContinualLearningController` wraps a serving
:class:`~repro.streaming.FleetManager` and closes the MLOps loop that the
paper's unattended survey deployment needs:

1. **watch** — every tick it reads the fleet's
   :class:`~repro.obs.DriftMonitor` (per-star PSI/KS trips against the
   live model's calibration snapshot) and, when attached, an
   :class:`~repro.obs.SLOMonitor`'s error-budget burn;
2. **trigger** — enough tripped stars (or a newly burning SLO) outside the
   cooldown starts a retrain cycle on the recorded traffic ring;
3. **retrain** — a budgeted synchronous fine-tune through
   :class:`~repro.training.FleetTrainer` (serial executor, one task),
   warm-started from the live registry artifact, on the recent traffic of
   the worst-drifting shard; the trailing ``calibration_ticks`` are held
   back and the candidate's threshold is re-fit on them with the paper's
   POT estimator (batch scores, :func:`held_back_scores`, on lanes);
4. **canary** — the recorded ring is replayed through the live model and
   the candidate in shadow (:func:`~repro.training.canary.evaluate_canary`,
   one batched :meth:`~repro.streaming.FleetManager.run` per model, scored
   on lanes) and promotion is gated on explicit budgets: event-level recall no worse
   than live minus epsilon (synthetic probes when the traffic carries no
   ground truth), quiet-star false alerts within budget, and the
   candidate's shadow-score PSI against its own calibration within budget;
5. **promote** — only a passing candidate is published to the
   :class:`~repro.training.ModelRegistry` (with a fresh drift-reference
   sidecar fitted on its calibration scores under the live monitor's
   policy, and its threshold in the version metadata) and ``deploy``ed
   into the live fleet with the threshold carried across the swap;
6. **watch window** — for ``watch_ticks`` after a promotion, any new drift
   trip or newly burning SLO rolls the fleet back to the previous version
   (model, threshold and drift reference all restored from the registry).

Every decision — trigger, retrain, canary pass/fail, promote, rollback,
watch-clear — is recorded as a structured :class:`LoopEvent`, logged on
``repro.training.loop`` and counted on the metrics registry
(``continual_*_total``).  The whole loop is deterministic under its seed:
retrain seeds derive from ``seed + cycle``, canary probes from the same,
and the SLO feed uses data-driven windows only (tick latency is accounted
as in-budget), so two runs over the same scenario produce bit-identical
decisions, thresholds and traces.

The controller exposes ``step(rows, timestamp)`` with the fleet's own
contract, so anything that drives a fleet — including
:class:`~repro.simulation.ReplayHarness` — can drive the closed loop
unchanged.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..evaluation import pot_threshold
from ..obs.drift import calibrate_drift_monitor
from ..obs.metrics import get_registry
from .canary import CanaryBudget, ShadowTraffic, evaluate_canary
from .fleet import FleetTrainer, StarTask

__all__ = ["LoopEvent", "ContinualLearningController"]

logger = logging.getLogger("repro.training.loop")


@dataclass(frozen=True)
class LoopEvent:
    """One structured decision record of the continual-learning loop."""

    step: int          # fleet step at which the decision was taken
    kind: str          # baseline | trigger | retrain | retrain_failed |
    #                    canary_pass | canary_fail | promote | rollback | watch_clear
    detail: dict = field(default_factory=dict)

    def format(self) -> str:
        parts = " ".join(f"{key}={self.detail[key]}" for key in sorted(self.detail))
        return f"[step {self.step}] {self.kind} {parts}".rstrip()


def held_back_scores(detector, series, timestamps, held_back: int) -> np.ndarray:
    """``detector``'s scores of the last ``held_back`` rows of ``series``.

    Equal to scoring the whole history and keeping its tail: only the
    ``W - 1`` rows before the tail are scored along with it, so every kept
    window sees the rows (and timestamps) a full-history pass would give it.
    """
    length = series.shape[0]
    start = max(length - held_back - (detector.config.window - 1), 0)
    times = None if timestamps is None else timestamps[start:]
    return detector.score(series[start:], times)[length - held_back - start:]


class ContinualLearningController:
    """Drift-triggered retrain → shadow canary → gated promote → rollback.

    Parameters
    ----------
    fleet:
        The live serving :class:`~repro.streaming.FleetManager`.  Must run
        ``threshold_mode="global"`` and carry a *fitted*
        :class:`~repro.obs.DriftMonitor` — drift trips are the loop's
        primary trigger, and the candidate's drift sidecar is calibrated
        under the same policy.
    registry:
        The :class:`~repro.training.ModelRegistry` versions are published
        to and deployed from.  When the model name has no published
        versions yet, the fleet's current detector is published as the
        baseline (with its serving threshold and drift reference), so warm
        starts and rollbacks always have a registry identity to resolve.
    model_name:
        Registry name the loop publishes under.
    workdir:
        Scratch directory for retrain checkpoints (one subdirectory per
        cycle).
    retrain_config:
        :class:`~repro.core.AeroConfig` for the fine-tune; defaults to the
        live detector's own config.
    budget:
        :class:`~repro.training.canary.CanaryBudget` promotion gates.
    slo:
        Optional :class:`~repro.obs.SLOMonitor`.  The controller feeds it
        deterministically — every tick accounted as latency-in-budget, the
        alert-rate and refit windows fed from the tick's actual results —
        so a burning data SLO can trigger retrains (and roll back a fresh
        promotion) without wall-clock reads entering the decision loop.
    history_ticks / min_history_ticks:
        Size of the recorded raw-traffic ring, and how much of it a
        retrain needs before it will run (triggers arriving earlier are
        recorded as deferred).
    calibration_ticks:
        Trailing ticks of the ring held back from the fine-tune; the
        candidate's POT threshold and drift reference are fitted on its
        scores over them.
    min_tripped_stars:
        Drift trips needed to trigger a cycle.
    cooldown_ticks:
        Quiet period after any concluded cycle (pass or fail) before the
        next trigger is honoured.
    watch_ticks:
        Post-promotion watch window; drift re-trips or newly burning SLOs
        inside it roll back to the previous version.
    pot_q:
        Tail probability for the candidate's POT threshold re-fit.
    seed:
        Master seed: cycle ``c`` retrains with ``seed + c`` and draws its
        canary probes from the same stream.
    canary_backend:
        Serving backend of the canary's shadow fleets (see
        :class:`~repro.streaming.FleetManager`); ``None`` serves each model's
        cached compiled plans.
    """

    def __init__(
        self,
        fleet,
        registry,
        model_name: str,
        workdir: str | Path,
        *,
        retrain_config=None,
        budget: CanaryBudget | None = None,
        slo=None,
        history_ticks: int = 256,
        min_history_ticks: int = 96,
        calibration_ticks: int = 48,
        min_tripped_stars: int = 1,
        cooldown_ticks: int = 64,
        watch_ticks: int = 64,
        pot_q: float = 5e-3,
        seed: int = 0,
        canary_backend=None,
        metrics=None,
    ):
        if fleet.drift_monitor is None:
            raise ValueError(
                "the controller needs a fleet with a fitted DriftMonitor attached — "
                "drift trips are its primary retrain trigger"
            )
        if getattr(fleet, "threshold_mode", "global") != "global":
            raise ValueError(
                "the continual loop serves global-threshold fleets; per-star "
                "adaptive fleets re-calibrate continuously and do not need it"
            )
        if history_ticks < 1 or min_history_ticks < 1:
            raise ValueError("history_ticks and min_history_ticks must be positive")
        if min_history_ticks > history_ticks:
            raise ValueError("min_history_ticks cannot exceed history_ticks")
        if calibration_ticks < 32:
            raise ValueError(
                "calibration_ticks must be at least 32: the drift reference needs "
                "enough held-back scores per star to fit its sketch"
            )
        if watch_ticks < 1 or cooldown_ticks < 0:
            raise ValueError("watch_ticks must be positive, cooldown_ticks non-negative")
        self.fleet = fleet
        self.registry = registry
        self.model_name = str(model_name)
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.retrain_config = (
            fleet.detector.config if retrain_config is None else retrain_config
        )
        self.budget = budget or CanaryBudget()
        self.slo = slo
        self.history_ticks = int(history_ticks)
        self.min_history_ticks = int(min_history_ticks)
        self.calibration_ticks = int(calibration_ticks)
        self.min_tripped_stars = int(min_tripped_stars)
        self.cooldown_ticks = int(cooldown_ticks)
        self.watch_ticks = int(watch_ticks)
        self.pot_q = float(pot_q)
        self.seed = int(seed)
        self.canary_backend = canary_backend

        metrics = get_registry() if metrics is None else metrics
        self._m_triggers = metrics.counter(
            "continual_triggers_total", "Retrain cycles triggered by the continual loop"
        )
        self._m_canary_pass = metrics.counter(
            "continual_canary_pass_total", "Candidates that cleared every canary gate"
        )
        self._m_canary_fail = metrics.counter(
            "continual_canary_fail_total", "Candidates rejected by a canary gate"
        )
        self._m_promotions = metrics.counter(
            "continual_promotions_total", "Candidate versions promoted into the live fleet"
        )
        self._m_rollbacks = metrics.counter(
            "continual_rollbacks_total", "Watch-window rollbacks to the previous version"
        )

        self.events: list[LoopEvent] = []
        self._rows: deque = deque(maxlen=self.history_ticks)
        self._times: deque = deque(maxlen=self.history_ticks)
        self._cycle = 0
        self._cooldown_until = -1
        self._watch_until: int | None = None
        self._watch_baseline_trips = 0
        self._watch_baseline_burning: frozenset = frozenset()
        self._rollback_version: int | None = None
        self._rollback_threshold: float | None = None
        self._live_version = self._ensure_baseline()

    # ------------------------------------------------------------------
    # serving surface
    # ------------------------------------------------------------------
    def step(self, rows: np.ndarray, timestamp: float | None = None):
        """Serve one tick through the live fleet and run the loop's watch.

        Same contract as :meth:`~repro.streaming.FleetManager.step`
        (returns the fleet's ``FleetStepResult``), so replay harnesses and
        ingest runtimes drive the closed loop exactly like a bare fleet.
        """
        result = self.fleet.step(rows, timestamp)
        self._rows.append(np.array(rows, dtype=np.float64, copy=True))
        self._times.append(np.nan if timestamp is None else float(timestamp))
        if self.slo is not None:
            # Deterministic SLO feed: decisions must not depend on wall
            # clock, so every tick is accounted inside the latency budget
            # and only the data-driven windows (alert rate, refit
            # outcomes) can burn.
            self.slo.observe_tick(
                0.0,
                result,
                refits=self.fleet.threshold_refits,
                refit_failures=self.fleet.threshold_refit_failures,
            )
        self._observe(int(result.step))
        return result

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def live_version(self) -> int:
        """The registry version currently serving in the fleet."""
        return self._live_version

    @property
    def cycles(self) -> int:
        """Retrain cycles started so far."""
        return self._cycle

    @property
    def watching(self) -> bool:
        """Whether a fresh promotion is inside its rollback watch window."""
        return self._watch_until is not None

    def decision_counts(self) -> dict:
        """Event-kind histogram of every decision taken so far."""
        counts: dict[str, int] = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts

    # ------------------------------------------------------------------
    # the loop
    # ------------------------------------------------------------------
    def _observe(self, step: int) -> None:
        if self._watch_until is not None:
            self._watch(step)
            return
        if step < self._cooldown_until:
            return
        tripped = int(self.fleet.drift_monitor.tripped_stars)
        burning = sorted(self.slo.burning()) if self.slo is not None else []
        if tripped < self.min_tripped_stars and not burning:
            return
        if len(self._rows) < self.min_history_ticks:
            self._m_triggers.inc()
            self._record(
                step, "trigger",
                action="deferred", tripped_stars=tripped, slo_burning=burning,
                history_ticks=len(self._rows),
            )
            logger.warning(
                "[loop] trigger deferred at step=%d: %d/%d history ticks recorded",
                step, len(self._rows), self.min_history_ticks,
            )
            self._cooldown_until = step + (self.min_history_ticks - len(self._rows))
            return
        self._run_cycle(step, tripped, burning)

    def _run_cycle(self, step: int, tripped: int, burning: list) -> None:
        self._cycle += 1
        cycle = self._cycle
        self._m_triggers.inc()
        self._record(
            step, "trigger",
            action="retrain", cycle=cycle, tripped_stars=tripped, slo_burning=burning,
        )
        logger.warning(
            "[loop] trigger step=%d cycle=%d tripped_stars=%d slo_burning=%s",
            step, cycle, tripped, burning,
        )
        rows = np.stack(self._rows)                       # (H, S, N)
        times = np.asarray(self._times, dtype=np.float64)
        outcome = self._train_candidate(step, cycle, rows, times)
        if outcome is None:
            self._cooldown_until = step + self.cooldown_ticks
            return
        candidate, threshold, calibration_scores = outcome
        traffic = ShadowTraffic(rows=rows, timestamps=times)
        report = evaluate_canary(
            self.fleet.detector,
            candidate,
            traffic,
            live_threshold=float(self.fleet.threshold),
            candidate_threshold=threshold,
            candidate_calibration=calibration_scores,
            budget=self.budget,
            seed=self.seed + cycle,
            alert_policy=self.fleet.alert_policy,
            backend=self.canary_backend,
        )
        if not report.passed:
            self._m_canary_fail.inc()
            self._record(step, "canary_fail", cycle=cycle, **report.summary())
            logger.warning("[loop] step=%d cycle=%d %s", step, cycle, report.format())
            self._cooldown_until = step + self.cooldown_ticks
            return
        self._m_canary_pass.inc()
        self._record(step, "canary_pass", cycle=cycle, **report.summary())
        logger.warning("[loop] step=%d cycle=%d %s", step, cycle, report.format())
        self._promote(step, cycle, candidate, threshold, calibration_scores)

    def _train_candidate(self, step: int, cycle: int, rows: np.ndarray, times: np.ndarray):
        """Fine-tune a candidate on recorded traffic; ``None`` on failure.

        Returns ``(candidate_detector, candidate_threshold,
        calibration_scores)``.  Overridable seam: tests monkeypatch this to
        produce deliberately broken candidates and prove the canary
        rejects them.
        """
        from ..core.detector import AeroDetector

        shard = self._pick_shard()
        per_shard = [
            self._impute(rows[:, s, :]) for s in range(self.fleet.num_shards)
        ]
        series = per_shard[shard]
        length = series.shape[0]
        held_back = min(self.calibration_ticks, length // 2)
        timestamps = times if np.isfinite(times).all() else None
        train_series = series[: length - held_back]
        train_times = None if timestamps is None else timestamps[: length - held_back]
        seed = self.seed + cycle
        warm_start = self.registry.get(self.model_name, self._live_version).artifact_path
        trainer = FleetTrainer(
            self.retrain_config,
            self.workdir / f"cycle-{cycle:03d}",
            workers=1,
            executor="serial",
        )
        task = StarTask(
            star_id=f"{self.model_name}-cycle{cycle:03d}",
            series=train_series,
            timestamps=train_times,
            seed=seed,
            warm_start=warm_start,
        )
        result = trainer.train([task]).results[0]
        if not result.ok:
            self._record(step, "retrain_failed", cycle=cycle, error=str(result.error))
            logger.warning(
                "[loop] retrain failed step=%d cycle=%d: %s", step, cycle, result.error
            )
            return None
        candidate = AeroDetector.load(result.checkpoint_path)
        # The candidate was fine-tuned on the worst shard but serves every
        # shard, so its threshold and drift reference are calibrated on the
        # trailing ticks of *all* recorded traffic, assembled per star,
        # ``(Tc, S*N)``.
        calibration_scores = np.hstack(
            [held_back_scores(candidate, block, timestamps, held_back) for block in per_shard]
        )
        finite = calibration_scores[np.isfinite(calibration_scores)]
        if finite.size == 0:
            self._record(step, "retrain_failed", cycle=cycle, error="no finite calibration scores")
            logger.warning("[loop] retrain produced no finite calibration scores (cycle %d)", cycle)
            return None
        threshold = float(pot_threshold(finite, q=self.pot_q))
        self._record(
            step, "retrain",
            cycle=cycle, shard=shard, seed=seed,
            train_ticks=int(train_series.shape[0]),
            calibration_ticks=int(held_back),
            threshold=threshold,
            duration_seconds=round(result.duration_seconds, 3),
        )
        return candidate, threshold, calibration_scores

    def _pick_shard(self) -> int:
        """The shard to retrain on: most tripped stars, then highest PSI."""
        monitor = self.fleet.drift_monitor
        shards = self.fleet.num_shards
        variates = self.fleet.num_variates
        tripped = monitor.tripped.reshape(shards, variates).sum(axis=1)
        if tripped.max() > 0:
            return int(tripped.argmax())
        psi, _ks = monitor.divergence()
        psi = np.where(np.isfinite(psi), psi, 0.0)     # unmeasured stars carry no vote
        per_shard = psi.reshape(shards, variates).sum(axis=1)
        return int(per_shard.argmax())

    def _promote(self, step, cycle, candidate, threshold, calibration_scores) -> None:
        # A fresh drift reference fitted on the candidate's own calibration
        # scores under the live monitor's policy: after the deploy the
        # fleet watches the new model against its own snapshot.
        monitor = calibrate_drift_monitor(
            calibration_scores,
            num_stars=self.fleet.num_stars,
            **self.fleet.drift_monitor.settings(),
        )
        previous_version = self._live_version
        previous_threshold = float(self.fleet.threshold)
        published = self.registry.publish(
            self.model_name,
            candidate,
            metadata={
                "threshold": threshold,
                "cycle": cycle,
                "trigger_step": step,
                "seed": self.seed + cycle,
                "parent_version": previous_version,
                "source": "continual-loop",
            },
            drift_reference=monitor,
        )
        self.registry.deploy(
            self.model_name, self.fleet, version=published.version, threshold=threshold
        )
        self._live_version = published.version
        self._m_promotions.inc()
        self._record(
            step, "promote",
            cycle=cycle, version=published.version, threshold=threshold,
            previous_version=previous_version,
        )
        logger.warning(
            "[loop] promoted %s at step=%d threshold=%.6g (watch %d ticks)",
            published.label, step, threshold, self.watch_ticks,
        )
        self._watch_until = step + self.watch_ticks
        self._watch_baseline_trips = int(self.fleet.drift_monitor.trips_total)
        self._watch_baseline_burning = (
            frozenset(self.slo.burning()) if self.slo is not None else frozenset()
        )
        self._rollback_version = previous_version
        self._rollback_threshold = previous_threshold

    def _watch(self, step: int) -> None:
        retripped = (
            int(self.fleet.drift_monitor.trips_total) > self._watch_baseline_trips
        )
        burning = (
            sorted(set(self.slo.burning()) - self._watch_baseline_burning)
            if self.slo is not None
            else []
        )
        if retripped or burning:
            self._rollback(step, retripped, burning)
            return
        if step >= self._watch_until:
            self._record(step, "watch_clear", version=self._live_version)
            logger.warning(
                "[loop] watch window clear at step=%d: v%04d stays live",
                step, self._live_version,
            )
            self._end_watch(step)

    def _rollback(self, step: int, retripped: bool, burning: list) -> None:
        version = self._rollback_version
        self.registry.deploy(
            self.model_name, self.fleet,
            version=version, threshold=self._rollback_threshold,
        )
        rolled_back = self._live_version
        self._live_version = version
        self._m_rollbacks.inc()
        self._record(
            step, "rollback",
            version=version, rolled_back_version=rolled_back,
            drift_retripped=retripped, slo_burning=burning,
        )
        logger.warning(
            "[loop] rolled back v%04d -> v%04d at step=%d (drift_retripped=%s slo=%s)",
            rolled_back, version, step, retripped, burning,
        )
        self._end_watch(step)

    def _end_watch(self, step: int) -> None:
        self._watch_until = None
        self._watch_baseline_trips = 0
        self._watch_baseline_burning = frozenset()
        self._rollback_version = None
        self._rollback_threshold = None
        self._cooldown_until = step + self.cooldown_ticks

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _ensure_baseline(self) -> int:
        versions = self.registry.versions(self.model_name)
        if versions:
            return versions[-1]
        published = self.registry.publish(
            self.model_name,
            self.fleet.detector,
            metadata={"threshold": float(self.fleet.threshold), "source": "continual-loop-baseline"},
            calibration=self.fleet.threshold_state(),
            drift_reference=self.fleet.drift_state(),
        )
        if hasattr(self.fleet, "model_version"):
            self.fleet.model_version = published.label
        self._record(0, "baseline", version=published.version)
        logger.info("[loop] published baseline %s", published.label)
        return published.version

    def _record(self, step: int, kind: str, **detail) -> None:
        self.events.append(LoopEvent(step=int(step), kind=kind, detail=detail))

    @staticmethod
    def _impute(series: np.ndarray) -> np.ndarray:
        """Deterministic forward-fill (then backfill) of missing photometry.

        The fine-tune and calibration splits need dense rows; gaps inherit
        the last seen magnitude, leading gaps the first one.  Columns with
        no finite samples at all fall back to zero.
        """
        filled = np.array(series, dtype=np.float64, copy=True)
        for column in range(filled.shape[1]):
            col = filled[:, column]
            finite = np.isfinite(col)
            if not finite.any():
                filled[:, column] = 0.0
                continue
            index = np.where(finite, np.arange(col.size), 0)
            np.maximum.accumulate(index, out=index)
            col = col[index]
            first = int(np.argmax(finite))
            col[:first] = col[first]
            filled[:, column] = col
        return filled
