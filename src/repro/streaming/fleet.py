"""Sharded multi-star fleet serving: one vectorised model call per tick.

A GWAC night produces one new sample per star per exposure for ~10^5 stars.
Stepping one stream per star group would pay one model call per shard per
tick; the fleet manager instead stacks every shard's current window along
the batch axis and scores the whole fleet with **one** forward pass.
Window-wise graph learning makes this exact: each batch element (one
shard's window) is processed independently, so scores are identical to
stepping the shards one by one.

Shards share a single fitted :class:`repro.core.AeroDetector` — the model is
trained on one reference field and serves every shard, the standard
train-once / serve-many deployment shape.  Each shard keeps its own ring
buffer; all shards share the exposure timeline.

A single stream is a one-shard fleet: :meth:`repro.core.AeroDetector.stream`
returns ``FleetManager(detector, num_shards=1, ...)``, whose ``(1, N)``
ticks score bit for bit what ``detector.score`` scores on the same series
(Algorithm 2).
"""

from __future__ import annotations

import logging
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from ..obs.health import FleetHealth, latency_percentiles
from ..obs.metrics import get_registry
from ..obs.tracing import get_tracer
from .alerts import Alert, AlertPolicy
from .timeline import seed_stream_state
from .vector_pot import VectorizedIncrementalPOT, calibrate_adaptive_pot

if TYPE_CHECKING:  # pragma: no cover - import only for type checkers
    from ..core.detector import AeroDetector

__all__ = ["FleetManager", "FleetStepResult"]

logger = logging.getLogger("repro.streaming.fleet")

#: Recent step latencies retained for health() percentiles (always on; a
#: deque append per tick is noise next to the model forward).
_LATENCY_RING = 1024


def _check_dynamic_shards(num_shards: int) -> None:
    """Reject a dynamic-graph model on more than one shard."""
    if num_shards > 1:
        # The dynamic-graph ablation smooths adjacency state sequentially
        # across batch elements, so stacking unrelated shards on the batch
        # axis would chain state between shards and make scores depend on
        # shard order.  A single shard has no neighbour to chain into.
        raise ValueError(
            "FleetManager serves graph_mode='dynamic' detectors with num_shards=1 only"
        )


@dataclass
class FleetStepResult:
    """Fleet-wide outputs for one exposure tick."""

    step: int
    scores: np.ndarray                 # (num_shards, N); NaN during warm-up
    labels: np.ndarray                 # (num_shards, N) int64
    threshold: float                   # frozen global POT calibration (legacy scalar)
    thresholds: np.ndarray | None = None  # (num_shards, N) thresholds that labelled this tick
    alerts: list[Alert] = field(default_factory=list)
    ready: bool = True


class FleetManager:
    """Micro-batched scoring of many independent star groups ("shards").

    Parameters
    ----------
    detector:
        A fitted batch detector whose model serves every shard.
    num_shards:
        Number of star groups; total stars served is ``num_shards * N``.
        One shard is a single stream (:meth:`AeroDetector.stream`), the only
        geometry that serves ``graph_mode="dynamic"`` detectors: their
        smoothed adjacency would chain state between shards.
    seed_context:
        Seed every shard's buffer with the detector's training-tail context
        so scoring starts on the first tick (default).  Disable to model
        cold-started shards that warm up over the first ``W`` exposures.
    alert_policy:
        Optional :class:`AlertPolicy`; defaults to a debounce-2 / cooldown-30
        policy.  Pass ``None`` explicitly via ``alerts=False``-style usage is
        not supported — use a permissive policy instead.
    backend:
        ``"compiled"`` (or ``None``, the default), ``"incremental"`` or a
        pre-built :class:`repro.runtime.CompiledDetector`.
        On the compiled backend every tick is served through the fused
        multi-star ``score_stack`` path: the ``(num_shards, W, N)`` stack of
        ring-buffer windows is scored in one tape-free plan call.
        ``"incremental"`` compiles the detector and serves ticks through a
        cross-tick :class:`repro.runtime.IncrementalState`: each exposure
        appends one row per shard into the state's ring arenas and only the
        newest timestep's work is recomputed (scores stay bit-identical to
        the compiled backend in float64).  The state rebuilds transparently
        from the ring buffers whenever its history is discarded (fresh
        start, hot swap), and model shapes the incremental plan cannot
        serve exactly fall back to the full compiled forward per tick.
        A pre-built engine (e.g. one loaded from a checkpoint or compiled
        with ``dtype="float32"``) is served as given.
    threshold_mode:
        ``"global"`` (default) labels every star against the detector's one
        frozen POT scalar — the historical behaviour, correct only while
        every star's residual distribution matches the calibration mix.
        ``"per_star"`` maintains a :class:`VectorizedIncrementalPOT`: each
        star carries its own initial threshold, excess set and staggered
        GPD re-fit cadence (calibrated per variate of the reference field,
        tiled across shards), advanced by one array-native update per tick.
        Labels then use each star's own adaptive threshold (strict ``>``,
        the SPOT convention) and ``FleetStepResult.thresholds`` /
        ``Alert.threshold`` record the per-star values that fired.
    pot_refit_interval:
        Per-star GPD re-fit cadence of the adaptive thresholds (ignored in
        global mode).
    pot_max_excesses:
        Optional per-star excess-set bound (sliding calibration for
        multi-night streams; ignored in global mode).
    rearm_min_gap:
        Re-arm guard for stars rejoining after a run of missing
        observations.  A gap of at least this many consecutive missing ticks
        (a star dropping out of the field, not a one-exposure cloud blip)
        leaves the star's window dominated by imputed rows; on rejoin its
        scores stay masked (NaN — no labels, no POT updates, no alert
        streaks) for as many ticks as the gap lasted, capped at ``W - 1``,
        until real rows refill the window.  Set ``0`` to disable.
    threshold:
        Serving-side override of the frozen global threshold (global mode
        only).  The detector's default calibration comes from its *training*
        scores, which the model has partially memorized; production serving
        recalibrates on scores from a held-out quiet stretch (e.g.
        ``pot_threshold(detector.score(calibration), q)`` over a
        :class:`repro.simulation.Scenario`'s calibration split).
    registry, tracer:
        Telemetry sinks (see :mod:`repro.obs`); ``None`` captures the
        process defaults at construction, which are no-ops until
        :func:`repro.obs.enable_telemetry` runs.  Telemetry never perturbs
        scores, thresholds or alerts, and :meth:`health` works (from the
        always-on cheap internal accounting) either way.
    drift_monitor:
        Optional fitted :class:`repro.obs.DriftMonitor` covering exactly
        this fleet's stars (e.g. from
        :func:`repro.obs.calibrate_drift_monitor` over the calibration
        scores).  Each tick's masked score vector feeds one vectorised
        ``update``; stars that newly trip trigger the flight recorder (when
        attached).  The monitor only observes — scores, thresholds and
        alerts are bit-identical with or without it.
    recorder:
        Optional :class:`repro.obs.FlightRecorder`.  Every tick's raw rows
        and outputs are buffered in its bounded ring; drift trips (and the
        recorder's own alert-storm watchdog) freeze the ring into a
        replayable :class:`repro.obs.FlightRecord`.  Passive like the drift
        monitor.
    """

    def __init__(
        self,
        detector: "AeroDetector",
        num_shards: int,
        seed_context: bool = True,
        alert_policy: AlertPolicy | None = None,
        backend=None,
        threshold_mode: str = "global",
        pot_refit_interval: int = 32,
        pot_max_excesses: int | None = None,
        rearm_min_gap: int = 3,
        threshold: float | None = None,
        registry=None,
        tracer=None,
        drift_monitor=None,
        recorder=None,
    ):
        if num_shards <= 0:
            raise ValueError("num_shards must be positive")
        if threshold_mode not in ("global", "per_star"):
            raise ValueError(
                f"threshold_mode must be 'global' or 'per_star', got {threshold_mode!r}"
            )
        if threshold is not None and threshold_mode != "global":
            # Accepting the override while per-star labels come from the
            # adaptive POT would silently leave the user's calibration out of
            # force; restore per-star calibrations via load_threshold_state.
            raise ValueError("threshold overrides apply to threshold_mode='global' only")
        model = detector._require_fitted()
        self.detector = detector
        self.config = detector.config
        self.num_shards = num_shards
        self.num_variates = model.num_variates
        self._scaler = detector.scaler
        self.threshold = detector.threshold() if threshold is None else float(threshold)
        self.threshold_mode = threshold_mode
        self.adaptive_pot: VectorizedIncrementalPOT | None = None
        if threshold_mode == "per_star":
            self.adaptive_pot = calibrate_adaptive_pot(
                detector,
                num_stars=num_shards * model.num_variates,
                refit_interval=pot_refit_interval,
                max_excesses=pot_max_excesses,
            )
        if drift_monitor is not None and drift_monitor.num_stars != num_shards * model.num_variates:
            raise ValueError(
                f"drift monitor covers {drift_monitor.num_stars} stars, "
                f"fleet serves {num_shards * model.num_variates}"
            )
        self.drift_monitor = drift_monitor
        self.recorder = recorder
        if rearm_min_gap < 0:
            raise ValueError("rearm_min_gap must be non-negative")
        self.rearm_min_gap = rearm_min_gap
        self._gap_streak = np.zeros((num_shards, model.num_variates), dtype=np.int64)
        self._suppress = np.zeros((num_shards, model.num_variates), dtype=np.int64)
        self.alert_policy = alert_policy or AlertPolicy()
        # "incremental" rides on the compiled engine: resolve it as
        # "compiled" and layer the cross-tick state on top.
        self._incremental = backend == "incremental"
        if backend in (None, "compiled", "incremental"):
            self._engine = detector.compile()
        else:
            from ..runtime import CompiledDetector

            if not isinstance(backend, CompiledDetector):
                error = ValueError if isinstance(backend, str) else TypeError
                raise error(
                    "backend must be None, 'compiled', 'incremental' or a CompiledDetector, "
                    f"got {backend!r}"
                )
            if backend.num_variates != model.num_variates:
                raise ValueError(
                    f"compiled plan serves {backend.num_variates} variates, "
                    f"detector has {model.num_variates}"
                )
            self._engine = backend
        if self._engine.model.graph_mode == "dynamic":
            _check_dynamic_shards(num_shards)
            # A dynamic-graph model starts its smoothed-adjacency state fresh.
            self._engine.reset_dynamic_state()
        self._inc_state = None
        self._inc_retired = {"ticks": 0, "incremental_ticks": 0, "rebuilds": 0, "fallback_ticks": 0}
        self.backend = "incremental" if self._incremental else "compiled"

        window = self.config.window
        # Shards share one exposure timeline, stitched to the training tail
        # (or to row indices) under StreamTimeline's mode-locking rules.
        self._buffers, self._timeline = seed_stream_state(detector, num_shards, seed_context)
        self._step = 0
        # Reusable micro-batch staging arrays: one slot per shard, filled by
        # copying each shard's zero-copy window view in the ring buffers'
        # time-major layout; the ``(S, W, N)`` stack goes to the fused
        # ``score_stack`` plan call.
        self._batch_stack = np.empty((num_shards, window, self.num_variates))
        self._batch_times = np.empty((num_shards, window))

        # Always-on cheap accounting backing health() — one small array op
        # and a deque append per tick, independent of the telemetry switch.
        self.model_version: str | None = None
        self._missing_total = np.zeros(num_shards, dtype=np.int64)
        self._dropouts = 0
        self._rejoins = 0
        self._latencies: deque = deque(maxlen=_LATENCY_RING)
        self._tracer = get_tracer() if tracer is None else tracer
        self._registry = get_registry() if registry is None else registry
        self._telemetry = bool(self._registry.enabled)
        self._m_ticks = self._registry.counter(
            "fleet_ticks_total", "Exposure ticks ingested across all fleets"
        )
        self._m_step_seconds = self._registry.histogram(
            "fleet_step_seconds", "Wall-clock latency of one fleet tick"
        )
        self._m_missing = self._registry.counter_vector(
            "fleet_missing_observations_total",
            num_shards,
            "Missing (non-finite) observations per shard",
            label="shard",
        )
        self._m_masked = self._registry.counter_vector(
            "fleet_masked_scores_total",
            num_shards,
            "Scores masked per shard (missing observations plus re-arm guards)",
            label="shard",
        )
        self._m_gap_rate = self._registry.gauge_vector(
            "fleet_shard_gap_rate",
            num_shards,
            "Cumulative fraction of missing observations per shard",
            label="shard",
        )
        self._m_rearming = self._registry.gauge(
            "fleet_rearming_stars", "Stars whose scores are currently re-arm masked"
        )
        self._m_dropouts = self._registry.counter(
            "fleet_star_dropouts_total", "Stars that crossed the dropout gap"
        )
        self._m_rejoins = self._registry.counter(
            "fleet_star_rejoins_total", "Dropped-out stars that rejoined the stream"
        )
        self._m_swaps = self._registry.counter(
            "fleet_hot_swaps_total", "Serving models hot-swapped into running fleets"
        )
        self._m_inc_ticks = self._registry.counter(
            "fleet_incremental_ticks_total",
            "Fleet ticks served from live incremental state (cache hits)",
        )
        self._m_inc_rebuilds = self._registry.counter(
            "fleet_incremental_rebuilds_total",
            "Incremental states rebuilt from the shard ring buffers",
        )
        self._m_inc_fallbacks = self._registry.counter(
            "fleet_incremental_fallbacks_total",
            "Incremental ticks served by the full-forward fallback",
        )

    # ------------------------------------------------------------------
    @property
    def num_stars(self) -> int:
        """Total stars served by the fleet."""
        return self.num_shards * self.num_variates

    @property
    def steps_ingested(self) -> int:
        return self._step

    @property
    def threshold_refits(self) -> int:
        """Fleet-wide adaptive GPD re-fit count (0 in global mode)."""
        return 0 if self.adaptive_pot is None else self.adaptive_pot.total_refits

    @property
    def threshold_refit_failures(self) -> int:
        """Fleet-wide adaptive GPD re-fit *failures* (0 in global mode)."""
        return 0 if self.adaptive_pot is None else self.adaptive_pot.refit_failures

    # ------------------------------------------------------------------
    def threshold_state(self) -> dict | None:
        """The per-star threshold calibration as flat arrays, or ``None``.

        The dict round-trips through :meth:`load_threshold_state` (and
        through ``ModelRegistry.publish(..., calibration=...)`` /
        ``deploy``), so a freshly started or newly deployed fleet restores
        per-star thresholds without re-calibrating.
        """
        return None if self.adaptive_pot is None else self.adaptive_pot.state_dict()

    def load_threshold_state(self, state: dict) -> None:
        """Restore per-star thresholds captured by :meth:`threshold_state`.

        Switches the fleet to ``threshold_mode="per_star"`` if it was
        serving the global scalar.  The state must describe exactly this
        fleet's ``num_stars``.
        """
        pot = VectorizedIncrementalPOT.from_state_dict(state)
        if pot.num_stars != self.num_stars:
            raise ValueError(
                f"threshold state covers {pot.num_stars} stars, fleet serves {self.num_stars}"
            )
        self.adaptive_pot = pot
        self.threshold_mode = "per_star"

    # ------------------------------------------------------------------
    def drift_state(self) -> dict | None:
        """The drift monitor's reference sketch as flat arrays, or ``None``.

        The dict round-trips through :meth:`load_drift_state` (and through
        ``ModelRegistry.publish(..., drift_reference=...)`` / ``deploy``),
        so a newly deployed fleet monitors against the same calibration
        snapshot the published model was referenced to.
        """
        return None if self.drift_monitor is None else self.drift_monitor.state_dict()

    def load_drift_state(self, state: dict) -> None:
        """Attach a drift monitor rebuilt from :meth:`drift_state` output.

        The reference must describe exactly this fleet's ``num_stars``.
        Live sketches start fresh (they re-warm within the monitor's
        ``min_observations`` ticks); only the calibration-time reference is
        carried over — which is the point: drift is measured against the
        published model's calibration, not against whatever the previous
        process had lately seen.
        """
        from ..obs.drift import DriftMonitor

        monitor = DriftMonitor.from_state_dict(state)
        if monitor.num_stars != self.num_stars:
            raise ValueError(
                f"drift state covers {monitor.num_stars} stars, fleet serves {self.num_stars}"
            )
        self.drift_monitor = monitor

    # ------------------------------------------------------------------
    def swap_model(self, source, threshold: float | None = None) -> None:
        """Hot-swap the fleet's serving model without dropping buffered state.

        ``source`` is a fitted :class:`~repro.core.AeroDetector`, a
        :class:`~repro.runtime.CompiledDetector`, or a path to a saved
        detector artifact — e.g. a freshly retrained model published through
        a :class:`repro.training.ModelRegistry`.  The new model must serve
        the same variates and window geometry (dynamic-graph detectors only
        into a one-shard fleet, as at construction).  Every shard's ring
        buffer is re-expressed under the new model's scaler in place, so
        the next :meth:`step` serves the new model's scores with the full
        window history intact; the shared timeline and alert-policy state
        carry over unchanged.  In ``threshold_mode="per_star"`` the adaptive
        threshold state (excess sets, observation counts, re-fit cadence)
        also carries across the swap and keeps adapting.

        The frozen global ``threshold`` switches to the new model's
        train-score calibration — a construction-time serving-side override
        is deliberately *not* carried over, because it was calibrated
        against the old model's score scale.  Pass ``threshold=`` here with
        a value recalibrated on the new model's scores (e.g. over a held-out
        quiet stretch) to keep serving an override across the swap.
        """
        from ..runtime import CompiledDetector

        if isinstance(source, (str, Path)):
            from ..core.detector import AeroDetector

            source = AeroDetector.load(source)
        if isinstance(source, CompiledDetector):
            detector, engine = None, source
            new_threshold = source.threshold
        elif hasattr(source, "_require_fitted"):
            source._require_fitted()
            # Compiled at the serving engine's dtype, so the swap keeps the
            # serving precision.
            detector, engine = source, source.compile(dtype=self._engine.dtype)
            new_threshold = source.threshold()
        else:
            raise TypeError(
                "swap source must be a fitted AeroDetector, a CompiledDetector or a "
                f"checkpoint path, got {type(source).__name__}"
            )
        config = engine.config
        if engine.num_variates != self.num_variates:
            raise ValueError(
                f"cannot hot-swap: new model serves {engine.num_variates} variates, "
                f"fleet serves {self.num_variates}"
            )
        if config.window != self.config.window or config.short_window != self.config.short_window:
            raise ValueError(
                "cannot hot-swap: window geometry changed "
                f"(W={config.window}, omega={config.short_window} vs "
                f"serving W={self.config.window}, omega={self.config.short_window}); "
                "start a fresh fleet for the new geometry"
            )
        if engine.model.graph_mode == "dynamic":
            _check_dynamic_shards(self.num_shards)
            # A dynamic-graph model starts its smoothed-adjacency state fresh,
            # exactly as a newly constructed fleet would.
            engine.reset_dynamic_state()
        # Buffered rows are normalised by the serving scaler; re-express them
        # under the new one so the next tick scores the new model over the
        # full window history, with no warm-up and nothing dropped.
        for buffer in self._buffers:
            rows = buffer.view()
            if len(rows):
                rows[:] = engine.scaler.transform(self._scaler.inverse_transform(rows))

        self.detector = detector
        self.config = config
        self._scaler = engine.scaler
        self._engine = engine
        if self._incremental:
            # The old state's cached history was built under the old model
            # and scaler, so it is discarded (its accounting folds into the
            # running totals) and rebuilt on the next tick.
            self._retire_inc_state()
        self.threshold = new_threshold if threshold is None else float(threshold)
        # A raw-source swap leaves the registry-version label unknown;
        # ModelRegistry.deploy re-stamps it after calling us.
        self.model_version = None
        self._m_swaps.inc()
        logger.warning(
            "hot_swap step=%d backend=%s threshold=%.6g", self._step, self.backend, self.threshold
        )

    # ------------------------------------------------------------------
    def health(self) -> FleetHealth:
        """Live serving-state snapshot (works with telemetry off).

        Aggregates the fleet's always-on internal accounting — steps, gap
        rates, dropout/rejoin counts, re-arm masks in force, adaptive POT
        re-fit counts, alert totals and recent step-latency percentiles —
        into a :class:`repro.obs.FleetHealth`.
        """
        observed = self._step * self.num_variates
        gap_rates = (
            (self._missing_total / observed) if observed else np.zeros(self.num_shards)
        )
        missing_rate = float(self._missing_total.sum()) / (observed * self.num_shards) if observed else 0.0
        p50, p99 = latency_percentiles(self._latencies)
        return FleetHealth(
            steps_ingested=self._step,
            num_shards=self.num_shards,
            num_stars=self.num_stars,
            backend=self.backend,
            threshold_mode=self.threshold_mode,
            model_version=self.model_version,
            warmed_up=bool(self._buffers[0].is_full),
            alerts_fired=self.alert_policy.alerts_fired,
            threshold_refits=self.threshold_refits,
            rearm_suppressed_stars=int(np.count_nonzero(self._suppress > 0)),
            dropouts=self._dropouts,
            rejoins=self._rejoins,
            missing_rate=missing_rate,
            shard_gap_rates=[float(rate) for rate in gap_rates],
            p50_step_ms=p50,
            p99_step_ms=p99,
            drift_tripped_stars=(
                0 if self.drift_monitor is None else self.drift_monitor.tripped_stars
            ),
        )

    # ------------------------------------------------------------------
    def step(self, rows: np.ndarray, timestamp: float | None = None) -> FleetStepResult:
        """Ingest one exposure: ``rows`` has shape ``(num_shards, N)``.

        All shards advance by one sample and the whole fleet is scored with a
        single vectorised model call of batch size ``num_shards``.

        Non-finite entries in ``rows`` mark *missing observations* (cloud
        gaps, dropped stars, dead pixels).  A missing star's ring-buffer slot
        is imputed with its last buffered value — one NaN must not poison the
        next ``W`` windows — but the star's emitted score is NaN for this
        tick: it is excluded from labelling, from the adaptive POT update and
        from alert streaks (which :class:`AlertPolicy` neither advances nor
        resets on NaN).
        """
        started = time.perf_counter()
        with self._tracer.span("fleet.step"):
            result = self._step_inner(rows, timestamp)
        elapsed = time.perf_counter() - started
        self._latencies.append(elapsed)
        self._m_ticks.inc()
        self._m_step_seconds.observe(elapsed)
        # Model-quality observability rides after the scoring path: the
        # recorder buffers the frame first so a drift trip's dump includes
        # the tick that tripped it.  Both only read `result` — attaching
        # them leaves scores, thresholds and alerts bit-identical.
        if self.recorder is not None:
            self.recorder.record(rows, timestamp, result)
        if self.drift_monitor is not None:
            with self._tracer.span("fleet.drift"):
                newly_tripped = self.drift_monitor.update(result.scores)
            if newly_tripped and self.recorder is not None:
                self.recorder.trigger("drift_trip")
        return result

    def _step_inner(self, rows: np.ndarray, timestamp: float | None) -> FleetStepResult:
        rows = np.asarray(rows, dtype=np.float64)
        if rows.shape != (self.num_shards, self.num_variates):
            raise ValueError(
                f"rows must have shape ({self.num_shards}, {self.num_variates}), got {rows.shape}"
            )
        with self._tracer.span("fleet.ingest"):
            # Resolved first: a rejected timestamp must leave the fleet untouched.
            times = self._timeline.resolve(1, None if timestamp is None else [timestamp])
            missing = ~np.isfinite(rows)
            any_missing = bool(missing.any())
            masked = missing
            if self.rearm_min_gap:
                # Re-arm guard: a star rejoining after a real dropout keeps its
                # scores masked while its window is still dominated by imputed
                # rows, instead of paging the operator with a rejoin transient.
                rejoined = ~missing & (self._gap_streak >= self.rearm_min_gap)
                if rejoined.any():
                    # A fresh dropout during an active re-arm must not *shorten*
                    # the remaining suppression — the window may still be
                    # dominated by the earlier gap's imputed rows.
                    self._suppress[rejoined] = np.maximum(
                        self._suppress[rejoined],
                        np.minimum(self._gap_streak[rejoined], self.config.window - 1),
                    )
                    num_rejoined = int(np.count_nonzero(rejoined))
                    self._rejoins += num_rejoined
                    self._m_rejoins.inc(num_rejoined)
                    logger.warning(
                        "star_rejoin step=%d stars=%d", self._step, num_rejoined
                    )
                self._gap_streak[missing] += 1
                self._gap_streak[~missing] = 0
                if any_missing:
                    dropped = int(
                        np.count_nonzero(missing & (self._gap_streak == self.rearm_min_gap))
                    )
                    if dropped:
                        self._dropouts += dropped
                        self._m_dropouts.inc(dropped)
                        logger.warning(
                            "star_dropout step=%d stars=%d min_gap=%d",
                            self._step, dropped, self.rearm_min_gap,
                        )
                suppressed = ~missing & (self._suppress > 0)
                if suppressed.any():
                    self._suppress[suppressed] -= 1
                    masked = missing | suppressed
            any_masked = bool(masked.any())
            if any_missing:
                self._missing_total += missing.sum(axis=1)
            scaled = self._scaler.transform(rows)
            self._timeline.append(times[0])

            window = self.config.window
            if any_missing:
                # A missing star carries its last buffered (scaled) value
                # forward, or the scaled-space origin in a cold buffer; only
                # its score is masked, the model input stays finite.
                for shard in np.flatnonzero(missing.any(axis=1)):
                    buffer = self._buffers[shard]
                    gaps = missing[shard]
                    scaled[shard, gaps] = buffer.view(1)[0][gaps] if len(buffer) else 0.0
            for shard, buffer in enumerate(self._buffers):
                buffer.append(scaled[shard])
            step_index = self._step
            self._step += 1
            if self._telemetry:
                self._record_tick_metrics(missing, masked, any_missing, any_masked)

        if not self._buffers[0].is_full:
            scores = np.full((self.num_shards, self.num_variates), np.nan)  # repro: allow[hot-alloc] -- warm-up ticks only (buffer not yet full); results outlive the tick
            labels = np.zeros((self.num_shards, self.num_variates), dtype=np.int64)  # repro: allow[hot-alloc] -- warm-up ticks only, same as above
            return FleetStepResult(
                step=step_index, scores=scores, labels=labels,
                threshold=self.threshold, thresholds=self._current_thresholds(),
                ready=False,
            )

        with self._tracer.span("fleet.forward"):
            if self._incremental:
                scores = self._incremental_forward(scaled, float(times[0]))
            else:
                self._batch_times[:] = self._timeline.view(window)[None, :]
                for shard, buffer in enumerate(self._buffers):
                    self._batch_stack[shard] = buffer.view(window)
                scores = self._engine.score_stack(self._batch_stack, self._batch_times)
        if any_masked:
            # An imputed window still yields a finite model output, but a
            # star that was not observed this tick — or is re-arming after a
            # dropout — has no trustworthy score: emit NaN so labels, POT
            # state and alert streaks all treat it as a gap.
            scores = scores.copy() if not scores.flags.writeable else scores  # repro: allow[hot-alloc] -- copy-on-write for masked ticks only; unmasked steady state takes the no-copy branch
            scores[masked] = np.nan
        with self._tracer.span("fleet.thresholds"):
            if self.adaptive_pot is not None:
                # The SPOT decision uses the thresholds as they stood *before*
                # this observation — snapshot them so results and alerts record
                # the values that actually fired, then advance the whole fleet
                # with one array-native update.
                thresholds = self._current_thresholds()
                labels = self.adaptive_pot.update(scores.ravel()).reshape(scores.shape)
            else:
                thresholds = self._current_thresholds()
                labels = (scores >= self.threshold).astype(np.int64)  # repro: allow[hot-alloc] -- the emitted label array must outlive the tick
        with self._tracer.span("fleet.alerts"):
            if self.adaptive_pot is not None:
                alerts = self.alert_policy.update(
                    step_index, scores, thresholds.ravel(), shard_width=self.num_variates
                )
            else:
                alerts = self.alert_policy.update(
                    step_index, scores, self.threshold, shard_width=self.num_variates
                )
        return FleetStepResult(
            step=step_index, scores=scores, labels=labels,
            threshold=self.threshold, thresholds=thresholds, alerts=alerts,
        )

    def _incremental_forward(self, scaled: np.ndarray, timestamp: float) -> np.ndarray:
        """Serve one tick from the cross-tick incremental state.

        The state ingests the same imputed, scaled rows the ring buffers
        just did, so the two stay in lockstep and each tick costs only the
        newest timestep's compute.  Whenever the state has no trustworthy
        history — fresh fleet, hot swap — it rebuilds from the ring buffers
        in place and serves the same tick from the rebuilt window.
        """
        state = self._inc_state
        window = self.config.window
        if state is not None and state.valid:
            scores = self._engine.score_stack_step(state, scaled, timestamp)
            if state.supported:
                self._m_inc_ticks.inc()
        else:
            if state is None:
                state = self._engine.new_incremental_state(self.num_shards)
                self._inc_state = state
            for shard, buffer in enumerate(self._buffers):
                self._batch_stack[shard] = buffer.view(window)
            state.rebuild(self._batch_stack, self._timeline.view(window))
            scores = state.score()
            self._m_inc_rebuilds.inc()
        if not state.supported:
            self._m_inc_fallbacks.inc()
        return scores

    def _retire_inc_state(self) -> None:
        """Fold the current state's accounting into the running totals."""
        state = self._inc_state
        if state is not None:
            self._inc_retired["ticks"] += state.ticks
            self._inc_retired["incremental_ticks"] += state.incremental_ticks
            self._inc_retired["rebuilds"] += state.rebuilds
            self._inc_retired["fallback_ticks"] += state.fallbacks
        self._inc_state = None

    def incremental_stats(self) -> dict | None:
        """Cross-tick cache accounting, or ``None`` off the incremental backend.

        Cumulative across the fleet's lifetime (hot swaps retire the live
        state but keep its counts).  ``incremental_ticks`` counts cache
        hits (only the newest timestep recomputed), ``rebuilds`` counts
        ring-buffer state rebuilds, and ``fallback_ticks`` counts ticks
        served by the full compiled forward because the model shape has no
        exact incremental plan.
        """
        if not self._incremental:
            return None
        stats = dict(self._inc_retired)
        state = self._inc_state
        if state is not None:
            stats["ticks"] += state.ticks
            stats["incremental_ticks"] += state.incremental_ticks
            stats["rebuilds"] += state.rebuilds
            stats["fallback_ticks"] += state.fallbacks
        return stats

    def _record_tick_metrics(self, missing, masked, any_missing: bool, any_masked: bool) -> None:
        """Per-tick metric updates (telemetry on only): O(1) array ops."""
        if any_missing:
            self._m_missing.add(missing.sum(axis=1))
        if any_masked:
            self._m_masked.add(masked.sum(axis=1))
        self._m_gap_rate.set(self._missing_total / (self._step * self.num_variates))
        if self.rearm_min_gap:
            self._m_rearming.set(int(np.count_nonzero(self._suppress > 0)))

    def _current_thresholds(self) -> np.ndarray:
        """The per-star thresholds in force right now, as ``(num_shards, N)``."""
        if self.adaptive_pot is not None:
            return self.adaptive_pot.thresholds.reshape(
                self.num_shards, self.num_variates
            ).copy()
        return np.full((self.num_shards, self.num_variates), self.threshold)

    def run(self, exposures: np.ndarray, timestamps: np.ndarray | None = None) -> list[FleetStepResult]:
        """Step through ``(T, num_shards, N)`` exposures and collect the results."""
        exposures = np.asarray(exposures, dtype=np.float64)
        if exposures.ndim != 3:
            raise ValueError("exposures must be 3-D (time, shards, variates)")
        results = []
        for tick, rows in enumerate(exposures):
            timestamp = None if timestamps is None else float(timestamps[tick])
            results.append(self.step(rows, timestamp))
        return results
