"""Minimal ingestion service: a bounded queue in front of the fleet.

The one serving front is :class:`~repro.streaming.fleet.FleetManager`; a
single stream (``AeroDetector.stream()``) is its one-shard case and sits
behind the same queue, submitting ``(1, N)`` rows.

Real survey pipelines decouple camera readout from scoring with a queue.
:class:`StreamingService` reproduces that shape in-process:

* :meth:`submit` enqueues one exposure (returns ``False`` and counts a drop
  when the bounded queue is full — backpressure made visible);
* :meth:`drain` scores queued exposures, recording per-step wall-clock
  latency (and driving an optional :class:`repro.obs.MetricsFlusher`);
* :meth:`shed` explicitly discards the stalest queued exposures (a survey
  stream's load-shedding lever — stale exposures are worthless);
* :meth:`stats` reports queue depth, drops by reason, and p50/p99 step
  latency plus stars/sec throughput — the numbers an operator actually
  watches; :meth:`health` folds in the fleet's own health snapshot.

The service is deliberately synchronous: the numpy substrate is single-
process, so an async loop would only hide the arithmetic.  The queue +
stats layer is where a production deployment would graft asyncio or a
message bus without touching the scoring path.
"""

from __future__ import annotations

import logging
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from ..obs.health import ServiceHealth, latency_percentiles
from ..obs.metrics import get_registry

__all__ = ["StreamingService", "ServiceStats"]

logger = logging.getLogger("repro.streaming.service")

#: Queue-drop WARN logs are rate limited: the first drop always logs, then
#: every this-many drops, so a saturated producer cannot flood the log.
_DROP_LOG_EVERY = 100


@dataclass
class ServiceStats:
    """Operational snapshot of the ingestion loop."""

    processed_steps: int
    dropped_steps: int                   # total drops, all reasons
    queue_depth: int
    max_queue_depth: int
    alerts_fired: int
    mean_latency_ms: float
    p50_latency_ms: float
    p99_latency_ms: float
    stars_per_second: float
    threshold_refits: int = 0
    dropped_queue_full: int = 0          # rejected at submit: bounded queue full
    dropped_shed: int = 0                # explicitly shed stale queued exposures

    def format(self) -> str:
        return (
            f"steps={self.processed_steps} dropped={self.dropped_steps} "
            f"(queue_full={self.dropped_queue_full} shed={self.dropped_shed}) "
            f"queue={self.queue_depth} (max {self.max_queue_depth}) "
            f"alerts={self.alerts_fired} refits={self.threshold_refits} "
            f"latency p50={self.p50_latency_ms:.2f}ms p99={self.p99_latency_ms:.2f}ms "
            f"throughput={self.stars_per_second:,.0f} stars/s"
        )

    __str__ = format


class StreamingService:
    """Bounded-queue ingestion loop around a fleet (a single stream is a one-shard fleet).

    Parameters
    ----------
    fleet:
        Any object with a ``step(rows, timestamp)`` method returning an
        object with an ``alerts`` attribute (duck-typed:
        :class:`~repro.streaming.fleet.FleetManager` or a compatible
        wrapper) and a ``num_stars`` property.
    max_queue:
        Bound on queued exposures; submits beyond it are dropped and counted
        (load shedding — for survey streams, a stale exposure is worthless).
    latency_window:
        Number of recent step latencies retained for the p50/p99 stats, so a
        long-running service holds O(1) memory (an operator watches recent
        latency, not the all-time distribution).
    flusher:
        Optional :class:`repro.obs.MetricsFlusher`; :meth:`drain` calls its
        ``tick()`` once per drained step, so metric snapshots land on disk
        periodically without a separate scheduler thread.
    registry:
        Telemetry sink (see :mod:`repro.obs`); ``None`` captures the process
        default at construction (a no-op until
        :func:`repro.obs.enable_telemetry` runs).
    slo:
        Optional :class:`repro.obs.SLOMonitor`.  The service feeds it from
        its always-on accounting — every submit/shed outcome lands in the
        ingest window, every drained step in the tick-latency, alert-rate
        and POT-refit windows — and after each drained step any SLO burning
        past the monitor's ``burn_alert`` triggers the fleet's flight
        recorder (when one is attached) with reason ``"slo_burn"``.
        Purely observational: attach or detach it and scores, thresholds
        and alerts are bit-identical.
    """

    def __init__(
        self,
        fleet,
        max_queue: int = 256,
        latency_window: int = 4096,
        flusher=None,
        registry=None,
        slo=None,
    ):
        if max_queue <= 0:
            raise ValueError("max_queue must be positive")
        if latency_window <= 0:
            raise ValueError("latency_window must be positive")
        self.fleet = fleet
        self.max_queue = max_queue
        self.flusher = flusher
        self.slo = slo
        self._queue: deque = deque()
        self._latencies: deque = deque(maxlen=latency_window)
        self._processed = 0
        self._dropped_queue_full = 0
        self._dropped_shed = 0
        self._max_queue_depth = 0
        self._alerts = 0
        self._stars_per_step = 0
        self._registry = get_registry() if registry is None else registry
        self._telemetry = bool(self._registry.enabled)
        self._m_submitted = self._registry.counter(
            "service_submitted_total", "Exposures accepted into the ingestion queue"
        )
        self._m_dropped = self._registry.counter(
            "service_dropped_total",
            "Exposures dropped by the ingestion service, by reason",
            labels=("reason",),
        )
        self._m_queue_depth = self._registry.gauge(
            "service_queue_depth", "Exposures currently waiting in the ingestion queue"
        )
        self._m_step_seconds = self._registry.histogram(
            "service_step_seconds", "Wall-clock latency of one drained scoring step"
        )

    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    @property
    def under_pressure(self) -> bool:
        """True when the queue is more than half full."""
        return len(self._queue) > self.max_queue // 2

    @property
    def _dropped(self) -> int:
        """Total drops, all reasons (back-compat internal alias)."""
        return self._dropped_queue_full + self._dropped_shed

    def submit(self, rows: np.ndarray, timestamp: float | None = None) -> bool:
        """Enqueue one exposure; returns ``False`` if it was shed.

        The rows are copied, so a producer may reuse its exposure buffer
        immediately — queued entries never alias caller memory.
        """
        if len(self._queue) >= self.max_queue:
            self._dropped_queue_full += 1
            self._m_dropped.labels(reason="queue_full").inc()
            if self.slo is not None:
                self.slo.record_ingest(dropped=1)
            if self._dropped_queue_full == 1 or self._dropped_queue_full % _DROP_LOG_EVERY == 0:
                logger.warning(
                    "queue_drop reason=queue_full dropped=%d queue=%d/%d",
                    self._dropped_queue_full, len(self._queue), self.max_queue,
                )
            return False
        self._queue.append((np.array(rows, dtype=np.float64, copy=True), timestamp))
        self._max_queue_depth = max(self._max_queue_depth, len(self._queue))
        self._m_submitted.inc()
        if self.slo is not None:
            self.slo.record_ingest(accepted=1)
        if self._telemetry:
            self._m_queue_depth.set(len(self._queue))
        return True

    def shed(self, count: int | None = None) -> int:
        """Drop the ``count`` *stalest* queued exposures (all when ``None``).

        The explicit load-shedding lever: under sustained pressure an
        operator (or an autoscaler) discards the oldest exposures — the ones
        whose transients have already evolved past — rather than letting the
        queue reject the freshest.  Returns the number actually shed.
        """
        if count is None:
            count = len(self._queue)
        if count < 0:
            raise ValueError("count must be non-negative")
        shed = min(count, len(self._queue))
        for _ in range(shed):
            self._queue.popleft()
        if shed:
            self._dropped_shed += shed
            self._m_dropped.labels(reason="shed").inc(shed)
            if self.slo is not None:
                self.slo.record_ingest(dropped=shed)
            logger.warning(
                "queue_drop reason=shed dropped=%d queue=%d/%d",
                shed, len(self._queue), self.max_queue,
            )
            if self._telemetry:
                self._m_queue_depth.set(len(self._queue))
        return shed

    def drain(self, max_steps: int | None = None) -> list:
        """Score queued exposures (all of them by default); returns step results."""
        drained = []
        while self._queue and (max_steps is None or len(drained) < max_steps):
            rows, timestamp = self._queue.popleft()
            started = time.perf_counter()
            result = self.fleet.step(rows, timestamp)
            elapsed = time.perf_counter() - started
            self._latencies.append(elapsed)
            self._processed += 1
            self._alerts += len(getattr(result, "alerts", ()))
            scores = getattr(result, "scores", None)
            if scores is not None:
                # Remember how many variates one step scores, so throughput
                # stays honest for scorers without a num_stars property.
                self._stars_per_step = int(np.asarray(scores).size)
            drained.append(result)
            self._m_step_seconds.observe(elapsed)
            if self.slo is not None:
                self.slo.observe_tick(
                    elapsed, result,
                    refits=int(getattr(self.fleet, "threshold_refits", 0)),
                    refit_failures=int(getattr(self.fleet, "threshold_refit_failures", 0)),
                )
                burning = self.slo.burning()
                if burning:
                    recorder = getattr(self.fleet, "recorder", None)
                    if recorder is not None:
                        recorder.trigger("slo_burn")
            if self.flusher is not None:
                self.flusher.tick()
        if drained and self._telemetry:
            self._m_queue_depth.set(len(self._queue))
        return drained

    def run(self, exposures, timestamps: np.ndarray | None = None) -> list:
        """Submit-and-drain a whole night of exposures, step by step.

        Returns only the results produced by *this* call; earlier drained
        results are not replayed.
        """
        produced = []
        for tick, rows in enumerate(exposures):
            timestamp = None if timestamps is None else float(timestamps[tick])
            self.submit(rows, timestamp)
            produced.extend(self.drain())
        return produced

    # ------------------------------------------------------------------
    def stats(self) -> ServiceStats:
        latencies = np.asarray(self._latencies, dtype=np.float64)
        if latencies.size:
            mean = float(latencies.mean())
            if latencies.size > 1:
                p50 = float(np.percentile(latencies, 50))
                p99 = float(np.percentile(latencies, 99))
            else:
                # One sample is no distribution; report it verbatim instead
                # of interpolating percentiles out of it.
                p50 = p99 = float(latencies[0])
            # A FleetManager advertises its star count; for a duck-typed
            # scorer without one fall back to the
            # variate count actually scored per step, never to 1 — the old
            # fallback under-reported throughput N-fold.
            num_stars = getattr(self.fleet, "num_stars", None)
            if num_stars is None:
                num_stars = self._stars_per_step or getattr(self.fleet, "num_variates", 1)
            throughput = num_stars / mean if mean > 0 else float("inf")
        else:
            mean = p50 = p99 = 0.0
            throughput = 0.0
        return ServiceStats(
            processed_steps=self._processed,
            dropped_steps=self._dropped,
            queue_depth=len(self._queue),
            max_queue_depth=self._max_queue_depth,
            alerts_fired=self._alerts,
            mean_latency_ms=mean * 1e3,
            p50_latency_ms=p50 * 1e3,
            p99_latency_ms=p99 * 1e3,
            stars_per_second=throughput,
            threshold_refits=int(getattr(self.fleet, "threshold_refits", 0)),
            dropped_queue_full=self._dropped_queue_full,
            dropped_shed=self._dropped_shed,
        )

    def health(self) -> ServiceHealth:
        """Live service-state snapshot, with the fleet's health nested.

        Works with telemetry off — everything comes from the service's
        always-on accounting plus the fleet's own :meth:`health`, when it
        has one (duck-typed scorers without it yield ``fleet=None``).
        """
        p50, p99 = latency_percentiles(self._latencies)
        fleet_health = None
        health = getattr(self.fleet, "health", None)
        if callable(health):
            fleet_health = health()
        return ServiceHealth(
            processed_steps=self._processed,
            queue_depth=len(self._queue),
            max_queue=self.max_queue,
            max_queue_depth=self._max_queue_depth,
            under_pressure=self.under_pressure,
            dropped_total=self._dropped,
            dropped_queue_full=self._dropped_queue_full,
            dropped_shed=self._dropped_shed,
            alerts_fired=self._alerts,
            p50_step_ms=p50,
            p99_step_ms=p99,
            fleet=fleet_health,
        )
