"""Lightweight span tracing for the tick pipeline and the training loop.

A :class:`Tracer` hands out context-manager spans::

    with tracer.span("fleet.step"):
        with tracer.span("fleet.forward"):
            ...

Spans clock with the monotonic ``time.perf_counter_ns`` clock, nest
(parent/child via a per-thread stack) and land in a bounded in-memory ring
of completed :class:`SpanRecord`\\ s — a long-running service holds O(ring)
memory however many ticks it serves.  Per-name aggregates (count, total
and max duration) survive ring eviction, so ``summary()`` always reflects
the whole run.

Like the metrics layer, tracing defaults to a no-op :data:`NULL_TRACER`
whose ``span()`` returns one shared null context manager — two no-op calls
and zero allocations per instrumented block when tracing is off.

Instrumented span names (stable, test-pinned):

* ``fleet.step`` > ``fleet.ingest`` / ``fleet.forward`` /
  ``fleet.thresholds`` / ``fleet.alerts`` — the serving tick pipeline
  (a single stream is a one-shard fleet);
* ``training.stage1`` / ``training.stage2`` > ``training.epoch`` /
  ``training.validation`` — the two-stage training loop.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass

__all__ = [
    "SpanRecord",
    "SpanStats",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "get_tracer",
    "set_default_tracer",
    "trace",
    "use_tracer",
]


@dataclass(frozen=True)
class SpanRecord:
    """One completed span."""

    name: str
    start_ns: int          # monotonic clock (perf_counter_ns), not wall time
    duration_ns: int
    depth: int             # nesting depth at entry (0 = root span)
    parent: str | None     # enclosing span's name, if any

    @property
    def duration_ms(self) -> float:
        return self.duration_ns / 1e6


@dataclass
class SpanStats:
    """Per-name aggregate over every completed span (ring eviction immune)."""

    count: int = 0
    total_ns: int = 0
    max_ns: int = 0

    @property
    def mean_ms(self) -> float:
        return self.total_ns / self.count / 1e6 if self.count else float("nan")

    @property
    def total_ms(self) -> float:
        return self.total_ns / 1e6

    @property
    def max_ms(self) -> float:
        return self.max_ns / 1e6


class _ActiveSpan:
    """Context manager recording one span on exit (exceptions included)."""

    __slots__ = ("_tracer", "_name", "_start", "_depth", "_parent")

    def __init__(self, tracer: "Tracer", name: str):
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> "_ActiveSpan":
        stack = self._tracer._stack()
        self._depth = len(stack)
        self._parent = stack[-1] if stack else None
        stack.append(self._name)
        self._start = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        duration = time.perf_counter_ns() - self._start
        self._tracer._stack().pop()
        self._tracer._record(
            SpanRecord(
                name=self._name,
                start_ns=self._start,
                duration_ns=duration,
                depth=self._depth,
                parent=self._parent,
            )
        )


class Tracer:
    """Span collector with a bounded completed-span ring.

    ``capacity`` bounds the retained :class:`SpanRecord`\\ s (oldest spans
    are evicted first); per-name :class:`SpanStats` aggregates keep counting
    regardless.  Span stacks are per-thread, so concurrently training
    workers nest correctly without sharing parents across threads.
    """

    enabled = True

    def __init__(self, capacity: int = 2048):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._ring: deque[SpanRecord] = deque(maxlen=capacity)
        self._stats: dict[str, SpanStats] = {}
        self._local = threading.local()

    def _stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, record: SpanRecord) -> None:
        self._ring.append(record)
        stats = self._stats.get(record.name)
        if stats is None:
            stats = self._stats[record.name] = SpanStats()
        stats.count += 1
        stats.total_ns += record.duration_ns
        if record.duration_ns > stats.max_ns:
            stats.max_ns = record.duration_ns

    # ------------------------------------------------------------------
    def span(self, name: str) -> _ActiveSpan:
        """A context manager timing one named span."""
        return _ActiveSpan(self, name)

    @property
    def spans(self) -> list[SpanRecord]:
        """The retained completed spans, oldest first."""
        return list(self._ring)

    def spans_named(self, name: str) -> list[SpanRecord]:
        return [span for span in self._ring if span.name == name]

    def summary(self) -> dict[str, SpanStats]:
        """Per-name aggregates over *all* completed spans (not just retained)."""
        return dict(self._stats)

    def clear(self) -> None:
        self._ring.clear()
        self._stats.clear()


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


class NullTracer:
    """No-op tracer: ``span()`` returns one shared do-nothing context manager."""

    enabled = False
    capacity = 0
    _SPAN = _NullSpan()

    def span(self, name: str) -> _NullSpan:
        return self._SPAN

    @property
    def spans(self) -> list[SpanRecord]:
        return []

    def spans_named(self, name: str) -> list[SpanRecord]:
        return []

    def summary(self) -> dict[str, SpanStats]:
        return {}

    def clear(self) -> None:
        pass


NULL_TRACER = NullTracer()

_default_tracer: Tracer | NullTracer = NULL_TRACER


def get_tracer() -> Tracer | NullTracer:
    """The process-wide default tracer (null until telemetry is enabled)."""
    return _default_tracer


def set_default_tracer(tracer: Tracer | None) -> Tracer | NullTracer:
    """Install ``tracer`` as the default; ``None`` restores the null tracer."""
    global _default_tracer
    _default_tracer = NULL_TRACER if tracer is None else tracer
    return _default_tracer


def trace(name: str):
    """Span on the *current* default tracer — for call sites with no handle.

    Unlike component-held tracers (captured at construction), ``trace``
    resolves the default per call, so long-lived code paths (the training
    loop) honour telemetry toggles immediately.
    """
    return _default_tracer.span(name)


class use_tracer:
    """Context manager temporarily swapping the default tracer (tests)."""

    def __init__(self, tracer: Tracer | None):
        self._tracer = tracer

    def __enter__(self) -> Tracer | NullTracer:
        self._previous = _default_tracer
        return set_default_tracer(self._tracer)

    def __exit__(self, exc_type, exc, tb) -> None:
        global _default_tracer
        _default_tracer = self._previous
