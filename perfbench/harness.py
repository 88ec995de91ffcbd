"""Measurement primitives of the benchmark: span clock, wrappers, percentiles.

Nothing here knows about AERO.  The workloads hand this module objects and
attribute names; it replaces those callables with timing wrappers that
record one span per call and hand the call through unchanged (same
arguments, same return value, same exceptions), so a traced run computes
exactly what an untraced one does.
"""

from __future__ import annotations

import contextlib
import functools
import logging
import math
import re
import resource
import statistics
import time
from collections import defaultdict

import numpy as np

#: Metric names the benchmark may print (``BENCHMARK.json`` uses the same rule).
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")

#: A percentile is reported only when at least this many samples lie beyond it.
MIN_TAIL_SAMPLES = 10


class SpanClock:
    """Nested wall-clock spans around wrapped calls, kept in memory.

    Each wrapped call opens a span named after its layer.  A span's *self
    time* is its duration minus the time of the spans opened inside it, so
    the self time of ``fleet.step`` is the tick's ingest work once the model
    forward, POT, alerts, drift and recorder calls are wrapped as children.
    Re-entrant calls into a layer already on the stack pass straight
    through, so a layer that calls itself is not counted twice.

    Per-tick values accumulate until :meth:`end_tick` moves them into the
    per-tick series; run totals (``calls``, ``total``, ``max``) keep growing.
    """

    def __init__(self, now=time.perf_counter):
        self._now = now
        self._stack: list[list] = []          # [layer, start, child_seconds]
        self._open: dict[str, int] = defaultdict(int)
        self._tick_time: dict[str, float] = defaultdict(float)
        self._tick_self: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.max: dict[str, float] = defaultdict(float)
        self.ticks: dict[str, list[float]] = defaultdict(list)
        self.ticks_self: dict[str, list[float]] = defaultdict(list)

    # -- spans ---------------------------------------------------------
    def call(self, layer: str, function, *args, **kwargs):
        """Run ``function(*args, **kwargs)`` inside a ``layer`` span."""
        if self._open[layer]:
            return function(*args, **kwargs)
        self._open[layer] += 1
        frame = [layer, self._now(), 0.0]
        self._stack.append(frame)
        try:
            return function(*args, **kwargs)
        finally:
            duration = self._now() - frame[1]
            self._stack.pop()
            self._open[layer] -= 1
            if self._stack:
                self._stack[-1][2] += duration
            self._tick_time[layer] += duration
            self._tick_self[layer] += duration - frame[2]
            self.calls[layer] += 1
            self.total[layer] += duration
            if duration > self.max[layer]:
                self.max[layer] = duration

    def wrap(self, owner, attribute: str, layer: str, on_result=None) -> None:
        """Shadow ``owner.attribute`` with a timed pass-through wrapper.

        On an instance this installs an instance attribute over the bound
        method; use :meth:`patched` for class- or module-level callables,
        which must be restored afterwards.  ``on_result`` (optional) sees
        every return value, e.g. to wrap objects a factory method returns.
        Wrapping an attribute that is already wrapped does nothing.
        """
        original = getattr(owner, attribute)
        if getattr(original, "span_layer", None) is None:
            setattr(owner, attribute, self._timed(original, layer, on_result))

    @contextlib.contextmanager
    def patched(self, targets):
        """Temporarily wrap ``(owner, attribute, layer)`` class/module callables."""
        saved = []
        try:
            for owner, attribute, layer in targets:
                original = owner.__dict__[attribute]
                saved.append((owner, attribute, original))
                setattr(owner, attribute, self._timed(original, layer, None))
            yield self
        finally:
            for owner, attribute, original in reversed(saved):
                setattr(owner, attribute, original)

    def _timed(self, original, layer: str, on_result):
        clock = self

        @functools.wraps(original)
        def timed(*args, **kwargs):
            result = clock.call(layer, original, *args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        timed.span_layer = layer
        return timed

    # -- per-tick series -----------------------------------------------
    def end_tick(self, layers) -> None:
        """Close one tick: append each layer's time (0 when idle) to its series."""
        for layer in layers:
            self.ticks[layer].append(self._tick_time.get(layer, 0.0))
            self.ticks_self[layer].append(self._tick_self.get(layer, 0.0))
        self._tick_time.clear()
        self._tick_self.clear()


def tail_percentile(samples, percent: float) -> float:
    """The ``percent``-th percentile of ``samples``, or NaN when unsupported.

    Uses the nearest-rank definition, so the value is always one measured
    sample, and it is only reported when at least :data:`MIN_TAIL_SAMPLES`
    samples lie strictly beyond that rank (p99 needs 1000 samples).
    """
    count = len(samples)
    rank = max(math.ceil(percent * count / 100.0 - 1e-9), 1)
    if count == 0 or count - rank < MIN_TAIL_SAMPLES:
        return float("nan")
    return float(sorted(samples)[rank - 1])


def median(samples) -> float:
    return float(statistics.median(samples)) if len(samples) else float("nan")


_PROBE_MATRIX = np.arange(64 * 64, dtype=np.float64).reshape(64, 64) / 4096.0


def host_probe_seconds(repeats: int = 5) -> float:
    """How fast the host runs right now: best of ``repeats`` timings of a fixed task.

    The task (~3 ms: small matrix-vector products in a Python loop) mixes
    numpy calls and interpreter work as a tick does, and does not depend on
    the code under test, so only the host moves it.
    """
    column = _PROBE_MATRIX[:, :1]
    best = math.inf
    for _ in range(repeats):
        started = time.perf_counter()
        total = 0.0
        for _ in range(600):
            total += float((_PROBE_MATRIX @ column).sum())
        best = min(best, time.perf_counter() - started)
    return best


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB (Linux KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class CountingHandler(logging.Handler):
    """Log handler that only counts the WARNING-or-worse records it receives."""

    def __init__(self):
        super().__init__(level=logging.WARNING)
        self.warnings = 0

    def emit(self, record: logging.LogRecord) -> None:
        self.warnings += 1


@contextlib.contextmanager
def counted_logs(namespace: str = "repro"):
    """Route ``namespace`` loggers into a :class:`CountingHandler`.

    Records are still created by the program (their cost stays inside the
    measurement) but never reach stderr; the handler's count becomes the
    ``log.warn_events`` metric.
    """
    logger = logging.getLogger(namespace)
    handler = CountingHandler()
    previous = logger.propagate
    logger.addHandler(handler)
    logger.propagate = False
    try:
        yield handler
    finally:
        logger.removeHandler(handler)
        logger.propagate = previous


class Metrics:
    """Ordered ``name -> (value, unit, note)`` table printed by the benchmark."""

    def __init__(self):
        self._rows: dict[str, tuple[float, str, str]] = {}

    def add(self, name: str, value, unit: str, note: str = "") -> None:
        if not METRIC_NAME.fullmatch(name):
            raise ValueError(f"bad metric name {name!r}")
        if name in self._rows:
            raise ValueError(f"metric {name!r} reported twice")
        self._rows[name] = (float(value), unit, note)

    def __contains__(self, name: str) -> bool:
        return name in self._rows

    def items(self):
        return self._rows.items()

    def select(self, names) -> dict:
        """The JSON ``metrics`` object for ``names`` (all must be present)."""
        missing = [name for name in names if name not in self._rows]
        if missing:
            raise KeyError(f"metrics not measured: {missing}")
        return {
            name: {"value": self._rows[name][0], "unit": self._rows[name][1]}
            for name in names
        }
