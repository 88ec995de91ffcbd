"""Streaming inference subsystem: online scoring over live survey streams.

The batch :class:`repro.core.AeroDetector` re-windows and re-scans the full
series on every :meth:`score` call — fine for offline evaluation, unusable
for the paper's headline scenario of *online* detection over live GWAC
streams (Algorithm 2).  This package turns the reproduction into a serving
system:

* :mod:`~repro.streaming.buffer` — :class:`RingBuffer`, contiguous O(1)
  appends with zero-copy sliding-window views;
* :mod:`~repro.streaming.vector_pot` — :class:`VectorizedIncrementalPOT`,
  per-star streaming POT thresholds (SPOT with periodic GPD tail re-fits)
  for a whole fleet in one array-native update per tick;
* :mod:`~repro.streaming.fleet` — :class:`FleetManager`, sharded multi-star
  serving that micro-batches score steps through one vectorised model call;
  a single stream (``AeroDetector.stream()``) is a one-shard fleet, scoring
  one timestamp at a time bit for bit equal to the batch path;
* :mod:`~repro.streaming.alerts` — :class:`AlertPolicy`, debounced per-star
  alerting for the GWAC monitoring scenario;
* :mod:`~repro.streaming.service` — :class:`StreamingService`, a minimal
  ingestion loop with backpressure statistics.
"""

from .buffer import RingBuffer
from .vector_pot import VectorizedIncrementalPOT, calibrate_adaptive_pot
from .alerts import Alert, AlertPolicy
from .fleet import FleetManager, FleetStepResult
from .service import ServiceStats, StreamingService

__all__ = [
    "RingBuffer",
    "VectorizedIncrementalPOT",
    "calibrate_adaptive_pot",
    "Alert",
    "AlertPolicy",
    "FleetManager",
    "FleetStepResult",
    "ServiceStats",
    "StreamingService",
]
