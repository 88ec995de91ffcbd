"""Timestamp policy for the serving front-end.

:class:`~repro.streaming.fleet.FleetManager` (and so every single stream,
a one-shard fleet) must stitch arriving observation times onto the
detector's training-tail context exactly the way the batch path does, and
must commit to one timeline for the life of the stream.
:class:`StreamTimeline` owns that rule in one place:

* real caller timestamps are honoured only when they can be stitched to a
  consistent context timeline — the detector stored tail timestamps, or
  there is no context at all (a cold start has no seam to stitch);
* otherwise the timeline falls back to global row indices, matching the
  batch path's ``WindowDataset`` default;
* the mode locks on the first step; switching direction afterwards raises
  (except when real timestamps were never usable, where they are ignored
  exactly as the batch path ignores them).
"""

from __future__ import annotations

import numpy as np

from .buffer import RingBuffer

__all__ = ["StreamTimeline", "seed_stream_state"]


def seed_stream_state(detector, num_buffers: int, seed_context: bool):
    """Build seeded value buffers and a timeline for a fleet's shards.

    One buffer per shard of a :class:`~repro.streaming.fleet.FleetManager`;
    the context contract — which rows and timestamps are stitched in front
    of the stream — has exactly one implementation.

    Returns ``(buffers, timeline)``.
    """
    window = detector.config.window
    num_variates = detector.model.num_variates
    tail, tail_times = detector.window_context()
    if not seed_context:
        tail, tail_times = None, None
    buffers = [RingBuffer(window, num_variates=num_variates) for _ in range(num_buffers)]
    context_length = 0
    if tail is not None and len(tail):
        for buffer in buffers:
            buffer.extend(tail)
        context_length = len(tail)
    return buffers, StreamTimeline(window, tail_times, context_length)


class StreamTimeline:
    """Mode-locked observation timeline backing a stream's window views.

    Parameters
    ----------
    window:
        Long window length ``W`` (the ring capacity).
    tail_times:
        The detector's training-tail timestamps, or ``None`` when absent.
    context_length:
        Number of context rows seeded into the stream's value buffer.
    """

    def __init__(self, window: int, tail_times: np.ndarray | None, context_length: int):
        self._times = RingBuffer(window)
        has_tail_times = tail_times is not None and len(tail_times) == context_length
        self._tail_times = np.asarray(tail_times, dtype=np.float64) if has_tail_times else None
        self._has_real = has_tail_times or context_length == 0
        self._mode: str | None = None  # locked on the first resolve
        self._context_length = context_length
        self._next_index = context_length

    @property
    def mode(self) -> str | None:
        return self._mode

    def resolve(self, count: int, timestamps: np.ndarray | None) -> np.ndarray:
        """Lock the mode if needed and return the times for ``count`` new rows.

        The returned values must then be fed back through :meth:`append` as
        their rows are ingested (keeping the ring in lock-step with the
        value buffer).  Invalid timestamps — a wrong count or a non-finite
        value in real mode — raise before anything changes, so a corrected
        retry serves exactly as if the bad call never happened.
        """
        mode = self._mode
        if mode is None:
            mode = "real" if timestamps is not None and self._has_real else "index"
        if mode == "real":
            if timestamps is None:
                raise ValueError("this stream was started with real timestamps; keep providing them")
            times = np.asarray(timestamps, dtype=np.float64).reshape(-1)
            if times.shape != (count,):
                raise ValueError(f"expected {count} timestamps, got {times.shape}")
            if not np.isfinite(times).all():
                # One NaN time would enter every window for the next W ticks
                # and blank the whole fleet's scores.
                raise ValueError(f"timestamps must be finite, got {times}")
        elif timestamps is not None and self._has_real:
            raise ValueError(
                "this stream was started without timestamps; cannot switch to real timestamps mid-stream"
            )
        else:
            # Real times were never usable (no tail timestamps): ignore the
            # caller's values, exactly as the batch path does.
            times = np.arange(self._next_index, self._next_index + count, dtype=np.float64)
        if self._mode is None:
            self._mode = mode
            if mode == "real":
                seed = self._tail_times if self._tail_times is not None else ()
            else:
                seed = range(self._context_length)
            for value in seed:
                self._times.append(float(value))
        self._next_index += count
        return times

    def append(self, value: float) -> None:
        self._times.append(float(value))

    def view(self, length: int) -> np.ndarray:
        """Zero-copy view of the most recent ``length`` timestamps."""
        return self._times.view(length)
