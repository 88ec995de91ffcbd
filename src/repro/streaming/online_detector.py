"""Incremental online scoring equal to the batch detector (Algorithm 2).

:class:`StreamingDetector` wraps a *fitted* :class:`repro.core.AeroDetector`
and ingests one timestamp (or a micro-batch of timestamps) at a time.  Per
arriving row it

1. normalises the row with the detector's fitted scaler,
2. appends it to a :class:`~repro.streaming.buffer.RingBuffer` seeded with
   the detector's training-tail context (exactly what the batch path
   prepends), and
3. runs one single-window forward pass on the detector's compiled plans
   (:meth:`repro.runtime.CompiledDetector.score_windows`) — O(1) work per
   step instead of the O(T) re-windowing of ``AeroDetector.score()``.

Equivalence contract: for ``"window"`` and ``"static"`` graph modes every
window is scored independently, so the streaming scores are *identical* to
the batch scores on the same series (:meth:`score_series` even reproduces
the batch path's micro-batch grouping, making the comparison bit-for-bit).
For the ``"dynamic"`` ablation the smoothed graph state evolves across
windows; the stream applies the same sequential semantics, matching a
single batch ``score()`` call over the same windows.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from ..obs.metrics import get_registry
from ..obs.tracing import get_tracer
from .timeline import seed_stream_state
from .vector_pot import VectorizedIncrementalPOT, calibrate_adaptive_pot

if TYPE_CHECKING:  # pragma: no cover - import only for type checkers
    from ..core.detector import AeroDetector

__all__ = [
    "StreamingDetector",
    "StreamStepResult",
    "impute_missing_row",
    "resolve_backend_engine",
    "resolve_swap_source",
]

logger = logging.getLogger("repro.streaming.online_detector")


def resolve_backend_engine(detector: "AeroDetector", backend):
    """Resolve a streaming front-end's ``backend`` argument to its engine.

    ``None`` or ``"compiled"`` selects the detector's cached float64
    :class:`repro.runtime.CompiledDetector` (:meth:`AeroDetector.compile`);
    an already-built :class:`CompiledDetector` — e.g. one loaded from a
    checkpoint or compiled with ``dtype="float32"`` — is served as given.
    """
    if backend is None or backend == "compiled":
        return detector.compile()
    if isinstance(backend, str):
        raise ValueError(
            f"backend must be None, 'compiled', 'incremental' or a CompiledDetector, got {backend!r}"
        )
    from ..runtime import CompiledDetector

    if not isinstance(backend, CompiledDetector):
        raise TypeError(
            "backend must be None, 'compiled', 'incremental' or a CompiledDetector, "
            f"got {type(backend).__name__}"
        )
    if backend.num_variates != detector._require_fitted().num_variates:
        raise ValueError(
            f"compiled plan serves {backend.num_variates} variates, "
            f"detector has {detector.model.num_variates}"
        )
    return backend


@dataclass
class SwapTarget:
    """Resolved ingredients of a model hot-swap (see :func:`resolve_swap_source`)."""

    detector: "AeroDetector | None"   # None when serving a compiled plan only
    engine: object                    # the CompiledDetector to serve
    scaler: object
    threshold: float
    config: object
    num_variates: int
    graph_mode: str | None


def resolve_swap_source(source, *, dtype) -> SwapTarget:
    """Resolve a hot-swap ``source`` into the pieces a front-end swaps in.

    ``source`` may be a fitted :class:`repro.core.AeroDetector`, a
    pre-built :class:`repro.runtime.CompiledDetector` (e.g. float32 plans),
    or a ``str``/``Path`` to an :meth:`AeroDetector.save` artifact — which
    is exactly what a :class:`repro.training.ModelRegistry` version stores.
    A detector source is compiled with ``dtype`` — the current engine's,
    so the serving precision is preserved across the swap.
    """
    from ..runtime import CompiledDetector

    if isinstance(source, (str, Path)):
        from ..core.detector import AeroDetector

        source = AeroDetector.load(source)
    if isinstance(source, CompiledDetector):
        return SwapTarget(
            detector=None,
            engine=source,
            scaler=source.scaler,
            threshold=source.threshold,
            config=source.config,
            num_variates=source.num_variates,
            graph_mode=source.model.graph_mode,
        )
    model = getattr(source, "_require_fitted", None)
    if model is None:
        raise TypeError(
            "swap source must be a fitted AeroDetector, a CompiledDetector or a "
            f"checkpoint path, got {type(source).__name__}"
        )
    fitted = model()
    return SwapTarget(
        detector=source,
        engine=source.compile(dtype=dtype),
        scaler=source.scaler,
        threshold=source.threshold(),
        config=source.config,
        num_variates=fitted.num_variates,
        graph_mode=None if fitted.noise is None else fitted.noise.graph_mode,
    )


def impute_missing_row(scaled_row: np.ndarray, missing: np.ndarray, buffer) -> None:
    """Fill a row's missing (non-finite) entries before it enters a ring buffer.

    Missing stars carry their last buffered (scaled) value forward — the
    standard last-observation-carried-forward imputation — so one survey gap
    never poisons the next ``W`` windows with NaN.  A cold buffer with no
    history yet falls back to the scaled-space origin.  The caller remains
    responsible for masking the star's *score* for this tick; imputation only
    keeps the model input finite.
    """
    if len(buffer):
        scaled_row[missing] = buffer.view(1)[0][missing]
    else:
        scaled_row[missing] = 0.0


def rescale_buffer_rows(buffers, old_scaler, new_scaler) -> None:
    """Re-express buffered scaled rows under a new scaler, in place.

    Streaming buffers hold rows normalised by the *serving* model's scaler;
    swapping in a model fitted on fresher data means a (slightly) different
    min/max calibration.  Mapping the retained rows back to raw magnitudes
    and through the new scaler keeps the whole window history valid, so the
    very next tick scores with the new model — no warm-up, nothing dropped.
    """
    for buffer in buffers:
        rows = buffer.view()
        if len(rows):
            rows[:] = new_scaler.transform(old_scaler.inverse_transform(rows))


def check_swap_compatible(target: SwapTarget, num_variates: int, config) -> None:
    """Validate that a swap target fits the live stream's geometry."""
    if target.num_variates != num_variates:
        raise ValueError(
            f"cannot hot-swap: new model serves {target.num_variates} variates, "
            f"stream has {num_variates}"
        )
    if (
        target.config.window != config.window
        or target.config.short_window != config.short_window
    ):
        raise ValueError(
            "cannot hot-swap: window geometry changed "
            f"(W={target.config.window}, omega={target.config.short_window} vs "
            f"serving W={config.window}, omega={config.short_window}); "
            "start a fresh stream for the new geometry"
        )


@dataclass
class StreamStepResult:
    """Scores and labels emitted for one ingested timestamp.

    ``scores``/``labels`` have shape ``(N,)``.  During warm-up (the buffer
    does not yet hold a full window, only possible when the training series
    was shorter than ``W - 1``) ``ready`` is ``False`` and the scores are
    NaN; the batch path backfills those positions retroactively, which a
    stream by construction cannot.
    """

    index: int
    scores: np.ndarray
    labels: np.ndarray
    threshold: float
    adaptive_threshold: np.ndarray | None = None  # (N,) per-star thresholds
    ready: bool = True


class StreamingDetector:
    """Online scoring front-end over a fitted :class:`AeroDetector`.

    Parameters
    ----------
    detector:
        A fitted batch detector; its model, scaler, training-tail context and
        POT threshold are reused unchanged.
    adaptive_pot:
        When ``True``, a per-star
        :class:`~repro.streaming.vector_pot.VectorizedIncrementalPOT`
        (one POT per variate, calibrated on that variate's training scores)
        is advanced with every emitted score vector and exposed as the
        ``(N,)`` ``adaptive_threshold`` array (the fixed train-calibrated
        threshold keeps producing the equivalence-grade ``labels``).
    pot_refit_interval:
        Per-star GPD re-fit cadence of the adaptive POT (ignored otherwise).
    seed_context:
        Seed the buffer with the detector's training tail (default), which is
        what the batch path prepends; disable for a cold-started star with no
        history, which then warms up over the first ``W - 1`` steps.
    backend:
        ``"compiled"`` (or ``None``, the default) serves from the detector's
        cached tape-free plans of :mod:`repro.runtime` (bit for bit the
        batch scores in float64).  ``"incremental"`` additionally keeps a
        cross-tick :class:`repro.runtime.IncrementalState`: every ingested row appends
        into the state's ring arenas and only the newest timestep's work is
        recomputed per tick; the state rebuilds transparently from the ring
        buffer when its history is discarded (fresh stream, hot swap), and
        model shapes without an exact incremental plan fall back to the
        full compiled forward.  A pre-built
        :class:`repro.runtime.CompiledDetector` may also be passed
        directly, e.g. one loaded from a checkpoint or compiled with
        ``dtype="float32"``.
    """

    def __init__(
        self,
        detector: "AeroDetector",
        adaptive_pot: bool = False,
        pot_refit_interval: int = 32,
        seed_context: bool = True,
        backend=None,
    ):
        model = detector._require_fitted()
        self.detector = detector
        self.config = detector.config
        self.num_variates = model.num_variates
        self._scaler = detector.scaler
        # "incremental" rides on the compiled engine: resolve it as
        # "compiled" and layer the cross-tick state on top.
        self._incremental = backend == "incremental"
        self._engine = resolve_backend_engine(
            detector, "compiled" if self._incremental else backend
        )
        self._inc_state = None
        self.backend = "incremental" if self._incremental else "compiled"

        buffers, self._timeline = seed_stream_state(detector, 1, seed_context)
        self._buffer = buffers[0]
        self._steps = 0

        self.threshold = detector.threshold()
        self.adaptive_pot: VectorizedIncrementalPOT | None = None
        if adaptive_pot:
            self.adaptive_pot = calibrate_adaptive_pot(
                detector, num_stars=self.num_variates, refit_interval=pot_refit_interval
            )

        if self._engine.model.graph_mode == "dynamic":
            self._engine.reset_dynamic_state()

        # Telemetry (no-ops until repro.obs.enable_telemetry; never perturbs
        # scores).  model_version is stamped by ModelRegistry.deploy.
        self.model_version: str | None = None
        self._tracer = get_tracer()
        self._registry = get_registry()
        self._m_steps = self._registry.counter(
            "stream_steps_total", "Rows ingested by single-stream detectors"
        )
        self._m_step_seconds = self._registry.histogram(
            "stream_step_seconds", "Wall-clock latency of one streaming micro-batch"
        )
        self._m_swaps = self._registry.counter(
            "stream_hot_swaps_total", "Serving models hot-swapped into running streams"
        )

    # ------------------------------------------------------------------
    @property
    def steps_ingested(self) -> int:
        return self._steps

    @property
    def warmed_up(self) -> bool:
        """Whether the buffer holds a full window (scores are being emitted)."""
        return self._buffer.is_full

    @property
    def threshold_refits(self) -> int:
        """Total adaptive GPD re-fits across the stream's stars (0 if fixed)."""
        return 0 if self.adaptive_pot is None else self.adaptive_pot.total_refits

    # ------------------------------------------------------------------
    def threshold_state(self) -> dict | None:
        """Per-star adaptive threshold state, or ``None`` when fixed-threshold."""
        return None if self.adaptive_pot is None else self.adaptive_pot.state_dict()

    def load_threshold_state(self, state: dict) -> None:
        """Restore (and enable) adaptive per-star thresholds from a state dict."""
        pot = VectorizedIncrementalPOT.from_state_dict(state)
        if pot.num_stars != self.num_variates:
            raise ValueError(
                f"threshold state covers {pot.num_stars} stars, stream has {self.num_variates}"
            )
        self.adaptive_pot = pot

    # ------------------------------------------------------------------
    def swap_model(self, source) -> None:
        """Hot-swap the serving model without dropping buffered state.

        ``source`` is a fitted :class:`~repro.core.AeroDetector`, a
        :class:`~repro.runtime.CompiledDetector`, or a path to a saved
        detector artifact (e.g. ``ModelRegistry.latest(...).artifact_path``).
        The new model must serve the same variates and window geometry.  The
        retained window history is re-expressed under the new model's scaler,
        so the very next :meth:`step` emits the new model's scores — no
        warm-up gap, no dropped rows.  The fixed threshold switches to the
        new model's POT calibration; an adaptive POT keeps its state and
        continues adapting.
        """
        target = resolve_swap_source(source, dtype=self._engine.dtype)
        check_swap_compatible(target, self.num_variates, self.config)
        rescale_buffer_rows([self._buffer], self._scaler, target.scaler)

        self.detector = target.detector
        self.config = target.config
        self._scaler = target.scaler
        self._engine = target.engine
        # The old incremental state's cached history was built under the old
        # model and scaler, so it is discarded and rebuilt on the next tick.
        self._inc_state = None
        self.threshold = target.threshold
        if target.graph_mode == "dynamic":
            # A dynamic-graph model starts its smoothed-adjacency state fresh,
            # exactly as a newly constructed stream would.
            self._engine.reset_dynamic_state()
        # A raw-source swap leaves the registry-version label unknown;
        # ModelRegistry.deploy re-stamps it after calling us.
        self.model_version = None
        self._m_swaps.inc()
        logger.warning(
            "hot_swap step=%d backend=%s threshold=%.6g", self._steps, self.backend, self.threshold
        )

    def step(self, row: np.ndarray, timestamp: float | None = None) -> StreamStepResult:
        """Ingest one observation row of shape ``(N,)`` and emit its scores."""
        results = self.step_many(
            np.asarray(row, dtype=np.float64).reshape(1, -1),
            None if timestamp is None else np.asarray([timestamp], dtype=np.float64),
        )
        return results[0]

    def step_many(
        self,
        rows: np.ndarray,
        timestamps: np.ndarray | None = None,
    ) -> list[StreamStepResult]:
        """Ingest a micro-batch of rows; one vectorised model call for all.

        Rows are appended in order; every row whose window is complete is
        scored in a single plan call, so a micro-batch of ``k`` rows costs
        one forward pass of batch size ``<= k``.

        Non-finite entries mark missing observations: the buffered value is
        imputed by carrying the star's last value forward (one gap must not
        poison the next ``W`` windows), while the emitted score for that star
        is NaN on the gap tick and it is skipped by the adaptive POT.
        """
        started = time.perf_counter()
        with self._tracer.span("stream.step"):
            results = self._step_many_inner(rows, timestamps)
        if results:
            self._m_steps.inc(len(results))
            self._m_step_seconds.observe(time.perf_counter() - started)
        return results

    def _step_many_inner(
        self,
        rows: np.ndarray,
        timestamps: np.ndarray | None = None,
    ) -> list[StreamStepResult]:
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != self.num_variates:
            raise ValueError(f"rows must have shape (k, {self.num_variates}), got {rows.shape}")
        count = rows.shape[0]
        if count == 0:
            return []
        times = self._timeline.resolve(count, timestamps)
        scaled = self._scaler.transform(rows)
        missing = ~np.isfinite(rows)
        if self._incremental:
            return self._step_many_incremental(scaled, times, missing, count)

        window = self.config.window
        short = self.config.short_window
        ready_rows: list[int] = []
        longs = np.empty((count, self.num_variates, window))
        long_times = np.empty((count, window))
        for position in range(count):
            if missing[position].any():
                impute_missing_row(scaled[position], missing[position], self._buffer)
            self._buffer.append(scaled[position])
            self._timeline.append(times[position])
            if self._buffer.is_full:
                # The ring views alias storage mutated by the next append, so
                # materialise this window into the micro-batch now.
                longs[len(ready_rows)] = self._buffer.view(window).T
                long_times[len(ready_rows)] = self._timeline.view(window)
                ready_rows.append(position)
        self._steps += count

        batch = len(ready_rows)
        if batch:
            scores_batch = self._engine.score_windows(
                longs[:batch],
                longs[:batch, :, window - short :],
                long_times[:batch],
                long_times[:batch, window - short :],
            )
        results: list[StreamStepResult] = []
        ready_cursor = 0
        for position in range(count):
            if ready_cursor < batch and ready_rows[ready_cursor] == position:
                scores = scores_batch[ready_cursor]
                ready_cursor += 1
                if missing[position].any():
                    scores = scores.copy()
                    scores[missing[position]] = np.nan
                labels = (scores >= self.threshold).astype(np.int64)
                adaptive = None
                if self.adaptive_pot is not None:
                    self.adaptive_pot.update(scores)
                    adaptive = self.adaptive_pot.thresholds.copy()
                results.append(
                    StreamStepResult(
                        index=self._steps - count + position,
                        scores=scores,
                        labels=labels,
                        threshold=self.threshold,
                        adaptive_threshold=adaptive,
                    )
                )
            else:
                results.append(
                    StreamStepResult(
                        index=self._steps - count + position,
                        scores=np.full(self.num_variates, np.nan),
                        labels=np.zeros(self.num_variates, dtype=np.int64),
                        threshold=self.threshold,
                        ready=False,
                    )
                )
        return results

    def _step_many_incremental(
        self,
        scaled: np.ndarray,
        times: np.ndarray,
        missing: np.ndarray,
        count: int,
    ) -> list[StreamStepResult]:
        """Serve a micro-batch row by row from the cross-tick state.

        Each ingested row advances the ring buffer, the timeline and the
        incremental state in lockstep, so every ready tick costs only the
        newest timestep's compute.  Imputed rows enter the state exactly as
        they enter the ring buffer, which keeps the two bit-identical; only
        a hot swap (or a fresh stream) discards the state, and the next
        ready tick rebuilds it from the ring buffer transparently.
        """
        base = self._steps
        results: list[StreamStepResult] = []
        for position in range(count):
            row_missing = missing[position]
            if row_missing.any():
                impute_missing_row(scaled[position], row_missing, self._buffer)
            self._buffer.append(scaled[position])
            self._timeline.append(times[position])
            if not self._buffer.is_full:
                results.append(
                    StreamStepResult(
                        index=base + position,
                        scores=np.full(self.num_variates, np.nan),
                        labels=np.zeros(self.num_variates, dtype=np.int64),
                        threshold=self.threshold,
                        ready=False,
                    )
                )
                continue
            scores = self._incremental_scores(scaled[position], float(times[position]))
            if row_missing.any():
                scores = scores.copy()
                scores[row_missing] = np.nan
            labels = (scores >= self.threshold).astype(np.int64)
            adaptive = None
            if self.adaptive_pot is not None:
                self.adaptive_pot.update(scores)
                adaptive = self.adaptive_pot.thresholds.copy()
            results.append(
                StreamStepResult(
                    index=base + position,
                    scores=scores,
                    labels=labels,
                    threshold=self.threshold,
                    adaptive_threshold=adaptive,
                )
            )
        self._steps += count
        return results

    def _incremental_scores(self, scaled_row: np.ndarray, timestamp: float) -> np.ndarray:
        """One ready tick's ``(N,)`` scores from the incremental state."""
        state = self._inc_state
        if state is not None and state.valid:
            return self._engine.score_stack_step(state, scaled_row[None, :], timestamp)[0]
        if state is None:
            # "windows" layout: the per-stream reference path is
            # score_windows, whose multivariate error strides differ from
            # score_stack's (both are bit-exact worlds; pick the right one).
            state = self._engine.new_incremental_state(1, layout="windows")
            self._inc_state = state
        window = self.config.window
        # The buffer already holds this tick's row, so rebuilding from the
        # current window view serves the same tick the caller asked for.
        state.rebuild(self._buffer.view(window)[None], self._timeline.view(window))
        return state.score()[0]

    # ------------------------------------------------------------------
    def score_series(
        self,
        series: np.ndarray,
        timestamps: np.ndarray | None = None,
    ) -> np.ndarray:
        """Stream a whole series and return ``(T, N)`` scores equal to the batch path.

        Micro-batches are aligned with the batch scorer's grouping (warm-up
        rows first, then chunks of ``config.batch_size``), so the model sees
        byte-identical inputs in byte-identical batches and the output
        matches ``AeroDetector.score()`` bit for bit.  Warm-up rows are
        backfilled with the first computed score, exactly like the batch
        path's conservative early-point rule.
        """
        series = np.asarray(series, dtype=np.float64)
        if series.ndim != 2:
            raise ValueError("series must be 2-D (time, variates)")
        num_points = series.shape[0]
        scores = np.zeros((num_points, self.num_variates))
        if num_points == 0:
            return scores

        warmup = max(0, self.config.window - len(self._buffer) - 1)
        chunks: list[np.ndarray] = []
        if warmup:
            chunks.append(np.arange(0, min(warmup, num_points)))
        start = min(warmup, num_points)
        for chunk_start in range(start, num_points, self.config.batch_size):
            chunks.append(np.arange(chunk_start, min(chunk_start + self.config.batch_size, num_points)))

        covered = np.zeros(num_points, dtype=bool)
        for chunk in chunks:
            chunk_times = None if timestamps is None else np.asarray(timestamps, dtype=np.float64)[chunk]
            for offset, result in enumerate(self.step_many(series[chunk], chunk_times)):
                if result.ready:
                    position = int(chunk[offset])
                    scores[position] = result.scores
                    covered[position] = True
        if covered.any():
            first = int(np.argmax(covered))
            scores[:first] = scores[first]
        return scores

    def detect_series(self, series: np.ndarray, timestamps: np.ndarray | None = None) -> np.ndarray:
        """Stream a series and return binary labels equal to ``AeroDetector.detect()``."""
        return (self.score_series(series, timestamps) >= self.threshold).astype(np.int64)
