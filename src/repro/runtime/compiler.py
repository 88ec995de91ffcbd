"""Compiling trained detectors into tape-free inference plans.

``compile_model`` exports the weights of a trained :class:`repro.core.AeroModel`
into read-only flat arrays and assembles the fused forward plans of
:mod:`repro.runtime.plans`.  ``compile_detector`` additionally freezes
everything the serving path needs around the model — scaler statistics, the
training-tail context, and the POT threshold — into a :class:`CompiledDetector`
that can score raw series without touching the autograd stack at all.

The export is *read-only* in both directions: weights are copied (a later
``fit()`` or optimizer step cannot mutate a compiled plan) and the copies are
write-locked (a plan cannot corrupt the live model).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..core.detector import sliding_window_scores
from ..data.preprocessing import MinMaxScaler
from .plans import (
    AttentionPlan,
    CompiledForwardResult,
    CompiledModel,
    DecoderLayerPlan,
    EncoderLayerPlan,
    FeedForwardPlan,
    LayerNormPlan,
    NoisePlan,
    TemporalPlan,
    TimeEmbeddingPlan,
    freeze,
)

if TYPE_CHECKING:  # pragma: no cover - imports only for type checkers
    from ..core.detector import AeroDetector
    from ..core.model import AeroModel

__all__ = ["compile_model", "compile_detector", "CompiledDetector"]

_SUPPORTED_DTYPES = (np.dtype(np.float64), np.dtype(np.float32))


def _resolve_dtype(dtype) -> np.dtype:
    resolved = np.dtype(dtype)
    if resolved not in _SUPPORTED_DTYPES:
        raise ValueError(
            f"compiled plans support float64 and float32, got {resolved.name!r}"
        )
    return resolved


# ----------------------------------------------------------------------
# module -> plan exporters
# ----------------------------------------------------------------------
def _export_linear(linear, dtype) -> tuple[np.ndarray, np.ndarray | None]:
    weight = freeze(linear.weight.data, dtype)
    bias = freeze(linear.bias.data, dtype) if linear.bias is not None else None
    return weight, bias


def _compile_attention(attention, dtype) -> AttentionPlan:
    wq, bq = _export_linear(attention.w_query, dtype)
    wk, bk = _export_linear(attention.w_key, dtype)
    wv, bv = _export_linear(attention.w_value, dtype)
    wo, bo = _export_linear(attention.w_out, dtype)
    return AttentionPlan(wq, bq, wk, bk, wv, bv, wo, bo, attention.num_heads)


def _compile_feed_forward(feed_forward, dtype) -> FeedForwardPlan:
    w1, b1 = _export_linear(feed_forward.linear1, dtype)
    w2, b2 = _export_linear(feed_forward.linear2, dtype)
    return FeedForwardPlan(w1, b1, w2, b2, feed_forward.activation)


def _compile_layer_norm(norm, dtype) -> LayerNormPlan:
    return LayerNormPlan(freeze(norm.gamma.data, dtype), freeze(norm.beta.data, dtype), norm.eps)


def _compile_encoder_layer(layer, dtype) -> EncoderLayerPlan:
    return EncoderLayerPlan(
        self_attention=_compile_attention(layer.self_attention, dtype),
        feed_forward=_compile_feed_forward(layer.feed_forward, dtype),
        norm1=_compile_layer_norm(layer.norm1, dtype),
        norm2=_compile_layer_norm(layer.norm2, dtype),
    )


def _compile_decoder_layer(layer, dtype) -> DecoderLayerPlan:
    return DecoderLayerPlan(
        self_attention=_compile_attention(layer.self_attention, dtype),
        cross_attention=_compile_attention(layer.cross_attention, dtype),
        feed_forward=_compile_feed_forward(layer.feed_forward, dtype),
        norm1=_compile_layer_norm(layer.norm1, dtype),
        norm2=_compile_layer_norm(layer.norm2, dtype),
        norm3=_compile_layer_norm(layer.norm3, dtype),
    )


def _compile_temporal(module, dtype) -> TemporalPlan:
    time_embedding = TimeEmbeddingPlan(
        frequencies=freeze(module.time_embedding.frequencies, dtype),
        alpha=freeze(module.time_embedding.alpha.data, dtype),
        dtype=dtype,
    )
    return TemporalPlan(
        time_embedding=time_embedding,
        encoder_embedding=_export_linear(module.encoder_embedding, dtype),
        decoder_embedding=_export_linear(module.decoder_embedding, dtype),
        encoder_layers=[_compile_encoder_layer(layer, dtype) for layer in module.encoder.layers],
        decoder_layers=[_compile_decoder_layer(layer, dtype) for layer in module.decoder.layers],
        output_ffn=_compile_feed_forward(module.output_ffn, dtype),
        output_projection=_export_linear(module.output_projection, dtype),
        conditioning=module.conditioning,
        multivariate_input=module.multivariate_input,
        use_short_window=module.use_short_window,
        dtype=dtype,
    )


def _compile_noise(module, dtype) -> NoisePlan:
    return NoisePlan(
        weight=freeze(module.gcn.weight.data, dtype),
        bias=freeze(module.gcn.bias.data, dtype),
        activation=module.gcn.activation,
        graph_mode=module.graph_mode,
        dynamic_decay=module.dynamic_decay,
        remove_self_loops=module.config.remove_self_loops,
        node_scales=module._node_scales,
        dtype=dtype,
    )


def compile_model(model: "AeroModel", dtype="float64") -> CompiledModel:
    """Freeze a trained :class:`AeroModel` into a :class:`CompiledModel`.

    The plan always executes eval-mode (inference) semantics — dropout is
    elided — matching what ``AeroModel.forward`` computes after training
    (the trainer leaves the model in ``eval()`` mode).
    """
    dtype = _resolve_dtype(dtype)
    temporal = _compile_temporal(model.temporal, dtype) if model.temporal is not None else None
    noise = _compile_noise(model.noise, dtype) if model.noise is not None else None
    return CompiledModel(
        temporal=temporal,
        noise=noise,
        use_short_window=model.use_short_window,
        num_variates=model.num_variates,
        dtype=dtype,
    )


# ----------------------------------------------------------------------
# detector-level compilation
# ----------------------------------------------------------------------
class CompiledDetector:
    """Serving front-end over a :class:`CompiledModel`.

    Bundles the compiled plans with the frozen scaler statistics,
    training-tail context and POT threshold of the source detector, and
    reimplements the scoring entry points of :class:`repro.core.AeroDetector`
    with identical batching — so ``score()``/``detect()`` are bit-for-bit
    equal to the detector's (and the autograd forward's) in float64 mode.

    ``score_stack`` is the fused multi-star serving path: a ``(S, W, N)``
    stack of ring-buffer windows (one per shard) is scored with a single
    plan call, no per-shard staging.
    """

    def __init__(
        self,
        *,
        model: CompiledModel,
        config,
        scaler: MinMaxScaler,
        threshold: float,
        train_tail: np.ndarray | None,
        train_tail_times: np.ndarray | None,
    ):
        self.model = model
        self.config = config
        self.scaler = scaler
        self.threshold = float(threshold)
        self._train_tail = train_tail
        self._train_tail_times = train_tail_times

    # ------------------------------------------------------------------
    @property
    def dtype(self) -> np.dtype:
        return np.dtype(self.model.dtype)

    @property
    def num_variates(self) -> int:
        return self.model.num_variates

    def reset_dynamic_state(self) -> None:
        self.model.reset_dynamic_state()

    # ------------------------------------------------------------------
    def forward(
        self,
        long_windows: np.ndarray,
        short_windows: np.ndarray,
        long_times: np.ndarray | None = None,
        short_times: np.ndarray | None = None,
    ) -> CompiledForwardResult:
        return self.model.forward(long_windows, short_windows, long_times, short_times)

    def score_windows(
        self,
        long_windows: np.ndarray,
        short_windows: np.ndarray,
        long_times: np.ndarray | None = None,
        short_times: np.ndarray | None = None,
    ) -> np.ndarray:
        """Tape-free equivalent of :meth:`AeroDetector.score_windows`."""
        return self.model.forward(long_windows, short_windows, long_times, short_times).scores

    # ------------------------------------------------------------------
    # incremental serving
    # ------------------------------------------------------------------
    def new_incremental_state(self, num_stacks: int):
        """A fresh :class:`repro.runtime.IncrementalState` for this plan.

        The state starts *invalid* (it has no window history); seed it with
        :meth:`IncrementalState.rebuild` from the serving ring buffers, then
        advance it one tick at a time with :meth:`score_stack_step`, bit for
        bit equal (float64) to :meth:`score_stack` over the same windows.
        """
        from .incremental import IncrementalState

        return IncrementalState(self.model, self.config, num_stacks)

    def score_stack_step(self, state, rows: np.ndarray, timestamp=None) -> np.ndarray:
        """Append one scaled exposure and score the fleet incrementally.

        ``rows`` is the ``(num_stacks, N)`` *scaled* exposure (exactly what
        the serving front appends to its ring buffers); ``timestamp``
        the shared exposure time (``None`` locks the state to the default
        index cadence).  Returns ``(num_stacks, N)`` scores — bit-for-bit
        equal (float64) to staging the updated windows through
        :meth:`score_stack` — or NaN while the state warms up.
        """
        state.append(rows, timestamp)
        if not state.warm:
            return np.full((state.num_stacks, state.num_variates), np.nan)  # repro: allow[hot-alloc] -- warm-up ticks only; the emitted result must outlive the tick
        return state.score()

    def score_step(self, state, row: np.ndarray, timestamp=None) -> np.ndarray:
        """Single-stack :meth:`score_stack_step`: ``(N,)`` row in, ``(N,)`` scores out."""
        rows = np.asarray(row, dtype=np.float64).reshape(1, -1)
        return self.score_stack_step(state, rows, timestamp)[0]

    def score_stack(self, stack: np.ndarray, timestamps: np.ndarray | None = None) -> np.ndarray:
        """Score a ``(S, W, N)`` stack of full windows in one fused call.

        Each of the ``S`` stack entries is one serving window in time-major
        layout — exactly what a ring buffer view yields — so a fleet of
        shards is scored without transposing or staging per shard.
        ``timestamps`` may be ``(W,)`` (shared exposure timeline) or
        ``(S, W)``.  Returns ``(S, N)`` scores.
        """
        stack = np.asarray(stack, dtype=self.model.dtype)
        if stack.ndim != 3:
            raise ValueError("stack must be 3-D (stacks, window, variates)")
        window = self.config.window
        short = self.config.short_window
        if stack.shape[1] != window:
            raise ValueError(f"stack windows must have length {window}, got {stack.shape[1]}")
        long_windows = stack.transpose(0, 2, 1)
        if timestamps is None:
            long_times = short_times = None
        else:
            times = np.asarray(timestamps, dtype=np.float64)
            if times.ndim == 1:
                times = np.broadcast_to(times, (stack.shape[0], window))
            long_times = times
            short_times = times[:, window - short:]
        return self.model.forward(
            long_windows,
            long_windows[:, :, window - short:],
            long_times,
            short_times,
        ).scores

    # ------------------------------------------------------------------
    def score(self, series: np.ndarray, timestamps: np.ndarray | None = None) -> np.ndarray:
        """Anomaly scores for every point of ``series``.

        Runs the shared :func:`~repro.core.detector.sliding_window_scores`
        driver — the same context prepend, micro-batch grouping and
        early-point backfill as :meth:`AeroDetector.score` — over the
        compiled plans, so float64 output is bit-for-bit equal.
        """
        series = np.asarray(series, dtype=np.float64)
        if series.ndim != 2:
            raise ValueError("series must be 2-D (time, variates)")
        scaled = self.scaler.transform(series)
        if self.model.graph_mode == "dynamic":
            self.model.reset_dynamic_state()
        return sliding_window_scores(
            lambda batch: self.model.forward(
                batch.long, batch.short, batch.long_times, batch.short_times
            ).scores,
            self.config,
            scaled,
            timestamps,
            self._train_tail,
            self._train_tail_times,
            score_dtype=self.model.dtype,
        )

    def detect(self, series: np.ndarray, timestamps: np.ndarray | None = None) -> np.ndarray:
        """Binary anomaly labels under the frozen POT threshold."""
        return (self.score(series, timestamps) >= self.threshold).astype(np.int64)


def compile_detector(detector: "AeroDetector", dtype="float64", verify: bool = False) -> CompiledDetector:
    """Export a fitted :class:`AeroDetector` into a :class:`CompiledDetector`.

    Captures the model weights, the fitted scaler statistics, the
    training-tail scoring context and the train-calibrated POT threshold.
    The detector must be fitted; the compiled artifact is fully decoupled
    from it afterwards (re-fitting the detector does not change the plan).

    ``verify=True`` runs :func:`repro.analysis.plancheck.verify_model` on
    the exported plan before returning — structural shape/dtype checks
    plus an instrumented incremental drive, compared against
    the full forward — raising
    :class:`~repro.analysis.plancheck.PlanVerificationError` on any issue.
    Verification restores all observable serving state, so a verified
    detector scores exactly what an unverified one does.
    """
    model = detector._require_fitted()
    dtype = _resolve_dtype(dtype)
    scaler = MinMaxScaler(feature_range=detector.scaler.feature_range, eps=detector.scaler.eps)
    scaler.data_min_ = detector.scaler.data_min_.copy()
    scaler.data_max_ = detector.scaler.data_max_.copy()
    tail, tail_times = detector.window_context()
    compiled = CompiledDetector(
        model=compile_model(model, dtype=dtype),
        config=detector.config,
        scaler=scaler,
        threshold=detector.threshold(),
        train_tail=None if tail is None else np.array(tail, dtype=np.float64),
        train_tail_times=None if tail_times is None else np.array(tail_times, dtype=np.float64),
    )
    if verify:
        from ..analysis.plancheck import verify_detector

        verify_detector(compiled).raise_if_failed()
    return compiled
