"""Incremental per-tick execution for the compiled serving runtime.

A streaming tick scores one ``W``-length sliding window per star stack, and
consecutive windows share ``W - 1`` rows.  The full compiled forward
(:meth:`repro.runtime.plans.CompiledModel.forward`) recomputes everything
from scratch every tick; the :class:`IncrementalState` built here caches the
cross-tick invariants instead:

* **ring-layout value buffers** — every stack's scaled rows live in a
  mirrored ring (each row written twice, ``2W`` slots), so the current
  window is always one zero-copy contiguous view, never a re-stage;
* **per-row value embeddings** — in the univariate layout the encoder (and,
  under full conditioning, decoder) value projection of a row is a
  degenerate ``(…, 1) @ (1, d)`` map that never changes once the row
  arrives, so it is computed once per row into its own mirrored ring;
* **one timeline stage per tick** — every stack shares the exposure
  timeline, and the time embeddings depend on nothing else (nor, under
  masked conditioning, does the decoder input), so the encoder and decoder
  time embeddings, the first decoder layer's self stage and its
  cross-attention query run once per tick at batch 1 and broadcast over
  the ``S·N`` folded sequences.  Their cost no longer grows with the fleet,
  and the memos they share with the full path
  (:class:`~repro.runtime.plans.TimeEmbeddingPlan`, the decoder self-stage
  memo) hold batch-1 entries, which a steady cadence hits every tick;
* **frozen GCN graph inputs** — the ``static`` graph's degree-normalized
  adjacency is a constant of the fleet geometry and is built once per state
  (re)build.

Everything that genuinely depends on the newest row — attention over the
window, softmax normalizations, the decoder cross stages, the GCN
propagation — re-runs each tick, but into named buffers of a
:class:`ScratchArena`, so the steady-state tick allocates nothing beyond
the emitted score vector.  The workspace kernels below replay the *exact*
ufunc/GEMM sequences of :mod:`repro.runtime.ops`, so float64 incremental
scores are bit-for-bit equal to the full compiled forward.

Invalidation: the state stays valid as long as it is fed the same rows, in
the same order, as the serving ring buffers (the streaming fronts append to
both in lockstep — imputed dropout rows included).  Whenever that lockstep
breaks — a model hot-swap rescales the buffered history, a front detects a
desynchronisation, or the state is brand new — the front rebuilds the state
from the ring buffers with :meth:`IncrementalState.rebuild` and scoring
continues on the very same tick.  Window geometries the incremental kernels
do not cover (``use_short_window=False``) fall back to the full compiled
forward transparently, counted in :attr:`IncrementalState.fallbacks`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - imports only for type checkers
    from .plans import (
        AttentionPlan,
        CompiledModel,
        DecoderLayerPlan,
        EncoderLayerPlan,
        FeedForwardPlan,
        LayerNormPlan,
        NoisePlan,
        TemporalPlan,
    )

__all__ = ["IncrementalState", "ScratchArena", "temporal_step", "noise_step", "model_step"]

#: Same literal as ``repro.runtime.plans._GRAPH_EPS`` (kept in sync so the
#: cached static adjacency reproduces the full path's normalization bits).
_GRAPH_EPS = 1e-8

_GELU_C = float(np.sqrt(2.0 / np.pi))


class ScratchArena:
    """Named preallocated scratch buffers for one incremental state.

    ``get(name, shape, dtype)`` returns the same buffer on every tick, so a
    steady-state forward allocates nothing: each kernel writes its result
    into its named slot with ``out=``.  Shapes are fixed by the serving
    geometry; a mismatched request (only possible across a geometry change,
    which rebuilds the state anyway) transparently reallocates the slot.
    """

    __slots__ = ("_buffers",)

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}

    def get(self, name: str, shape: tuple, dtype) -> np.ndarray:
        buffer = self._buffers.get(name)
        if buffer is None or buffer.shape != tuple(shape) or buffer.dtype != np.dtype(dtype):
            buffer = np.empty(shape, dtype=dtype)  # repro: allow[hot-alloc] -- first-touch/geometry-change only; steady-state ticks hit the cached slot
            self._buffers[name] = buffer
        return buffer

    @property
    def nbytes(self) -> int:
        return sum(buffer.nbytes for buffer in self._buffers.values())


# ----------------------------------------------------------------------
# workspace kernels — ``ops.py`` sequences replayed into arena buffers.
# Every ufunc below appears in the same order, with the same operand
# order, as its ``ops``/``plans`` counterpart; only the destination of
# each freshly-allocated intermediate changes (a named arena buffer
# instead of a new allocation), which cannot change a bit.
# ----------------------------------------------------------------------
def _ws_linear(arena: ScratchArena, name: str, x, weight, bias):
    out = arena.get(name, x.shape[:-1] + (weight.shape[-1],), weight.dtype)
    if weight.shape[0] == 1 and x.shape[-1] == 1:
        np.multiply(x, weight[0], out=out)
    else:
        np.matmul(x, weight, out=out)
    if bias is not None:
        np.add(out, bias, out=out)
    return out


def _ws_relu(arena: ScratchArena, name: str, x):
    mask = arena.get(name + ".mask", x.shape, np.bool_)
    np.greater(x, 0, out=mask)
    out = arena.get(name + ".out", x.shape, x.dtype)
    np.multiply(x, mask, out=out)
    return out


def _ws_gelu(arena: ScratchArena, name: str, x):
    inner = arena.get(name + ".inner", x.shape, x.dtype)
    out = arena.get(name + ".out", x.shape, x.dtype)
    np.power(x, 3, out=inner)
    np.multiply(inner, 0.044715, out=inner)
    np.add(x, inner, out=inner)
    np.multiply(inner, _GELU_C, out=inner)
    np.tanh(inner, out=inner)
    np.add(inner, 1.0, out=inner)
    np.multiply(x, 0.5, out=out)
    np.multiply(out, inner, out=out)
    return out


def _ws_sigmoid(arena: ScratchArena, name: str, x):
    out = arena.get(name + ".out", x.shape, x.dtype)
    np.clip(x, -60.0, 60.0, out=out)
    return _sigmoid_inplace(out)


def _sigmoid_inplace(out):
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.add(out, 1.0, out=out)
    np.divide(1.0, out, out=out)
    return out


def _ws_activation(arena: ScratchArena, name: str, x, kind: str):
    if kind == "identity":
        return x
    if kind == "relu":
        return _ws_relu(arena, name, x)
    if kind == "gelu":
        return _ws_gelu(arena, name, x)
    if kind == "tanh":
        out = arena.get(name + ".out", x.shape, x.dtype)
        np.tanh(x, out=out)
        return out
    if kind == "sigmoid":
        return _ws_sigmoid(arena, name, x)
    raise ValueError(f"unsupported activation: {kind!r}")


def _ws_softmax_inplace(arena: ScratchArena, name: str, x):
    reduced = x.shape[:-1] + (1,)
    peak = arena.get(name + ".max", reduced, x.dtype)
    np.max(x, axis=-1, keepdims=True, out=peak)
    np.subtract(x, peak, out=x)
    np.exp(x, out=x)
    total = arena.get(name + ".sum", reduced, x.dtype)
    np.sum(x, axis=-1, keepdims=True, out=total)
    np.divide(x, total, out=x)
    return x


def _ws_layer_norm(arena: ScratchArena, name: str, norm: "LayerNormPlan", x):
    reduced = x.shape[:-1] + (1,)
    inverse_count = 1.0 / x.shape[-1]
    mean = arena.get(name + ".mean", reduced, x.dtype)
    np.sum(x, axis=-1, keepdims=True, out=mean)
    np.multiply(mean, inverse_count, out=mean)
    centered = arena.get(name + ".cen", x.shape, x.dtype)
    np.subtract(x, mean, out=centered)
    squared = arena.get(name + ".sq", x.shape, x.dtype)
    np.multiply(centered, centered, out=squared)
    var = arena.get(name + ".var", reduced, x.dtype)
    np.sum(squared, axis=-1, keepdims=True, out=var)
    np.multiply(var, inverse_count, out=var)
    np.add(var, norm.eps, out=var)
    np.sqrt(var, out=var)
    np.divide(centered, var, out=centered)
    np.multiply(centered, norm.gamma, out=centered)
    np.add(centered, norm.beta, out=centered)
    return centered


def _ws_ffn(arena: ScratchArena, name: str, ffn: "FeedForwardPlan", x):
    hidden = _ws_linear(arena, name + ".h", x, ffn.w1, ffn.b1)
    hidden = _ws_activation(arena, name + ".act", hidden, ffn.activation)
    return _ws_linear(arena, name + ".o", hidden, ffn.w2, ffn.b2)


def _ws_attend(arena: ScratchArena, name: str, attention: "AttentionPlan", q, k, v):
    # The batch comes from the keys: a batch-1 query (the shared decoder
    # stage) broadcasts over every folded sequence's memory.
    _, heads, length, d_head = q.shape
    batch, _, keys, _ = k.shape
    scores = arena.get(name + ".scores", (batch, heads, length, keys), attention.wq.dtype)
    np.matmul(q, k.swapaxes(-1, -2), out=scores)
    np.multiply(scores, attention.scale, out=scores)
    _ws_softmax_inplace(arena, name + ".sm", scores)
    attended = arena.get(name + ".att", (batch, heads, length, d_head), attention.wq.dtype)
    np.matmul(scores, v, out=attended)
    merged = arena.get(name + ".merge", (batch, length, heads * d_head), attention.wq.dtype)
    np.copyto(merged.reshape(batch, length, heads, d_head), attended.transpose(0, 2, 1, 3))
    return _ws_linear(arena, name + ".out", merged, attention.wo, attention.bo)


def _split_heads(attention: "AttentionPlan", x):
    batch, length, _ = x.shape
    return x.reshape(batch, length, attention.num_heads, attention.d_head).transpose(0, 2, 1, 3)


def _ws_self_attention(arena: ScratchArena, name: str, attention: "AttentionPlan", x):
    batch, length, d_model = x.shape
    qkv = arena.get(name + ".qkv", (3, batch, length, d_model), attention.wq.dtype)
    np.matmul(x[None], attention.wqkv[:, None], out=qkv)
    np.add(qkv, attention.bqkv, out=qkv)
    return _ws_attend(
        arena, name, attention,
        _split_heads(attention, qkv[0]),
        _split_heads(attention, qkv[1]),
        _split_heads(attention, qkv[2]),
    )


def _ws_cross_attention(arena: ScratchArena, name: str, attention: "AttentionPlan", x, memory):
    batch, keys, d_model = memory.shape
    q = _ws_linear(arena, name + ".q", x, attention.wq, attention.bq)
    kv = arena.get(name + ".kv", (2, batch, keys, d_model), attention.wq.dtype)
    np.matmul(memory[None], attention.wkv[:, None], out=kv)
    np.add(kv, attention.bkv, out=kv)
    return _ws_attend(
        arena, name, attention,
        _split_heads(attention, q),
        _split_heads(attention, kv[0]),
        _split_heads(attention, kv[1]),
    )


def _ws_encoder_layer(arena: ScratchArena, name: str, layer: "EncoderLayerPlan", x):
    attended = _ws_self_attention(arena, name + ".sa", layer.self_attention, x)
    np.add(x, attended, out=attended)
    x = _ws_layer_norm(arena, name + ".n1", layer.norm1, attended)
    transformed = _ws_ffn(arena, name + ".ff", layer.feed_forward, x)
    np.add(x, transformed, out=transformed)
    return _ws_layer_norm(arena, name + ".n2", layer.norm2, transformed)


def _ws_self_stage(arena: ScratchArena, name: str, layer: "DecoderLayerPlan", x):
    attended = _ws_self_attention(arena, name + ".sa", layer.self_attention, x)
    np.add(x, attended, out=attended)
    return _ws_layer_norm(arena, name + ".n1", layer.norm1, attended)


def _ws_cross_stage(arena: ScratchArena, name: str, layer: "DecoderLayerPlan", x, memory):
    cross = _ws_cross_attention(arena, name + ".ca", layer.cross_attention, x, memory)
    np.add(x, cross, out=cross)
    x = _ws_layer_norm(arena, name + ".n2", layer.norm2, cross)
    transformed = _ws_ffn(arena, name + ".ff", layer.feed_forward, x)
    np.add(x, transformed, out=transformed)
    return _ws_layer_norm(arena, name + ".n3", layer.norm3, transformed)


def _ws_decoder_layer(arena: ScratchArena, name: str, layer: "DecoderLayerPlan", x, memory):
    return _ws_cross_stage(arena, name, layer, _ws_self_stage(arena, name, layer, x), memory)


# ----------------------------------------------------------------------
# incremental state
# ----------------------------------------------------------------------
class IncrementalState:
    """Per-fleet cross-tick serving state for one :class:`CompiledModel`.

    Holds the mirrored ring buffers, per-row embedding rings, frozen graph
    inputs and the scratch arena for ``num_stacks`` star stacks of the
    model's geometry.  Built through
    :meth:`repro.runtime.CompiledDetector.new_incremental_state`.

    Lifecycle: a fresh state is *invalid* (it has no history); a front
    seeds it with :meth:`rebuild` from its ring-buffer windows, after which
    :meth:`append` + :meth:`score` (or the combined
    ``CompiledDetector.score_stack_step``) advance it one tick at a time.
    :meth:`invalidate` (or any event that breaks ring/buffer lockstep, e.g.
    a model hot-swap) forces the next tick through :meth:`rebuild` again.
    """

    def __init__(self, model: "CompiledModel", config, num_stacks: int, layout: str = "stack"):
        if num_stacks <= 0:
            raise ValueError("num_stacks must be positive")
        if layout not in ("stack", "windows"):
            raise ValueError(f"layout must be 'stack' or 'windows', got {layout!r}")
        self.model = model
        self.config = config
        #: Which full-forward entry point this state must match bit for bit.
        #: ``"stack"`` replicates ``score_stack``'s memory layouts (the fleet
        #: path: transposed multivariate error strides); ``"windows"``
        #: replicates ``score_windows``'s (the per-stream path: C-contiguous
        #: error strides).  The GCN kernels are layout-sensitive at the ulp
        #: level, so the two entry points are 1-ulp different worlds and the
        #: state has to pick the one its serving front compares against.
        self.layout = layout
        self.num_stacks = int(num_stacks)
        self.num_variates = model.num_variates
        self.window = int(config.window)
        self.short = int(config.short_window)
        self.dtype = np.dtype(model.dtype)
        self.arena = ScratchArena()

        temporal = model.temporal
        #: The incremental kernels cover every ablation with a short-window
        #: target; ``use_short_window=False`` re-reconstructs the whole long
        #: window each tick, which shares no cacheable prefix work worth
        #: special-casing — those models serve through the full-forward
        #: fallback (still from the rings, still bit-equal).
        self._supported = bool(model.use_short_window)
        self._uni = temporal is not None and not temporal.multivariate_input

        mirror = 2 * self.window
        if self._uni:
            folded = self.num_stacks * self.num_variates
            self._values = np.empty((folded, mirror), dtype=self.dtype)
            d_enc = temporal.encoder_embedding_w.shape[1]
            self._enc_embed = np.empty((folded, mirror, d_enc), dtype=self.dtype)
            if temporal.conditioning == "full":
                d_dec = temporal.decoder_embedding_w.shape[1]
                self._dec_embed = np.empty((folded, mirror, d_dec), dtype=self.dtype)
            else:
                self._dec_embed = None
        else:
            self._values = np.empty((self.num_stacks, mirror, self.num_variates), dtype=self.dtype)
            self._enc_embed = None
            self._dec_embed = None
        noise = model.noise
        #: Scaled-features mirror ring for the static-graph GCN: with no
        #: temporal stage the errors ARE the stored values, so the
        #: propagation input for the W-1 shared timesteps is constant across
        #: ticks (per-variate scaling, no window-slot dependence) and is
        #: maintained one row per append instead of re-scaling the whole
        #: window every tick.  Row-wise scaling is elementwise, hence
        #: bit-identical to the full-window multiply.  Temporal models'
        #: errors change every tick (reconstruction re-phases), so they keep
        #: the per-tick multiply.
        if (
            temporal is None
            and noise is not None
            and noise.graph_mode == "static"
            and noise.scales is not None
            and not self._uni
        ):
            self._features = np.empty_like(self._values)
        else:
            self._features = None
        self._times = np.empty(mirror, dtype=np.float64)
        self.times_mode: str | None = None  # "real" | "default", locked on first use

        # Frozen graph inputs -----------------------------------------------
        self._static_norm: np.ndarray | None = None
        self._static_last: np.ndarray | None = None

        # Lifecycle + counters ---------------------------------------------
        self.pos = 0
        self.count = 0
        self.valid = False
        self.invalid_reason = "fresh state (no history yet)"
        self.ticks = 0
        self.incremental_ticks = 0
        self.rebuilds = 0
        self.fallbacks = 0
        self.invalidations = 0

    # ------------------------------------------------------------------
    @property
    def supported(self) -> bool:
        """Whether ticks run the incremental kernels (vs the full fallback)."""
        return self._supported

    @property
    def warm(self) -> bool:
        """Whether the rings hold a full window."""
        return self.count >= self.window

    @property
    def window_start(self) -> int:
        """First slot of the current window in the mirrored rings."""
        return (self.pos - 1) % self.window + 1

    # ------------------------------------------------------------------
    def invalidate(self, reason: str = "invalidated") -> None:
        """Mark the state stale; the next tick must :meth:`rebuild` first."""
        self.valid = False
        self.invalid_reason = reason
        self.invalidations += 1

    def _lock_times_mode(self, mode: str) -> None:
        if self.times_mode is None:
            self.times_mode = mode
        elif self.times_mode != mode:
            raise ValueError(
                "cannot mix real and index timestamps in one incremental state "
                f"(state is {self.times_mode!r}); rebuild() to switch modes"
            )

    def append(self, rows: np.ndarray, timestamp: float | None = None) -> None:
        """Append one scaled exposure row per stack (``(num_stacks, N)``)."""
        rows = np.asarray(rows, dtype=np.float64)
        if rows.shape != (self.num_stacks, self.num_variates):
            raise ValueError(
                f"rows must have shape ({self.num_stacks}, {self.num_variates}), got {rows.shape}"
            )
        self._lock_times_mode("default" if timestamp is None else "real")
        slot = self.pos % self.window
        mirror = slot + self.window
        if self._uni:
            self._values[:, slot] = rows.reshape(-1)
        else:
            self._values[:, slot] = rows
        self._values[:, mirror] = self._values[:, slot]
        if self._features is not None:
            np.multiply(
                self._values[:, slot], self.model.noise.scales, out=self._features[:, slot]
            )
            self._features[:, mirror] = self._features[:, slot]
        if timestamp is not None:
            self._times[slot] = self._times[mirror] = float(timestamp)
        if self._enc_embed is not None:
            self._embed_row(
                self._enc_embed, slot,
                self.model.temporal.encoder_embedding_w,
                self.model.temporal.encoder_embedding_b,
            )
        if self._dec_embed is not None:
            self._embed_row(
                self._dec_embed, slot,
                self.model.temporal.decoder_embedding_w,
                self.model.temporal.decoder_embedding_b,
            )
        self.pos += 1
        self.count = min(self.count + 1, self.window)

    def _embed_row(self, ring: np.ndarray, slot: int, weight, bias) -> None:
        # Degenerate ``(…, 1) @ (1, d)`` value embedding of one row — the
        # same broadcast multiply ``ops.linear`` dispatches for the full
        # univariate fold, restricted to the newest row.
        row = ring[:, slot]
        np.multiply(self._values[:, slot, None], weight[0], out=row)
        if bias is not None:
            np.add(row, bias, out=row)
        ring[:, slot + self.window] = row

    def rebuild(self, stack: np.ndarray, times: np.ndarray | None = None) -> None:
        """Re-seed every ring from ``(num_stacks, W, N)`` serving windows.

        ``times`` is the shared ``(W,)`` exposure timeline (``None`` locks
        the state to the default index cadence).  Rebuilding resets the
        validity flag and the timestamp mode; the frozen graph inputs carry
        over (they depend on the fleet geometry only).
        """
        stack = np.asarray(stack, dtype=np.float64)
        expected = (self.num_stacks, self.window, self.num_variates)
        if stack.shape != expected:
            raise ValueError(f"stack must have shape {expected}, got {stack.shape}")
        window = self.window
        if self._uni:
            self._values[:, :window] = stack.transpose(0, 2, 1).reshape(-1, window)
        else:
            self._values[:, :window] = stack
        self._values[:, window:] = self._values[:, :window]
        if times is None:
            self.times_mode = "default"
        else:
            times = np.asarray(times, dtype=np.float64)
            if times.shape != (window,):
                raise ValueError(f"times must have shape ({window},), got {times.shape}")
            self._times[:window] = times
            self._times[window:] = times
            self.times_mode = "real"
        if self._features is not None:
            np.multiply(self._values, self.model.noise.scales, out=self._features)
        if self._enc_embed is not None:
            self._rebuild_embed(
                self._enc_embed,
                self.model.temporal.encoder_embedding_w,
                self.model.temporal.encoder_embedding_b,
            )
        if self._dec_embed is not None:
            self._rebuild_embed(
                self._dec_embed,
                self.model.temporal.decoder_embedding_w,
                self.model.temporal.decoder_embedding_b,
            )
        self.pos = window
        self.count = window
        self.valid = True
        self.invalid_reason = ""
        self.rebuilds += 1

    def _rebuild_embed(self, ring: np.ndarray, weight, bias) -> None:
        window = self.window
        np.multiply(self._values[:, :window, None], weight[0], out=ring[:, :window])
        if bias is not None:
            np.add(ring[:, :window], bias, out=ring[:, :window])
        ring[:, window:] = ring[:, :window]

    # ------------------------------------------------------------------
    # zero-copy views over the current window
    # ------------------------------------------------------------------
    def values_window(self, start: int, stop: int) -> np.ndarray:
        """Rows ``[start, stop)`` of the window in fold layout (multivariate)."""
        j = self.window_start
        return self._values[:, j + start : j + stop]

    def target_view(self) -> np.ndarray:
        """The ``(num_stacks, N, omega)`` short-window reconstruction target."""
        j = self.window_start
        begin = j + self.window - self.short
        end = j + self.window
        if self._uni:
            return self._values[:, begin:end].reshape(
                self.num_stacks, self.num_variates, self.short
            )
        return self._values[:, begin:end].transpose(0, 2, 1)

    def features_view(self) -> np.ndarray:
        """Static-GCN scaled features over the target window (zero-copy)."""
        j = self.window_start
        begin = j + self.window - self.short
        return self._features[:, begin : j + self.window].transpose(0, 2, 1)

    # ------------------------------------------------------------------
    # frozen graph inputs
    # ------------------------------------------------------------------
    def static_adjacency(self, plan: "NoisePlan") -> np.ndarray:
        """The degree-normalized all-ones adjacency of the static graph.

        A constant of the fleet geometry, built once with exactly the
        normalization sequence of :meth:`NoisePlan.forward` and frozen.
        """
        if self._static_norm is None:
            num_variates = self.num_variates
            normalized = np.ones(
                (self.num_stacks, num_variates, num_variates), dtype=self.dtype
            )
            if plan.remove_self_loops:
                diagonal = np.arange(num_variates)
                normalized[:, diagonal, diagonal] = 0.0
            degree = np.abs(normalized).sum(axis=2)
            inverse_degree = np.where(degree > _GRAPH_EPS, 1.0 / (degree + _GRAPH_EPS), 0.0)
            np.multiply(inverse_degree[:, :, None], normalized, out=normalized)
            normalized.flags.writeable = False
            self._static_norm = normalized
        return self._static_norm

    def static_last_adjacency(self) -> np.ndarray:
        """Frozen mirror of the full path's per-tick ``np.ones`` diagnostic."""
        if self._static_last is None:
            last = np.ones((self.num_variates, self.num_variates), dtype=self.dtype)
            last.flags.writeable = False
            self._static_last = last
        return self._static_last

    # ------------------------------------------------------------------
    def score(self) -> np.ndarray:
        """Score the current window; ``(num_stacks, N)``, freshly allocated.

        Raises when the state is invalid (needs :meth:`rebuild`) or not yet
        warm — the streaming fronts guard both before calling.
        """
        if not self.valid:
            raise RuntimeError(
                f"incremental state must be rebuilt before scoring: {self.invalid_reason}"
            )
        if not self.warm:
            raise RuntimeError("incremental state window is not full yet")
        self.ticks += 1
        if self._supported:
            self.incremental_ticks += 1
            return model_step(self.model, self)
        self.fallbacks += 1
        return self._score_full()

    def _score_full(self) -> np.ndarray:
        """Transparent full-forward fallback, staged from the rings.

        Replays exactly what ``CompiledDetector.score_stack`` runs on the
        same window, so fallback ticks keep the bit-for-bit guarantee.
        """
        j = self.window_start
        window = self.window
        stack = self.arena.get(
            "fallback.stack", (self.num_stacks, window, self.num_variates), self.dtype
        )
        if self._uni:
            np.copyto(
                stack,
                self._values[:, j : j + window]
                .reshape(self.num_stacks, self.num_variates, window)
                .transpose(0, 2, 1),
            )
        else:
            np.copyto(stack, self._values[:, j : j + window])
        long_windows = stack.transpose(0, 2, 1)
        short_windows = long_windows[:, :, window - self.short :]
        if self.times_mode == "real":
            times = np.broadcast_to(self._times[j : j + window], (self.num_stacks, window))
            long_times = times
            short_times = times[:, window - self.short :]
        else:
            long_times = short_times = None
        return self.model.forward(long_windows, short_windows, long_times, short_times).scores


# ----------------------------------------------------------------------
# per-tick module steps
# ----------------------------------------------------------------------
def temporal_step(plan: "TemporalPlan", state: IncrementalState) -> np.ndarray:
    """One-tick temporal reconstruction over ``state``'s current window.

    Mirrors :meth:`TemporalPlan.forward` stage for stage — same kernels,
    same operand order — reading the window from the state rings and the
    per-row value embeddings from their caches.  Returns the
    ``(num_stacks, N, omega)`` reconstruction (a workspace view).

    Every stack shares the one exposure timeline, so the timeline-only
    stages — both time embeddings and, under masked conditioning, the first
    decoder layer's self stage and cross-attention query — run once at
    batch 1 and broadcast over the folded sequences.  Broadcasting repeats
    operands, never reorders arithmetic, so every output element sees the
    same ufunc/GEMM sequence as the per-stack full forward.
    """
    arena = state.arena
    stacks = state.num_stacks
    variates = state.num_variates
    window = state.window
    omega = state.short
    context = window - omega
    j = state.window_start
    masked = plan.conditioning == "masked"

    if state.times_mode == "real":
        long_times = state._times[None, j : j + window]
    else:
        long_times = plan._default_long_times(1, window)
    short_times = long_times[:, context:]

    # -- encoder input ---------------------------------------------------
    length = context if masked else window
    encoder_time = plan.time_embedding(long_times[:, :context] if masked else long_times)
    if plan.multivariate_input:
        encoder_input = _ws_linear(
            arena, "enc.in",
            state.values_window(0, length),
            plan.encoder_embedding_w, plan.encoder_embedding_b,
        )
        np.add(encoder_input, encoder_time, out=encoder_input)
    else:
        embedded = state._enc_embed[:, j : j + length]
        d_model = embedded.shape[2]
        encoder_input = arena.get("enc.in", (stacks * variates, length, d_model), plan.dtype)
        np.add(
            embedded.reshape(stacks, variates, length, d_model),
            encoder_time[:, None],
            out=encoder_input.reshape(stacks, variates, length, d_model),
        )

    memory = encoder_input
    for index, layer in enumerate(plan.encoder_layers):
        memory = _ws_encoder_layer(arena, f"enc{index}", layer, memory)

    # -- decoder ---------------------------------------------------------
    if masked:
        decoder_time, decoder_token = plan.time_embedding.embed(
            short_times, position_offset=context
        )
        if plan.decoder_layers:
            compact = plan._decoder_self_stage(decoder_time, decoder_token)
            decoded = _ws_cross_stage(arena, "dec0", plan.decoder_layers[0], compact, memory)
            for index, layer in enumerate(plan.decoder_layers[1:], start=1):
                decoded = _ws_decoder_layer(arena, f"dec{index}", layer, decoded, memory)
        else:
            decoded = np.broadcast_to(decoder_time, (len(memory),) + decoder_time.shape[1:])
    else:
        decoder_time = plan.time_embedding(short_times, position_offset=context)
        if plan.multivariate_input:
            decoded = _ws_linear(
                arena, "dec.in",
                state.values_window(context, window),
                plan.decoder_embedding_w, plan.decoder_embedding_b,
            )
            np.add(decoded, decoder_time, out=decoded)
        else:
            embedded = state._dec_embed[:, j + context : j + window]
            d_model = embedded.shape[2]
            decoded = arena.get("dec.in", (stacks * variates, omega, d_model), plan.dtype)
            np.add(
                embedded.reshape(stacks, variates, omega, d_model),
                decoder_time[:, None],
                out=decoded.reshape(stacks, variates, omega, d_model),
            )
        for index, layer in enumerate(plan.decoder_layers):
            decoded = _ws_decoder_layer(arena, f"dec{index}", layer, decoded, memory)

    # -- reconstruction head ---------------------------------------------
    hidden = _ws_ffn(arena, "head.ffn", plan.output_ffn, decoded)
    projected = _ws_linear(
        arena, "head.proj", hidden, plan.output_projection_w, plan.output_projection_b
    )
    np.clip(projected, -60.0, 60.0, out=projected)
    _sigmoid_inplace(projected)
    if plan.multivariate_input:
        return projected.transpose(0, 2, 1)
    return projected.reshape(stacks, variates, omega)


def _ws_like_layout(arena: ScratchArena, name: str, reference: np.ndarray) -> np.ndarray:
    """A workspace buffer with ``reference``'s shape *and* memory layout.

    The GCN's einsum/GEMM kernels are layout-sensitive at the ulp level
    (BLAS blocks strided and contiguous operands differently), so buffers
    feeding them must replicate the stride pattern the full forward's fresh
    allocations carry — C-contiguous in the univariate fold layout,
    ``(S, omega, N)``-transposed in the multivariate one.
    """
    if reference.flags.c_contiguous:
        return arena.get(name, reference.shape, reference.dtype)
    stacks, variates, omega = reference.shape
    return arena.get(name, (stacks, omega, variates), reference.dtype).transpose(0, 2, 1)


def noise_step(plan: "NoisePlan", state: IncrementalState, errors, target) -> np.ndarray:
    """One-tick GCN propagation; returns the newest timestep's ``(S, N)`` column.

    ``static`` mode reuses the state's frozen degree-normalized adjacency;
    ``window``/``dynamic`` adjacencies depend on this tick's errors, so the
    full :meth:`NoisePlan.forward` runs verbatim (its transient adjacency
    allocations free every tick — no steady-state growth).

    Only the newest column of the reconstruction reaches the Eq. 17 score,
    so the static path runs both GEMMs in full (single-column GEMMs are
    *not* bit-stable against the full product's column) but confines the
    elementwise bias/activation/rescale tail to that one column — per-entry
    ufuncs are bit-identical whatever their batch shape.
    """
    if plan.graph_mode != "static":
        return plan.forward(errors, target)[:, :, -1]
    arena = state.arena
    normalized = state.static_adjacency(plan)
    plan.last_adjacency = state.static_last_adjacency()
    if plan.scales is None:
        features = errors
    elif state._features is not None:
        features = state.features_view()
    else:
        features = _ws_like_layout(arena, "gcn.features", errors)
        np.multiply(errors, plan.scales[None, :, None], out=features)
    propagated = arena.get("gcn.propagated", errors.shape, errors.dtype)
    np.matmul(normalized, features, out=propagated)
    out = arena.get("gcn.out", errors.shape[:2] + (plan.weight.shape[1],), errors.dtype)
    np.matmul(propagated, plan.weight, out=out)
    last = arena.get("gcn.last", errors.shape[:2], errors.dtype)
    np.add(out[:, :, -1], plan.bias[-1], out=last)
    last = _ws_activation(arena, "gcn.act", last, plan.activation)
    if plan.inverse_scales is not None:
        np.multiply(last, plan.inverse_scales[None, :, -1], out=last)
    return last


def model_step(model: "CompiledModel", state: IncrementalState) -> np.ndarray:
    """One-tick score head over the incremental module steps.

    Mirrors :meth:`CompiledModel.forward`'s two-stage composition and
    Eq. 17 score; only the emitted ``(num_stacks, N)`` score vector is a
    fresh allocation (results outlive the tick), everything else lives in
    the arena.
    """
    arena = state.arena
    target = state.target_view()
    # Without a temporal stage the errors are bitwise the target
    # (``x - 0.0 == x``), and the static-graph GEMMs are stride-insensitive,
    # so the ring view serves directly.  Everything else stages errors in a
    # workspace: the adjacency einsum/norm kernels are layout-sensitive at
    # the ulp level, so the buffer replicates the layout the serving front
    # compares against — ``score_stack``'s ``target - reconstruction``
    # inherits its operands' transposed layout in the multivariate fold,
    # while ``score_windows``'s C-contiguous window batch yields
    # C-contiguous errors (see ``_ws_like_layout``).
    needs_workspace = model.temporal is not None or (
        model.noise is not None and model.noise.graph_mode != "static"
    )
    if needs_workspace:
        if state._uni or state.layout == "windows":
            errors = arena.get("model.errors", target.shape, model.dtype)
        else:
            stacks, variates, omega = target.shape
            errors = arena.get(
                "model.errors", (stacks, omega, variates), model.dtype
            ).transpose(0, 2, 1)
        if model.temporal is not None:
            reconstruction = temporal_step(model.temporal, state)
            np.subtract(target, reconstruction, out=errors)
        else:
            np.copyto(errors, target)
    else:
        errors = target
    if model.noise is not None:
        noise_last = noise_step(model.noise, state, errors, target)
        residual_last = arena.get("model.residual", target.shape[:2], model.dtype)
        np.subtract(errors[:, :, -1], noise_last, out=residual_last)
        return np.abs(residual_last)  # repro: allow[hot-ufunc-out] -- the one allowed allocation per tick: the emitted score vector outlives the arena
    # Ablated noise module reconstructs zeros: the residual IS the errors.
    return np.abs(errors[:, :, -1])  # repro: allow[hot-ufunc-out] -- emitted score vector, same as above
