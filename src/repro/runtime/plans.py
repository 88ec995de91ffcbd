"""Tape-free fused forward plans for serving-speed scoring.

A *plan* is the compiled form of one trained module: weights frozen into
read-only flat arrays, forward logic rewritten as pure ``np.ndarray``
kernels (:mod:`repro.runtime.ops`) with no :class:`~repro.nn.Tensor`
allocation and no autograd bookkeeping.  Plans are built by
:mod:`repro.runtime.compiler` and are the execution layer behind ``AeroDetector.score()`` and the
streaming/fleet serving paths.

Guarantees
----------
* **float64 mode** — bit-for-bit equal to the autograd forward pass.  Every
  kernel replays the exact operation sequence of the ``Tensor`` path (see
  ``ops.py``), and every fusion below only rearranges *dispatch*, never
  arithmetic:

  - the noise GCN's per-window python loop becomes stacked ``np.matmul``
    calls (identical per-slice GEMMs);
  - the three Q/K/V projections of a self-attention become one stacked
    matmul over a ``(3, d, d)`` weight block (same per-slice GEMMs);
  - time embeddings are memoized on the observation *intervals* — the only
    thing they depend on besides the frozen phase parameters — so serving a
    regular cadence pays the transcendentals once;
  - in the default masked/univariate mode the decoder input is a pure time
    embedding, identical across the folded variates, so the decoder's
    self-attention stage runs once per window and is repeated across
    variates afterwards (duplicated batch rows produce duplicated bits).

* **float32 mode** — the same plans execute in single precision throughout
  (weights cast once at compile time, python-float scalars keep arrays in
  float32), trading bit-equality for roughly half the memory traffic.
* **eval-mode semantics** — plans never apply dropout; they implement the
  inference semantics of a module in ``eval()`` mode regardless of the
  source module's training flag.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ops

__all__ = [
    "FeedForwardPlan",
    "LayerNormPlan",
    "AttentionPlan",
    "EncoderLayerPlan",
    "DecoderLayerPlan",
    "TimeEmbeddingPlan",
    "TemporalPlan",
    "NoisePlan",
    "CompiledForwardResult",
    "CompiledModel",
]

#: Numerical floor shared with ``repro.nn.normalize_adjacency`` and
#: ``repro.core.graph_learning`` (kept literal so the kernels stay exact).
_GRAPH_EPS = 1e-8


def freeze(array: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """Copy ``array`` into a read-only ndarray of the plan dtype.

    The copy decouples the plan from the live training weights (a later
    ``fit()`` or optimizer step cannot silently change a compiled plan) and
    the write lock makes the export genuinely read-only.
    """
    out = np.array(array, dtype=dtype)
    out.flags.writeable = False
    return out


class FeedForwardPlan:
    """Frozen :class:`repro.nn.FeedForward` (dropout elided — eval mode)."""

    __slots__ = ("w1", "b1", "w2", "b2", "activation")

    def __init__(self, w1, b1, w2, b2, activation: str):
        self.w1, self.b1, self.w2, self.b2 = w1, b1, w2, b2
        self.activation = activation

    def __call__(self, x: np.ndarray) -> np.ndarray:
        hidden = ops.apply_activation(ops.linear(x, self.w1, self.b1), self.activation)
        return ops.linear(hidden, self.w2, self.b2)


class LayerNormPlan:
    """Frozen :class:`repro.nn.LayerNorm`."""

    __slots__ = ("gamma", "beta", "eps")

    def __init__(self, gamma, beta, eps: float):
        self.gamma, self.beta, self.eps = gamma, beta, eps

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return ops.layer_norm(x, self.gamma, self.beta, self.eps)


class AttentionPlan:
    """Frozen :class:`repro.nn.MultiHeadAttention` (no mask — AERO uses none).

    Besides the per-projection weights, the plan stores the Q/K/V weights
    stacked into one ``(3, d, d)`` block and the K/V weights into a
    ``(2, d, d)`` block, so a self-attention issues one batched matmul for
    all three projections and a cross-attention one for both memory
    projections.  Stacked matmuls dispatch the same per-slice GEMMs as
    three separate calls, so float64 results are bit-identical.
    """

    __slots__ = (
        "wq", "bq", "wo", "bo", "wqkv", "bqkv", "wkv", "bkv",
        "num_heads", "d_head", "scale",
    )

    def __init__(self, wq, bq, wk, bk, wv, bv, wo, bo, num_heads: int):
        if bq is None or bk is None or bv is None or bo is None:
            raise ValueError("attention projections must have biases")
        self.wq, self.bq = wq, bq
        self.wo, self.bo = wo, bo
        self.wqkv = np.stack([wq, wk, wv])
        self.bqkv = np.stack([bq, bk, bv])[:, None, None, :]
        self.wkv = np.stack([wk, wv])
        self.bkv = np.stack([bk, bv])[:, None, None, :]
        # The stacked blocks are as load-bearing as the per-projection
        # weights they restack — same freeze contract.
        for stacked in (self.wqkv, self.bqkv, self.wkv, self.bkv):
            stacked.flags.writeable = False
        self.num_heads = num_heads
        self.d_head = wq.shape[1] // num_heads
        # Same value as the autograd path's ``1.0 / np.sqrt(d_k)``.
        self.scale = float(1.0 / np.sqrt(self.d_head))

    def _split_heads(self, x: np.ndarray) -> np.ndarray:
        batch, length, _ = x.shape
        return x.reshape(batch, length, self.num_heads, self.d_head).transpose(0, 2, 1, 3)

    def _attend(self, q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
        scores = q @ k.swapaxes(-1, -2)
        np.multiply(scores, self.scale, out=scores)
        attended = ops.softmax(scores) @ v
        batch, heads, length, d_head = attended.shape
        merged = attended.transpose(0, 2, 1, 3).reshape(batch, length, heads * d_head)
        return ops.linear(merged, self.wo, self.bo)

    def self_attention(self, x: np.ndarray) -> np.ndarray:
        qkv = x[None] @ self.wqkv[:, None]
        qkv += self.bqkv
        return self._attend(
            self._split_heads(qkv[0]), self._split_heads(qkv[1]), self._split_heads(qkv[2])
        )

    def cross(self, x: np.ndarray, memory: np.ndarray) -> np.ndarray:
        q = ops.linear(x, self.wq, self.bq)
        kv = memory[None] @ self.wkv[:, None]
        kv += self.bkv
        return self._attend(
            self._split_heads(q), self._split_heads(kv[0]), self._split_heads(kv[1])
        )


class EncoderLayerPlan:
    """Frozen post-norm Transformer encoder layer."""

    __slots__ = ("self_attention", "feed_forward", "norm1", "norm2")

    def __init__(self, self_attention, feed_forward, norm1, norm2):
        self.self_attention = self_attention
        self.feed_forward = feed_forward
        self.norm1, self.norm2 = norm1, norm2

    def __call__(self, x: np.ndarray) -> np.ndarray:
        attended = self.self_attention.self_attention(x)
        np.add(x, attended, out=attended)
        x = self.norm1(attended)
        transformed = self.feed_forward(x)
        np.add(x, transformed, out=transformed)
        return self.norm2(transformed)


class DecoderLayerPlan:
    """Frozen post-norm Transformer decoder layer with cross-attention.

    The layer is split into a ``self_stage`` (self-attention + norm) and a
    ``cross_stage`` (cross-attention + feed-forward) so the temporal plan
    can run the self stage once per window when the decoder input is
    variate-independent (masked conditioning, univariate layout).
    """

    __slots__ = ("self_attention", "cross_attention", "feed_forward", "norm1", "norm2", "norm3")

    def __init__(self, self_attention, cross_attention, feed_forward, norm1, norm2, norm3):
        self.self_attention = self_attention
        self.cross_attention = cross_attention
        self.feed_forward = feed_forward
        self.norm1, self.norm2, self.norm3 = norm1, norm2, norm3

    def self_stage(self, x: np.ndarray) -> np.ndarray:
        attended = self.self_attention.self_attention(x)
        np.add(x, attended, out=attended)
        return self.norm1(attended)

    def cross_stage(self, x: np.ndarray, memory: np.ndarray) -> np.ndarray:
        cross = self.cross_attention.cross(x, memory)
        np.add(x, cross, out=cross)
        x = self.norm2(cross)
        transformed = self.feed_forward(x)
        np.add(x, transformed, out=transformed)
        return self.norm3(transformed)

    def __call__(self, x: np.ndarray, memory: np.ndarray) -> np.ndarray:
        return self.cross_stage(self.self_stage(x), memory)


class TimeEmbeddingPlan:
    """Frozen :class:`repro.core.time_embedding.TimeEmbedding`, memoized.

    The embedding depends on the timestamps only through the observation
    *intervals* (the positional half of the phase is fixed by window length
    and offset), so results are cached keyed by the interval bytes.  A
    stream or fleet serving a regular cadence — identical intervals every
    step — therefore pays the sin/cos transcendentals once.  Cached arrays
    are write-locked; downstream kernels only read them.

    Each cached embedding additionally carries a *token* — a monotonically
    increasing integer minted when the entry is first inserted.  Tokens are
    never reused, so downstream caches (the decoder self-stage memo) can key
    on them safely: unlike ``id()``, a token cannot alias a different array
    allocated later at a recycled address.
    """

    __slots__ = ("frequencies", "alpha", "dtype", "_cache", "_cache_bytes", "_next_token")

    #: Entries kept before the oldest-inserted one is evicted (each entry is
    #: one embedded window geometry — a handful is typical for a serving
    #: process).
    MAX_CACHE = 64
    #: Total bytes the memo may retain; embeddings larger than this are
    #: returned uncached (batch scoring of irregular timestamps would
    #: otherwise retain megabytes of never-reused batch embeddings).
    MAX_CACHE_BYTES = 8 << 20

    def __init__(self, frequencies, alpha, dtype):
        self.frequencies = frequencies
        self.alpha = alpha
        self.dtype = dtype
        self._cache: dict[tuple, tuple[int, np.ndarray]] = {}
        self._cache_bytes = 0
        self._next_token = 0

    def embed(
        self, timestamps: np.ndarray, position_offset: int = 0
    ) -> tuple[np.ndarray, int | None]:
        """The embedding plus its cache token (``None`` when uncached)."""
        # Intervals are differenced in float64 regardless of the plan dtype:
        # large absolute timestamps (e.g. unix epochs) would be quantized by
        # a float32 cast before subtraction, destroying the cadence signal.
        # Only the (small) intervals are cast down — a no-op for float64.
        timestamps = np.asarray(timestamps, dtype=np.float64)
        if timestamps.ndim != 2:
            raise ValueError("timestamps must be 2-D (batch, length)")
        intervals = np.diff(timestamps, axis=1, prepend=timestamps[:, :1]).astype(
            self.dtype, copy=False
        )
        key = (intervals.shape, position_offset, intervals.tobytes())
        cached = self._cache.get(key)
        if cached is not None:
            return cached[1], cached[0]

        positions = position_offset + np.arange(timestamps.shape[1], dtype=self.dtype)
        positional = positions[None, :, None] * self.frequencies[None, None, :]
        # phase = f_j * pos_t + alpha_j * delta_t, embedded as sin + cos
        # (additions commute bitwise; ``phase`` is finished in place).
        phase = self.alpha * intervals[:, :, None]
        np.add(phase, positional, out=phase)
        embedding = np.sin(phase)
        np.cos(phase, out=phase)
        np.add(embedding, phase, out=embedding)
        embedding.flags.writeable = False
        if embedding.nbytes > self.MAX_CACHE_BYTES // 4:
            return embedding, None
        # Evict oldest-inserted entries (dict preserves insertion order)
        # until the new one fits: a steady mixed-cadence fleet keeps its hot
        # entries instead of thrashing the whole memo on every overflow.
        while self._cache and (
            len(self._cache) >= self.MAX_CACHE
            or self._cache_bytes + embedding.nbytes > self.MAX_CACHE_BYTES
        ):
            _, evicted = self._cache.pop(next(iter(self._cache)))
            self._cache_bytes -= evicted.nbytes
        token = self._next_token
        self._next_token += 1
        self._cache[key] = (token, embedding)
        self._cache_bytes += embedding.nbytes
        return embedding, token

    def __call__(self, timestamps: np.ndarray, position_offset: int = 0) -> np.ndarray:
        return self.embed(timestamps, position_offset)[0]


class TemporalPlan:
    """Fused forward plan for the temporal reconstruction module.

    Replays :class:`repro.core.temporal.TemporalReconstructionModule.forward`
    (both conditioning modes, univariate and multivariate layouts, long- and
    short-window reconstruction targets) on raw ndarrays.
    """

    __slots__ = (
        "time_embedding",
        "encoder_embedding_w", "encoder_embedding_b",
        "decoder_embedding_w", "decoder_embedding_b",
        "encoder_layers", "decoder_layers",
        "output_ffn", "output_projection_w", "output_projection_b",
        "conditioning", "multivariate_input", "use_short_window", "dtype",
        "_default_times", "_self_stage_cache",
    )

    def __init__(
        self,
        *,
        time_embedding: TimeEmbeddingPlan,
        encoder_embedding: tuple[np.ndarray, np.ndarray | None],
        decoder_embedding: tuple[np.ndarray, np.ndarray | None],
        encoder_layers: list[EncoderLayerPlan],
        decoder_layers: list[DecoderLayerPlan],
        output_ffn: FeedForwardPlan,
        output_projection: tuple[np.ndarray, np.ndarray | None],
        conditioning: str,
        multivariate_input: bool,
        use_short_window: bool,
        dtype,
    ):
        self.time_embedding = time_embedding
        self.encoder_embedding_w, self.encoder_embedding_b = encoder_embedding
        self.decoder_embedding_w, self.decoder_embedding_b = decoder_embedding
        self.encoder_layers = encoder_layers
        self.decoder_layers = decoder_layers
        self.output_ffn = output_ffn
        self.output_projection_w, self.output_projection_b = output_projection
        self.conditioning = conditioning
        self.multivariate_input = multivariate_input
        self.use_short_window = use_short_window
        self.dtype = dtype
        self._default_times: dict[tuple[int, int], np.ndarray] = {}
        self._self_stage_cache: dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------
    def _default_long_times(self, batch: int, window: int) -> np.ndarray:
        """The regular-cadence timestamps the autograd path tiles per call."""
        key = (batch, window)
        times = self._default_times.get(key)
        if times is None:
            times = np.tile(np.arange(window, dtype=np.float64), (batch, 1))
            times.flags.writeable = False
            if len(self._default_times) >= TimeEmbeddingPlan.MAX_CACHE:
                del self._default_times[next(iter(self._default_times))]
            self._default_times[key] = times
        return times

    def _decoder_self_stage(self, decoder_time: np.ndarray, token: int | None) -> np.ndarray:
        """First decoder layer's self stage, memoized on the embedding token.

        ``token`` is the :class:`TimeEmbeddingPlan` cache token of
        ``decoder_time`` (``None`` when the embedding was too large to
        cache).  Tokens are monotonic and never reused, so — unlike the
        ``id()``-keyed scheme this replaces — a key can never alias a
        different array allocated later at a recycled address, and the memo
        does not need to pin the embedding alive to keep its key stable.
        A stream serving a regular cadence hits this memo on every step,
        skipping the whole pre-cross decoder stage.
        """
        if token is not None:
            cached = self._self_stage_cache.get(token)
            if cached is not None:
                return cached
        compact = self.decoder_layers[0].self_stage(decoder_time)
        if token is not None:
            compact.flags.writeable = False
            if len(self._self_stage_cache) >= TimeEmbeddingPlan.MAX_CACHE:
                del self._self_stage_cache[next(iter(self._self_stage_cache))]
            self._self_stage_cache[token] = compact
        return compact

    def _fold(self, windows: np.ndarray) -> np.ndarray:
        batch, variates, length = windows.shape
        if self.multivariate_input:
            return windows.transpose(0, 2, 1)
        return windows.reshape(batch * variates, length, 1)

    def _embed_values(
        self,
        windows: np.ndarray,
        weight: np.ndarray,
        bias: np.ndarray | None,
        time: np.ndarray,
    ) -> np.ndarray:
        """Value projection plus time embedding for one window tensor.

        In the univariate layout the time embedding of a window is shared by
        its folded variates; instead of materializing ``np.repeat(time, N)``
        the fresh ``(B * N, L, d)`` value projection is viewed as
        ``(B, N, L, d)`` and the ``(B, L, d)`` embedding broadcast-added —
        the same additions, one per output element, in place.
        """
        batch, variates, length = windows.shape
        values = ops.linear(self._fold(windows), weight, bias)
        if self.multivariate_input:
            values += time
            return values
        grouped = values.reshape(batch, variates, length, -1)
        grouped += time[:, None]
        return values

    def _expand_time(self, embedding: np.ndarray, num_variates: int) -> np.ndarray:
        if self.multivariate_input:
            return embedding
        return np.repeat(embedding, num_variates, axis=0)

    # ------------------------------------------------------------------
    def forward(
        self,
        long_windows: np.ndarray,
        short_windows: np.ndarray,
        long_times: np.ndarray | None = None,
        short_times: np.ndarray | None = None,
    ) -> np.ndarray:
        long_windows = np.asarray(long_windows, dtype=self.dtype)
        short_windows = np.asarray(short_windows, dtype=self.dtype)
        batch, variates, window = long_windows.shape
        omega = short_windows.shape[2]
        # Timestamps stay float64 down to the embedding (which differences
        # them before casting) — see TimeEmbeddingPlan.__call__.
        if long_times is None:
            long_times = self._default_long_times(batch, window)
        else:
            long_times = np.asarray(long_times, dtype=np.float64)
        if short_times is None:
            short_times = long_times[:, window - omega:]
        else:
            short_times = np.asarray(short_times, dtype=np.float64)

        if not self.use_short_window:
            short_windows = long_windows
            short_times = long_times
            omega = window

        decoder_input = None  # set on the paths where it is fully expanded
        if self.conditioning == "masked":
            context = long_windows[:, :, : window - omega]
            context_times = long_times[:, : window - omega]
            encoder_input = self._embed_values(
                context,
                self.encoder_embedding_w,
                self.encoder_embedding_b,
                self.time_embedding(context_times),
            )
            decoder_time, decoder_token = self.time_embedding.embed(
                short_times, position_offset=window - omega
            )
            if self.multivariate_input:
                decoder_input = decoder_time
        else:
            encoder_input = self._embed_values(
                long_windows,
                self.encoder_embedding_w,
                self.encoder_embedding_b,
                self.time_embedding(long_times),
            )
            decoder_time = None
            decoder_input = self._embed_values(
                short_windows,
                self.decoder_embedding_w,
                self.decoder_embedding_b,
                self.time_embedding(short_times, position_offset=window - omega),
            )

        memory = encoder_input
        for layer in self.encoder_layers:
            memory = layer(memory)

        if decoder_input is not None or not self.decoder_layers:
            if decoder_input is None:
                decoder_input = self._expand_time(decoder_time, variates)
            decoded = decoder_input
            for layer in self.decoder_layers:
                decoded = layer(decoded, memory)
        else:
            # Masked univariate mode: the decoder input is the short-window
            # time embedding, identical for every folded variate of a window.
            # Run the first self-attention stage once per window, then expand
            # across variates for the cross-attention against the per-variate
            # memory (duplicated batch rows produce duplicated bits).
            compact = self._decoder_self_stage(decoder_time, decoder_token)
            decoded = self.decoder_layers[0].cross_stage(
                np.repeat(compact, variates, axis=0), memory
            )
            for layer in self.decoder_layers[1:]:
                decoded = layer(decoded, memory)

        projected = ops.sigmoid(
            ops.linear(self.output_ffn(decoded), self.output_projection_w, self.output_projection_b)
        )
        if self.multivariate_input:
            return projected.transpose(0, 2, 1)
        return projected.reshape(batch, variates, omega)

    __call__ = forward


class NoisePlan:
    """Fused forward plan for the concurrent-noise reconstruction module.

    The autograd module loops over the batch, normalizing one adjacency and
    running one ``(N, N) @ (N, omega)`` GCN propagation per window.  The
    plan fuses the whole batch: vectorised degree normalization and stacked
    ``np.matmul`` calls, which dispatch the identical per-slice GEMMs and
    therefore keep float64 execution bit-for-bit equal.
    """

    __slots__ = (
        "weight", "bias", "activation",
        "graph_mode", "dynamic_decay", "remove_self_loops",
        "scales", "inverse_scales", "dtype",
        "last_adjacency", "_dynamic_state",
    )

    def __init__(
        self,
        *,
        weight: np.ndarray,
        bias: np.ndarray,
        activation: str,
        graph_mode: str,
        dynamic_decay: float,
        remove_self_loops: bool,
        node_scales: np.ndarray | None,
        dtype,
    ):
        self.weight = weight
        self.bias = bias
        self.activation = activation
        self.graph_mode = graph_mode
        self.dynamic_decay = dynamic_decay
        self.remove_self_loops = remove_self_loops
        if node_scales is None:
            self.scales = None
            self.inverse_scales = None
        else:
            self.scales = freeze(node_scales, dtype)
            self.inverse_scales = freeze(1.0 / self.scales[:, None], dtype)
        self.dtype = dtype
        self.last_adjacency: np.ndarray | None = None
        self._dynamic_state: np.ndarray | None = None

    # ------------------------------------------------------------------
    def reset_dynamic_state(self) -> None:
        self._dynamic_state = None

    def _cosine_adjacency(self, errors: np.ndarray) -> np.ndarray:
        """Dtype-generic replica of ``graph_learning.batch_window_adjacency``."""
        norms = np.linalg.norm(errors, axis=2)
        denom = np.maximum(norms[:, :, None] * norms[:, None, :], _GRAPH_EPS)
        similarity = np.einsum("bnw,bmw->bnm", errors, errors)
        np.divide(similarity, denom, out=similarity)
        np.clip(similarity, 0.0, 1.0, out=similarity)
        return similarity

    def _adjacency_for(self, errors: np.ndarray) -> np.ndarray:
        """Fresh per-window adjacency for the ``window``/``dynamic`` modes."""
        window_graphs = self._cosine_adjacency(errors)
        if self.graph_mode == "window":
            return window_graphs
        smoothed = np.empty_like(window_graphs)
        state = self._dynamic_state
        for index in range(len(window_graphs)):
            if state is None:
                state = window_graphs[index]
            else:
                state = self.dynamic_decay * state + (1.0 - self.dynamic_decay) * window_graphs[index]
            smoothed[index] = state
        self._dynamic_state = state
        return smoothed

    # ------------------------------------------------------------------
    def forward(self, errors: np.ndarray, short_windows: np.ndarray) -> np.ndarray:
        errors = np.asarray(errors, dtype=self.dtype)
        if errors.shape != np.shape(short_windows):
            raise ValueError(
                f"errors and short windows must align: {errors.shape} != {np.shape(short_windows)}"
            )
        batch, num_variates, _ = errors.shape
        if self.scales is not None and len(self.scales) != num_variates:
            raise ValueError(
                f"node scales length {len(self.scales)} does not match {num_variates} variates"
            )

        if self.graph_mode == "static":
            normalized = np.ones((batch, num_variates, num_variates), dtype=errors.dtype)
            self.last_adjacency = np.ones((num_variates, num_variates), dtype=errors.dtype)
        else:
            normalized = self._adjacency_for(errors)
            self.last_adjacency = normalized[-1].copy()

        # Batched ``normalize_adjacency``: same elementwise expressions as the
        # per-window calls in ``repro.nn.graph``, applied in place on the
        # fresh adjacency stack.
        if self.remove_self_loops:
            diagonal = np.arange(num_variates)
            normalized[:, diagonal, diagonal] = 0.0
        degree = np.abs(normalized).sum(axis=2)
        inverse_degree = np.where(degree > _GRAPH_EPS, 1.0 / (degree + _GRAPH_EPS), 0.0)
        np.multiply(inverse_degree[:, :, None], normalized, out=normalized)

        features = errors if self.scales is None else errors * self.scales[None, :, None]
        propagated = normalized @ features
        out = propagated @ self.weight
        np.add(out, self.bias, out=out)
        out = ops.apply_activation(out, self.activation)
        if self.inverse_scales is not None:
            np.multiply(out, self.inverse_scales[None], out=out)
        return out

    __call__ = forward


@dataclass
class CompiledForwardResult:
    """Mirror of :class:`repro.core.model.AeroForwardResult` for plan output."""

    reconstruction: np.ndarray
    errors: np.ndarray
    noise_reconstruction: np.ndarray
    residual: np.ndarray
    scores: np.ndarray


class CompiledModel:
    """A full AERO model frozen into tape-free forward plans.

    Mirrors :meth:`repro.core.model.AeroModel.forward` — two stages plus the
    Eq. 17 score head — with plain ndarrays end to end.
    """

    __slots__ = ("temporal", "noise", "use_short_window", "num_variates", "dtype")

    def __init__(
        self,
        *,
        temporal: TemporalPlan | None,
        noise: NoisePlan | None,
        use_short_window: bool,
        num_variates: int,
        dtype,
    ):
        if temporal is None and noise is None:
            raise ValueError("at least one of the two module plans must be present")
        self.temporal = temporal
        self.noise = noise
        self.use_short_window = use_short_window
        self.num_variates = num_variates
        self.dtype = dtype

    # ------------------------------------------------------------------
    @property
    def graph_mode(self) -> str | None:
        return self.noise.graph_mode if self.noise is not None else None

    def reset_dynamic_state(self) -> None:
        if self.noise is not None:
            self.noise.reset_dynamic_state()

    # ------------------------------------------------------------------
    def forward(
        self,
        long_windows: np.ndarray,
        short_windows: np.ndarray,
        long_times: np.ndarray | None = None,
        short_times: np.ndarray | None = None,
    ) -> CompiledForwardResult:
        long_windows = np.asarray(long_windows, dtype=self.dtype)
        short_windows = np.asarray(short_windows, dtype=self.dtype)
        target = short_windows if self.use_short_window else long_windows

        if self.temporal is not None:
            reconstruction = self.temporal(long_windows, short_windows, long_times, short_times)
        else:
            reconstruction = np.zeros_like(target)
        errors = target - reconstruction

        if self.noise is not None:
            noise_reconstruction = self.noise(errors, target)
        else:
            noise_reconstruction = np.zeros_like(target)

        # ``target - reconstruction - noise_reconstruction`` associates left,
        # so the ``errors`` intermediate is the exact first operand.
        residual = errors - noise_reconstruction
        scores = np.abs(residual[:, :, -1])
        return CompiledForwardResult(
            reconstruction=reconstruction,
            errors=errors,
            noise_reconstruction=noise_reconstruction,
            residual=residual,
            scores=scores,
        )

    __call__ = forward

    def scores(
        self,
        long_windows: np.ndarray,
        short_windows: np.ndarray,
        long_times: np.ndarray | None = None,
        short_times: np.ndarray | None = None,
    ) -> np.ndarray:
        """Anomaly scores only — the serving hot path."""
        return self.forward(long_windows, short_windows, long_times, short_times).scores
