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
  adjacency is a constant of the fleet geometry and is built once with the
  state.

Everything that genuinely depends on the newest row — attention over the
window, softmax normalizations, the decoder cross stages, the GCN
propagation — re-runs each tick.  There is one set of kernels: the tick
stages its inputs from the rings and then calls the very plan methods and
:mod:`repro.runtime.ops` kernels the full forward runs, passing this
state's :class:`ScratchArena` as their workspace.  The full forward passes
none and numpy allocates; here every intermediate lands in a named arena
slot.  Same code, same ufunc/GEMM sequence — so float64 incremental scores
are bit-for-bit equal to the full compiled forward.

Lanes: AERO reconstructs each star on its own and couples stars only
inside one stack's window graph, so the stacks of a tick share no
arithmetic.  A state splits its stacks into contiguous *lanes*, each with
its own :class:`ScratchArena`; a tick runs the shared timeline stages on the
calling thread, then every lane's stages on the runtime's one pool of
threads pinned one per CPU (:mod:`repro.runtime.lanes`; numpy releases the
GIL inside ufuncs and BLAS, so lanes occupy separate cores).  Each lane runs the same
per-slice kernels on its own stacks, so scores are bit-identical whatever
the lane count.  The count is fixed per state: one lane per usable CPU
while every lane keeps at least :data:`_MIN_LANE_WORK` of encoder work
(below that a second lane loses to thread hand-off), and always one lane
for ``graph_mode="dynamic"`` (its adjacency is a recurrence over the batch)
and the full-forward fallback.

A steady-state tick therefore allocates no array of its own beyond the
emitted score vector.  What remains is numpy's own transient: a broadcast
or mixed-dtype ufunc writing through ``out=`` may still allocate an
iterator buffer of at most 64 KiB, freed before the call returns
(``tests/runtime/test_incremental.py`` pins the per-tick peak).

Invalidation: the state stays valid as long as it is fed the same rows, in
the same order, as the serving ring buffers (the serving front appends to
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

from . import ops
from .lanes import encoder_work, lanes_for, run_lanes, split

if TYPE_CHECKING:  # pragma: no cover - imports only for type checkers
    from .plans import CompiledModel, NoisePlan, TemporalPlan

__all__ = [
    "IncrementalState", "ScratchArena",
    "timeline_step", "temporal_step", "noise_step", "lane_step", "model_step",
]

#: Encoder work — folded sequences × encoder rows × ``d_model`` — each lane
#: must keep for a second lane to pay.  Pinned from the 1-vs-2-lane
#: crossover measured at the wide-night geometry (24 encoder rows,
#: ``d_model`` 24; 2-vCPU VM, BLAS on one thread, two sweeps of 30
#: interleaved blocks per size): lanes of 48 folded sequences won every
#: block, lanes of 40 lost 2 of 30 in one sweep, lanes of 24 lost 12.
_MIN_LANE_WORK = 48 * 24 * 24


class ScratchArena:
    """Named preallocated scratch buffers for one lane of an incremental state.

    ``get(name, shape, dtype)`` returns the same buffer on every tick: the
    state passes the arena as the workspace of the :mod:`repro.runtime.ops`
    kernels and plan methods, and each writes its result into its named
    slot with ``out=``.  Shapes are fixed by the serving
    geometry; a mismatched request (only possible across a geometry change,
    which rebuilds the state anyway) transparently reallocates the slot.
    An arena is always truthy (it defines no ``__len__``): the kernels'
    ``out=ws and ws.get(…)`` relies on that.

    Lanes split the state's arena rather than copy it: the arenas of a
    state's lanes share ``blocks``, one buffer per slot name sized for all
    ``total`` stacks, and this arena's slot is the byte range of its
    ``[start, stop)`` stacks.  A many-lane state thus allocates (and frees)
    the very buffers a one-lane state does, which keeps the process's
    malloc behaviour independent of the lane count (glibc sizes its mmap
    threshold from the largest buffer freed: halved slots made later large
    temporaries fault in fresh pages).  Slots whose size does not split by
    stack get their own buffer.
    """

    __slots__ = ("_buffers", "_blocks", "_start", "_stacks", "_total")

    def __init__(self, blocks: dict | None = None, start: int = 0, stop: int = 1,
                 total: int = 1) -> None:
        self._buffers: dict[str, np.ndarray] = {}
        self._blocks = {} if blocks is None else blocks
        self._start, self._stacks, self._total = start, stop - start, total

    def get(self, name: str, shape: tuple, dtype) -> np.ndarray:
        buffer = self._buffers.get(name)
        if buffer is None or buffer.shape != tuple(shape) or buffer.dtype != np.dtype(dtype):
            buffer = self._carve(name, shape, np.dtype(dtype))
            self._buffers[name] = buffer
        return buffer

    def _carve(self, name: str, shape: tuple, dtype: np.dtype) -> np.ndarray:
        nbytes = dtype.itemsize * int(np.prod(shape))
        per_stack, rest = divmod(nbytes, self._stacks)
        if self._stacks == self._total or rest or per_stack % dtype.itemsize:
            return np.empty(shape, dtype=dtype)
        block = self._blocks.get(name)
        if block is None:
            block = np.empty(per_stack * self._total, dtype=np.uint8)
            self._blocks[name] = block
        elif block.nbytes != per_stack * self._total:  # not per-stack: a batch-1 slot
            return np.empty(shape, dtype=dtype)
        offset = per_stack * self._start
        return block[offset : offset + nbytes].view(dtype).reshape(shape)

    @property
    def nbytes(self) -> int:
        return sum(buffer.nbytes for buffer in self._buffers.values())


def _lane_count(model: "CompiledModel", config, num_stacks: int) -> int:
    """Lanes for a state: one per usable CPU while each keeps enough work.

    The work of a tick is its encoder input — folded sequences × encoder
    rows × ``d_model`` — which a lane must hold at least
    :data:`_MIN_LANE_WORK` of.  Temporal-free models have no encoder and
    serve on one lane.
    """
    if model.temporal is None:
        return 1
    work = encoder_work(model, num_stacks, config.window, config.short_window)
    return lanes_for(work, _MIN_LANE_WORK)


class _Lane:
    """Stacks ``[start, stop)`` of a state: views of its rings, its own arena.

    The views slice the state's rings along the stack axis (zero-copy, so
    ``append``/``rebuild`` feed every lane at once); the arena's slots are
    the lane's stack range of the state's shared blocks, so lanes never
    share a workspace byte.  A lane keeps no reference to its state (no
    cycle: a dropped state frees its rings and arenas at once).
    """

    __slots__ = (
        "start", "stop", "num_stacks", "arena",
        "values", "enc_embed", "dec_embed", "features", "static_norm",
    )

    def __init__(self, state: "IncrementalState", start: int, stop: int, blocks: dict):
        self.start, self.stop = start, stop
        self.num_stacks = stop - start
        self.arena = ScratchArena(blocks, start, stop, state.num_stacks)
        # The univariate fold keeps one ring row per (stack, variate).
        variates = state.num_variates if state._uni else 1
        rows = slice(start * variates, stop * variates)
        self.values = state._values[rows]
        self.enc_embed = None if state._enc_embed is None else state._enc_embed[rows]
        self.dec_embed = None if state._dec_embed is None else state._dec_embed[rows]
        self.features = None if state._features is None else state._features[start:stop]
        self.static_norm = None if state._static_norm is None else state._static_norm[start:stop]


# ----------------------------------------------------------------------
# incremental state
# ----------------------------------------------------------------------
class IncrementalState:
    """Per-fleet cross-tick serving state for one :class:`CompiledModel`.

    Holds the mirrored ring buffers, per-row embedding rings, frozen graph
    inputs and the lanes (each with its scratch arena) for ``num_stacks``
    star stacks of the model's geometry.  Built through
    :meth:`repro.runtime.CompiledDetector.new_incremental_state`, which
    leaves the lane count to the automatic rule; ``lanes`` forces a count
    (a test seam, still clamped to the stacks and to one lane where the
    model needs it).

    Lifecycle: a fresh state is *invalid* (it has no history); a front
    seeds it with :meth:`rebuild` from its ring-buffer windows, after which
    :meth:`append` + :meth:`score` (or the combined
    ``CompiledDetector.score_stack_step``) advance it one tick at a time.
    :meth:`invalidate` (or any event that breaks ring/buffer lockstep, e.g.
    a model hot-swap) forces the next tick through :meth:`rebuild` again.
    """

    def __init__(
        self, model: "CompiledModel", config, num_stacks: int, *, lanes: int | None = None
    ):
        if num_stacks <= 0:
            raise ValueError("num_stacks must be positive")
        self.model = model
        self.config = config
        self.num_stacks = int(num_stacks)
        self.num_variates = model.num_variates
        self.window = int(config.window)
        self.short = int(config.short_window)
        self.dtype = np.dtype(model.dtype)

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

        # Frozen graph inputs: the static graph's degree-normalized all-ones
        # adjacency (built with exactly the normalization sequence of
        # NoisePlan.propagate) and the full path's per-tick ``np.ones``
        # diagnostic.
        self._static_norm: np.ndarray | None = None
        self._static_last: np.ndarray | None = None
        if noise is not None and noise.graph_mode == "static":
            variates = self.num_variates
            self._static_norm = noise.normalize_adjacency(
                np.ones((self.num_stacks, variates, variates), dtype=self.dtype)
            )
            self._static_last = np.ones((variates, variates), dtype=self.dtype)
            self._static_norm.flags.writeable = False
            self._static_last.flags.writeable = False

        # Lanes: contiguous stack ranges, the first ones one stack longer ---
        # The dynamic graph's EMA adjacency is a recurrence over the batch
        # and the fallback runs the full forward: both keep one lane.
        if not self._supported or (noise is not None and noise.graph_mode == "dynamic"):
            count = 1
        elif lanes is None:
            count = _lane_count(model, config, self.num_stacks)
        else:
            count = int(lanes)
        blocks: dict[str, np.ndarray] = {}
        self.lanes = tuple(
            _Lane(self, a, b, blocks) for a, b in split(self.num_stacks, count)
        )

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
    def arena(self) -> ScratchArena:
        """The first lane's arena (the only one on a one-lane state)."""
        return self.lanes[0].arena

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
    # zero-copy views over a lane's current window
    # ------------------------------------------------------------------
    def values_window(self, lane: _Lane, start: int, stop: int) -> np.ndarray:
        """Rows ``[start, stop)`` of the window in fold layout (multivariate)."""
        j = self.window_start
        return lane.values[:, j + start : j + stop]

    def target_view(self, lane: _Lane) -> np.ndarray:
        """The lane's ``(stacks, N, omega)`` short-window reconstruction target."""
        j = self.window_start
        begin = j + self.window - self.short
        end = j + self.window
        if self._uni:
            return lane.values[:, begin:end].reshape(
                lane.num_stacks, self.num_variates, self.short
            )
        return lane.values[:, begin:end].transpose(0, 2, 1)

    def features_view(self, lane: _Lane) -> np.ndarray:
        """The lane's static-GCN scaled features over the target window."""
        j = self.window_start
        begin = j + self.window - self.short
        return lane.features[:, begin : j + self.window].transpose(0, 2, 1)

    # ------------------------------------------------------------------
    def score(self) -> np.ndarray:
        """Score the current window; ``(num_stacks, N)``, freshly allocated.

        Raises when the state is invalid (needs :meth:`rebuild`) or not yet
        warm — the serving front guards both before calling.
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
def _stage_input(
    plan: "TemporalPlan", state: IncrementalState, lane: _Lane, name: str,
    start: int, stop: int, weight, bias, ring, time,
) -> np.ndarray:
    """Value embedding plus time embedding of window rows ``[start, stop)``.

    The multivariate fold projects the lane's window view; the univariate
    fold reads the per-row embeddings cached in the lane's ``ring`` view and
    adds the batch-1 time embedding across the folded sequences.
    """
    arena = lane.arena
    if plan.multivariate_input:
        embedded = ops.linear(state.values_window(lane, start, stop), weight, bias, arena, name)
        np.add(embedded, time, out=embedded)
        return embedded
    stacks, variates = lane.num_stacks, state.num_variates
    j = state.window_start
    cached = ring[:, j + start : j + stop]
    length, d_model = cached.shape[1:]
    embedded = arena.get(name, (stacks * variates, length, d_model), plan.dtype)
    grouped = embedded.reshape(stacks, variates, length, d_model)
    # Broadcast first, then add the strided ring view in place: one strided
    # operand per ufunc, so numpy's iterator buffers one operand at a time
    # (the per-tick peak pin counts every lane's buffers at once).  Addition
    # commutes bitwise, so ``time + cached`` is ``cached + time``.
    np.copyto(grouped, time[:, None])
    np.add(grouped, cached.reshape(stacks, variates, length, d_model), out=grouped)
    return embedded


def timeline_step(plan: "TemporalPlan", state: IncrementalState) -> tuple:
    """The tick's shared exposure-timeline stages, once, at batch 1.

    Every stack shares the one exposure timeline, so the encoder time
    embedding and the decoder input's timeline part depend on nothing
    else: under full conditioning the decoder time embedding, under masked
    conditioning the decoder input itself (the first decoder layer's self
    stage over the time embedding, or the bare embedding without decoder
    layers).  Runs on the calling thread, which alone inserts into the plan
    memos; returns ``(encoder_time, decoder)`` for the lanes to read.
    """
    window = state.window
    context = window - state.short
    j = state.window_start
    if state.times_mode == "real":
        long_times = state._times[None, j : j + window]
    else:
        long_times = plan._default_long_times(1, window)
    if plan.conditioning != "masked":
        return (
            plan.time_embedding(long_times),
            plan.time_embedding(long_times[:, context:], position_offset=context),
        )
    encoder_time = plan.time_embedding(long_times[:, :context])
    decoder_time, decoder_token = plan.time_embedding.embed(
        long_times[:, context:], position_offset=context
    )
    if plan.decoder_layers:
        return encoder_time, plan._decoder_self_stage(decoder_time, decoder_token)
    return encoder_time, decoder_time


def temporal_step(
    plan: "TemporalPlan", state: IncrementalState, lane: _Lane,
    encoder_time: np.ndarray, decoder: np.ndarray,
) -> np.ndarray:
    """One lane's temporal reconstruction over the current window.

    Stages the encoder (and, under full conditioning, decoder) input from
    the lane's ring views plus the shared :func:`timeline_step` results,
    then runs the plan's own ``encode``/``decode``/``head`` stages into the
    lane's arena.  Returns the lane's ``(stacks, N, omega)`` reconstruction
    (a workspace view).  The batch-1 timeline operands broadcast over the
    folded sequences; broadcasting repeats operands, never reorders
    arithmetic, so every output element sees the same ufunc/GEMM sequence
    as the per-stack full forward.
    """
    arena = lane.arena
    window = state.window
    context = window - state.short
    stacks, variates = lane.num_stacks, state.num_variates
    masked = plan.conditioning == "masked"

    memory = plan.encode(
        _stage_input(
            plan, state, lane, "enc.in", 0, context if masked else window,
            plan.encoder_embedding_w, plan.encoder_embedding_b, lane.enc_embed, encoder_time,
        ),
        arena,
    )
    if not masked:
        decoder_input = _stage_input(
            plan, state, lane, "dec.in", context, window,
            plan.decoder_embedding_w, plan.decoder_embedding_b, lane.dec_embed, decoder,
        )
        return plan.head(plan.decode(decoder_input, memory, arena), stacks, variates, arena)
    if plan.decoder_layers:
        decoded = plan.decode(decoder, memory, arena, self_staged=True)
    else:
        decoded = np.broadcast_to(decoder, (len(memory),) + decoder.shape[1:])
    return plan.head(decoded, stacks, variates, arena)


def _slot_like(arena: ScratchArena, name: str, reference: np.ndarray) -> np.ndarray:
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


def noise_step(
    plan: "NoisePlan", state: IncrementalState, lane: _Lane, errors, target
) -> tuple:
    """One lane's GCN propagation: the newest timestep's ``(stacks, N)``
    column plus the graph diagnostics for the caller to publish.

    ``static`` mode reuses the state's frozen degree-normalized adjacency
    and has no diagnostics to publish (``None``: the caller publishes the
    frozen one).  ``window``/``dynamic`` adjacencies depend on this tick's
    errors, so the side-effect-free :meth:`NoisePlan.propagate` runs
    verbatim (its transient adjacency allocations free every tick — no
    steady-state growth) and its ``(last_adjacency, dynamic_state)`` is
    returned instead of written to the plan, which other lanes may be
    reading.

    Only the newest column of the reconstruction reaches the Eq. 17 score,
    so the static path runs both GEMMs in full (single-column GEMMs are
    *not* bit-stable against the full product's column) but confines the
    elementwise bias/activation/rescale tail to that one column — per-entry
    ufuncs are bit-identical whatever their batch shape.
    """
    if plan.graph_mode != "static":
        reconstruction, adjacency, dynamic_state = plan.propagate(
            errors, target, plan._dynamic_state
        )
        return reconstruction[:, :, -1], (adjacency, dynamic_state)
    arena = lane.arena
    if plan.scales is None:
        features = errors
    elif lane.features is not None:
        features = state.features_view(lane)
    else:
        features = _slot_like(arena, "gcn.features", errors)
        np.multiply(errors, plan.scales[None, :, None], out=features)
    propagated = arena.get("gcn.propagated", errors.shape, errors.dtype)
    np.matmul(lane.static_norm, features, out=propagated)
    out = arena.get("gcn.out", errors.shape[:2] + (plan.weight.shape[1],), errors.dtype)
    np.matmul(propagated, plan.weight, out=out)
    last = arena.get("gcn.last", errors.shape[:2], errors.dtype)
    np.add(out[:, :, -1], plan.bias[-1], out=last)
    last = ops.apply_activation(last, plan.activation, arena, "gcn.act")
    if plan.inverse_scales is not None:
        np.multiply(last, plan.inverse_scales[None, :, -1], out=last)
    return last, None


def lane_step(
    model: "CompiledModel", state: IncrementalState, lane: _Lane, shared, scores: np.ndarray
):
    """One lane's share of a tick: score stacks ``[lane.start, lane.stop)``.

    Mirrors :meth:`CompiledModel.forward`'s two-stage composition and
    Eq. 17 score over the lane's stacks, reading the state rings through
    the lane's views and ``shared`` (the :func:`timeline_step` results),
    computing in the lane's own arena and writing the lane's rows of
    ``scores`` in place.  It inserts into no plan memo and writes no plan
    attribute, so lanes run concurrently; it returns the graph diagnostics
    of :func:`noise_step` (``None`` without a noise module).
    """
    arena = lane.arena
    target = state.target_view(lane)
    # Without a temporal stage the errors are bitwise the target
    # (``x - 0.0 == x``), and the static-graph GEMMs are stride-insensitive,
    # so the ring view serves directly.  Everything else stages errors in a
    # workspace: the adjacency einsum/norm kernels are layout-sensitive at
    # the ulp level, so the buffer replicates ``score_stack``'s layout —
    # its ``target - reconstruction`` inherits the operands' transposed
    # layout in the multivariate fold (see ``_slot_like``).
    needs_workspace = model.temporal is not None or (
        model.noise is not None and model.noise.graph_mode != "static"
    )
    if needs_workspace:
        if state._uni:
            errors = arena.get("model.errors", target.shape, model.dtype)
        else:
            stacks, variates, omega = target.shape
            errors = arena.get(
                "model.errors", (stacks, omega, variates), model.dtype
            ).transpose(0, 2, 1)
        if model.temporal is not None:
            reconstruction = temporal_step(model.temporal, state, lane, *shared)
            np.subtract(target, reconstruction, out=errors)
        else:
            np.copyto(errors, target)
    else:
        errors = target
    out = scores[lane.start : lane.stop]
    if model.noise is None:
        # Ablated noise module reconstructs zeros: the residual IS the errors.
        np.abs(errors[:, :, -1], out=out)
        return None
    noise_last, graph = noise_step(model.noise, state, lane, errors, target)
    residual_last = arena.get("model.residual", target.shape[:2], model.dtype)
    np.subtract(errors[:, :, -1], noise_last, out=residual_last)
    np.abs(residual_last, out=out)
    return graph


def model_step(model: "CompiledModel", state: IncrementalState) -> np.ndarray:
    """One tick: the shared stages, every lane, then the published graph.

    Runs :func:`timeline_step` on the calling thread, then :func:`lane_step`
    for every lane — on the lane pool, or inline on a one-lane state and on
    a state's first tick — into one ``(num_stacks, N)`` score vector, the
    tick's only fresh allocation (it outlives the arenas).  Every lane is
    joined before the tick returns or re-raises, so no lane is still
    writing its arena when the next tick or a rebuild starts.  The calling
    thread then publishes what a one-lane full forward leaves on the noise
    plan: the last lane's last-stack adjacency and the dynamic EMA state.
    """
    shared = None if model.temporal is None else timeline_step(model.temporal, state)
    scores = np.empty((state.num_stacks, state.num_variates), dtype=model.dtype)  # repro: allow[hot-alloc] -- the one allowed allocation per tick: the emitted score vector outlives the arenas
    if len(state.lanes) == 1 or not state.lanes[-1].arena._buffers:
        # One lane, or the first tick: its lanes run here so the calling
        # thread allocates every arena block.  Allocated on a pool worker,
        # a block comes from that thread's own malloc arena, which cannot
        # reuse memory the process freed before (+18 MB RSS measured at the
        # wide-night geometry).
        for lane in state.lanes:
            graph = lane_step(model, state, lane, shared, scores)
    else:
        graph = run_lanes(
            lambda lane: lane_step(model, state, lane, shared, scores), state.lanes
        )[-1]
    noise = model.noise
    if noise is not None:
        if graph is None:
            noise.last_adjacency = state._static_last
        else:
            noise.last_adjacency, noise._dynamic_state = graph
    return scores
