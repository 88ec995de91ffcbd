"""Plan verifier: static + instrumented checks over compiled serving plans.

``verify_model`` validates a :class:`repro.runtime.plans.CompiledModel`
against the invariants the incremental serving runtime assumes but cannot
cheaply assert per tick:

1. **structural interpretation** — every plan weight is propagated
   symbolically through the forward composition (embedding → encoder
   stack → decoder stack → head; GCN propagation → score head) checking
   dtype uniformity, write-locks (the ``freeze`` contract) and shape
   chains (``d_model`` threading, head divisibility, the ``(omega,
   omega)`` GCN geometry);
2. **instrumented drive** — an :class:`IncrementalState` is rebuilt from
   synthetic windows and ticked with a tracking arena, comparing every
   emitted score vector bit-for-bit (float64) against the full forward
   staged exactly as ``score_stack`` stages it (transposed window views);
3. **state invariants** — mirrored-ring geometry and bounds, mirror-half
   equality, workspace aliasing (no two arena slots, and no slot and ring,
   may share memory), steady-state arena reallocation, and the raw layout
   of the ``model.errors`` workspace against ``score_stack``'s error
   layout (C-contiguous univariate, transposed multivariate).

Every failure is a named :class:`PlanIssue` (``dtype-mismatch``,
``mutable-weight``, ``shape-mismatch``, ``workspace-alias``,
``workspace-realloc``, ``ring-bounds``, ``ring-mirror``,
``layout-mismatch``, ``score-divergence``, ``drive-failure``) collected
into a :class:`PlanReport`; ``compile_detector(..., verify=True)`` runs
the verifier at export time and raises :class:`PlanVerificationError` on
any issue.

Verification is serving-transparent: the dynamic-graph adjacency state is
snapshotted around every drive, so a verified detector scores exactly what
an unverified one does.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from ..runtime.incremental import IncrementalState, ScratchArena

__all__ = [
    "PlanIssue",
    "PlanReport",
    "PlanVerificationError",
    "TrackingArena",
    "check_state",
    "check_structure",
    "verify_detector",
    "verify_model",
]


@dataclass(frozen=True)
class PlanIssue:
    """One named verification failure at a plan/state location."""

    kind: str
    location: str
    message: str

    def format(self) -> str:
        return f"{self.kind} @ {self.location}: {self.message}"


@dataclass
class PlanReport:
    """Everything one :func:`verify_model` run found (empty = verified)."""

    issues: list[PlanIssue] = field(default_factory=list)
    ticks: int = 0
    arrays_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.issues

    def kinds(self) -> list[str]:
        return sorted({issue.kind for issue in self.issues})

    def raise_if_failed(self) -> "PlanReport":
        if self.issues:
            raise PlanVerificationError(self)
        return self


class PlanVerificationError(RuntimeError):
    """Raised by ``compile_detector(..., verify=True)`` on a failed report."""

    def __init__(self, report: PlanReport):
        self.report = report
        details = "\n".join("  " + issue.format() for issue in report.issues)
        super().__init__(
            f"compiled plan failed verification ({len(report.issues)} issue(s)):\n{details}"
        )


class TrackingArena(ScratchArena):
    """ScratchArena that records slot reallocations after warm-up.

    Once :attr:`steady` is set (the drive finished its first scored tick),
    any ``get`` whose slot no longer matches its requested geometry means a
    kernel is re-shaping workspaces tick over tick — steady-state
    allocation the zero-allocation contract forbids.
    """

    __slots__ = ("steady", "reallocations")

    def __init__(self) -> None:
        super().__init__()
        self.steady = False
        self.reallocations: list[str] = []

    def get(self, name: str, shape: tuple, dtype) -> np.ndarray:
        if self.steady:
            buffer = self._buffers.get(name)
            if buffer is not None and (
                buffer.shape != tuple(shape) or buffer.dtype != np.dtype(dtype)
            ):
                self.reallocations.append(name)
        return super().get(name, shape, dtype)


# ----------------------------------------------------------------------
# structural interpretation
# ----------------------------------------------------------------------
def _attention_arrays(prefix, attention):
    yield f"{prefix}.wq", attention.wq
    yield f"{prefix}.bq", attention.bq
    yield f"{prefix}.wo", attention.wo
    yield f"{prefix}.bo", attention.bo
    yield f"{prefix}.wqkv", attention.wqkv
    yield f"{prefix}.bqkv", attention.bqkv
    yield f"{prefix}.wkv", attention.wkv
    yield f"{prefix}.bkv", attention.bkv


def _ffn_arrays(prefix, ffn):
    yield f"{prefix}.w1", ffn.w1
    yield f"{prefix}.b1", ffn.b1
    yield f"{prefix}.w2", ffn.w2
    yield f"{prefix}.b2", ffn.b2


def _norm_arrays(prefix, norm):
    yield f"{prefix}.gamma", norm.gamma
    yield f"{prefix}.beta", norm.beta


def _iter_plan_arrays(model):
    temporal = model.temporal
    if temporal is not None:
        yield "temporal.time_embedding.frequencies", temporal.time_embedding.frequencies
        yield "temporal.time_embedding.alpha", temporal.time_embedding.alpha
        yield "temporal.encoder_embedding_w", temporal.encoder_embedding_w
        yield "temporal.encoder_embedding_b", temporal.encoder_embedding_b
        yield "temporal.decoder_embedding_w", temporal.decoder_embedding_w
        yield "temporal.decoder_embedding_b", temporal.decoder_embedding_b
        for index, layer in enumerate(temporal.encoder_layers):
            prefix = f"temporal.encoder_layers[{index}]"
            yield from _attention_arrays(f"{prefix}.self_attention", layer.self_attention)
            yield from _ffn_arrays(f"{prefix}.feed_forward", layer.feed_forward)
            yield from _norm_arrays(f"{prefix}.norm1", layer.norm1)
            yield from _norm_arrays(f"{prefix}.norm2", layer.norm2)
        for index, layer in enumerate(temporal.decoder_layers):
            prefix = f"temporal.decoder_layers[{index}]"
            yield from _attention_arrays(f"{prefix}.self_attention", layer.self_attention)
            yield from _attention_arrays(f"{prefix}.cross_attention", layer.cross_attention)
            yield from _ffn_arrays(f"{prefix}.feed_forward", layer.feed_forward)
            yield from _norm_arrays(f"{prefix}.norm1", layer.norm1)
            yield from _norm_arrays(f"{prefix}.norm2", layer.norm2)
            yield from _norm_arrays(f"{prefix}.norm3", layer.norm3)
        yield from _ffn_arrays("temporal.output_ffn", temporal.output_ffn)
        yield "temporal.output_projection_w", temporal.output_projection_w
        yield "temporal.output_projection_b", temporal.output_projection_b
    noise = model.noise
    if noise is not None:
        yield "noise.weight", noise.weight
        yield "noise.bias", noise.bias
        yield "noise.scales", noise.scales
        yield "noise.inverse_scales", noise.inverse_scales


def _expect_shape(issues, location, array, expected) -> None:
    """``expected`` dims are ints or ``None`` (free)."""
    if array is None:
        return
    shape = array.shape
    if len(shape) != len(expected) or any(
        want is not None and got != want for got, want in zip(shape, expected)
    ):
        rendered = tuple("*" if want is None else want for want in expected)
        issues.append(
            PlanIssue("shape-mismatch", location, f"expected shape {rendered}, got {shape}")
        )


def _check_attention(issues, prefix, attention, d_model) -> None:
    if attention.num_heads <= 0 or d_model % attention.num_heads != 0:
        issues.append(
            PlanIssue(
                "shape-mismatch", prefix,
                f"d_model {d_model} is not divisible by num_heads {attention.num_heads}",
            )
        )
    elif attention.d_head * attention.num_heads != d_model:
        issues.append(
            PlanIssue(
                "shape-mismatch", prefix,
                f"d_head {attention.d_head} * num_heads {attention.num_heads} != "
                f"d_model {d_model}",
            )
        )
    _expect_shape(issues, f"{prefix}.wq", attention.wq, (d_model, d_model))
    _expect_shape(issues, f"{prefix}.bq", attention.bq, (d_model,))
    _expect_shape(issues, f"{prefix}.wo", attention.wo, (d_model, d_model))
    _expect_shape(issues, f"{prefix}.bo", attention.bo, (d_model,))
    _expect_shape(issues, f"{prefix}.wqkv", attention.wqkv, (3, d_model, d_model))
    _expect_shape(issues, f"{prefix}.bqkv", attention.bqkv, (3, 1, 1, d_model))
    _expect_shape(issues, f"{prefix}.wkv", attention.wkv, (2, d_model, d_model))
    _expect_shape(issues, f"{prefix}.bkv", attention.bkv, (2, 1, 1, d_model))


def _check_ffn(issues, prefix, ffn, d_in, d_out) -> None:
    _expect_shape(issues, f"{prefix}.w1", ffn.w1, (d_in, None))
    hidden = ffn.w1.shape[1] if ffn.w1.ndim == 2 else None
    _expect_shape(issues, f"{prefix}.b1", ffn.b1, (hidden,))
    _expect_shape(issues, f"{prefix}.w2", ffn.w2, (hidden, d_out))
    _expect_shape(issues, f"{prefix}.b2", ffn.b2, (d_out,))


def check_structure(model, config) -> list[PlanIssue]:
    """Symbolic shape/dtype propagation over one compiled model's plans."""
    issues: list[PlanIssue] = []
    dtype = np.dtype(model.dtype)
    if dtype.kind != "f":
        issues.append(
            PlanIssue("dtype-mismatch", "model.dtype", f"plan dtype must be float, got {dtype}")
        )
        return issues

    for location, array in _iter_plan_arrays(model):
        if array is None:
            continue
        if array.dtype != dtype:
            issues.append(
                PlanIssue(
                    "dtype-mismatch", location,
                    f"plan dtype is {dtype.name} but array is {array.dtype.name}",
                )
            )
        if array.flags.writeable:
            issues.append(
                PlanIssue(
                    "mutable-weight", location,
                    "plan weights must be write-locked (freeze contract): a "
                    "serving-time mutation would silently fork the numerics",
                )
            )

    variates = int(model.num_variates)
    window = int(config.window)
    short = int(config.short_window)
    omega = short if model.use_short_window else window

    temporal = model.temporal
    if temporal is not None:
        channels = variates if temporal.multivariate_input else 1
        d_model = int(temporal.encoder_embedding_w.shape[-1])
        _expect_shape(
            issues, "temporal.encoder_embedding_w", temporal.encoder_embedding_w,
            (channels, d_model),
        )
        _expect_shape(
            issues, "temporal.encoder_embedding_b", temporal.encoder_embedding_b, (d_model,)
        )
        _expect_shape(
            issues, "temporal.decoder_embedding_w", temporal.decoder_embedding_w,
            (channels, d_model),
        )
        _expect_shape(
            issues, "temporal.decoder_embedding_b", temporal.decoder_embedding_b, (d_model,)
        )
        _expect_shape(
            issues, "temporal.time_embedding.frequencies",
            temporal.time_embedding.frequencies, (d_model,),
        )
        _expect_shape(
            issues, "temporal.time_embedding.alpha", temporal.time_embedding.alpha, (d_model,)
        )
        for index, layer in enumerate(temporal.encoder_layers):
            prefix = f"temporal.encoder_layers[{index}]"
            _check_attention(issues, f"{prefix}.self_attention", layer.self_attention, d_model)
            _check_ffn(issues, f"{prefix}.feed_forward", layer.feed_forward, d_model, d_model)
            _expect_shape(issues, f"{prefix}.norm1.gamma", layer.norm1.gamma, (d_model,))
            _expect_shape(issues, f"{prefix}.norm2.gamma", layer.norm2.gamma, (d_model,))
        for index, layer in enumerate(temporal.decoder_layers):
            prefix = f"temporal.decoder_layers[{index}]"
            _check_attention(issues, f"{prefix}.self_attention", layer.self_attention, d_model)
            _check_attention(issues, f"{prefix}.cross_attention", layer.cross_attention, d_model)
            _check_ffn(issues, f"{prefix}.feed_forward", layer.feed_forward, d_model, d_model)
            _expect_shape(issues, f"{prefix}.norm1.gamma", layer.norm1.gamma, (d_model,))
            _expect_shape(issues, f"{prefix}.norm2.gamma", layer.norm2.gamma, (d_model,))
            _expect_shape(issues, f"{prefix}.norm3.gamma", layer.norm3.gamma, (d_model,))
        _check_ffn(issues, "temporal.output_ffn", temporal.output_ffn, d_model, None)
        head_in = int(temporal.output_ffn.w2.shape[-1])
        _expect_shape(
            issues, "temporal.output_projection_w", temporal.output_projection_w,
            (head_in, channels),
        )
        _expect_shape(
            issues, "temporal.output_projection_b", temporal.output_projection_b, (channels,)
        )

    noise = model.noise
    if noise is not None:
        _expect_shape(issues, "noise.weight", noise.weight, (omega, omega))
        _expect_shape(issues, "noise.bias", noise.bias, (omega,))
        _expect_shape(issues, "noise.scales", noise.scales, (variates,))
        _expect_shape(issues, "noise.inverse_scales", noise.inverse_scales, (variates, 1))
    return issues


# ----------------------------------------------------------------------
# state invariants
# ----------------------------------------------------------------------
def _state_rings(state) -> list[tuple[str, np.ndarray]]:
    rings = [("_values", state._values)]
    for name in ("_features", "_enc_embed", "_dec_embed"):
        ring = getattr(state, name)
        if ring is not None:
            rings.append((name, ring))
    return rings


def check_state(state) -> list[PlanIssue]:
    """Ring + arena invariants of one (possibly corrupted) serving state."""
    return _check_rings(state) + _check_arena(state)


def _check_rings(state) -> list[PlanIssue]:
    issues: list[PlanIssue] = []
    window = state.window
    mirror = 2 * window
    rings = _state_rings(state)
    for name, ring in rings:
        if ring.shape[1] != mirror:
            issues.append(
                PlanIssue(
                    "ring-bounds", f"state.{name}",
                    f"mirrored ring needs {mirror} slots (2W), has {ring.shape[1]}",
                )
            )
    if state._times.shape != (mirror,):
        issues.append(
            PlanIssue(
                "ring-bounds", "state._times",
                f"times ring needs shape ({mirror},), has {state._times.shape}",
            )
        )
    if not 0 <= state.count <= window:
        issues.append(
            PlanIssue(
                "ring-bounds", "state.count",
                f"count {state.count} outside [0, window={window}]",
            )
        )
    if state.pos < state.count:
        issues.append(
            PlanIssue(
                "ring-bounds", "state.pos",
                f"pos {state.pos} behind count {state.count}: rows appeared from nowhere",
            )
        )
    start = state.window_start
    for name, ring in rings:
        if start < 0 or start + window > ring.shape[1]:
            issues.append(
                PlanIssue(
                    "ring-bounds", f"state.{name}",
                    f"window view [{start}, {start + window}) escapes the "
                    f"{ring.shape[1]}-slot ring",
                )
            )
    if state.warm:
        for name, ring in rings:
            halves_equal = ring.shape[1] == mirror and np.array_equal(
                ring[:, :window], ring[:, window:], equal_nan=True
            )
            if not halves_equal:
                issues.append(
                    PlanIssue(
                        "ring-mirror", f"state.{name}",
                        "mirror halves diverged: some append wrote one half only, "
                        "so a wrapped window view reads stale rows",
                    )
                )
        if state.times_mode == "real" and not np.array_equal(
            state._times[:window], state._times[window:], equal_nan=True
        ):
            issues.append(
                PlanIssue(
                    "ring-mirror", "state._times",
                    "times mirror halves diverged",
                )
            )
    return issues


def _check_arena(state) -> list[PlanIssue]:
    issues: list[PlanIssue] = []
    arena = state.arena
    buffers = sorted(arena._buffers.items())
    allowed = {np.dtype(state.dtype), np.dtype(np.bool_), np.dtype(np.float64)}
    for name, buffer in buffers:
        if buffer.dtype not in allowed:
            issues.append(
                PlanIssue(
                    "dtype-mismatch", f"arena[{name}]",
                    f"workspace dtype {buffer.dtype.name} is neither the plan "
                    f"dtype ({np.dtype(state.dtype).name}) nor bool/float64",
                )
            )
    for (name_a, buffer_a), (name_b, buffer_b) in itertools.combinations(buffers, 2):
        if np.shares_memory(buffer_a, buffer_b):
            issues.append(
                PlanIssue(
                    "workspace-alias", f"arena[{name_a}] / arena[{name_b}]",
                    "workspace slots share memory: one kernel's output silently "
                    "overwrites another's operand",
                )
            )
    for name, buffer in buffers:
        for ring_name, ring in _state_rings(state):
            if np.shares_memory(buffer, ring):
                issues.append(
                    PlanIssue(
                        "workspace-alias", f"arena[{name}] / state.{ring_name}",
                        "workspace overlaps a history ring: a tick's scratch "
                        "writes would corrupt the buffered window",
                    )
                )
    errors = arena._buffers.get("model.errors")
    if errors is not None:
        stacks, variates, omega = state.num_stacks, state.num_variates, state.short
        if state._uni:
            expected = (stacks, variates, omega)
        else:
            # The multivariate fold stages errors transposed so the GCN sees
            # the same strides as score_stack's `target - reconstruction`.
            expected = (stacks, omega, variates)
        if errors.shape != expected:
            fold = "univariate" if state._uni else "multivariate"
            issues.append(
                PlanIssue(
                    "layout-mismatch", "arena[model.errors]",
                    f"the {fold} fold stages errors as {expected}, "
                    f"workspace is {errors.shape}",
                )
            )
    if isinstance(arena, TrackingArena):
        for name in sorted(set(arena.reallocations)):
            issues.append(
                PlanIssue(
                    "workspace-realloc", f"arena[{name}]",
                    "slot reallocated after warm-up: the steady-state tick is "
                    "not allocation-free",
                )
            )
    return issues


# ----------------------------------------------------------------------
# instrumented drive
# ----------------------------------------------------------------------
def _reference_scores(model, config, windows, times) -> np.ndarray:
    """Full-forward scores staged exactly like ``score_stack``."""
    num_stacks, window, _ = windows.shape
    short = int(config.short_window)
    long_windows = windows.transpose(0, 2, 1)
    long_times = np.broadcast_to(times, (num_stacks, window))
    return model.forward(
        long_windows,
        long_windows[:, :, window - short :],
        long_times,
        long_times[:, window - short :],
    ).scores


def _dynamic_snapshot(noise):
    if noise is None or noise._dynamic_state is None:
        return None
    return noise._dynamic_state.copy()


def _drive(model, config, num_stacks, ticks, rng, bitwise) -> list[PlanIssue]:
    issues: list[PlanIssue] = []
    state = IncrementalState(model, config, num_stacks)
    arena = TrackingArena()
    state.arena = arena
    window, variates = state.window, state.num_variates

    stack = rng.random((num_stacks, window, variates))
    times = np.arange(window, dtype=np.float64)
    state.rebuild(stack, times)
    windows = stack.copy()
    noise = model.noise
    dynamic = noise is not None and noise.graph_mode == "dynamic"

    for tick in range(ticks + 1):
        if tick > 0:
            rows = rng.random((num_stacks, variates))
            timestamp = float(window + tick - 1)
            windows = np.concatenate([windows[:, 1:], rows[:, None, :]], axis=1)
            times = np.concatenate([times[1:], [timestamp]])
            state.append(rows, timestamp)
        snapshot = _dynamic_snapshot(noise) if dynamic else None
        got = state.score()
        if dynamic:
            # The incremental tick advanced the EMA adjacency; rewind so the
            # reference forward replays the identical transition.
            noise._dynamic_state = snapshot
        reference = _reference_scores(model, config, windows, times)
        if bitwise:
            equal = np.array_equal(reference, got)
        else:
            equal = np.allclose(reference, got, rtol=1e-5, atol=1e-6)
        if not equal:
            diff = float(
                np.max(
                    np.abs(
                        np.asarray(reference, dtype=np.float64)
                        - np.asarray(got, dtype=np.float64)
                    )
                )
            )
            issues.append(
                PlanIssue(
                    "score-divergence", "incremental drive",
                    f"tick {tick}: incremental scores diverge from the full "
                    f"forward (max abs diff {diff:.3e})",
                )
            )
            break
        arena.steady = True
    issues.extend(check_state(state))
    return issues


def verify_model(
    model,
    config,
    *,
    num_stacks: int = 2,
    ticks: int = 4,
    seed: int = 0,
) -> PlanReport:
    """Verify one :class:`CompiledModel` against its serving invariants.

    Runs the structural interpretation, then (if structurally sound) one
    instrumented incremental drive.  float64 plans are compared
    bit-for-bit against the full forward; float32 plans with a tolerance
    (their contract is precision-, not bit-, equivalence).  The model's
    observable serving state (dynamic adjacency, last_adjacency) is
    restored afterwards, so verification never changes a served score.
    """
    arrays_checked = sum(
        1 for _, array in _iter_plan_arrays(model) if array is not None
    )
    report = PlanReport(ticks=ticks, arrays_checked=arrays_checked)
    report.issues.extend(check_structure(model, config))
    if report.issues:
        return report

    bitwise = np.dtype(model.dtype) == np.dtype(np.float64)
    rng = np.random.default_rng(seed)
    noise = model.noise
    saved_dynamic = _dynamic_snapshot(noise)
    saved_adjacency = None if noise is None else noise.last_adjacency
    try:
        report.issues.extend(_drive(model, config, num_stacks, ticks, rng, bitwise))
    except Exception as error:  # noqa: BLE001 - verification must report, not crash
        report.issues.append(
            PlanIssue(
                "drive-failure", "incremental drive",
                f"incremental drive raised {type(error).__name__}: {error}",
            )
        )
    finally:
        if noise is not None:
            noise._dynamic_state = saved_dynamic
            noise.last_adjacency = saved_adjacency
    return report


def verify_detector(detector, **kwargs) -> PlanReport:
    """:func:`verify_model` over a :class:`CompiledDetector`'s plan + config."""
    return verify_model(detector.model, detector.config, **kwargs)
