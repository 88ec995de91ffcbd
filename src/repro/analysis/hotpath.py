"""Registry of steady-state hot paths and the ``@hot_path`` decorator.

A *hot path* is a function whose per-tick execution is part of a pinned
performance contract: the incremental serving tick is tracemalloc-pinned
(flat net heap, bounded per-tick peak), and the fleet/POT/telemetry tick
paths are benchmarked against allocation-driven regressions.  The
``hot-alloc``/``hot-ufunc-out`` lint rules (:mod:`repro.analysis.rules`)
flag numpy allocations inside registered functions so a new ``np.empty`` or
an ``out=``-less ufunc cannot sneak into a tick unnoticed.

Two registration mechanisms, both purely declarative:

* the :data:`HOT_PATHS` manifest below — ``"path::qualname"`` keys matched
  by path *suffix*, covering existing code without touching it;
* the :func:`hot_path` decorator — for new code, mark the function where it
  is defined.  The linter recognises the decorator syntactically; at
  runtime it is a zero-cost identity wrapper.

Tiers
-----
``"alloc"``
    The function may not call allocating numpy constructors
    (``np.empty``/``np.zeros``/``np.concatenate``/``np.stack``/… ) or the
    allocating ``.copy()``/``.astype()`` methods.  Fresh result arrays that
    intentionally outlive the tick carry a ``# repro: allow[hot-alloc]``
    suppression with a justification.
``"strict"``
    Everything ``alloc`` forbids, plus every ufunc call must write into a
    preallocated destination (``out=``).  This is the zero-allocation
    contract of the incremental tick and of the shared runtime kernels it
    runs (:mod:`repro.runtime.ops` and the plan methods), which take their
    destinations from an optional workspace.  The rule is syntactic:
    ``out=ws and ws.get(…)`` satisfies it whether or not a workspace was
    passed, so a call site that forgets to forward the workspace is caught
    by the tracemalloc per-tick *peak* pin, not by the lint.  Nor does
    ``out=`` make a call allocation-free: numpy still allocates an iterator
    buffer (at most 64 KiB) for a broadcast or mixed-dtype ufunc, freed
    before the call returns.
"""

from __future__ import annotations

__all__ = ["HOT_PATHS", "hot_path"]

#: ``"<path suffix>::<qualified name>"`` → tier.  Qualified names follow the
#: lexical nesting of the AST (``Class.method``); the path is matched as a
#: ``/``-separated suffix of the linted file's path.
HOT_PATHS: dict[str, str] = {
    # -- incremental serving: the zero-allocation tick kernels ------------
    "repro/runtime/incremental.py::ScratchArena.get": "strict",
    "repro/runtime/incremental.py::IncrementalState.append": "strict",
    "repro/runtime/incremental.py::IncrementalState._embed_row": "strict",
    "repro/runtime/incremental.py::IncrementalState.score": "strict",
    "repro/runtime/incremental.py::IncrementalState._score_full": "strict",
    "repro/runtime/incremental.py::_stage_input": "strict",
    "repro/runtime/incremental.py::timeline_step": "strict",
    "repro/runtime/incremental.py::temporal_step": "strict",
    "repro/runtime/incremental.py::noise_step": "strict",
    # one lane's share of a tick, on the calling thread or a pool worker
    # (its score rows land in the caller's vector through ``out=``)
    "repro/runtime/incremental.py::lane_step": "strict",
    # the fan-out: its emitted score vector is the tick's one allocation
    "repro/runtime/incremental.py::model_step": "strict",
    "repro/runtime/compiler.py::CompiledDetector.score_stack_step": "strict",
    "repro/runtime/compiler.py::CompiledDetector.score_step": "strict",
    # -- the one kernel set both the full forward and the tick run ---------
    # (the tick passes its arena as the workspace; the lint holds every
    # ufunc to an ``out=`` so no call site can skip the workspace slot)
    "repro/runtime/ops.py::scratch": "strict",
    "repro/runtime/ops.py::linear": "strict",
    "repro/runtime/ops.py::relu": "strict",
    "repro/runtime/ops.py::gelu": "strict",
    "repro/runtime/ops.py::sigmoid": "strict",
    "repro/runtime/ops.py::softmax": "strict",
    "repro/runtime/ops.py::layer_norm": "strict",
    "repro/runtime/ops.py::apply_activation": "strict",
    "repro/runtime/plans.py::FeedForwardPlan.__call__": "strict",
    "repro/runtime/plans.py::LayerNormPlan.__call__": "strict",
    "repro/runtime/plans.py::AttentionPlan._split_heads": "strict",
    "repro/runtime/plans.py::AttentionPlan._attend": "strict",
    "repro/runtime/plans.py::AttentionPlan.self_attention": "strict",
    "repro/runtime/plans.py::AttentionPlan.cross": "strict",
    "repro/runtime/plans.py::EncoderLayerPlan.__call__": "strict",
    "repro/runtime/plans.py::DecoderLayerPlan.self_stage": "strict",
    "repro/runtime/plans.py::DecoderLayerPlan.cross_stage": "strict",
    "repro/runtime/plans.py::DecoderLayerPlan.__call__": "strict",
    "repro/runtime/plans.py::TemporalPlan.encode": "strict",
    "repro/runtime/plans.py::TemporalPlan.decode": "strict",
    "repro/runtime/plans.py::TemporalPlan.head": "strict",
    # -- fleet serving tick ----------------------------------------------
    "repro/streaming/fleet.py::FleetManager.step": "alloc",
    "repro/streaming/fleet.py::FleetManager._ingest": "alloc",
    "repro/streaming/fleet.py::FleetManager._forward": "alloc",
    "repro/streaming/fleet.py::FleetManager._stage": "alloc",
    "repro/streaming/fleet.py::FleetManager._finish": "alloc",
    "repro/streaming/fleet.py::FleetManager._settle": "alloc",
    "repro/streaming/fleet.py::FleetManager._incremental_forward": "alloc",
    "repro/streaming/fleet.py::FleetManager._record_tick_metrics": "alloc",
    # -- per-star adaptive thresholds ------------------------------------
    "repro/streaming/vector_pot.py::VectorizedIncrementalPOT.update": "alloc",
    "repro/streaming/vector_pot.py::VectorizedIncrementalPOT._push_excesses": "alloc",
    "repro/streaming/vector_pot.py::VectorizedIncrementalPOT._recompute_thresholds": "alloc",
    # -- telemetry per-tick updates --------------------------------------
    "repro/obs/metrics.py::Counter.inc": "alloc",
    "repro/obs/metrics.py::Gauge.set": "alloc",
    "repro/obs/metrics.py::Gauge.inc": "alloc",
    "repro/obs/metrics.py::Histogram.observe": "alloc",
    "repro/obs/metrics.py::Histogram.observe_many": "alloc",
    "repro/obs/metrics.py::VectorCounter.add": "alloc",
    "repro/obs/metrics.py::VectorCounter.inc_at": "alloc",
    "repro/obs/metrics.py::VectorGauge.set": "alloc",
    "repro/obs/metrics.py::VectorGauge.set_at": "alloc",
    "repro/obs/drift.py::DriftMonitor.update": "alloc",
    "repro/obs/drift.py::DriftMonitor._update_moments": "alloc",
    "repro/obs/drift.py::DriftMonitor._update_histogram": "alloc",
}

_TIERS = ("alloc", "strict")


def hot_path(function=None, *, tier: str = "alloc"):
    """Mark a function as a registered steady-state hot path.

    Usable bare (``@hot_path``) or parameterised
    (``@hot_path(tier="strict")``).  The lint rules match the decorator
    *syntactically*, so marking a function is enough — no import-time
    registration happens; at runtime the function is returned unchanged.
    """
    if tier not in _TIERS:
        raise ValueError(f"hot_path tier must be one of {_TIERS}, got {tier!r}")
    if function is None:
        def decorate(inner):
            inner.__hot_path_tier__ = tier
            return inner
        return decorate
    function.__hot_path_tier__ = tier
    return function
