"""Compiled inference runtime: tape-free fused forward plans for serving.

Training needs the reverse-mode autograd :class:`~repro.nn.Tensor`; serving
does not.  This package exports a trained :class:`repro.core.AeroDetector`
into *plans* — module weights frozen into read-only flat arrays, forward
logic replayed with raw ``np.ndarray`` kernels — so the scoring hot path
pays for arithmetic only: no ``Tensor`` allocation, no graph bookkeeping,
no per-window python loops.

* :mod:`~repro.runtime.ops` — numerics-exact ndarray kernels mirroring the
  ``repro.nn`` ops (the basis of the float64 bit-for-bit guarantee); the
  one kernel set of both the full forward and the incremental tick, which
  differ only in whether a workspace supplies the intermediates' buffers;
* :mod:`~repro.runtime.plans` — :class:`TemporalPlan`, :class:`NoisePlan`
  and :class:`CompiledModel`, the fused executable forms of the two AERO
  stages and the score head;
* :mod:`~repro.runtime.lanes` — the one pool of CPU-pinned worker threads
  and :func:`~repro.runtime.lanes.score_batch`, which scores a window batch
  on as many lanes as pay (bit-identical for any count); the incremental
  tick splits its stacks over the same pool;
* :mod:`~repro.runtime.compiler` — :func:`compile_model` /
  :func:`compile_detector` weight export, and :class:`CompiledDetector`,
  the drop-in serving front-end (``score``/``detect``/``score_windows``
  plus the fused multi-star ``score_stack``).

Entry points::

    compiled = compile_detector(detector)            # bit-equal float64
    compiled32 = compile_detector(detector, dtype="float32")
    scores = compiled.score(test_series)             # == detector.score(...)

The detector's own batch entry points (``score``/``detect``/
``score_windows``) run on plans compiled from its live model per call, and
its serving front — a :class:`repro.streaming.FleetManager`, of which a
single stream is the one-shard case — on the cached
:meth:`~repro.core.AeroDetector.compile`::

    detector.score(test_series)                      # tape-free, bit-equal
    stream = detector.stream()                       # one-shard fleet
    results = stream.run(test_series[:, None, :])    # scores == score(...)
"""

from .compiler import CompiledDetector, compile_detector, compile_model
from .incremental import IncrementalState, ScratchArena
from .plans import (
    CompiledForwardResult,
    CompiledModel,
    NoisePlan,
    TemporalPlan,
    TimeEmbeddingPlan,
)

__all__ = [
    "compile_detector",
    "compile_model",
    "CompiledDetector",
    "CompiledModel",
    "CompiledForwardResult",
    "IncrementalState",
    "ScratchArena",
    "TemporalPlan",
    "NoisePlan",
    "TimeEmbeddingPlan",
]
