"""Numerics-exact ndarray kernels for the compiled inference runtime.

Every function here reproduces, operation for operation, the arithmetic of
its :mod:`repro.nn` counterpart (``tensor.py`` / ``layers.py``): the same
expression trees, the same scalar constants, the same numpy ufuncs.  That
is what makes the compiled plans **bit-for-bit equal** to the autograd
forward pass in float64 — IEEE-754 arithmetic is deterministic, so an
identical sequence of operations produces identical bits.

One kernel set, two buffer policies
-----------------------------------
These kernels (and the plan methods built on them in
:mod:`repro.runtime.plans`) are the *only* runtime definition of the
forward.  Each takes an optional workspace ``ws`` — an incremental
state's :class:`~repro.runtime.incremental.ScratchArena` — and a buffer
``name``, and passes every ufunc ``out=ws and ws.get(name, …)``:

* **no workspace** (the full compiled forward): that is ``out=None``, so
  numpy allocates each intermediate and the results are free to outlive
  the call (the short-circuit also skips building the slot's name and
  shape);
* **a workspace** (the incremental tick): every intermediate is written
  into its named slot, so a steady-state tick reuses the same buffers.

Both policies dispatch the same ufunc/GEMM sequence — only the destination
of each intermediate differs, which cannot change a bit — so incremental
and full-forward scores agree because they run the same code.

Two kinds of speedups are applied, neither of which changes a single bit:

* **in-place completion** — once an intermediate array is freshly
  allocated, the remaining ufuncs of the expression write into it
  (``out=``) instead of allocating again; the values computed are the same.
* **degenerate-shape shortcuts** — a ``(…, 1) @ (1, d)`` embedding matmul
  is a sum over one product, so the broadcast multiply ``x * w[0]``
  produces identical bits without a GEMM dispatch.

Scalar constants are python floats, which numpy promotes as "weak"
scalars: float32 inputs therefore stay float32 end to end in the optional
single-precision mode (no silent upcast to float64).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "scratch",
    "linear",
    "relu",
    "gelu",
    "sigmoid",
    "softmax",
    "layer_norm",
    "apply_activation",
]


def scratch(ws, name: str, shape: tuple, dtype) -> np.ndarray:
    """The workspace slot ``name``, or a fresh array without a workspace.

    For the destinations that must exist before the call (the float mask
    ``greater`` writes, the ``copyto`` of the attention head merge).
    """
    if ws is None:
        return np.empty(shape, dtype=dtype)  # repro: allow[hot-alloc] -- no workspace: the full forward allocates every intermediate
    return ws.get(name, shape, dtype)


def linear(x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None = None,
           ws=None, name: str = "linear") -> np.ndarray:
    """Affine map ``x @ W + b`` — mirrors :class:`repro.nn.Linear.forward`.

    When the contraction axis has length 1 (the univariate value
    embeddings), the matmul degenerates to one product per output element
    and is computed as a broadcast multiply — bit-identical, no GEMM.
    """
    out = ws and ws.get(name, x.shape[:-1] + (weight.shape[-1],), weight.dtype)
    if weight.shape[0] == 1 and x.shape[-1] == 1:
        out = np.multiply(x, weight[0], out=out)
    else:
        out = np.matmul(x, weight, out=out)
    if bias is not None:
        np.add(out, bias, out=out)
    return out


def relu(x: np.ndarray, ws=None, name: str = "relu") -> np.ndarray:
    """Matches ``Tensor.relu``: multiply by a 0/1 mask (not ``np.maximum``).

    The mask is written as floats (``greater`` casts its booleans into the
    float buffer) and the product lands in the same buffer, so no
    bool-times-float casting buffer is needed.
    """
    mask = scratch(ws, name, x.shape, x.dtype)
    np.greater(x, 0, out=mask)
    np.multiply(x, mask, out=mask)
    return mask


def gelu(x: np.ndarray, ws=None, name: str = "gelu") -> np.ndarray:
    """Matches ``Tensor.gelu`` (tanh approximation)."""
    c = math.sqrt(2.0 / math.pi)  # sqrt is correctly rounded: the same double as np.sqrt
    inner = np.power(x, 3, out=ws and ws.get(name + ".inner", x.shape, x.dtype))
    np.multiply(inner, 0.044715, out=inner)
    np.add(x, inner, out=inner)
    np.multiply(inner, c, out=inner)
    np.tanh(inner, out=inner)
    np.add(inner, 1.0, out=inner)
    out = np.multiply(x, 0.5, out=ws and ws.get(name, x.shape, x.dtype))
    np.multiply(out, inner, out=out)
    return out


def sigmoid(x: np.ndarray, ws=None, name: str = "sigmoid") -> np.ndarray:
    """Matches ``Tensor.sigmoid`` including its overflow clip."""
    out = np.clip(x, -60.0, 60.0, out=ws and ws.get(name, x.shape, x.dtype))
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.add(out, 1.0, out=out)
    np.divide(1.0, out, out=out)
    return out


def softmax(x: np.ndarray, ws=None, name: str = "softmax") -> np.ndarray:
    """Matches ``Tensor.softmax`` over the last axis: max-shifted exponentials.

    Normalizes ``x`` **in place** and returns it; callers pass a fresh
    scores array they own.
    """
    peak = x.max(axis=-1, keepdims=True, out=ws and ws.get(name, x.shape[:-1] + (1,), x.dtype))
    np.subtract(x, peak, out=x)
    np.exp(x, out=x)
    total = x.sum(axis=-1, keepdims=True, out=peak)  # the peak is spent: reuse its buffer
    np.divide(x, total, out=x)
    return x


def layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float,
               ws=None, name: str = "norm") -> np.ndarray:
    """Matches :class:`repro.nn.LayerNorm.forward` over the last axis.

    The ``Tensor`` path computes the mean as ``sum * (1.0 / count)`` (not
    ``np.mean``) and the variance as the mean of ``centered * centered``;
    both are replicated here, with the ``x - mean`` intermediate computed
    once and reused (bit-identical — the autograd path evaluates the same
    subtraction twice).
    """
    inverse_count = 1.0 / x.shape[-1]
    mean = x.sum(axis=-1, keepdims=True, out=ws and ws.get(name + ".mean", x.shape[:-1] + (1,), x.dtype))
    np.multiply(mean, inverse_count, out=mean)
    centered = np.subtract(x, mean, out=ws and ws.get(name, x.shape, x.dtype))
    squared = np.multiply(centered, centered, out=ws and ws.get(name + ".sq", x.shape, x.dtype))
    var = squared.sum(axis=-1, keepdims=True, out=mean)  # the mean is spent: reuse its buffer
    np.multiply(var, inverse_count, out=var)
    np.add(var, eps, out=var)
    np.sqrt(var, out=var)
    np.divide(centered, var, out=centered)
    np.multiply(centered, gamma, out=centered)
    np.add(centered, beta, out=centered)
    return centered


def apply_activation(x: np.ndarray, kind: str, ws=None, name: str = "act") -> np.ndarray:
    """Dispatch matching the activation names used across :mod:`repro.nn`."""
    if kind == "identity":
        return x
    if kind == "relu":
        return relu(x, ws, name)
    if kind == "gelu":
        return gelu(x, ws, name)
    if kind == "tanh":
        return np.tanh(x, out=ws and ws.get(name, x.shape, x.dtype))
    if kind == "sigmoid":
        return sigmoid(x, ws, name)
    raise ValueError(f"unsupported activation: {kind!r}")
