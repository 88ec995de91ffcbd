"""Peaks-over-threshold (POT) automatic thresholding via extreme value theory.

Following Siffer et al. (KDD 2017), anomaly-score thresholds are derived from
the Generalized Pareto Distribution (GPD) fitted to the excesses of scores
over an initial high quantile:

1. set an initial threshold ``t`` at quantile ``level`` of the calibration
   scores (the paper uses ``level = 0.99``);
2. fit a GPD to the excesses ``s - t`` for all scores ``s > t``;
3. the final threshold for target tail probability ``q`` (paper: 0.001) is

   ``z_q = t + (sigma / gamma) * ((q * n / N_t)^(-gamma) - 1)``

   where ``n`` is the number of calibration scores and ``N_t`` the number of
   excesses.  When the fitted shape ``gamma`` is (near) zero the exponential
   limit ``z_q = t - sigma * log(q * n / N_t)`` is used.

The streaming form of this procedure is
:class:`repro.streaming.VectorizedIncrementalPOT` (per-star thresholds);
the paper's SPOT baseline is :class:`repro.baselines.Spot`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "GPDFit",
    "fit_gpd",
    "gpd_tail_threshold",
    "gpd_tail_thresholds",
    "pot_threshold",
]


@dataclass
class GPDFit:
    """Maximum-likelihood fit of a Generalized Pareto Distribution."""

    shape: float  # gamma
    scale: float  # sigma
    num_excesses: int


def _gpd_negative_log_likelihood(shape: float, scale: float, excesses: np.ndarray) -> float:
    if scale <= 0:
        return np.inf
    if abs(shape) < 1e-9:
        return len(excesses) * np.log(scale) + excesses.sum() / scale
    z = 1.0 + shape * excesses / scale
    if (z <= 0).any():
        return np.inf
    return len(excesses) * np.log(scale) + (1.0 + 1.0 / shape) * np.log(z).sum()


def fit_gpd(excesses: np.ndarray) -> GPDFit:
    """Fit a GPD to positive excesses using the Grimshaw trick / grid search.

    A robust light-weight estimator: we search over candidate shape values and
    solve for the scale by profile likelihood, which is accurate enough for
    thresholding purposes and has no external dependencies.
    """
    excesses = np.asarray(excesses, dtype=np.float64)
    excesses = excesses[excesses > 0]
    if excesses.size == 0:
        raise ValueError("cannot fit a GPD with no positive excesses")
    mean = float(excesses.mean())
    if excesses.size < 3 or np.allclose(excesses, excesses[0]):
        # Degenerate case: fall back to an exponential fit.
        return GPDFit(shape=0.0, scale=max(mean, 1e-12), num_excesses=int(excesses.size))

    best = GPDFit(shape=0.0, scale=mean, num_excesses=int(excesses.size))
    best_nll = _gpd_negative_log_likelihood(0.0, mean, excesses)
    # Candidate shapes spanning heavy and bounded tails.
    for shape in np.linspace(-1.0, 2.0, 61):
        if abs(shape) < 1e-9:
            continue
        # Profile scale: method-of-moments style initial value refined by a
        # small golden-section search on the likelihood.
        scale_grid = mean * np.array([0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0])
        for scale in scale_grid:
            nll = _gpd_negative_log_likelihood(shape, float(scale), excesses)
            if nll < best_nll:
                best_nll = nll
                best = GPDFit(shape=float(shape), scale=float(scale), num_excesses=int(excesses.size))
    return best


def gpd_tail_thresholds(
    initial_thresholds: np.ndarray,
    shapes: np.ndarray,
    scales: np.ndarray,
    num_excesses: np.ndarray,
    q: float,
    num_observations: np.ndarray,
) -> np.ndarray:
    """Array-native ``z_q`` inversion: one threshold per (star's) GPD fit.

    Element ``i`` computes exactly :func:`gpd_tail_threshold` for the
    ``i``-th fit.  Every POT variant — batch, the per-star streaming
    :class:`repro.streaming.VectorizedIncrementalPOT` and the scalar
    streaming oracle its tests compare it with — funnels through this
    one ufunc-backed implementation, which keeps their thresholds
    bit-for-bit comparable (numpy's array ufuncs are element-consistent,
    whereas mixing scalar ``math``-style calls with array calls is not).
    """
    initial = np.asarray(initial_thresholds, dtype=np.float64)
    shapes = np.asarray(shapes, dtype=np.float64)
    scales = np.asarray(scales, dtype=np.float64)
    ratio = q * np.asarray(num_observations, dtype=np.float64) / np.maximum(num_excesses, 1)
    thresholds = np.empty(initial.shape, dtype=np.float64)
    exponential = np.abs(shapes) < 1e-9
    if exponential.any():
        thresholds[exponential] = (
            initial[exponential] - scales[exponential] * np.log(ratio[exponential])
        )
    heavy = ~exponential
    if heavy.any():
        thresholds[heavy] = initial[heavy] + (scales[heavy] / shapes[heavy]) * (
            ratio[heavy] ** -shapes[heavy] - 1.0
        )
    return np.maximum(thresholds, initial)


def gpd_tail_threshold(
    initial_threshold: float,
    fit: GPDFit,
    q: float,
    num_observations: int,
) -> float:
    """Invert a fitted GPD tail into the threshold ``z_q`` (Eq. 18 core).

    This is the shared final step of every POT variant (batch, and the
    scalar streaming oracle of the per-star POT tests): given the
    initial threshold ``t``, a GPD fit of the excesses over ``t`` and the
    total number of observations ``n``, return

    ``z_q = t + (sigma / gamma) * ((q * n / N_t)^(-gamma) - 1)``

    falling back to the exponential limit for ``gamma ~ 0``.  The result is
    clamped from below at the initial threshold.
    """
    return float(
        gpd_tail_thresholds(
            np.asarray([initial_threshold]),
            np.asarray([fit.shape]),
            np.asarray([fit.scale]),
            np.asarray([fit.num_excesses]),
            q,
            np.asarray([num_observations]),
        )[0]
    )


def pot_threshold(
    scores: np.ndarray,
    level: float = 0.99,
    q: float = 1e-3,
    minimum_excesses: int = 10,
) -> float:
    """Compute the POT anomaly threshold from calibration ``scores``.

    Parameters
    ----------
    scores:
        Calibration anomaly scores (typically from the training split), any shape.
    level:
        Initial-threshold quantile (paper: 0.99).
    q:
        Target tail probability (paper: 1e-3).
    minimum_excesses:
        If fewer than this many scores exceed the initial quantile, the
        initial threshold is lowered until enough excesses are available;
        if that is impossible the empirical ``1 - q`` quantile is returned.
    """
    scores = np.asarray(scores, dtype=np.float64).ravel()
    if scores.size == 0:
        raise ValueError("scores must not be empty")
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    if not 0.0 < q < 1.0:
        raise ValueError("q must be in (0, 1)")

    n = scores.size
    initial = float(np.quantile(scores, level))
    excesses = scores[scores > initial] - initial
    # Lower the initial threshold if the tail is too sparse to fit.
    trial_level = level
    while excesses.size < minimum_excesses and trial_level > 0.5:
        trial_level -= 0.05
        initial = float(np.quantile(scores, trial_level))
        excesses = scores[scores > initial] - initial
    if excesses.size < 3:
        return float(np.quantile(scores, 1.0 - q))

    fit = fit_gpd(excesses)
    # The threshold must not fall below the initial quantile.
    return gpd_tail_threshold(initial, fit, q, n)
