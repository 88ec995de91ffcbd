"""Scalar streaming POT: the test oracle for per-star adaptive thresholds.

:class:`repro.streaming.VectorizedIncrementalPOT` serves a whole fleet with
one array update per tick.  Its contract is that it is bit for bit equal to
one independent :class:`IncrementalPOT` per star, written here the plain
way — one Python object and one call per score — so the tests can check
the vectorised class against it.

The batch :func:`repro.evaluation.pot_threshold` re-sorts the full score
history and re-fits the GPD on every call.  :class:`IncrementalPOT` instead
maintains the exceedance set online:

* the initial threshold ``t`` is frozen at calibration time (as in SPOT);
* each new score above ``t`` is appended to the excess set;
* the GPD tail is re-fitted only every ``refit_interval`` new excesses — the
  expensive grid search is amortised away from the per-step hot path;
* between re-fits the final threshold ``z_q`` is still updated cheaply,
  because it depends on the running observation count ``n`` through the
  closed form of :func:`repro.evaluation.gpd_tail_threshold`.

The excess set is kept in a geometrically grown numpy array (amortised O(1)
appends) and can be bounded with ``max_excesses`` to cap memory on unbounded
streams (oldest excesses are discarded, a standard sliding-calibration
choice for multi-night monitoring).
"""

from __future__ import annotations

import numpy as np

from repro.evaluation.pot import GPDFit, fit_gpd, gpd_tail_threshold

__all__ = ["IncrementalPOT"]


class IncrementalPOT:
    """Streaming peaks-over-threshold with periodic GPD tail re-fits.

    Parameters
    ----------
    q:
        Target tail probability (paper: 1e-3).
    level:
        Initial-threshold quantile of the calibration scores (paper: 0.99).
    refit_interval:
        Number of *new excesses* between GPD re-fits; 1 recovers SPOT's
        fit-on-every-excess behaviour.
    max_excesses:
        Optional cap on the retained excess set (oldest dropped first).
    """

    def __init__(
        self,
        q: float = 1e-3,
        level: float = 0.99,
        refit_interval: int = 32,
        max_excesses: int | None = None,
    ):
        if not 0.0 < q < 1.0:
            raise ValueError("q must be in (0, 1)")
        if not 0.0 < level < 1.0:
            raise ValueError("level must be in (0, 1)")
        if refit_interval < 1:
            raise ValueError("refit_interval must be at least 1")
        if max_excesses is not None and max_excesses < 8:
            raise ValueError("max_excesses must be at least 8")
        self.q = q
        self.level = level
        self.refit_interval = refit_interval
        self.max_excesses = max_excesses

        self.initial_threshold: float | None = None
        self.threshold: float | None = None
        self._fit: GPDFit | None = None
        self._excesses = np.zeros(64, dtype=np.float64)
        self._num_excesses = 0
        self._excesses_since_refit = 0
        self._num_observations = 0
        self.num_refits = 0

    # ------------------------------------------------------------------
    @property
    def num_observations(self) -> int:
        return self._num_observations

    @property
    def num_excesses(self) -> int:
        return self._num_excesses

    def _push_excess(self, excess: float) -> None:
        if self._num_excesses == len(self._excesses):
            self._excesses = np.concatenate([self._excesses, np.zeros_like(self._excesses)])
        self._excesses[self._num_excesses] = excess
        self._num_excesses += 1
        if self.max_excesses is not None and self._num_excesses > self.max_excesses:
            keep = self.max_excesses
            # Discarding an excess must also discard the observations that
            # accompanied it, otherwise the n/N_t ratio compares mismatched
            # populations and the threshold decays to the clamp floor on
            # long stationary streams.
            self._num_observations = max(
                int(round(self._num_observations * keep / self._num_excesses)), keep
            )
            self._excesses[:keep] = self._excesses[self._num_excesses - keep : self._num_excesses]
            self._num_excesses = keep

    def _refit(self) -> None:
        excesses = self._excesses[: self._num_excesses]
        if excesses.size == 0:
            self._fit = None
        else:
            self._fit = fit_gpd(excesses)
            self.num_refits += 1
        self._excesses_since_refit = 0
        self._recompute_threshold()

    def _recompute_threshold(self) -> None:
        if self._fit is None:
            self.threshold = self.initial_threshold
            return
        # The fit's excess count may lag the live set between re-fits; the
        # ratio n/N_t must use matching counts, so refresh it here.
        fit = GPDFit(self._fit.shape, self._fit.scale, self._num_excesses)
        self.threshold = gpd_tail_threshold(
            self.initial_threshold, fit, self.q, self._num_observations
        )

    # ------------------------------------------------------------------
    def fit(self, scores: np.ndarray) -> "IncrementalPOT":
        """Calibrate on an initial batch of scores (e.g. the train scores)."""
        scores = np.asarray(scores, dtype=np.float64).ravel()
        if scores.size < 10:
            raise ValueError("IncrementalPOT needs at least 10 calibration scores")
        self._num_observations = int(scores.size)
        self.initial_threshold = float(np.quantile(scores, self.level))
        excesses = scores[scores > self.initial_threshold] - self.initial_threshold
        self._num_excesses = 0
        for excess in excesses:
            self._push_excess(float(excess))
        self._refit()
        return self

    def update(self, score: float) -> bool:
        """Ingest one score; returns ``True`` if it exceeds the threshold.

        Scores above the final threshold are treated as anomalies and (as in
        SPOT) *not* added to the tail model; scores between the initial and
        final thresholds enrich the excess set.

        A non-finite score means *no observation* (a masked survey gap, not a
        measurement): the update is a no-op — the observation count, excess
        set and threshold are all left untouched — and no alarm is raised.
        Counting gaps as observations would silently inflate ``n`` and decay
        the threshold on streams with missing data.
        """
        if self.threshold is None or self.initial_threshold is None:
            raise RuntimeError("IncrementalPOT must be fitted before update")
        if not np.isfinite(score):
            return False
        self._num_observations += 1
        if score > self.threshold:
            # The observation count just grew; refresh the closed form before
            # the early return, otherwise the threshold keeps using a stale n
            # until the next benign score arrives.
            self._recompute_threshold()
            return True
        if score > self.initial_threshold:
            self._push_excess(score - self.initial_threshold)
            self._excesses_since_refit += 1
            if self._excesses_since_refit >= self.refit_interval:
                self._refit()
                return False
        # Cheap closed-form update: n grew, the GPD parameters did not.
        self._recompute_threshold()
        return False
