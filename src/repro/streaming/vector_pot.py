"""Array-native per-star POT thresholding for fleet serving.

The paper calibrates its POT threshold *per star* with SPOT (Siffer et al.,
KDD 2017): freeze an initial threshold at a high calibration quantile, keep
the excesses above it, re-fit a GPD to them now and then and refresh the
final threshold in closed form as observations arrive.  Serving a fleet of
``K = num_shards * N`` stars through ``K`` scalar SPOT objects costs one
Python call per star per tick — the per-star loop dominates the tick long
before the model forward pass does.  :class:`VectorizedIncrementalPOT`
keeps every star's SPOT state in flat arrays and advances the whole fleet
with **one** :meth:`update` call per tick:

* per-star initial thresholds, observation counts, GPD parameters and
  final thresholds are ``(K,)`` arrays;
* the ragged per-star excess sets live in one geometrically grown pool
  (a ``(K, capacity)`` block with per-star counts — star ``i``'s live
  excesses are ``pool[i, :counts[i]]``), so appends are amortised O(1)
  fancy-indexed writes with no per-star allocation;
* the cheap closed-form threshold refresh (the per-tick hot path) is fully
  vectorised over the fleet;
* GPD re-fits stay *staggered*: each star re-fits only every
  ``refit_interval`` of **its own** new excesses, so a tick re-fits the few
  stars whose counters rolled over — the expensive grid search stays
  amortised.

Equivalence contract: a fleet calibrated by :meth:`fit` and advanced
through :meth:`update` is **bit-for-bit identical** to ``K`` independent
scalar SPOT instances fed the same per-star score streams (same thresholds,
alarms, observation counts, excess sets and re-fit cadence).  The scalar
oracle lives with the tests (``tests/streaming/pot_oracle.py``); the
contract is asserted in ``tests/streaming/test_vector_pot.py`` and at
1k-star scale in ``benchmarks/test_adaptive_thresholds.py``.
"""

from __future__ import annotations

import logging

import numpy as np

from ..evaluation.pot import fit_gpd, gpd_tail_thresholds
from ..obs.metrics import get_registry

logger = logging.getLogger("repro.streaming.pot")

__all__ = ["VectorizedIncrementalPOT", "calibrate_adaptive_pot"]

_MIN_POOL_CAPACITY = 64

_STATE_SCALARS = ("q", "level", "refit_interval", "max_excesses")
_STATE_ARRAYS = (
    "initial_thresholds",
    "thresholds",
    "counts",
    "num_observations",
    "since_refit",
    "shapes",
    "scales",
    "has_fit",
    "num_refits",
)


class VectorizedIncrementalPOT:
    """Per-star streaming POT over a whole fleet, one array op per tick.

    Parameters
    ----------
    q:
        Target tail probability (paper: 1e-3).
    level:
        Initial-threshold quantile of the calibration scores (paper: 0.99).
    refit_interval:
        New excesses, per star, between that star's GPD re-fits; 1 recovers
        SPOT's fit-on-every-excess behaviour.
    max_excesses:
        Optional cap on each star's retained excess set (oldest dropped
        first, together with a matching share of its observation count).

    The parameters are shared by every star (state is per star,
    hyperparameters are fleet-wide).  Calibration (:meth:`fit`) accepts
    either a 1-D score array — one shared calibration broadcast to
    ``num_stars`` stars, the train-once / serve-many fleet shape — or a
    ``(num_stars, T)`` array with one calibration stream per star.  It
    loops over distinct streams (a one-off cost); only the per-tick
    :meth:`update` path must be, and is, loop-free over stars.
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

        self.initial_thresholds: np.ndarray | None = None
        self.thresholds: np.ndarray | None = None
        self._pool = np.zeros((0, _MIN_POOL_CAPACITY), dtype=np.float64)
        self._counts = np.zeros(0, dtype=np.int64)
        self._num_observations = np.zeros(0, dtype=np.int64)
        self._since_refit = np.zeros(0, dtype=np.int64)
        self._shapes = np.zeros(0, dtype=np.float64)
        self._scales = np.zeros(0, dtype=np.float64)
        self._has_fit = np.zeros(0, dtype=bool)
        self.num_refits = np.zeros(0, dtype=np.int64)
        # Runtime-only always-on accounting (not part of state_dict): a
        # restored calibration starts a fresh failure ledger.
        self.refit_failures = 0

    # ------------------------------------------------------------------
    @property
    def num_stars(self) -> int:
        return 0 if self.thresholds is None else int(self.thresholds.size)

    @property
    def num_observations(self) -> np.ndarray:
        return self._num_observations

    @property
    def num_excesses(self) -> np.ndarray:
        return self._counts

    @property
    def total_refits(self) -> int:
        """Fleet-wide GPD re-fit count (the operator-facing stats number)."""
        return int(self.num_refits.sum())

    # ------------------------------------------------------------------
    # calibration
    # ------------------------------------------------------------------
    def fit(self, scores: np.ndarray, num_stars: int | None = None) -> "VectorizedIncrementalPOT":
        """Calibrate the fleet on initial scores (e.g. the train scores).

        1-D ``scores``: one shared calibration, broadcast to ``num_stars``
        identical per-star states (they diverge as the live streams do).
        2-D ``scores`` of shape ``(num_stars, T)``: one calibration stream
        per star (``num_stars``, if given, must match).
        """
        scores = np.asarray(scores, dtype=np.float64)
        if scores.ndim == 1:
            if num_stars is None or num_stars <= 0:
                raise ValueError("1-D calibration scores need an explicit positive num_stars")
            self._adopt([self._calibrate(scores)] * num_stars)
        elif scores.ndim == 2:
            if num_stars is not None and num_stars != scores.shape[0]:
                raise ValueError(
                    f"num_stars={num_stars} does not match calibration rows {scores.shape[0]}"
                )
            self._adopt([self._calibrate(row) for row in scores])
        else:
            raise ValueError("calibration scores must be 1-D (shared) or 2-D (per star)")
        return self

    def _calibrate(self, scores: np.ndarray) -> tuple:
        """One star's SPOT calibration: ``(initial, excesses, n, fit)``.

        The excesses are taken in stream order, as if pushed one at a time:
        under ``max_excesses`` every push past the cap drops the oldest
        excess and rescales ``n`` once, exactly as :meth:`update` trims.
        """
        if scores.size < 10:
            raise ValueError("POT calibration needs at least 10 scores per star")
        initial = float(np.quantile(scores, self.level))
        excesses = scores[scores > initial] - initial
        observations = int(scores.size)
        keep = self.max_excesses
        if keep is not None and excesses.size > keep:
            for _ in range(excesses.size - keep):
                observations = max(int(round(observations * keep / (keep + 1))), keep)
            excesses = excesses[-keep:]
        fit = fit_gpd(excesses) if excesses.size else None
        return initial, excesses, observations, fit

    def _adopt(self, calibrations: list[tuple]) -> None:
        """Lay out per-star :meth:`_calibrate` results as the fleet state."""
        count = len(calibrations)
        capacity = _MIN_POOL_CAPACITY
        most = max((excesses.size for _, excesses, _, _ in calibrations), default=0)
        while capacity < most:
            capacity *= 2
        self._pool = np.zeros((count, capacity), dtype=np.float64)
        self._counts = np.zeros(count, dtype=np.int64)
        self._num_observations = np.zeros(count, dtype=np.int64)
        self._since_refit = np.zeros(count, dtype=np.int64)
        self._shapes = np.zeros(count, dtype=np.float64)
        self._scales = np.zeros(count, dtype=np.float64)
        self._has_fit = np.zeros(count, dtype=bool)
        self.num_refits = np.zeros(count, dtype=np.int64)
        self.initial_thresholds = np.zeros(count, dtype=np.float64)
        for star, (initial, excesses, observations, fit) in enumerate(calibrations):
            self._counts[star] = excesses.size
            self._pool[star, : excesses.size] = excesses
            self._num_observations[star] = observations
            self.initial_thresholds[star] = initial
            if fit is not None:
                self._has_fit[star] = True
                self._shapes[star] = fit.shape
                self._scales[star] = fit.scale
                self.num_refits[star] = 1
        self._recompute_thresholds()

    def tile(self, reps: int) -> "VectorizedIncrementalPOT":
        """A new instance with every star's state repeated ``reps`` times.

        Star ordering is tile-major — ``new_star = rep * num_stars + star``
        — which matches a fleet's shard-major flattening when the source was
        calibrated per variate of one reference field.
        """
        if reps <= 0:
            raise ValueError("reps must be positive")
        if self.thresholds is None:
            raise RuntimeError("fit the calibration before tiling")
        clone = VectorizedIncrementalPOT(
            q=self.q,
            level=self.level,
            refit_interval=self.refit_interval,
            max_excesses=self.max_excesses,
        )
        clone._pool = np.tile(self._pool, (reps, 1))
        clone._counts = np.tile(self._counts, reps)
        clone._num_observations = np.tile(self._num_observations, reps)
        clone._since_refit = np.tile(self._since_refit, reps)
        clone._shapes = np.tile(self._shapes, reps)
        clone._scales = np.tile(self._scales, reps)
        clone._has_fit = np.tile(self._has_fit, reps)
        clone.num_refits = np.tile(self.num_refits, reps)
        clone.initial_thresholds = np.tile(self.initial_thresholds, reps)
        clone.thresholds = np.tile(self.thresholds, reps)
        return clone

    # ------------------------------------------------------------------
    # the per-tick hot path
    # ------------------------------------------------------------------
    def update(self, scores: np.ndarray) -> np.ndarray:
        """Ingest one score per star; returns the int64 alarm flags.

        Semantics per star are SPOT's: scores above the star's final
        threshold are anomalies (flagged, not added to the tail model);
        scores between the star's initial and final thresholds enrich its
        excess set and may trigger its staggered GPD re-fit; every star's
        closed-form threshold is refreshed for the grown observation count.
        Input of any shape is accepted and the alarms are returned in the
        same shape.

        A non-finite score marks a star with *no observation* this tick (a
        masked survey gap); that star's state — observation count, excess
        set, re-fit cadence and threshold — is left exactly as it was and no
        alarm is raised.  The other stars advance normally.
        """
        if self.thresholds is None or self.initial_thresholds is None:
            raise RuntimeError("VectorizedIncrementalPOT must be fitted before update")
        scores = np.asarray(scores, dtype=np.float64)
        flat = scores.ravel()
        if flat.size != self.num_stars:
            raise ValueError(f"expected one score per star ({self.num_stars}), got {flat.size}")

        observed = np.isfinite(flat)
        self._num_observations += observed
        alarms = observed & (flat > self.thresholds)
        enrich = observed & ~alarms & (flat > self.initial_thresholds)
        if enrich.any():
            stars = np.flatnonzero(enrich)
            self._push_excesses(stars, flat[stars] - self.initial_thresholds[stars])
            self._since_refit[stars] += 1
            due = stars[self._since_refit[stars] >= self.refit_interval]
            # Staggered re-fits: only the (few) stars whose own counter rolled
            # over pay the grid search this tick, through the same fit_gpd as
            # calibration, keeping bit-equality with the scalar oracle.
            for star in due:
                try:
                    fit = fit_gpd(self._pool[star, : self._counts[star]])
                except Exception:
                    # Telemetry must not change behaviour: record the event,
                    # then fail exactly as the uninstrumented path would.
                    self.refit_failures += 1
                    logger.warning(
                        "pot_refit_failed star=%d excesses=%d",
                        int(star), int(self._counts[star]),
                    )
                    raise
                self._shapes[star] = fit.shape
                self._scales[star] = fit.scale
                self._has_fit[star] = True
                self.num_refits[star] += 1
            self._since_refit[due] = 0
            if due.size:
                # Resolved per refit event (rare, staggered), not per tick.
                get_registry().counter(
                    "pot_refits_total", "Per-star adaptive GPD threshold re-fits"
                ).inc(int(due.size))
        self._recompute_thresholds()
        return alarms.astype(np.int64).reshape(scores.shape)  # repro: allow[hot-alloc] -- the emitted alarm array must outlive the tick

    def _push_excesses(self, stars: np.ndarray, excesses: np.ndarray) -> None:
        self._ensure_capacity(int(self._counts[stars].max()) + 1)
        self._pool[stars, self._counts[stars]] = excesses
        self._counts[stars] += 1
        if self.max_excesses is None:
            return
        keep = self.max_excesses
        over = stars[self._counts[stars] > keep]
        if not over.size:
            return
        # The sliding-calibration rescale, bit for bit as in _calibrate:
        # n <- max(round(n * keep / count), keep) with the *pre-trim* count
        # (banker's rounding, like Python's round()).  One update pushes at
        # most one excess per star, so the trim always drops exactly the
        # oldest excess.
        counts = self._counts[over]
        rescaled = np.rint(self._num_observations[over] * keep / counts).astype(np.int64)  # repro: allow[hot-alloc] -- trim branch only; `over` holds the handful of stars past the cap, not the fleet
        self._num_observations[over] = np.maximum(rescaled, keep)
        self._pool[over, :keep] = self._pool[over, 1 : keep + 1]
        self._counts[over] = keep

    def _ensure_capacity(self, needed: int) -> None:
        capacity = self._pool.shape[1]
        if needed <= capacity:
            return
        while capacity < needed:
            capacity *= 2
        pool = np.zeros((self._pool.shape[0], capacity), dtype=np.float64)
        pool[:, : self._pool.shape[1]] = self._pool
        self._pool = pool

    def _recompute_thresholds(self) -> None:
        """Vectorised :func:`repro.evaluation.gpd_tail_threshold` over stars.

        Same closed form, same branch split (exponential limit for
        ``|shape| < 1e-9``), same clamp at the initial threshold — computed
        element-wise over the fleet instead of per star.
        """
        thresholds = self.initial_thresholds.copy()  # repro: allow[hot-alloc] -- the recomputed threshold vector is retained across ticks (snapshotted by results), so it cannot reuse a workspace
        fitted = np.flatnonzero(self._has_fit)
        if fitted.size:
            thresholds[fitted] = gpd_tail_thresholds(
                self.initial_thresholds[fitted],
                self._shapes[fitted],
                self._scales[fitted],
                self._counts[fitted],
                self.q,
                self._num_observations[fitted],
            )
        self.thresholds = thresholds

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """The complete calibration state as flat arrays (npz/manifest-safe).

        The excess pool is trimmed to the live region; ``max_excesses=None``
        is encoded as ``-1``.  :meth:`from_state_dict` restores a
        bit-identical instance.
        """
        if self.thresholds is None:
            raise RuntimeError("fit the calibration before exporting state")
        used = max(int(self._counts.max()) if self._counts.size else 0, 1)
        return {
            "q": np.asarray(self.q, dtype=np.float64),
            "level": np.asarray(self.level, dtype=np.float64),
            "refit_interval": np.asarray(self.refit_interval, dtype=np.int64),
            "max_excesses": np.asarray(
                -1 if self.max_excesses is None else self.max_excesses, dtype=np.int64
            ),
            "initial_thresholds": self.initial_thresholds.copy(),
            "thresholds": self.thresholds.copy(),
            "pool": self._pool[:, :used].copy(),
            "counts": self._counts.copy(),
            "num_observations": self._num_observations.copy(),
            "since_refit": self._since_refit.copy(),
            "shapes": self._shapes.copy(),
            "scales": self._scales.copy(),
            "has_fit": self._has_fit.copy(),
            "num_refits": self.num_refits.copy(),
        }

    @classmethod
    def from_state_dict(cls, state: dict) -> "VectorizedIncrementalPOT":
        """Rebuild an instance from :meth:`state_dict` output (or an npz)."""
        missing = [key for key in (*_STATE_SCALARS, "pool", *_STATE_ARRAYS) if key not in state]
        if missing:
            raise ValueError(f"threshold state is missing keys: {missing}")
        max_excesses = int(state["max_excesses"])
        pot = cls(
            q=float(state["q"]),
            level=float(state["level"]),
            refit_interval=int(state["refit_interval"]),
            max_excesses=None if max_excesses < 0 else max_excesses,
        )
        pool = np.asarray(state["pool"], dtype=np.float64)
        if pool.ndim != 2:
            raise ValueError("threshold state 'pool' must be 2-D (stars, excess capacity)")
        count = pool.shape[0]
        capacity = _MIN_POOL_CAPACITY
        while capacity < pool.shape[1]:
            capacity *= 2
        pot._pool = np.zeros((count, capacity), dtype=np.float64)
        pot._pool[:, : pool.shape[1]] = pool
        pot._counts = np.asarray(state["counts"], dtype=np.int64).copy()
        pot._num_observations = np.asarray(state["num_observations"], dtype=np.int64).copy()
        pot._since_refit = np.asarray(state["since_refit"], dtype=np.int64).copy()
        pot._shapes = np.asarray(state["shapes"], dtype=np.float64).copy()
        pot._scales = np.asarray(state["scales"], dtype=np.float64).copy()
        pot._has_fit = np.asarray(state["has_fit"], dtype=bool).copy()
        pot.num_refits = np.asarray(state["num_refits"], dtype=np.int64).copy()
        pot.initial_thresholds = np.asarray(state["initial_thresholds"], dtype=np.float64).copy()
        pot.thresholds = np.asarray(state["thresholds"], dtype=np.float64).copy()
        sizes = {
            key: np.asarray(state[key]).shape[0] for key in (*_STATE_ARRAYS, "pool")
        }
        if len(set(sizes.values())) != 1:
            raise ValueError(f"threshold state arrays disagree on the star count: {sizes}")
        return pot


def calibrate_adaptive_pot(
    detector,
    num_stars: int,
    refit_interval: int = 32,
    max_excesses: int | None = None,
) -> VectorizedIncrementalPOT:
    """Per-star POT calibrated from a fitted detector's training scores.

    The paper calibrates its threshold per star: with the usual ``(T, N)``
    training scores, each of the reference field's ``N`` variates gets its
    own calibration, tiled across shards when ``num_stars`` is a multiple
    of ``N`` (star ``shard * N + v`` starts from variate ``v``'s state).
    Otherwise one calibration over all training scores is broadcast to
    every star — the per-star states still diverge as the live streams do.
    """
    train_scores = getattr(detector, "train_scores_", None)
    if train_scores is None:
        raise RuntimeError("per-star thresholds need a fitted detector with train scores")
    config = detector.config
    train = np.asarray(train_scores, dtype=np.float64)
    pot = VectorizedIncrementalPOT(
        q=config.pot_q,
        level=config.pot_level,
        refit_interval=refit_interval,
        max_excesses=max_excesses,
    )
    if train.ndim == 2 and train.shape[1] >= 1 and num_stars % train.shape[1] == 0:
        pot.fit(train.T)
        reps = num_stars // train.shape[1]
        return pot if reps == 1 else pot.tile(reps)
    return pot.fit(train.ravel(), num_stars=num_stars)
