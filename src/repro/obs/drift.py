"""Per-star model-quality drift monitoring for fleet serving.

System telemetry (:mod:`repro.obs.metrics`) watches whether the fleet is
*running*; this module watches whether the model is still *right*.  A
detector is calibrated once against a held-out quiet stretch, then serves
for nights on end — but score distributions drift as stars age, seasons
turn and instruments degrade, and a threshold calibrated at deploy time
silently goes stale.  :class:`DriftMonitor` detects that online, per star,
at fleet scale:

* **streaming sketches in flat arrays** — every star carries an
  exponentially-weighted equal-mass histogram (the sketch every verdict
  reads) and an exponentially-weighted mean/variance (operator evidence),
  so one :meth:`update` call per tick advances ``K`` stars with O(1) array
  ops — no per-star Python loop, matching the
  :class:`~repro.streaming.vector_pot.VectorizedIncrementalPOT` discipline;
* **a calibration-time reference** — :meth:`fit` snapshots each star's
  reference distribution (equal-mass bin edges, bin probabilities,
  moments) from the scores the thresholds were calibrated on;
  :meth:`state_dict` round-trips the snapshot so
  :meth:`repro.training.ModelRegistry.publish` can persist it as a sidecar
  and ``deploy`` can restore it next to the model it describes;
* **PSI / KS-style divergence with hysteresis** — every ``check_interval``
  ticks each star's live histogram is compared against its reference via
  the population stability index and a discrete Kolmogorov–Smirnov
  statistic; a star *trips* only after ``trip_after`` consecutive failing
  checks and *clears* only after ``clear_after`` consecutive passing ones,
  so verdicts do not flap on sampling noise.  :meth:`snapshot` reports
  the live histogram mass per reference bin (``live_probs``) next to
  ``ref_probs``, so the evidence for a trip is the numbers that decided it.

Like the rest of :mod:`repro.obs`, the monitor is passive: it only ever
*reads* the scores handed to it, so serving outputs are bit-identical with
monitoring enabled or disabled (asserted in ``tests/obs``), and non-finite
scores (survey gaps, warm-up, re-arm masks) are per-star no-ops exactly as
in the POT layer.
"""

from __future__ import annotations

import logging

import numpy as np

from .metrics import get_registry

__all__ = ["DriftMonitor", "DriftVerdict", "calibrate_drift_monitor"]

logger = logging.getLogger("repro.obs.drift")

_STATE_SCALARS = (
    "halflife",
    "num_bins",
    "psi_trip",
    "psi_clear",
    "ks_trip",
    "ks_clear",
    "check_interval",
    "trip_after",
    "clear_after",
    "min_observations",
    "warmup_ticks",
)
_REFERENCE_ARRAYS = (
    "ref_edges",
    "ref_probs",
    "ref_mean",
    "ref_std",
)


class DriftVerdict:
    """One drift check's fleet-wide outcome (plain data, operator-facing)."""

    __slots__ = ("step", "psi", "ks", "tripped", "newly_tripped", "newly_cleared")

    def __init__(self, step, psi, ks, tripped, newly_tripped, newly_cleared):
        self.step = step
        self.psi = psi                    # (K,) population stability index
        self.ks = ks                      # (K,) discrete KS statistic
        self.tripped = tripped            # (K,) bool, after hysteresis
        self.newly_tripped = newly_tripped
        self.newly_cleared = newly_cleared

    def format(self) -> str:
        worst = int(np.argmax(self.psi))
        return (
            f"drift check step={self.step} tripped={int(self.tripped.sum())} "
            f"worst star={worst} psi={self.psi[worst]:.3f} ks={self.ks[worst]:.3f}"
        )

    __str__ = format


class DriftMonitor:
    """Streaming per-star score-distribution drift detector (see module docstring).

    Parameters
    ----------
    halflife:
        Exponential decay halflife, in per-star observations, of the live
        sketches (moments and histogram).  Smaller reacts faster; larger
        averages over more of the night.
    num_bins:
        Equal-mass reference bins of the PSI histogram.
    psi_trip / psi_clear, ks_trip / ks_clear:
        Hysteresis bounds: a check *fails* above the trip bound and
        *passes* below the clear bound (between the two, streaks reset —
        neither trip nor clear progress is made).
    check_interval:
        Divergence is evaluated every this-many :meth:`update` calls.
    trip_after / clear_after:
        Consecutive failing checks before a star trips / passing checks
        before a tripped star clears.
    min_observations:
        Per-star observations before its checks count at all.  The live
        histogram's effective sample size is bounded by ~2x the halflife,
        and an equal-mass PSI over ``B`` bins carries sampling noise of
        roughly ``(B - 1) / N`` — warm up past the point where that noise
        clears the trip bound, or quiet stars flap at startup (the default
        matches the default halflife).
    warmup_ticks:
        Leading :meth:`update` calls discarded entirely (no sketch
        ingestion).  A freshly started fleet's first windows straddle the
        seam between seeded context and live data — sinusoidal stars jump
        phase across the gap — and those transient scores would otherwise
        sit in the exponentially-weighted sketches for several halflives,
        looking exactly like drift.  Size it past the serving window.
    registry:
        Telemetry sink; ``None`` captures the process default at
        construction (a no-op until :func:`repro.obs.enable_telemetry`).
    """

    def __init__(
        self,
        halflife: float = 128.0,
        num_bins: int = 8,
        psi_trip: float = 0.25,
        psi_clear: float = 0.10,
        ks_trip: float = 0.35,
        ks_clear: float = 0.15,
        check_interval: int = 8,
        trip_after: int = 3,
        clear_after: int = 16,
        min_observations: int = 128,
        warmup_ticks: int = 32,
        registry=None,
    ):
        if halflife <= 0:
            raise ValueError("halflife must be positive")
        if num_bins < 2:
            raise ValueError("num_bins must be at least 2")
        if psi_clear > psi_trip or ks_clear > ks_trip:
            raise ValueError("clear bounds must not exceed trip bounds (hysteresis)")
        if check_interval < 1 or trip_after < 1 or clear_after < 1:
            raise ValueError("check_interval, trip_after and clear_after must be positive")
        if min_observations < 1:
            raise ValueError("min_observations must be positive")
        if warmup_ticks < 0:
            raise ValueError("warmup_ticks must be non-negative")
        self.halflife = float(halflife)
        self.num_bins = int(num_bins)
        self.psi_trip = float(psi_trip)
        self.psi_clear = float(psi_clear)
        self.ks_trip = float(ks_trip)
        self.ks_clear = float(ks_clear)
        self.check_interval = int(check_interval)
        self.trip_after = int(trip_after)
        self.clear_after = int(clear_after)
        self.min_observations = int(min_observations)
        self.warmup_ticks = int(warmup_ticks)
        self._decay = 0.5 ** (1.0 / self.halflife)

        # Calibration-time reference (None until fit).
        self.ref_edges: np.ndarray | None = None      # (K, B-1) interior edges
        self.ref_probs: np.ndarray | None = None      # (K, B)
        self.ref_mean: np.ndarray | None = None       # (K,)
        self.ref_std: np.ndarray | None = None        # (K,)

        registry = get_registry() if registry is None else registry
        self._m_checks = registry.counter(
            "drift_checks_total", "Drift divergence checks evaluated across all monitors"
        )
        self._m_trips = registry.counter(
            "drift_trips_total", "Stars newly tripped by drift monitors"
        )
        self._m_tripped = registry.gauge(
            "drift_tripped_stars", "Stars currently in the tripped drift state"
        )

    # ------------------------------------------------------------------
    def settings(self) -> dict:
        """Constructor kwargs reproducing this monitor's configuration.

        Hands the hysteresis policy and sketch geometry to code that must
        fit a *fresh* reference under the same rules — e.g. the continual
        learning loop calibrating a retrained candidate's drift sidecar
        against the live monitor's trip thresholds.  Telemetry sinks are
        not included; the rebuilt monitor captures its own.
        """
        return {name: getattr(self, name) for name in _STATE_SCALARS}

    @property
    def num_stars(self) -> int:
        return 0 if self.ref_probs is None else int(self.ref_probs.shape[0])

    @property
    def tripped(self) -> np.ndarray:
        """Boolean ``(K,)`` mask of stars currently in the tripped state."""
        return self._tripped

    @property
    def tripped_stars(self) -> int:
        return int(np.count_nonzero(self._tripped))

    @property
    def trips_total(self) -> int:
        """Stars that ever newly tripped (re-trips after clearing count again)."""
        return self._trips_total

    @property
    def num_observations(self) -> np.ndarray:
        return self._num_observations

    @property
    def first_trip_step(self) -> np.ndarray:
        """Per-star tick index of the first trip (``-1`` = never tripped)."""
        return self._first_trip_step

    @property
    def live_mean(self) -> np.ndarray:
        return self._ew_mean.copy()

    @property
    def live_std(self) -> np.ndarray:
        return np.sqrt(np.maximum(self._ew_var, 0.0))

    # ------------------------------------------------------------------
    # calibration
    # ------------------------------------------------------------------
    def fit(self, scores: np.ndarray, num_stars: int | None = None) -> "DriftMonitor":
        """Snapshot the per-star reference distribution from calibration scores.

        1-D ``scores``: one shared reference broadcast to ``num_stars``
        stars (train-once / serve-many).  2-D ``(num_stars, T)``: one
        reference stream per star.  The reference should come from the same
        held-out quiet stretch the serving thresholds were calibrated on.
        """
        scores = np.asarray(scores, dtype=np.float64)
        if scores.ndim == 1:
            if num_stars is None or num_stars <= 0:
                raise ValueError("1-D reference scores need an explicit positive num_stars")
            scores = np.broadcast_to(scores, (num_stars, scores.size))
        elif scores.ndim == 2:
            if num_stars is not None and num_stars != scores.shape[0]:
                raise ValueError(
                    f"num_stars={num_stars} does not match reference rows {scores.shape[0]}"
                )
        else:
            raise ValueError("reference scores must be 1-D (shared) or 2-D (per star)")
        finite_counts = np.isfinite(scores).sum(axis=1)
        needed = max(self.num_bins * 4, 16)
        if int(finite_counts.min()) < needed:
            raise ValueError(
                f"every star needs at least {needed} finite reference scores, "
                f"got a minimum of {int(finite_counts.min())}"
            )
        count = scores.shape[0]
        bins = self.num_bins
        edges = np.empty((count, bins - 1))
        probs = np.empty((count, bins))
        ref_mean = np.empty(count)
        ref_std = np.empty(count)
        interior = np.arange(1, bins) / bins
        for star in range(count):
            row = scores[star]
            row = row[np.isfinite(row)]
            edges[star] = np.quantile(row, interior)
            # Empirical reference mass per bin: exactly what the live
            # histogram converges to when nothing drifts (ties and repeated
            # values make it deviate from the ideal 1/B).
            assignments = np.searchsorted(edges[star], row, side="right")
            probs[star] = np.bincount(assignments, minlength=bins) / row.size
            ref_mean[star] = row.mean()
            ref_std[star] = row.std()
        self.ref_edges = edges
        self.ref_probs = probs
        self.ref_mean = ref_mean
        self.ref_std = ref_std
        self._reset_live_state(count)
        return self

    def _reset_live_state(self, count: int) -> None:
        self._counts = np.zeros((count, self.num_bins))
        self._ew_mean = np.zeros(count)
        self._ew_var = np.zeros(count)
        self._num_observations = np.zeros(count, dtype=np.int64)
        self._ticks = 0
        self._tripped = np.zeros(count, dtype=bool)
        self._fail_streak = np.zeros(count, dtype=np.int64)
        self._pass_streak = np.zeros(count, dtype=np.int64)
        self._first_trip_step = np.full(count, -1, dtype=np.int64)
        self._trips_total = 0
        self.last_psi = np.zeros(count)
        self.last_ks = np.zeros(count)
        self.last_verdict: DriftVerdict | None = None

    # ------------------------------------------------------------------
    # the per-tick hot path
    # ------------------------------------------------------------------
    def update(self, scores: np.ndarray) -> int:
        """Ingest one score per star; returns how many stars *newly* tripped.

        Accepts any shape with one entry per star.  Non-finite scores mark
        stars with no trustworthy observation this tick (warm-up, survey
        gaps, re-arm masks): their sketches, streaks and verdicts are left
        exactly as they were, matching the POT layer's NaN semantics.
        """
        if self.ref_probs is None:
            raise RuntimeError("DriftMonitor must be fitted before update")
        flat = np.asarray(scores, dtype=np.float64).ravel()
        if flat.size != self.num_stars:
            raise ValueError(
                f"expected one score per star ({self.num_stars}), got {flat.size}"
            )
        self._ticks += 1
        if self._ticks <= self.warmup_ticks:
            return 0
        observed = np.isfinite(flat)
        if observed.any():
            self._update_moments(flat, observed)
            self._update_histogram(flat, observed)
            self._num_observations += observed
        if self._ticks % self.check_interval == 0:
            return self._check()
        return 0

    def _update_moments(self, flat: np.ndarray, observed: np.ndarray) -> None:
        alpha = 1.0 - self._decay
        seen = self._num_observations > 0
        fresh = observed & ~seen
        live = observed & seen
        if fresh.any():
            self._ew_mean[fresh] = flat[fresh]
            self._ew_var[fresh] = 0.0
        if live.any():
            delta = flat[live] - self._ew_mean[live]
            self._ew_mean[live] += alpha * delta
            self._ew_var[live] = (1.0 - alpha) * (
                self._ew_var[live] + alpha * delta * delta
            )

    def _update_histogram(self, flat: np.ndarray, observed: np.ndarray) -> None:
        stars = np.flatnonzero(observed)
        # Per-star bin of this tick's score against that star's own edges:
        # an O(K * B) comparison, loop-free over the fleet.
        bins = (flat[stars, None] > self.ref_edges[stars]).sum(axis=1)
        self._counts[stars] *= self._decay
        self._counts[stars, bins] += 1.0

    # ------------------------------------------------------------------
    # divergence + hysteresis
    # ------------------------------------------------------------------
    def divergence(self) -> tuple[np.ndarray, np.ndarray]:
        """Current per-star ``(psi, ks)`` of live histogram vs reference."""
        psi, ks, _ = self._divergence()
        return psi, ks

    def _divergence(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(psi, ks, live)``: ``live`` is the ``(K, B)`` smoothed live mass
        per reference bin that both statistics compare against ``ref_probs``."""
        if self.ref_probs is None:
            raise RuntimeError("DriftMonitor must be fitted before divergence")
        totals = self._counts.sum(axis=1, keepdims=True)
        eps = 1.0 / (self.num_bins * 64.0)
        live = (self._counts + eps) / (totals + self.num_bins * eps)
        ref = (self.ref_probs + eps) / (1.0 + self.num_bins * eps)
        psi = np.sum((live - ref) * np.log(live / ref), axis=1)
        ks = np.abs(np.cumsum(live - ref, axis=1)).max(axis=1)
        empty = totals[:, 0] <= 0.0
        psi[empty] = 0.0
        ks[empty] = 0.0
        return psi, ks, live

    def _check(self) -> int:
        psi, ks = self.divergence()
        self.last_psi = psi
        self.last_ks = ks
        eligible = self._num_observations >= self.min_observations
        failing = eligible & ((psi > self.psi_trip) | (ks > self.ks_trip))
        passing = eligible & (psi < self.psi_clear) & (ks < self.ks_clear)
        self._fail_streak = np.where(failing, self._fail_streak + 1, 0)
        self._pass_streak = np.where(passing, self._pass_streak + 1, 0)
        newly_tripped = ~self._tripped & (self._fail_streak >= self.trip_after)
        newly_cleared = self._tripped & (self._pass_streak >= self.clear_after)
        self._tripped = (self._tripped | newly_tripped) & ~newly_cleared
        never = newly_tripped & (self._first_trip_step < 0)
        self._first_trip_step[never] = self._ticks
        num_new = int(np.count_nonzero(newly_tripped))
        self._trips_total += num_new
        self._m_checks.inc()
        if num_new:
            self._m_trips.inc(num_new)
            logger.warning(
                "drift_trip step=%d stars=%s psi_max=%.3f ks_max=%.3f",
                self._ticks,
                np.flatnonzero(newly_tripped).tolist(),
                float(psi[newly_tripped].max()),
                float(ks[newly_tripped].max()),
            )
        if newly_cleared.any():
            logger.warning(
                "drift_clear step=%d stars=%s",
                self._ticks,
                np.flatnonzero(newly_cleared).tolist(),
            )
        self._m_tripped.set(self.tripped_stars)
        self.last_verdict = DriftVerdict(
            step=self._ticks,
            psi=psi,
            ks=ks,
            tripped=self._tripped.copy(),
            newly_tripped=newly_tripped,
            newly_cleared=newly_cleared,
        )
        return num_new

    # ------------------------------------------------------------------
    # evidence + persistence
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, np.ndarray]:
        """Per-star evidence arrays for dashboards and post-mortems.

        ``live_probs`` is the ``(K, B)`` live histogram mass per reference
        bin that ``psi`` and ``ks`` were computed from, beside the
        ``ref_probs`` it is compared with.
        """
        psi, ks, live = self._divergence()
        return {
            "psi": psi,
            "ks": ks,
            "tripped": self._tripped.copy(),
            "first_trip_step": self._first_trip_step.copy(),
            "num_observations": self._num_observations.copy(),
            "live_probs": live,
            "ref_probs": self.ref_probs.copy(),
            "live_mean": self.live_mean,
            "live_std": self.live_std,
            "ref_mean": self.ref_mean.copy(),
            "ref_std": self.ref_std.copy(),
        }

    def state_dict(self) -> dict[str, np.ndarray]:
        """The calibration-time reference sketch as flat arrays (npz-safe).

        This is the *reference*, not the live night: restoring it via
        :meth:`from_state_dict` yields a monitor that compares a fresh
        serving run against the same calibration snapshot (live sketches
        re-warm within ``min_observations`` ticks).  The dict round-trips
        through ``ModelRegistry.publish(..., drift_reference=...)`` /
        ``deploy`` alongside the model it describes.
        """
        if self.ref_probs is None:
            raise RuntimeError("fit the reference before exporting state")
        # Settings are Python floats and ints: 0-d arrays that npz round-trips.
        state = {name: np.asarray(value) for name, value in self.settings().items()}
        for name in _REFERENCE_ARRAYS:
            state[name] = getattr(self, name).copy()
        return state

    @classmethod
    def from_state_dict(cls, state: dict, registry=None) -> "DriftMonitor":
        """Rebuild a monitor from :meth:`state_dict` output (or an npz).

        Keys that are not settings or reference arrays are ignored, so
        sidecars that still carry the retired ``quantiles`` and
        ``ref_quantiles`` entries load unchanged.
        """
        missing = [key for key in (*_STATE_SCALARS, *_REFERENCE_ARRAYS) if key not in state]
        if missing:
            raise ValueError(f"drift state is missing keys: {missing}")
        monitor = cls(
            **{name: np.asarray(state[name]).item() for name in _STATE_SCALARS},
            registry=registry,
        )
        edges, probs, mean, std = (
            np.array(state[name], dtype=np.float64) for name in _REFERENCE_ARRAYS
        )
        if edges.ndim != 2 or probs.ndim != 2 or mean.ndim != 1 or std.ndim != 1:
            raise ValueError("drift reference edges/probs must be 2-D and mean/std 1-D")
        counts = {edges.shape[0], probs.shape[0], mean.shape[0], std.shape[0]}
        if len(counts) != 1:
            raise ValueError(f"drift reference arrays disagree on the star count: {counts}")
        if probs.shape[1] != monitor.num_bins or edges.shape[1] != monitor.num_bins - 1:
            raise ValueError("drift reference bin geometry does not match num_bins")
        monitor.ref_edges, monitor.ref_probs, monitor.ref_mean, monitor.ref_std = (
            edges, probs, mean, std
        )
        monitor._reset_live_state(edges.shape[0])
        return monitor


def calibrate_drift_monitor(
    scores: np.ndarray,
    num_stars: int,
    **kwargs,
) -> DriftMonitor:
    """A fitted :class:`DriftMonitor` from held-out calibration scores.

    ``scores`` is the usual ``(T, N)`` per-variate score matrix of the
    reference field (e.g. ``detector.score(scenario.calibration)``), the
    same scores the serving thresholds are calibrated on.  When
    ``num_stars`` is a multiple of ``N``, each variate's reference is tiled
    across shards exactly like
    :func:`~repro.streaming.vector_pot.calibrate_adaptive_pot` (star
    ``shard * N + v`` gets variate ``v``'s reference); otherwise one pooled
    reference is broadcast to every star.  Keyword arguments pass through
    to :class:`DriftMonitor`.
    """
    scores = np.asarray(scores, dtype=np.float64)
    monitor = DriftMonitor(**kwargs)
    if scores.ndim == 2 and scores.shape[1] >= 1 and num_stars % scores.shape[1] == 0:
        reps = num_stars // scores.shape[1]
        return monitor.fit(np.tile(scores.T, (reps, 1)))
    return monitor.fit(scores.ravel(), num_stars=num_stars)
