"""Shadow-canary evaluation: gate a retrained candidate against live traffic.

The promotion gate of the continual-learning loop
(:mod:`repro.training.loop`).  A candidate detector is never trusted on the
strength of its training loss: recent recorded traffic is replayed through
*both* the live model and the candidate in shadow fleets (no alerts leave
the canary), and the candidate must clear three explicit budgets before it
may be published:

* **event-level recall** no worse than the live model's minus an epsilon —
  measured on known events when the traffic carries ground truth, and on
  deterministic **synthetic probes** (template anomalies injected into the
  recorded traffic under the canary seed) when it does not.  Probes make
  the recall gate self-contained in production, where nobody labels last
  hour's traffic: both models see the identical probed traffic, so a
  candidate that went blind fails loudly even though the night itself was
  quiet.  Recall is judged at the *score* level — the host star's shadow
  score crossing the model's own serving threshold inside the event
  window — because that is what the canary compares (each model plus the
  threshold it would serve with); alert debouncing is the same policy on
  both sides and is judged by the quiet gate;
* **quiet-star false alerts** within budget — stars that hosted no probe
  and no live alert must stay silent under the candidate;
* **score-distribution PSI** of the candidate's freshest shadow scores
  against its *own* calibration scores within budget — a candidate whose
  serving-score distribution does not match the distribution its threshold
  was fitted on is mis-calibrated no matter how good its recall looks.

Everything here is deterministic: the only randomness is the probe
placement, drawn from a seeded generator, and the shadow fleets inherit
the serving stack's bit-reproducibility.  Each shadow fleet replays the
traffic with the batched :meth:`~repro.streaming.FleetManager.run`, which
scores every recorded window in one lane call and finishes the ticks in
order — the trace stepping the fleet tick by tick would give.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..data.anomalies import render_template
from ..streaming import AlertPolicy, FleetManager

__all__ = [
    "ShadowTraffic",
    "ProbeEvent",
    "CanaryBudget",
    "GateResult",
    "CanaryReport",
    "inject_probes",
    "score_psi",
    "evaluate_canary",
]

_MIN_PSI_SAMPLE = 16       # finite shadow scores a star needs to enter the PSI gate
_PSI_EPS = 1e-4            # probability smoothing, matching the drift monitor's sketch


@dataclass(frozen=True)
class ProbeEvent:
    """One synthetic anomaly injected into recorded traffic for the canary."""

    star: int          # flat star index across the fleet
    start: int         # first affected tick (inclusive)
    end: int           # last affected tick (inclusive)
    kind: str
    amplitude: float


@dataclass(frozen=True)
class ShadowTraffic:
    """A replayable slice of recent serving traffic.

    ``rows`` is the raw exposure block ``(T, num_shards, num_variates)``
    exactly as the live fleet ingested it (NaNs mark missing photometry);
    ``timestamps`` the matching per-tick times (all NaN: ticks served
    without timestamps, replayed on the stream's own cadence; a fleet
    serves one timestamp mode, so a ring never mixes the two).  ``events`` optionally carries
    ground truth — any objects exposing ``star``/``start``/``end`` — and
    ``quiet_stars`` the stars known to host nothing; both are derived
    automatically (synthetic probes, live-model silence) when absent.
    """

    rows: np.ndarray
    timestamps: np.ndarray | None = None
    events: tuple = ()
    quiet_stars: np.ndarray | None = None

    @property
    def num_ticks(self) -> int:
        return int(self.rows.shape[0])

    @property
    def num_shards(self) -> int:
        return int(self.rows.shape[1])

    @property
    def num_variates(self) -> int:
        return int(self.rows.shape[2])

    @property
    def num_stars(self) -> int:
        return self.num_shards * self.num_variates

    @classmethod
    def from_scenario(cls, scenario) -> "ShadowTraffic":
        """Wrap a built :class:`~repro.simulation.Scenario` night as traffic."""
        return cls(
            rows=np.asarray(scenario.exposures, dtype=np.float64),
            timestamps=np.asarray(scenario.timestamps, dtype=np.float64),
            events=tuple(scenario.events),
            quiet_stars=np.asarray(scenario.quiet_stars, dtype=np.int64),
        )


@dataclass(frozen=True)
class CanaryBudget:
    """Explicit promotion budgets for :func:`evaluate_canary`.

    ``recall_epsilon`` is how much event-level recall the candidate may
    give up relative to the live model; ``quiet_false_alerts`` the number
    of candidate alerts tolerated on quiet stars; ``psi_budget`` the
    maximum per-star PSI between the candidate's freshest shadow scores
    (the trailing ``psi_window`` ticks) and its own calibration scores.
    ``warmup_ticks`` excludes the swap-seam transient at the head of the
    shadow replay from every gate, and ``min_ticks`` rejects traffic too
    thin to judge.  The ``probe_*`` knobs shape the synthetic recall
    probes injected when the traffic has no ground truth.
    """

    recall_epsilon: float = 0.05
    quiet_false_alerts: int = 2
    psi_budget: float = 0.5
    min_ticks: int = 64
    warmup_ticks: int = 32
    grace: int = 12
    psi_window: int = 64
    num_probes: int = 3
    probe_length: int = 12
    probe_amplitude: float = 12.0    # in units of the host star's traffic std
    probe_kind: str = "flare"


@dataclass(frozen=True)
class GateResult:
    """One canary gate's verdict: the measured value against its budget."""

    name: str
    passed: bool
    value: float
    budget: float
    detail: str = ""


@dataclass(frozen=True)
class CanaryReport:
    """Everything :func:`evaluate_canary` measured, gate by gate."""

    gates: tuple
    live_recall: float
    candidate_recall: float
    quiet_false_alerts: int
    psi_max: float
    num_ticks: int
    num_events: int
    probes_injected: bool
    live_alerts: int = 0
    candidate_alerts: int = 0

    @property
    def passed(self) -> bool:
        return all(gate.passed for gate in self.gates)

    def gate(self, name: str) -> GateResult:
        for gate in self.gates:
            if gate.name == name:
                return gate
        raise KeyError(f"no canary gate named {name!r}")

    def format(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        parts = [
            f"[{'+' if gate.passed else '-'}] {gate.name}: "
            f"{gate.value:.4g} vs budget {gate.budget:.4g}"
            for gate in self.gates
        ]
        return f"canary {verdict} ({self.num_ticks} ticks) " + "; ".join(parts)

    def summary(self) -> dict:
        """Flat JSON-safe summary for structured log events and benchmarks."""
        return {
            "passed": self.passed,
            "live_recall": round(self.live_recall, 4),
            "candidate_recall": round(self.candidate_recall, 4),
            "quiet_false_alerts": self.quiet_false_alerts,
            "psi_max": round(self.psi_max, 4),
            "num_ticks": self.num_ticks,
            "num_events": self.num_events,
            "probes_injected": self.probes_injected,
            "failed_gates": [gate.name for gate in self.gates if not gate.passed],
        }


def inject_probes(
    traffic: ShadowTraffic, budget: CanaryBudget, seed: int
) -> ShadowTraffic:
    """Recorded traffic with synthetic recall probes injected under ``seed``.

    Deterministically picks ``num_probes`` distinct host stars and start
    ticks (past the warm-up seam, clear of the tail grace window), renders
    the probe template at ``probe_amplitude`` times the host's observed
    traffic scatter (floored at 0.25 mag so probes on near-constant stars
    stay visible against a fleet-wide threshold) and adds it onto the
    recorded rows.  Probes are deliberately *sharp*: the detector tracks
    smooth astrophysical ramps well, so its response concentrates at the
    onset discontinuity — exactly the shape the score-level recall gate
    measures.  Ticks that were missing stay missing — the probe inherits
    the traffic's gaps, which is exactly what the alert grace window is
    for.
    """
    rows = np.asarray(traffic.rows, dtype=np.float64).copy()
    ticks, shards, variates = rows.shape
    first = budget.warmup_ticks
    last = ticks - budget.probe_length - budget.grace
    if last <= first:
        raise ValueError(
            f"traffic too short for probes: {ticks} ticks cannot fit a "
            f"{budget.probe_length}-tick probe past warmup {budget.warmup_ticks} "
            f"with grace {budget.grace}"
        )
    num_stars = shards * variates
    count = min(budget.num_probes, num_stars)
    rng = np.random.default_rng(seed)
    hosts = np.sort(rng.choice(num_stars, size=count, replace=False))
    starts = rng.integers(first, last, size=count)
    template = render_template(budget.probe_kind, budget.probe_length, 1.0)
    events = []
    for star, start in zip(hosts.tolist(), starts.tolist()):
        shard, variate = divmod(star, variates)
        observed = rows[:, shard, variate]
        scale = float(np.nanstd(observed)) if np.isfinite(observed).any() else 0.0
        amplitude = budget.probe_amplitude * max(scale, 0.25)
        stop = start + budget.probe_length
        rows[start:stop, shard, variate] += amplitude * template
        events.append(
            ProbeEvent(
                star=star, start=int(start), end=int(stop) - 1,
                kind=budget.probe_kind, amplitude=amplitude,
            )
        )
    return replace(traffic, rows=rows, events=tuple(events), quiet_stars=None)


def score_psi(
    reference: np.ndarray,
    shadow: np.ndarray,
    *,
    num_bins: int = 5,
    exclude: np.ndarray | None = None,
) -> float:
    """Max per-star PSI of shadow scores against calibration scores.

    ``reference`` is the candidate's own calibration score matrix —
    ``(Tc, N)`` per variate of the reference field (tiled across shards
    like the drift monitor's reference) or ``(Tc, S*N)`` per star;
    ``shadow`` the canary's score block ``(T, S, N)``.  ``exclude``
    optionally masks shadow cells (``(T, S*N)`` boolean, True = drop) —
    probe ticks must not count as distribution shift.  Stars with fewer
    than 16 finite shadow scores are skipped: too thin to judge either
    way.  The default binning is deliberately coarser than the serving
    drift monitor's: canary windows hold tens of scores per star, where
    the sampling-noise floor of PSI grows with ``(num_bins - 1)`` times
    the inverse sample sizes, and a genuinely mis-calibrated candidate
    clears PSI 1.0 under any binning.
    """
    reference = np.asarray(reference, dtype=np.float64)
    if reference.ndim == 1:
        reference = reference[:, None]
    shadow = np.asarray(shadow, dtype=np.float64)
    ticks, shards, variates = shadow.shape
    flat = shadow.reshape(ticks, shards * variates)
    worst = 0.0
    for star in range(shards * variates):
        ref = reference[:, star % reference.shape[1]]
        ref = ref[np.isfinite(ref)]
        live = flat[:, star]
        if exclude is not None:
            live = live[~exclude[:, star]]
        live = live[np.isfinite(live)]
        if ref.size < _MIN_PSI_SAMPLE or live.size < _MIN_PSI_SAMPLE:
            continue
        edges = np.quantile(ref, np.linspace(0.0, 1.0, num_bins + 1)[1:-1])
        edges = np.unique(edges)
        if edges.size < 1:
            continue
        ref_counts = np.bincount(np.searchsorted(edges, ref), minlength=edges.size + 1)
        live_counts = np.bincount(np.searchsorted(edges, live), minlength=edges.size + 1)
        p = (ref_counts + _PSI_EPS) / (ref_counts.sum() + _PSI_EPS * ref_counts.size)
        q = (live_counts + _PSI_EPS) / (live_counts.sum() + _PSI_EPS * live_counts.size)
        worst = max(worst, float(np.sum((q - p) * np.log(q / p))))
    return worst


def _shadow_replay(detector, threshold, traffic, policy, backend):
    """Replay the traffic through one shadow fleet's batched ``run``; scores plus alerts.

    The recorded ring keeps NaN for ticks served without a timestamp; a
    ring of only those replays on the stream's own cadence.
    """
    fleet = FleetManager(
        detector,
        num_shards=traffic.num_shards,
        alert_policy=AlertPolicy(
            min_consecutive=policy.min_consecutive, cooldown=policy.cooldown
        ),
        threshold=threshold,
        backend=backend,
    )
    times = traffic.timestamps
    if times is not None and not np.isfinite(times).any():
        times = None
    results = fleet.run(traffic.rows, times)
    scores = np.stack([result.scores for result in results])
    return scores, [alert for result in results for alert in result.alerts]


def _recall(events, scores, threshold: float, warm: int, grace: int) -> float:
    """Fraction of events whose host star's score crosses ``threshold``.

    Judged at the score level inside ``[start, end + grace]`` (clipped to
    the post-warm-up range): the canary compares each model *with the
    threshold it would serve at*, and the detector's response to a
    transient concentrates at its onset — one or two ticks the alert
    debouncer may legitimately absorb on both sides.
    """
    if not events:
        return 1.0
    flat = np.asarray(scores, dtype=np.float64)
    flat = flat.reshape(flat.shape[0], -1)
    ticks = flat.shape[0]
    hit = 0
    for event in events:
        star, start, end = int(event.star), int(event.start), int(event.end)
        window = flat[max(start, warm): min(end + grace + 1, ticks), star]
        window = window[np.isfinite(window)]
        if window.size and float(window.max()) > threshold:
            hit += 1
    return hit / len(events)


def evaluate_canary(
    live_detector,
    candidate_detector,
    traffic: ShadowTraffic,
    *,
    live_threshold: float,
    candidate_threshold: float,
    candidate_calibration: np.ndarray,
    budget: CanaryBudget | None = None,
    seed: int = 0,
    alert_policy: AlertPolicy | None = None,
    backend=None,
) -> CanaryReport:
    """Shadow-score a candidate against the live model and gate promotion.

    Replays ``traffic`` through two fresh shadow fleets — the live model at
    the current serving ``live_threshold``, the candidate at its own
    ``candidate_threshold`` — and measures the three canary gates described
    in the module docstring.  ``candidate_calibration`` is the score matrix
    the candidate's threshold was fitted on; ``seed`` controls probe
    placement when the traffic has no ground-truth events.  Deterministic:
    identical inputs produce a bit-identical report.
    """
    budget = budget or CanaryBudget()
    policy = alert_policy or AlertPolicy()
    gates = []
    ticks = traffic.num_ticks
    gates.append(
        GateResult(
            name="traffic",
            passed=ticks >= budget.min_ticks,
            value=float(ticks),
            budget=float(budget.min_ticks),
            detail="recorded ticks available to the shadow replay",
        )
    )
    probes_injected = False
    if not traffic.events:
        traffic = inject_probes(traffic, budget, seed)
        probes_injected = True
    events = list(traffic.events)

    live_scores, live_alerts = _shadow_replay(
        live_detector, live_threshold, traffic, policy, backend
    )
    cand_scores, cand_alerts = _shadow_replay(
        candidate_detector, candidate_threshold, traffic, policy, backend
    )
    warm = budget.warmup_ticks
    live_alerts = [alert for alert in live_alerts if alert.step >= warm]
    cand_alerts = [alert for alert in cand_alerts if alert.step >= warm]

    live_recall = _recall(events, live_scores, live_threshold, warm, budget.grace)
    cand_recall = _recall(events, cand_scores, candidate_threshold, warm, budget.grace)
    gates.append(
        GateResult(
            name="recall",
            passed=cand_recall >= live_recall - budget.recall_epsilon,
            value=cand_recall,
            budget=live_recall - budget.recall_epsilon,
            detail=f"event-level recall over {len(events)} event(s), "
                   f"live={live_recall:.3f}",
        )
    )

    num_stars = traffic.num_stars
    if traffic.quiet_stars is not None:
        quiet = np.zeros(num_stars, dtype=bool)
        quiet[np.asarray(traffic.quiet_stars, dtype=np.int64)] = True
    else:
        # Stars the live model considered quiet: no probe, no live alert.
        quiet = np.ones(num_stars, dtype=bool)
        for alert in live_alerts:
            quiet[alert.star] = False
    for event in events:
        quiet[int(event.star)] = False
    quiet_violations = sum(1 for alert in cand_alerts if quiet[alert.star])
    gates.append(
        GateResult(
            name="quiet",
            passed=quiet_violations <= budget.quiet_false_alerts,
            value=float(quiet_violations),
            budget=float(budget.quiet_false_alerts),
            detail=f"candidate alerts on {int(quiet.sum())} quiet star(s)",
        )
    )

    # PSI judges the freshest traffic only: the candidate was calibrated on
    # the most recent scores, and promotion cares whether that calibration
    # still describes what the fleet is serving *now*.
    window = max(budget.psi_window, _MIN_PSI_SAMPLE)
    tail = slice(max(warm, ticks - window), ticks)
    exclude = np.zeros((ticks, num_stars), dtype=bool)
    for event in events:
        exclude[int(event.start):int(event.end) + budget.grace + 1, int(event.star)] = True
    psi_max = score_psi(
        candidate_calibration, cand_scores[tail], exclude=exclude[tail]
    )
    gates.append(
        GateResult(
            name="psi",
            passed=psi_max <= budget.psi_budget,
            value=psi_max,
            budget=budget.psi_budget,
            detail="max per-star PSI of trailing shadow scores vs own calibration",
        )
    )

    return CanaryReport(
        gates=tuple(gates),
        live_recall=live_recall,
        candidate_recall=cand_recall,
        quiet_false_alerts=int(quiet_violations),
        psi_max=psi_max,
        num_ticks=ticks,
        num_events=len(events),
        probes_injected=probes_injected,
        live_alerts=len(live_alerts),
        candidate_alerts=len(cand_alerts),
    )
