"""Streaming a simulated GWAC night through the online serving stack.

Where ``gwac_survey_monitoring.py`` replays a night by re-scoring the whole
series offline, this example uses the streaming subsystem end to end:

1. train AERO offline on the unlabeled archive (Algorithm 1);
2. open a single stream on the fitted detector (``detector.stream()``, a
   one-shard :class:`repro.streaming.FleetManager`), feed it the night one
   ``(1, N)`` exposure at a time and verify its scores match the batch path
   exactly;
3. serve a *fleet* of simulated camera fields through a
   :class:`repro.streaming.FleetManager` — one vectorised model call per
   exposure for all shards, with ``threshold_mode="per_star"`` adaptive POT
   thresholds (each star's own calibration, advanced by one array-native
   update per tick) — behind a :class:`StreamingService` queue with
   debounced alerting, printing the operator-facing backpressure stats.

Run with:  PYTHONPATH=src python examples/streaming_monitoring.py
"""

import numpy as np

from repro.core import AeroConfig, AeroDetector
from repro.data import load_astroset
from repro.streaming import AlertPolicy, FleetManager, StreamingService


def main() -> None:
    dataset = load_astroset("AstrosetLow", scale=0.05)
    print(f"{dataset.name}: {dataset.num_variates} stars/field, "
          f"{dataset.train_length} archive epochs, {dataset.test_length} live epochs")

    config = AeroConfig.fast(window=40, short_window=12).scaled(
        max_epochs_stage1=12, max_epochs_stage2=6, learning_rate=5e-3
    )
    detector = AeroDetector(config)
    detector.fit(dataset.train, dataset.train_timestamps)
    print(f"calibrated POT threshold: {detector.threshold():.4f}\n")

    # --- single-stream sanity check: online == batch ----------------------
    stream = detector.stream()
    results = stream.run(dataset.test[:, None, :], dataset.test_timestamps)
    streaming_scores = np.stack([result.scores[0] for result in results])
    batch_scores = detector.score(dataset.test, dataset.test_timestamps)
    assert np.array_equal(streaming_scores, batch_scores)
    print("streaming scores match the batch path bit for bit "
          f"({streaming_scores.shape[0]} timestamps x {streaming_scores.shape[1]} stars, "
          f"{stream.alert_policy.alerts_fired} alert(s))\n")

    # --- fleet serving: several camera fields, one model call per tick ----
    num_shards = 4
    rng = np.random.default_rng(42)
    fleet = FleetManager(
        detector,
        num_shards=num_shards,
        alert_policy=AlertPolicy(min_consecutive=2, cooldown=30),
        threshold_mode="per_star",
    )
    service = StreamingService(fleet, max_queue=64)
    print(f"serving {fleet.num_stars} stars across {num_shards} shards, "
          f"per-star thresholds in [{fleet.adaptive_pot.thresholds.min():.3f}, "
          f"{fleet.adaptive_pot.thresholds.max():.3f}]")

    # Each shard observes the same night with shard-specific photometric
    # jitter, standing in for neighbouring fields of the same survey.
    jitter = rng.normal(0.0, 0.02, size=(num_shards, dataset.num_variates))
    alerts = []
    for t in range(dataset.test_length):
        exposure = dataset.test[t][None, :] + jitter
        service.submit(exposure, timestamp=float(dataset.test_timestamps[t]))
        for result in service.drain():
            alerts.extend(result.alerts)

    for alert in alerts[:10]:
        truth = "TRUE EVENT" if dataset.test_labels[alert.step, alert.variate] else "noise/false alarm"
        print(f"t={alert.step:5d}  shard {alert.shard}  star {alert.variate:3d}  "
              f"score={alert.score:.3f}  thr={alert.threshold:.3f}  -> {truth}")
    if len(alerts) > 10:
        print(f"... and {len(alerts) - 10} more alerts")

    print(f"\noperator stats: {service.stats().format()}")


if __name__ == "__main__":
    main()
