"""Detector fits: the cached serving artifact and the timed fits behind ``fit_s``.

Training peaks at about a gigabyte of resident memory, far above what
serving needs.  So a missing serving artifact is fitted by a one-shot
child process (``python -m perfbench.fitjob SEED CONFIG_JSON PATH``), and
the timed fits run in the serving process only after serving has ended and
``peak_mem_mb`` was read.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

from .harness import SpanClock, counted_logs, median

REPO = Path(__file__).resolve().parent.parent
#: An artifact fit takes 5-15 s on a 2-vCPU VM; a hung child fails the run.
ARTIFACT_TIMEOUT_S = 300


def training_layers():
    """Class-level training callables timed by the traced run."""
    from repro.core.model import AeroModel
    from repro.nn import Adam, Tensor

    return [
        (AeroModel, "temporal_forward", "train.forward"),
        (AeroModel, "noise_forward", "train.forward"),
        (Tensor, "backward", "train.backward"),
        (Adam, "step", "train.optim"),
    ]


def _config(overrides: dict):
    from repro.core import AeroConfig

    return AeroConfig.fast(window=32, short_window=8).scaled(**overrides)


def ensure_artifact(seed: int, config: dict, path: Path) -> None:
    """Fit and save the serving artifact in a child process, unless it exists."""
    if path.exists():
        return
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(REPO / "src"), str(REPO)]))
    subprocess.run(
        [sys.executable, "-m", "perfbench.fitjob", str(seed), json.dumps(config), str(path)],
        cwd=REPO, env=env, check=True, timeout=ARTIFACT_TIMEOUT_S,
    )


def timed_fit(config: dict, seed: int, trace: bool) -> dict:
    """One fresh ``AeroDetector.fit`` on the seed's reference archive, timed.

    The session's own per-epoch spans (``repro.obs.use_tracer``, a few
    records per epoch) give the epoch times.  With ``trace`` the training
    layers are wrapped too; the result then carries their times.
    """
    from repro.core import AeroDetector
    from repro.obs import Tracer, use_tracer

    from .workloads import golden_scenario

    scenario = golden_scenario(seed)
    clock = SpanClock()
    tracer = Tracer(capacity=4096)
    detector = AeroDetector(_config(config))
    with counted_logs(), clock.patched(training_layers() if trace else []), use_tracer(tracer):
        started = time.perf_counter()
        detector.fit(scenario.train, scenario.train_timestamps)
        seconds = time.perf_counter() - started
    result = {
        "fit_s": seconds,
        "stage1_epochs": [s.duration_ms / 1e3 for s in tracer.spans_named("training.stage1")],
        "stage2_epochs": [s.duration_ms / 1e3 for s in tracer.spans_named("training.stage2")],
    }
    if trace:
        for layer in ("train.forward", "train.backward", "train.optim"):
            result[f"{layer}_s"] = clock.total.get(layer, 0.0)
    return result


def best_fit_seconds(fits: list[dict]) -> float:
    """One fit's time with the host's slow stretches filtered out.

    Every timed fit does the same work (same seed, same epochs), so each
    epoch is timed once per fit.  The result sums each epoch's fastest
    time over the fits and adds the fastest remainder (fit minus its
    epochs: windowing, model set-up, scoring the archive).
    """
    epochs = [fit["stage1_epochs"] + fit["stage2_epochs"] for fit in fits]
    if len({len(e) for e in epochs}) != 1:
        raise ValueError(f"timed fits ran different epoch counts: {[len(e) for e in epochs]}")
    best_epochs = sum(min(times) for times in zip(*epochs))
    rest = min(fit["fit_s"] - sum(e) for fit, e in zip(fits, epochs))
    return best_epochs + rest


def summarise_fits(fits: list[dict], trace: bool) -> dict:
    """``fit_s`` (see :func:`best_fit_seconds`) and the training-layer medians."""
    summary = {
        "fit_s": best_fit_seconds(fits),
        "fit_median_s": median([fit["fit_s"] for fit in fits]),
        "fits": len(fits),
    }
    if trace:
        stage1 = [epoch for fit in fits for epoch in fit["stage1_epochs"]]
        stage2 = [epoch for fit in fits for epoch in fit["stage2_epochs"]]
        summary.update({
            "train.stage1_epoch_s": median(stage1),
            "train.stage2_epoch_s": median(stage2),
            "train.epochs": (len(stage1) + len(stage2)) / len(fits),
        })
        for layer in ("train.forward", "train.backward", "train.optim"):
            summary[f"{layer}_s"] = median([fit[f"{layer}_s"] for fit in fits])
    return summary


def main(argv: list[str]) -> None:
    """Fit the artifact for ``SEED CONFIG_JSON PATH`` and write it atomically."""
    from repro.core import AeroDetector

    from .workloads import golden_scenario

    seed, config, path = int(argv[0]), json.loads(argv[1]), Path(argv[2])
    scenario = golden_scenario(seed)
    detector = AeroDetector(_config(config))
    with counted_logs():
        detector.fit(scenario.train, scenario.train_timestamps)
    path.parent.mkdir(parents=True, exist_ok=True)
    partial = detector.save(path.with_name(f"{path.stem}.{os.getpid()}.npz"))
    os.replace(partial, path)


if __name__ == "__main__":
    main(sys.argv[1:])
