"""Benchmark R1 — compiled inference runtime vs the autograd forward path.

Serving scenario: every exposure tick delivers one fresh window per star
shard, and each window is scored individually through the autograd model
forward (``detector.model(...)`` with batch 1) — the single-window serving
cost before the compiled runtime, when a per-shard stream
stepped the autograd model.  Autograd now serves training and the test
oracle only, so the baseline calls the model directly.

The compiled runtime (:mod:`repro.runtime`) attacks that cost twice:

* ``score_windows`` on tape-free plans — the same single-window calls with
  no ``Tensor`` allocation, memoized time embeddings and fused kernels,
  bit-for-bit equal to the autograd scores in float64;
* ``score_stack`` — the fused multi-star path: the whole ``(S, W, N)``
  stack of shard windows in **one** plan call (plus an optional float32
  execution mode), which is how ``FleetManager`` serves on the compiled
  backend.

The acceptance criterion is that the compiled runtime serves single-window
scores with at least 5x the throughput of the autograd path; the fused
stack plans deliver it (the table below also reports the per-call ratio).
"""

import time

import numpy as np

from conftest import run_once

from repro.core import AeroConfig, AeroDetector
from repro.data import load_synthetic
from repro.runtime import compile_detector

NUM_SHARDS = 48        # windows served per exposure tick
SHARD_STARS = 8        # stars per shard (fleet geometry: 48 x 8 = 384 stars)
TICKS = 12             # measured exposure ticks
MIN_SPEEDUP = 5.0      # acceptance: compiled runtime >= 5x autograd

INCREMENTAL_SHARDS = 96        # incremental serving fleet (96 x 8 = 768 stars)
INCREMENTAL_TICKS = 240        # sliding exposure ticks for the incremental lane
FULL_MODEL_TICKS = 40          # shorter ungated lane: ~18 ms/tick fused
MIN_INCREMENTAL_SPEEDUP = 3.0  # acceptance: incremental >= 3x the fused tick (GCN profile)


def _fit_detector():
    config = AeroConfig(
        window=24, short_window=8, d_model=16, num_heads=2,
        train_stride=3, max_epochs_stage1=4, max_epochs_stage2=3,
        batch_size=16, learning_rate=5e-3,
    )
    dataset = load_synthetic("SyntheticMiddle", scale=0.05)
    # Serve one camera-field shard: the model is trained on (and scores)
    # SHARD_STARS stars, the standard train-once / serve-many fleet shape.
    detector = AeroDetector(config)
    detector.fit(dataset.train[:, :SHARD_STARS], dataset.train_timestamps)
    return detector, dataset


def _window_stacks(detector, dataset):
    """``TICKS`` stacks of ``NUM_SHARDS`` distinct scaled serving windows."""
    window = detector.config.window
    scaled = detector.scaler.transform(dataset.test[:, :SHARD_STARS])
    stacks = np.empty((TICKS, NUM_SHARDS, window, SHARD_STARS))
    for tick in range(TICKS):
        for shard in range(NUM_SHARDS):
            start = (tick * NUM_SHARDS + shard) % (len(scaled) - window)
            stacks[tick, shard] = scaled[start:start + window]
    return stacks


def _run_serving_comparison():
    detector, dataset = _fit_detector()
    compiled = compile_detector(detector)
    compiled32 = compile_detector(detector, dtype="float32")
    window, short = detector.config.window, detector.config.short_window
    stacks = _window_stacks(detector, dataset)
    longs = stacks.transpose(0, 1, 3, 2)                  # (TICKS, S, N, W)
    windows_served = TICKS * NUM_SHARDS

    def best_of(measure, passes=2):
        """Best-of-N wall times (first pass also warms the plan memos)."""
        results = [measure() for _ in range(passes)]
        return min(seconds for seconds, _ in results), results[-1][1]

    def serve(score_one_window):
        scores = np.empty((TICKS, NUM_SHARDS, SHARD_STARS))
        started = time.perf_counter()
        for tick in range(TICKS):
            for shard in range(NUM_SHARDS):
                long = longs[tick, shard:shard + 1]
                scores[tick, shard] = score_one_window(long, long[:, :, window - short:])[0]
        return time.perf_counter() - started, scores

    # --- autograd: one Tensor-graph forward per window ---------------------
    autograd_seconds, autograd_scores = best_of(
        lambda: serve(
            lambda long, short_w: detector.model(long, short_w).scores
        )
    )
    # --- compiled, same single-window calls (bit-equal) --------------------
    single_seconds, single_scores = best_of(lambda: serve(compiled.score_windows))

    # --- compiled, fused (S, W, N) stack per tick --------------------------
    def serve_stacked(engine):
        scores = np.empty((TICKS, NUM_SHARDS, SHARD_STARS))
        started = time.perf_counter()
        for tick in range(TICKS):
            scores[tick] = engine.score_stack(stacks[tick])
        return time.perf_counter() - started, scores

    fused_seconds, fused_scores = best_of(lambda: serve_stacked(compiled), passes=3)
    fused32_seconds, fused32_scores = best_of(lambda: serve_stacked(compiled32), passes=3)

    return {
        "num_variates": SHARD_STARS,
        "windows_served": windows_served,
        "autograd_seconds": autograd_seconds,
        "single_seconds": single_seconds,
        "fused_seconds": fused_seconds,
        "fused32_seconds": fused32_seconds,
        "autograd_scores": autograd_scores,
        "single_scores": single_scores,
        "fused_scores": fused_scores,
        "fused32_scores": fused32_scores,
    }


def _sliding_serving_data(detector, dataset, ticks, num_shards):
    """A sliding fleet night: seed windows, per-tick rows, per-tick stacks.

    Unlike :func:`_window_stacks` (independent windows per tick), this is
    the incremental serving shape: every shard's window advances by exactly
    one row per tick, so tick ``t``'s stack shares ``W - 1`` rows with tick
    ``t - 1``'s.
    """
    window = detector.config.window
    scaled = detector.scaler.transform(dataset.test[:, :SHARD_STARS])
    needed = window + num_shards + ticks
    if len(scaled) < needed:
        scaled = np.concatenate([scaled] * (-(-needed // len(scaled))))
    base = np.stack([scaled[s : s + window] for s in range(num_shards)])
    rows = np.empty((ticks, num_shards, SHARD_STARS))
    tick_stacks = np.empty((ticks, num_shards, window, SHARD_STARS))
    for tick in range(ticks):
        for shard in range(num_shards):
            rows[tick, shard] = scaled[window + shard + tick]
            tick_stacks[tick, shard] = scaled[shard + tick + 1 : shard + tick + 1 + window]
    return base, rows, tick_stacks


def _run_incremental_comparison():
    detector, dataset = _fit_detector()
    # The GCN serving profile: no temporal stage, static correlation graph.
    # This is where incremental serving shines — the static adjacency, its
    # normalization and the ring staging all cache across ticks, leaving
    # only the newest errors column's propagation per tick.
    gcn_detector = AeroDetector(detector.config, use_temporal=False, graph_mode="static")
    gcn_detector.fit(dataset.train[:, :SHARD_STARS], dataset.train_timestamps)

    def measure(fitted, ticks, num_shards):
        compiled = compile_detector(fitted)
        base, rows, tick_stacks = _sliding_serving_data(fitted, dataset, ticks, num_shards)
        staging = np.empty_like(tick_stacks[0])
        fused_scores = np.empty((ticks, num_shards, SHARD_STARS))
        incremental_scores = np.empty_like(fused_scores)

        def fused_pass():
            # What a compiled-backend fleet pays per tick: stage every
            # shard's current window from its ring, then one fused
            # score_stack call (see FleetManager._step_inner).
            started = time.perf_counter()
            for tick in range(ticks):
                for shard in range(num_shards):
                    staging[shard] = tick_stacks[tick, shard]
                fused_scores[tick] = compiled.score_stack(staging)
            return time.perf_counter() - started

        def incremental_pass():
            state = compiled.new_incremental_state(num_shards)
            state.rebuild(base)
            started = time.perf_counter()
            for tick in range(ticks):
                incremental_scores[tick] = compiled.score_stack_step(state, rows[tick])
            return time.perf_counter() - started

        fused_seconds = min(fused_pass() for _ in range(3))
        incremental_seconds = min(incremental_pass() for _ in range(3))
        return fused_seconds, incremental_seconds, fused_scores.copy(), incremental_scores.copy()

    # The gated lane serves the larger incremental fleet: per-tick staging
    # grows with the shard count, which is precisely the cost the state's
    # rings retire, while the full-model lane keeps the standard geometry
    # (it is ungated and ~18 ms/tick, so fewer ticks suffice).
    gcn = measure(gcn_detector, INCREMENTAL_TICKS, INCREMENTAL_SHARDS)
    full = measure(detector, FULL_MODEL_TICKS, NUM_SHARDS)
    return {
        "gcn": gcn + (INCREMENTAL_TICKS,),
        "full": full + (FULL_MODEL_TICKS,),
    }


def test_incremental_speedup(benchmark, profile):
    """Incremental serving lane: O(1)-recompute ticks vs the fused stack.

    Acceptance gates bit-equality on every tick for both profiles, and a
    >= 3x per-tick throughput gain on the GCN serving profile.  The full
    transformer profile has no exact cross-tick reuse to exploit — the
    slot-relative time embedding re-phases *every* window position on each
    slide, so all attention K/V change and the exact-incremental tick ends
    up near fused parity (measured ~0.95-1.05x on a 2-vCPU VM, three
    alternating runs; the lane serves the default index cadence, so the
    fused path's time-embedding and decoder self-stage memos hit on every
    tick and sharing the timeline stages across stacks saves little here);
    it is reported, asserted bit-equal and loosely gated against
    pathological regressions only.
    """
    result = run_once(benchmark, _run_incremental_comparison)

    print()
    print(f"{'profile':<22}{'ms/tick':>10}{'ticks/sec':>12}{'vs fused':>10}")
    print("-" * 54)
    for label, key in (("gcn static-graph", "gcn"), ("full transformer", "full")):
        fused_seconds, incremental_seconds, _, _, ticks = result[key]
        for name, seconds in ((f"{label} fused", fused_seconds),
                              (f"{label} incr", incremental_seconds)):
            print(
                f"{name:<22}{1e3 * seconds / ticks:>10.3f}"
                f"{ticks / seconds:>12,.0f}"
                f"{fused_seconds / seconds:>9.2f}x"
            )

    for key in ("gcn", "full"):
        _, _, fused_scores, incremental_scores, _ = result[key]
        # Exactness first: every tick bit-equal to the fused stack forward.
        assert np.array_equal(fused_scores, incremental_scores), key
    gcn_fused, gcn_incremental = result["gcn"][:2]
    full_fused, full_incremental = result["full"][:2]
    # Acceptance: >= 3x the fused score_stack per-tick throughput
    # (measured ~4x; margin absorbs shared-runner noise).
    assert gcn_fused / gcn_incremental >= MIN_INCREMENTAL_SPEEDUP
    # The full profile must stay in the fused tick's neighbourhood.
    assert full_fused / full_incremental >= 0.7


def test_runtime_speedup(benchmark, profile):
    result = run_once(benchmark, _run_serving_comparison)
    served = result["windows_served"]

    rows = [
        ("autograd", result["autograd_seconds"]),
        ("compiled f64", result["single_seconds"]),
        ("fused stack f64", result["fused_seconds"]),
        ("fused stack f32", result["fused32_seconds"]),
    ]
    print()
    print(f"{'path':<18}{'ms/window':>12}{'windows/sec':>14}{'speedup':>10}")
    print("-" * 54)
    for name, seconds in rows:
        print(
            f"{name:<18}{1e3 * seconds / served:>12.3f}"
            f"{served / seconds:>14,.0f}"
            f"{result['autograd_seconds'] / seconds:>9.1f}x"
        )

    # float64 plans are bit-for-bit equal to the autograd scores.
    assert np.array_equal(result["single_scores"], result["autograd_scores"])
    assert np.array_equal(result["fused_scores"], result["autograd_scores"])
    np.testing.assert_allclose(
        result["fused32_scores"], result["autograd_scores"], atol=1e-5, rtol=1e-4
    )
    # Tape removal alone must already pay off on identical call patterns
    # (measured ~3x; generous floor so shared-runner noise cannot flake it).
    assert result["autograd_seconds"] / result["single_seconds"] >= 1.3
    # Acceptance: the compiled runtime serves single-window scores >= 5x
    # faster than the autograd path (fused multi-star plans).
    best = min(result["fused_seconds"], result["fused32_seconds"])
    assert result["autograd_seconds"] / best >= MIN_SPEEDUP
