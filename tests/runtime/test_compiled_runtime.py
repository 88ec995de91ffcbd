"""Parity tests for the compiled inference runtime (``repro.runtime``).

The float64 contract is *bit-for-bit* equality with the autograd forward
pass — asserted with ``np.array_equal``, not ``allclose`` — across every
ablation variant, both conditioning modes, all graph modes, the streaming
and fleet serving fronts, and the fused multi-star stack path.  The
reference is the autograd oracle of ``autograd_oracle.py``: the detector's
own ``score`` runs on compiled plans too.
"""

import numpy as np
import pytest
from autograd_oracle import autograd_scores, autograd_window_scores

from repro import AeroConfig, AeroDetector
from repro.core.variants import ABLATION_VARIANTS, build_variant
from repro.nn import Tensor
from repro.runtime import compile_detector
from repro.streaming import AlertPolicy, FleetManager

VARIANTS = sorted(ABLATION_VARIANTS)


def _make_series(num_points, num_variates, seed=7):
    rng = np.random.default_rng(seed)
    phases = rng.uniform(0.0, 2.0 * np.pi, num_variates)
    t = np.arange(num_points)
    base = 0.5 + 0.3 * np.sin(2.0 * np.pi * t[:, None] / 24.0 + phases[None, :])
    return base + 0.05 * rng.standard_normal((num_points, num_variates))


def _fast_config(**overrides):
    settings = dict(
        window=16, short_window=6, d_model=8, num_heads=2,
        train_stride=3, max_epochs_stage1=2, max_epochs_stage2=2, batch_size=8,
    )
    settings.update(overrides)
    return AeroConfig(**settings)


def _stream_scores(stream, series):
    """``(T, N)`` scores of a single stream (a one-shard fleet) over ``series``."""
    return np.stack([result.scores[0] for result in stream.run(series[:, None, :])])


@pytest.fixture(scope="module")
def train_series():
    return _make_series(140, 5, seed=7)


@pytest.fixture(scope="module")
def test_series():
    return _make_series(90, 5, seed=11)


@pytest.fixture(scope="module")
def fitted_variants(train_series):
    detectors = {}
    for name in VARIANTS:
        detector = build_variant(name, config=_fast_config())
        detector.fit(train_series)
        detectors[name] = detector
    return detectors


@pytest.fixture(scope="module")
def detector(fitted_variants):
    return fitted_variants["full"]


class TestFloat64Parity:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_score_bit_equal_across_variants(self, fitted_variants, test_series, variant):
        det = fitted_variants[variant]
        reference = autograd_scores(det, test_series)
        compiled = compile_detector(det).score(test_series)
        assert compiled.dtype == np.float64
        assert np.array_equal(reference, compiled)
        assert np.array_equal(reference, det.score(test_series))

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_detect_bit_equal_across_variants(self, fitted_variants, test_series, variant):
        det = fitted_variants[variant]
        reference = (autograd_scores(det, test_series) >= det.threshold()).astype(np.int64)
        assert np.array_equal(reference, compile_detector(det).detect(test_series))
        assert np.array_equal(reference, det.detect(test_series))

    def test_score_with_timestamps(self, train_series, test_series):
        rng = np.random.default_rng(3)
        train_times = np.cumsum(0.8 + 0.4 * rng.random(len(train_series)))
        test_times = train_times[-1] + np.cumsum(0.8 + 0.4 * rng.random(len(test_series)))
        det = AeroDetector(_fast_config())
        det.fit(train_series, train_times)
        reference = autograd_scores(det, test_series, test_times)
        assert np.array_equal(reference, compile_detector(det).score(test_series, test_times))
        assert np.array_equal(reference, det.score(test_series, test_times))

    def test_full_conditioning_parity(self, train_series, test_series):
        det = AeroDetector(_fast_config(conditioning="full"))
        det.fit(train_series)
        reference = autograd_scores(det, test_series)
        assert np.array_equal(reference, compile_detector(det).score(test_series))
        assert np.array_equal(reference, det.score(test_series))

    def test_score_windows_parity(self, detector, test_series):
        window, short = detector.config.window, detector.config.short_window
        longs = np.stack([test_series[i:i + window].T for i in range(0, 40, 5)])
        shorts = longs[:, :, window - short:]
        compiled = compile_detector(detector)
        reference = autograd_window_scores(detector, longs, shorts)
        assert np.array_equal(reference, compiled.score_windows(longs, shorts))
        assert np.array_equal(reference, detector.score_windows(longs, shorts))
        times = np.tile(np.arange(window, dtype=np.float64), (len(longs), 1))
        timed = (longs, shorts, times, times[:, window - short:])
        reference = autograd_window_scores(detector, *timed)
        assert np.array_equal(reference, compiled.score_windows(*timed))
        assert np.array_equal(reference, detector.score_windows(*timed))

    def test_forward_intermediates_match(self, detector, test_series):
        window, short = detector.config.window, detector.config.short_window
        longs = test_series[:window].T[None]
        shorts = longs[:, :, window - short:]
        reference = detector.model(longs, shorts)
        compiled = compile_detector(detector).forward(longs, shorts)
        assert np.array_equal(reference.reconstruction, compiled.reconstruction)
        assert np.array_equal(reference.errors, compiled.errors)
        assert np.array_equal(reference.noise_reconstruction, compiled.noise_reconstruction)
        assert np.array_equal(reference.residual, compiled.residual)
        assert np.array_equal(reference.scores, compiled.scores)


class TestFloat32Mode:
    def test_scores_close_and_single_precision(self, detector, test_series):
        compiled = compile_detector(detector, dtype="float32")
        assert compiled.dtype == np.dtype(np.float32)
        scores = compiled.score(test_series)
        assert scores.dtype == np.float32
        reference = detector.score(test_series)
        np.testing.assert_allclose(scores, reference, atol=1e-5, rtol=1e-4)

    def test_labels_match_float64(self, detector, test_series):
        # Tolerance-level score wobble must not flip detection labels here.
        compiled = compile_detector(detector, dtype="float32")
        reference = detector.detect(test_series)
        assert (compiled.detect(test_series) != reference).mean() < 0.01

    def test_unsupported_dtype_rejected(self, detector):
        with pytest.raises(ValueError, match="float64 and float32"):
            compile_detector(detector, dtype="int32")

    def test_large_absolute_timestamps_keep_precision(self, train_series, test_series):
        # Intervals must be differenced in float64: unix-epoch-scale
        # timestamps would be quantized to ~128 s by a float32 cast.
        rng = np.random.default_rng(13)
        epoch = 1.7e9
        train_times = epoch + np.cumsum(20.0 + 10.0 * rng.random(len(train_series)))
        test_times = train_times[-1] + np.cumsum(20.0 + 10.0 * rng.random(len(test_series)))
        det = AeroDetector(_fast_config())
        det.fit(train_series, train_times)
        reference = det.score(test_series, test_times)
        scores32 = compile_detector(det, dtype="float32").score(test_series, test_times)
        np.testing.assert_allclose(scores32, reference, atol=1e-4, rtol=1e-3)


class TestFusedStack:
    def test_score_stack_matches_per_window_calls(self, detector, test_series):
        window, short = detector.config.window, detector.config.short_window
        stack = np.stack([test_series[i:i + window] for i in range(6)])
        compiled = compile_detector(detector)
        fused = compiled.score_stack(stack)
        longs = stack.transpose(0, 2, 1)
        shorts = longs[:, :, window - short:]
        loop = np.stack(
            [detector.score_windows(longs[i:i + 1], shorts[i:i + 1])[0] for i in range(len(stack))]
        )
        assert np.array_equal(fused, loop)

    def test_score_stack_shared_timestamps(self, detector, test_series):
        window, short = detector.config.window, detector.config.short_window
        stack = np.stack([test_series[i:i + window] for i in range(4)])
        times = np.cumsum(0.9 + 0.2 * np.random.default_rng(5).random(window))
        compiled = compile_detector(detector)
        fused = compiled.score_stack(stack, times)
        longs = stack.transpose(0, 2, 1)
        tiled = np.tile(times, (len(stack), 1))
        reference = detector.score_windows(
            longs, longs[:, :, window - short:], tiled, tiled[:, window - short:]
        )
        assert np.array_equal(fused, reference)

    def test_score_stack_validation(self, detector, test_series):
        compiled = compile_detector(detector)
        with pytest.raises(ValueError, match="3-D"):
            compiled.score_stack(test_series)
        with pytest.raises(ValueError, match="length"):
            compiled.score_stack(test_series[None, :5, :])


class TestTapeFree:
    def test_compiled_scoring_allocates_no_tensors(self, detector, test_series, monkeypatch):
        compiled = compile_detector(detector)
        counter = {"tensors": 0}
        original = Tensor.__init__

        def counting(self, *args, **kwargs):
            counter["tensors"] += 1
            original(self, *args, **kwargs)

        monkeypatch.setattr(Tensor, "__init__", counting)
        compiled.score(test_series)
        assert counter["tensors"] == 0

    def test_weights_are_frozen_copies(self, detector, test_series):
        compiled = compile_detector(detector)
        plan = compiled.model.temporal
        with pytest.raises(ValueError):
            plan.encoder_embedding_w[...] = 0.0
        # Mutating the live model must not leak into the compiled plan.
        reference = compiled.score(test_series)
        saved = detector.model.temporal.encoder_embedding.weight.data.copy()
        detector.model.temporal.encoder_embedding.weight.data[:] = 0.0
        try:
            assert np.array_equal(compiled.score(test_series), reference)
        finally:
            detector.model.temporal.encoder_embedding.weight.data[:] = saved


class TestDetectorBackendSwitch:
    def test_invalid_backend_rejected(self, detector):
        # Autograd is a training engine and the test oracle, not a serving backend.
        for backend in ("autograd", "jit"):
            with pytest.raises(ValueError, match="backend"):
                detector.stream(backend=backend)
            with pytest.raises(ValueError, match="backend"):
                FleetManager(detector, num_shards=2, backend=backend)

    def test_compile_requires_fitted(self):
        with pytest.raises(RuntimeError, match="fitted"):
            AeroDetector(_fast_config()).compile()

    def test_compile_is_cached_per_dtype_and_invalidated_by_fit(self, train_series):
        det = AeroDetector(_fast_config())
        det.fit(train_series)
        first = det.compile()
        assert det.compile() is first
        plan32 = det.compile(dtype="float32")
        assert plan32 is not first
        # Both dtypes stay cached side by side.
        assert det.compile() is first
        assert det.compile(dtype="float32") is plan32
        det.fit(train_series)
        assert det.compile() is not first


class TestLivePlanScoring:
    """``score`` compiles the live model per call: eager semantics, no shared state."""

    @pytest.mark.parametrize("backend", [None, "compiled"])
    def test_score_does_not_perturb_a_live_dynamic_stream(
        self, fitted_variants, test_series, backend
    ):
        # Regression: a batch score() between two stream steps used to reset
        # and then advance the smoothed adjacency the stream was carrying.
        det = fitted_variants["dynamic_graph"]
        reference = _stream_scores(det.stream(backend=backend), test_series)
        stream = det.stream(backend=backend)
        half = len(test_series) // 2
        first = _stream_scores(stream, test_series[:half])
        det.score(test_series[::-1])
        rest = _stream_scores(stream, test_series[half:])
        assert np.array_equal(reference, np.concatenate([first, rest]))

    @pytest.mark.parametrize("variant", ["full", "dynamic_graph", "static_graph"])
    def test_learned_graph_is_the_last_scored_window(
        self, fitted_variants, test_series, variant
    ):
        det = fitted_variants[variant]
        autograd_scores(det, test_series[:50])
        expected = det.model.noise.last_adjacency.copy()
        det.model.noise.last_adjacency = np.zeros_like(expected)
        det.score(test_series[:50])
        assert np.array_equal(det.learned_graph(), expected)

    def test_in_place_weight_edits_are_seen(self, fitted_variants, test_series):
        det = fitted_variants["full"]
        weight = det.model.temporal.output_projection.weight.data
        saved = weight.copy()
        before = det.score(test_series)
        weight *= 0.5
        try:
            edited = det.score(test_series)
            assert not np.array_equal(before, edited)
            assert np.array_equal(edited, autograd_scores(det, test_series))
        finally:
            weight[...] = saved
        assert np.array_equal(det.score(test_series), before)


class TestStreamingOnCompiledBackend:
    def test_stream_scores_bit_equal_to_batch(self, detector, test_series):
        batch_scores = detector.score(test_series)
        stream = detector.stream(backend="compiled")
        assert stream.backend == "compiled"
        assert np.array_equal(_stream_scores(stream, test_series), batch_scores)

    def test_stream_accepts_prebuilt_plan(self, detector, test_series):
        plan = compile_detector(detector, dtype="float32")
        scores = _stream_scores(detector.stream(backend=plan), test_series)
        np.testing.assert_allclose(scores, detector.score(test_series), atol=1e-5, rtol=1e-4)

    def test_stream_rejects_foreign_backends(self, detector):
        with pytest.raises(TypeError, match="CompiledDetector"):
            detector.stream(backend=object())

    def test_dynamic_graph_stream_compiled(self, fitted_variants, test_series):
        det = fitted_variants["dynamic_graph"]
        batch_scores = det.score(test_series)
        stream_scores = _stream_scores(det.stream(backend="compiled"), test_series)
        assert np.array_equal(stream_scores, batch_scores)


class TestFleetOnCompiledBackend:
    def test_fleet_bit_equal_to_autograd_fleet(self, detector, test_series):
        num_shards, ticks = 3, 30
        rng = np.random.default_rng(9)
        exposures = (
            np.stack([test_series[:ticks]] * num_shards, axis=1)
            + 0.001 * rng.standard_normal((ticks, num_shards, test_series.shape[1]))
        )
        compiled = FleetManager(detector, num_shards=num_shards, alert_policy=AlertPolicy())
        assert compiled.backend == "compiled"
        # The autograd fleet, unrolled: every tick scores the (S, N, W) stack
        # of each shard's training-tail-seeded window in one forward call.
        window, short = detector.config.window, detector.config.short_window
        tail, _ = detector.window_context()
        history = np.concatenate(
            [np.stack([tail] * num_shards, axis=1), detector.scaler.transform(exposures)]
        )
        for tick, result in enumerate(compiled.run(exposures)):
            longs = history[tick:tick + window].transpose(1, 2, 0)
            reference = autograd_window_scores(detector, longs, longs[:, :, window - short:])
            assert np.array_equal(reference, result.scores)
            assert np.array_equal(
                (reference >= detector.threshold()).astype(np.int64), result.labels
            )

    def test_fleet_from_float32_plan(self, detector, test_series):
        plan = compile_detector(detector, dtype="float32")
        fleet = FleetManager(detector, num_shards=2, backend=plan)
        result = fleet.step(np.stack([test_series[0]] * 2))
        assert result.scores.shape == (2, test_series.shape[1])
        assert result.ready

    def test_fleet_rejects_mismatched_plan(self, detector, train_series):
        other = AeroDetector(_fast_config())
        other.fit(_make_series(140, 3, seed=21))
        with pytest.raises(ValueError, match="variates"):
            FleetManager(detector, num_shards=2, backend=compile_detector(other))
