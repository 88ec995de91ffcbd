"""Plan verifier tests: the full variant matrix plus corruption diagnostics.

``verify_model`` must (a) pass every ablation variant in both conditioning
modes — covering static/window/dynamic graphs and the full-forward
fallback — without changing a single served score, and (b) turn each way a
plan or state can be corrupted into its *named* diagnostic: wrong dtype,
thawed weight, bad shape chain, aliased workspace, out-of-bounds ring,
diverged mirror halves, mis-laid-out errors workspace, diverging scores.
"""

import numpy as np
import pytest

from repro import AeroConfig
from repro.analysis import (
    PlanVerificationError,
    TrackingArena,
    check_state,
    verify_detector,
    verify_model,
)
from repro.core.variants import ABLATION_VARIANTS, build_variant
from repro.runtime import compile_detector
from repro.runtime.incremental import IncrementalState

NUM_VARIATES = 3
WINDOW = 12
SHORT = 5


def _make_series(num_points: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    phases = rng.uniform(0.0, 2.0 * np.pi, NUM_VARIATES)
    t = np.arange(num_points)
    base = 0.5 + 0.3 * np.sin(2.0 * np.pi * t[:, None] / 24.0 + phases[None, :])
    return base + 0.05 * rng.standard_normal((num_points, NUM_VARIATES))


def _fast_config(**overrides) -> AeroConfig:
    settings = dict(
        window=WINDOW,
        short_window=SHORT,
        d_model=8,
        num_heads=2,
        train_stride=4,
        max_epochs_stage1=1,
        max_epochs_stage2=1,
        batch_size=8,
    )
    settings.update(overrides)
    return AeroConfig(**settings)


@pytest.fixture(scope="module")
def train_series() -> np.ndarray:
    return _make_series(90, seed=3)


@pytest.fixture(scope="module")
def compiled_models(train_series):
    """Lazily-trained ``(variant, conditioning) -> CompiledDetector`` cache."""
    cache = {}

    def build(variant: str, conditioning: str = "masked"):
        key = (variant, conditioning)
        if key not in cache:
            detector = build_variant(variant, config=_fast_config(conditioning=conditioning))
            detector.fit(train_series)
            cache[key] = compile_detector(detector)
        return cache[key]

    return build


# ----------------------------------------------------------------------
# the variant matrix
# ----------------------------------------------------------------------
@pytest.mark.parametrize("conditioning", ["masked", "full"])
@pytest.mark.parametrize("variant", sorted(ABLATION_VARIANTS))
def test_every_variant_verifies_clean(compiled_models, variant, conditioning):
    """All 8 ablations x both conditionings (graph modes ride along:
    ``full`` is window-wise, plus explicit static/dynamic variants)."""
    compiled = compiled_models(variant, conditioning)
    report = verify_detector(compiled)
    assert report.ok, "\n".join(issue.format() for issue in report.issues)
    assert report.ticks > 0
    assert report.arrays_checked > 0


@pytest.mark.parametrize("variant", ["full", "dynamic_graph", "no_short_window"])
def test_verification_does_not_change_served_scores(compiled_models, train_series, variant):
    """verify=True must be serving-transparent — bitwise, even for the
    dynamic graph's evolving adjacency state."""
    compiled = compiled_models(variant)
    series = train_series[:60]
    before = compiled.score(series)
    verify_detector(compiled).raise_if_failed()
    after = compiled.score(series)
    assert np.array_equal(before, after, equal_nan=True)


def test_compile_detector_verify_flag(compiled_models, train_series):
    detector = build_variant("full", config=_fast_config())
    detector.fit(train_series)
    compiled = compile_detector(detector, verify=True)
    reference = compile_detector(detector)
    series = train_series[:60]
    assert np.array_equal(
        compiled.score(series), reference.score(series), equal_nan=True
    )


# ----------------------------------------------------------------------
# corruption -> named diagnostics
# ----------------------------------------------------------------------
def _freeze_like(array):
    out = np.array(array)
    out.flags.writeable = False
    return out


class TestStructuralDiagnostics:
    def test_wrong_dtype_weight(self, compiled_models):
        compiled = compiled_models("static_graph")
        model = compiled.model
        saved = model.noise.weight
        try:
            model.noise.weight = _freeze_like(saved.astype(np.float32))
            report = verify_model(model, compiled.config)
            assert "dtype-mismatch" in report.kinds()
            assert any("noise.weight" in issue.location for issue in report.issues)
        finally:
            model.noise.weight = saved

    def test_thawed_weight(self, compiled_models):
        compiled = compiled_models("full")
        model = compiled.model
        saved = model.temporal.output_projection_w
        try:
            model.temporal.output_projection_w = np.array(saved)  # writeable copy
            report = verify_model(model, compiled.config)
            assert "mutable-weight" in report.kinds()
        finally:
            model.temporal.output_projection_w = saved

    def test_wrong_shape_chain(self, compiled_models):
        compiled = compiled_models("static_graph")
        model = compiled.model
        saved = model.noise.weight
        try:
            model.noise.weight = _freeze_like(np.asarray(saved)[:-1, :])
            report = verify_model(model, compiled.config)
            assert "shape-mismatch" in report.kinds()
        finally:
            model.noise.weight = saved

    def test_raise_if_failed_names_the_diagnostics(self, compiled_models):
        compiled = compiled_models("static_graph")
        model = compiled.model
        saved = model.noise.weight
        try:
            model.noise.weight = _freeze_like(saved.astype(np.float32))
            with pytest.raises(PlanVerificationError, match="dtype-mismatch"):
                verify_model(model, compiled.config).raise_if_failed()
        finally:
            model.noise.weight = saved


def _warm_state(compiled, num_stacks=2, seed=5):
    state = compiled.new_incremental_state(num_stacks)
    rng = np.random.default_rng(seed)
    stack = rng.random((num_stacks, WINDOW, NUM_VARIATES))
    state.rebuild(stack, np.arange(WINDOW, dtype=np.float64))
    state.score()
    return state


def _kinds(issues):
    return {issue.kind for issue in issues}


class TestStateDiagnostics:
    def test_clean_state_has_no_issues(self, compiled_models):
        state = _warm_state(compiled_models("full"))
        assert check_state(state) == []

    def test_aliased_workspace_slots(self, compiled_models):
        state = _warm_state(compiled_models("full"))
        buffer = np.empty((4, 4))
        state.arena._buffers["alias.a"] = buffer
        state.arena._buffers["alias.b"] = buffer[1:]
        issues = check_state(state)
        assert "workspace-alias" in _kinds(issues)
        assert any("alias.a" in issue.location and "alias.b" in issue.location for issue in issues)

    def test_workspace_overlapping_history_ring(self, compiled_models):
        state = _warm_state(compiled_models("full"))
        state.arena._buffers["evil"] = state._values[:, :3]
        issues = check_state(state)
        assert any(
            issue.kind == "workspace-alias" and "_values" in issue.location for issue in issues
        )

    def test_wrong_workspace_dtype(self, compiled_models):
        state = _warm_state(compiled_models("full"))
        state.arena._buffers["model.residual"] = np.empty(
            state.arena._buffers["model.residual"].shape, dtype=np.float32
        )
        assert "dtype-mismatch" in _kinds(check_state(state))

    def test_truncated_ring_is_out_of_bounds(self, compiled_models):
        state = _warm_state(compiled_models("full"))
        state._values = state._values[:, :WINDOW]
        assert "ring-bounds" in _kinds(check_state(state))

    def test_corrupt_counters_are_out_of_bounds(self, compiled_models):
        state = _warm_state(compiled_models("full"))
        state.count = WINDOW + 3
        assert "ring-bounds" in _kinds(check_state(state))
        state.count = WINDOW
        state.pos = WINDOW - 1
        assert "ring-bounds" in _kinds(check_state(state))

    def test_diverged_mirror_halves(self, compiled_models):
        state = _warm_state(compiled_models("full"))
        state._values[:, 0] += 1.0
        issues = check_state(state)
        assert any(
            issue.kind == "ring-mirror" and "_values" in issue.location for issue in issues
        )

    def test_mislaid_errors_workspace(self, compiled_models):
        # A multivariate model stages errors transposed like score_stack —
        # the raw workspace is (S, omega, N); a C-ordered (S, N, omega)
        # buffer would shift the GCN by an ulp.
        state = _warm_state(compiled_models("no_univariate_input"))
        assert "model.errors" in state.arena._buffers
        assert state.arena._buffers["model.errors"].shape == (state.num_stacks, SHORT, NUM_VARIATES)
        state.arena._buffers["model.errors"] = np.empty(
            (state.num_stacks, NUM_VARIATES, SHORT), dtype=state.dtype
        )
        assert "layout-mismatch" in _kinds(check_state(state))

    def test_steady_state_reallocation_is_flagged(self, compiled_models):
        state = _warm_state(compiled_models("full"))
        arena = TrackingArena()
        arena._buffers.update(state.arena._buffers)
        state.arena = arena
        arena.steady = True
        arena.get("model.residual", (9, 9), state.dtype)  # geometry drifted
        assert "workspace-realloc" in _kinds(check_state(state))


class TestDriveDiagnostics:
    def test_score_divergence_is_caught_at_the_bit_level(self, compiled_models, monkeypatch):
        compiled = compiled_models("full")
        original = IncrementalState.score

        def skewed(self):
            return original(self) + 1e-12  # one part in 10^12: invisible to allclose

        monkeypatch.setattr(IncrementalState, "score", skewed)
        report = verify_model(compiled.model, compiled.config)
        assert "score-divergence" in report.kinds()

    def test_drive_crash_is_reported_not_raised(self, compiled_models, monkeypatch):
        compiled = compiled_models("full")

        def explode(self):
            raise RuntimeError("kernel corrupted")

        monkeypatch.setattr(IncrementalState, "score", explode)
        report = verify_model(compiled.model, compiled.config)
        assert "drive-failure" in report.kinds()
        assert any("kernel corrupted" in issue.message for issue in report.issues)
