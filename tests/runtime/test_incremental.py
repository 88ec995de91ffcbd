"""Incremental serving runtime: bit-equality, lifecycle and cache tests.

The incremental engine's contract is exact: in float64 a tick served from
:class:`repro.runtime.IncrementalState` must be bit-for-bit identical to
re-running the full fused forward over the same window — across every
ablation variant, both conditioning modes and all graph modes, including
after invalidation events (rebuilds).  These tests drive state ticks
against per-tick ``score_stack`` references and assert ``array_equal``
(never ``allclose``).
"""

import tracemalloc

import numpy as np
import pytest

from repro import AeroConfig, AeroDetector
from repro.core.variants import ABLATION_VARIANTS, build_variant
from repro.runtime import compile_detector
from repro.runtime.plans import TimeEmbeddingPlan

NUM_VARIATES = 5
WINDOW = 16
SHORT = 6
NUM_STACKS = 3
TICKS = 18


def _make_series(num_points: int, num_variates: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    phases = rng.uniform(0.0, 2.0 * np.pi, num_variates)
    t = np.arange(num_points)
    base = 0.5 + 0.3 * np.sin(2.0 * np.pi * t[:, None] / 24.0 + phases[None, :])
    return base + 0.05 * rng.standard_normal((num_points, num_variates))


def _fast_config(**overrides) -> AeroConfig:
    settings = dict(
        window=WINDOW,
        short_window=SHORT,
        d_model=8,
        num_heads=2,
        train_stride=3,
        max_epochs_stage1=2,
        max_epochs_stage2=2,
        batch_size=8,
    )
    settings.update(overrides)
    return AeroConfig(**settings)


@pytest.fixture(scope="module")
def train_series() -> np.ndarray:
    return _make_series(140, NUM_VARIATES, seed=7)


@pytest.fixture(scope="module")
def test_series() -> np.ndarray:
    return _make_series(90, NUM_VARIATES, seed=11)


@pytest.fixture(scope="module")
def timestamps() -> np.ndarray:
    rng = np.random.default_rng(3)
    return np.cumsum(0.8 + 0.4 * rng.random(200))


@pytest.fixture(scope="module")
def fitted_variants(train_series) -> dict:
    variants = {}
    for name in sorted(ABLATION_VARIANTS):
        detector = build_variant(name, config=_fast_config())
        detector.fit(train_series)
        variants[name] = detector
    return variants


def _drive(compiled, reference, scaled, times, num_ticks=TICKS):
    """Rebuild once, then tick the state against per-tick fused references.

    ``compiled`` owns the incremental state; ``reference`` scores the same
    sliding windows through the full ``score_stack`` path.  Separate engine
    objects keep dynamic-graph adjacency state independent.  Returns the
    state and the list of ``(incremental, reference)`` score pairs.
    """
    state = compiled.new_incremental_state(NUM_STACKS)
    stacks = np.stack([scaled[i : i + WINDOW] for i in range(NUM_STACKS)])
    state.rebuild(stacks, None if times is None else times[:WINDOW])
    pairs = [
        (state.score(), reference.score_stack(stacks, None if times is None else times[:WINDOW]))
    ]
    for k in range(num_ticks):
        rows = np.stack([scaled[WINDOW + k + i] for i in range(NUM_STACKS)])
        tick_time = None if times is None else float(times[WINDOW + k])
        incremental = compiled.score_stack_step(state, rows, tick_time)
        slid = np.stack([scaled[i + k + 1 : i + k + 1 + WINDOW] for i in range(NUM_STACKS)])
        window_times = None if times is None else times[k + 1 : k + 1 + WINDOW]
        pairs.append((incremental, reference.score_stack(slid, window_times)))
    return state, pairs


def _assert_pairs_equal(pairs) -> None:
    for tick, (incremental, reference) in enumerate(pairs):
        assert np.array_equal(reference, incremental), (
            f"tick {tick}: max diff {np.abs(reference - incremental).max()}"
        )


class TestIncrementalBitEquality:
    @pytest.mark.parametrize("name", sorted(ABLATION_VARIANTS))
    def test_matches_fused_stack_real_times(
        self, name, fitted_variants, test_series, timestamps
    ):
        detector = fitted_variants[name]
        compiled = compile_detector(detector)
        reference = compile_detector(detector)
        scaled = compiled.scaler.transform(test_series)
        state, pairs = _drive(compiled, reference, scaled, timestamps)
        _assert_pairs_equal(pairs)
        if name == "no_short_window":
            # Long-window targets share no cacheable prefix work; every tick
            # is served (still bit-equal) through the full-forward fallback.
            assert not state.supported
            assert state.fallbacks == len(pairs)
            assert state.incremental_ticks == 0
        else:
            assert state.supported
            assert state.incremental_ticks == len(pairs)
            assert state.fallbacks == 0
        assert state.rebuilds == 1

    @pytest.mark.parametrize("name", ["full", "no_univariate_input"])
    def test_matches_fused_stack_default_cadence(
        self, name, fitted_variants, test_series
    ):
        detector = fitted_variants[name]
        compiled = compile_detector(detector)
        scaled = compiled.scaler.transform(test_series)
        _, pairs = _drive(compiled, compiled, scaled, times=None)
        _assert_pairs_equal(pairs)

    def test_full_conditioning_mode(self, train_series, test_series, timestamps):
        detector = AeroDetector(_fast_config(conditioning="full"))
        detector.fit(train_series)
        compiled = compile_detector(detector)
        scaled = compiled.scaler.transform(test_series)
        _, pairs = _drive(compiled, compiled, scaled, timestamps)
        _assert_pairs_equal(pairs)

    def test_gcn_serving_profile(self, train_series, test_series, timestamps):
        # The temporal-free static-graph profile is the throughput headline
        # of the incremental runtime (see benchmarks/test_runtime_speedup).
        detector = AeroDetector(_fast_config(), use_temporal=False, graph_mode="static")
        detector.fit(train_series)
        compiled = compile_detector(detector)
        scaled = compiled.scaler.transform(test_series)
        state, pairs = _drive(compiled, compiled, scaled, timestamps)
        _assert_pairs_equal(pairs)
        assert state.incremental_ticks == len(pairs)

    def test_rebuild_after_invalidation_recovers_equality(
        self, fitted_variants, test_series, timestamps
    ):
        detector = fitted_variants["full"]
        compiled = compile_detector(detector)
        scaled = compiled.scaler.transform(test_series)
        state = compiled.new_incremental_state(NUM_STACKS)
        stacks = np.stack([scaled[i : i + WINDOW] for i in range(NUM_STACKS)])
        state.rebuild(stacks, timestamps[:WINDOW])
        for k in range(4):
            rows = np.stack([scaled[WINDOW + k + i] for i in range(NUM_STACKS)])
            compiled.score_stack_step(state, rows, float(timestamps[WINDOW + k]))
        state.invalidate("out-of-order frame")
        # ...history is untrusted now; a front rebuilds from its ring buffers.
        slid = np.stack([scaled[i + 5 : i + 5 + WINDOW] for i in range(NUM_STACKS)])
        state.rebuild(slid, timestamps[5 : 5 + WINDOW])
        recovered = state.score()
        reference = compiled.score_stack(slid, timestamps[5 : 5 + WINDOW])
        assert np.array_equal(reference, recovered)
        assert state.invalidations == 1
        assert state.rebuilds == 2


class TestStateLifecycle:
    def test_score_before_rebuild_raises(self, fitted_variants):
        compiled = compile_detector(fitted_variants["full"])
        state = compiled.new_incremental_state(NUM_STACKS)
        assert not state.valid
        with pytest.raises(RuntimeError, match="rebuilt"):
            state.score()

    def test_invalidate_blocks_scoring(self, fitted_variants, test_series, timestamps):
        compiled = compile_detector(fitted_variants["full"])
        scaled = compiled.scaler.transform(test_series)
        state = compiled.new_incremental_state(NUM_STACKS)
        stacks = np.stack([scaled[i : i + WINDOW] for i in range(NUM_STACKS)])
        state.rebuild(stacks, timestamps[:WINDOW])
        state.score()
        state.invalidate("model swapped")
        with pytest.raises(RuntimeError, match="model swapped"):
            state.score()

    def test_times_mode_is_locked_between_rebuilds(
        self, fitted_variants, test_series, timestamps
    ):
        compiled = compile_detector(fitted_variants["full"])
        scaled = compiled.scaler.transform(test_series)
        state = compiled.new_incremental_state(NUM_STACKS)
        stacks = np.stack([scaled[i : i + WINDOW] for i in range(NUM_STACKS)])
        state.rebuild(stacks, timestamps[:WINDOW])
        rows = np.stack([scaled[WINDOW + i] for i in range(NUM_STACKS)])
        with pytest.raises(ValueError, match="rebuild"):
            state.append(rows, timestamp=None)
        # A rebuild resets the mode: the same state can switch cadences.
        state.rebuild(stacks, None)
        state.append(rows, timestamp=None)

    def test_stack_shape_is_validated(self, fitted_variants, test_series):
        compiled = compile_detector(fitted_variants["full"])
        scaled = compiled.scaler.transform(test_series)
        state = compiled.new_incremental_state(NUM_STACKS)
        with pytest.raises(ValueError, match="stack must have shape"):
            state.rebuild(scaled[None, :WINDOW])  # one stack, state wants 3
        state.rebuild(np.stack([scaled[i : i + WINDOW] for i in range(NUM_STACKS)]))
        with pytest.raises(ValueError, match="rows must have shape"):
            state.append(scaled[0])


class TestTimeEmbeddingMemo:
    def test_hot_key_survives_cache_overflow(self, fitted_variants):
        """Oldest-inserted eviction: overflow must not dump the hot entry.

        The memo previously cleared the whole cache on overflow, so one
        burst of irregular batch embeddings evicted the steady serving
        cadence along with everything else.
        """
        te = compile_detector(fitted_variants["full"]).model.temporal.time_embedding
        te._cache.clear()
        te._cache_bytes = 0
        rng = np.random.default_rng(17)
        base = np.cumsum(0.8 + 0.4 * rng.random((1, SHORT)), axis=1)
        # Distinct *cadences* (the memo keys on intervals, which are
        # shift-invariant — a translated timeline is the same key).
        for i in range(te.MAX_CACHE):
            te.embed(base * (2.0 + i))
        assert len(te._cache) == te.MAX_CACHE
        _, hot_token = te.embed(base)  # evicts exactly one oldest filler
        assert hot_token is not None
        # A further near-full churn of fresh keys must spare the hot entry.
        for i in range(te.MAX_CACHE - 1):
            te.embed(base * (1000.0 + i))
        _, token_again = te.embed(base)
        assert token_again == hot_token, "hot embedding was evicted by unrelated churn"
        assert len(te._cache) <= te.MAX_CACHE

    def test_equal_content_shares_one_token(self, fitted_variants):
        te = compile_detector(fitted_variants["full"]).model.temporal.time_embedding
        times = np.cumsum(np.full((2, SHORT), 0.5), axis=1)
        embedding_a, token_a = te.embed(times, position_offset=3)
        embedding_b, token_b = te.embed(np.array(times), position_offset=3)
        assert token_a == token_b
        assert embedding_b is embedding_a
        _, token_c = te.embed(times, position_offset=4)
        assert token_c != token_a


class TestSharedTimelineStages:
    def test_memos_do_not_grow_with_stack_count(self, fitted_variants):
        """The timeline-only stages run once per tick at batch 1.

        Every stack shares the exposure timeline, so on a jittered cadence
        (a fresh memo key every tick) the time-embedding memo and the
        decoder self-stage memo must fill with batch-1 entries whatever the
        fleet size — not with ``(S, ., d)`` entries that are never read
        again.
        """
        detector = fitted_variants["full"]
        ticks = TimeEmbeddingPlan.MAX_CACHE + 8
        rng = np.random.default_rng(23)
        times = np.cumsum(0.8 + 0.4 * rng.random(WINDOW + ticks))
        memos = {}
        for stacks in (2, 8):
            compiled = compile_detector(detector)
            scaled = compiled.scaler.transform(
                _make_series(WINDOW + ticks + stacks, NUM_VARIATES, seed=13)
            )
            state = compiled.new_incremental_state(stacks)
            state.rebuild(
                np.stack([scaled[i : i + WINDOW] for i in range(stacks)]), times[:WINDOW]
            )
            for k in range(ticks):
                rows = np.stack([scaled[WINDOW + k + i] for i in range(stacks)])
                compiled.score_stack_step(state, rows, float(times[WINDOW + k]))
            plan = compiled.model.temporal
            embeddings = [entry for _, entry in plan.time_embedding._cache.values()]
            stages = list(plan._self_stage_cache.values())
            assert embeddings and stages
            assert all(entry.shape[0] == 1 for entry in embeddings + stages)
            memos[stacks] = (plan.time_embedding._cache_bytes, len(stages))
        assert memos[2] == memos[8]


class TestDecoderSelfStageCache:
    def test_token_keying_survives_array_identity_reuse(self, fitted_variants):
        """Regression: the stage memo must key on embedding tokens, not id().

        ``id()`` keys forced the memo to pin embeddings alive (or miss
        permanently once an equal-content array arrived at a new address).
        Tokens are content-derived and monotonic: a fresh array with equal
        content hits, different content can never alias.
        """
        plan = compile_detector(fitted_variants["full"]).model.temporal
        te = plan.time_embedding
        offset = WINDOW - SHORT
        times_a = np.cumsum(np.full((NUM_STACKS, SHORT), 0.75), axis=1)
        embedding_a, token_a = te.embed(times_a, position_offset=offset)
        stage_a = plan._decoder_self_stage(embedding_a, token_a)
        # A distinct-but-equal array object (fresh id) still hits the memo.
        embedding_again, token_again = te.embed(np.array(times_a), position_offset=offset)
        assert embedding_again is embedding_a
        assert plan._decoder_self_stage(embedding_again, token_again) is stage_a
        # Different content gets a new token and a genuinely new stage.
        times_b = np.cumsum(np.full((NUM_STACKS, SHORT), 1.25), axis=1)
        embedding_b, token_b = te.embed(times_b, position_offset=offset)
        assert token_b != token_a
        stage_b = plan._decoder_self_stage(embedding_b, token_b)
        assert stage_b is not stage_a
        assert not np.array_equal(np.asarray(stage_b), np.asarray(stage_a))
        # An uncacheable embedding (token None) bypasses the memo but
        # computes the identical stage.
        stage_fresh = plan._decoder_self_stage(embedding_a, None)
        assert stage_fresh is not stage_a
        assert np.array_equal(np.asarray(stage_fresh), np.asarray(stage_a))

    def test_cache_is_bounded(self, fitted_variants):
        plan = compile_detector(fitted_variants["full"]).model.temporal
        te = plan.time_embedding
        offset = WINDOW - SHORT
        for i in range(te.MAX_CACHE + 8):
            times = np.cumsum(np.full((1, SHORT), 0.5 + 0.01 * i), axis=1)
            embedding, token = te.embed(times, position_offset=offset)
            plan._decoder_self_stage(embedding, token)
        assert len(plan._self_stage_cache) <= te.MAX_CACHE


class TestSteadyStateAllocations:
    def test_incremental_tick_is_allocation_flat(self, train_series, test_series):
        """Steady-state ticks must not grow the heap (ring-arena pin).

        Mirrors the tracemalloc pin of the obs null path: after warm-up,
        every buffer lives in the state's preallocated rings/arena and the
        only per-tick allocation is the emitted score vector, which the
        caller drops.  Net heap growth over hundreds of ticks stays flat.
        """
        detector = AeroDetector(_fast_config(), use_temporal=False, graph_mode="static")
        detector.fit(train_series)
        compiled = compile_detector(detector)
        scaled = compiled.scaler.transform(test_series)
        state = compiled.new_incremental_state(NUM_STACKS)
        stacks = np.stack([scaled[i : i + WINDOW] for i in range(NUM_STACKS)])
        state.rebuild(stacks)
        rows = np.ascontiguousarray(
            np.stack([scaled[WINDOW : WINDOW + 40]] * NUM_STACKS, axis=1)
        )

        def tick_loop(iterations: int) -> None:
            for i in range(iterations):
                compiled.score_stack_step(state, rows[i % 40])

        tick_loop(50)  # warm the arena, caches and any lazy imports
        tracemalloc.start()
        try:
            tick_loop(10)
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            tick_loop(400)
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The emitted (num_stacks, N) score vectors are freed every
        # iteration; allow only incidental interpreter noise.
        assert after - before < 4096, f"steady-state ticks leaked {after - before} bytes"
