"""Incremental serving runtime: bit-equality, lifecycle and cache tests.

The incremental engine's contract is exact: in float64 a tick served from
:class:`repro.runtime.IncrementalState` must be bit-for-bit identical to
re-running the full fused forward over the same window — across every
ablation variant, both conditioning modes and all graph modes, including
after invalidation events (rebuilds).  These tests drive state ticks
against per-tick ``score_stack`` references and assert ``array_equal``
(never ``allclose``).
"""

import multiprocessing
import threading
import tracemalloc

import numpy as np
import pytest

from repro import AeroConfig, AeroDetector
from repro.core.variants import ABLATION_VARIANTS, build_variant
from repro.runtime import compile_detector, incremental, lanes
from repro.runtime.incremental import IncrementalState
from repro.runtime.plans import NoisePlan, TimeEmbeddingPlan

NUM_VARIATES = 5
WINDOW = 16
SHORT = 6
NUM_STACKS = 3
TICKS = 18
#: Fleet size and bound of the per-tick peak-allocation pin.
PEAK_STACKS = 128
PEAK_BOUND = 256 * 1024


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
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("name", sorted(ABLATION_VARIANTS))
    def test_matches_fused_stack_real_times(
        self, name, dtype, fitted_variants, test_series, timestamps
    ):
        # One kernel body serves both paths, so the tick equals score_stack
        # bit for bit in either precision (float32 is not equal to the
        # autograd forward, but it is to its own full compiled forward).
        detector = fitted_variants[name]
        compiled = compile_detector(detector, dtype=dtype)
        reference = compile_detector(detector, dtype=dtype)
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

    @pytest.mark.parametrize(
        "profile",
        [
            "masked-univariate-window",
            "masked-univariate-static",
            "masked-multivariate-window",
            "full-univariate-window",
            "full-multivariate-static",
            "gcn-only-static",
        ],
    )
    def test_tick_peak_allocation_is_bounded(self, profile, fitted_variants, train_series):
        """A steady-state tick allocates no full-size activation (peak pin).

        Net heap growth alone cannot see a call site that forgets to pass
        the arena: numpy then allocates that intermediate and frees it
        within the tick.  The tracemalloc *peak* above the pre-tick
        baseline can.  At 128 stacks many arena buffers are at least
        :data:`PEAK_BOUND` (asserted below), so a missed workspace on any
        of them breaks the bound; what legitimately remains is the emitted
        score vector and numpy's own iterator buffers (at most 64 KiB each,
        for broadcast or mixed-dtype ufuncs writing through ``out=``).
        """
        conditioning, fold, graph = (
            ("masked", "univariate", "static") if profile == "gcn-only-static"
            else profile.split("-")
        )
        if profile == "gcn-only-static":
            detector = AeroDetector(_fast_config(), use_temporal=False, graph_mode="static")
            detector.fit(train_series)
        elif conditioning == "masked" and graph == "static":
            detector = fitted_variants["static_graph"]
        elif conditioning == "masked":
            multivariate = fold == "multivariate"
            detector = fitted_variants["no_univariate_input" if multivariate else "full"]
        else:
            detector = AeroDetector(
                _fast_config(conditioning="full"),
                multivariate_input=fold == "multivariate",
                graph_mode=graph,
            )
            detector.fit(train_series)
        compiled = compile_detector(detector)
        rng = np.random.default_rng(5)
        state = compiled.new_incremental_state(PEAK_STACKS)
        state.rebuild(rng.random((PEAK_STACKS, WINDOW, NUM_VARIATES)))
        rows = rng.random((8, PEAK_STACKS, NUM_VARIATES))
        for i in range(12):  # warm the arena and the memos
            compiled.score_stack_step(state, rows[i % 8])
        peaks = []
        tracemalloc.start()
        try:
            for i in range(8):
                before, _ = tracemalloc.get_traced_memory()
                tracemalloc.reset_peak()
                compiled.score_stack_step(state, rows[i])
                _, peak = tracemalloc.get_traced_memory()
                peaks.append(peak - before)
        finally:
            tracemalloc.stop()
        assert state.incremental_ticks > 0 and state.fallbacks == 0
        if profile != "gcn-only-static":
            # Every lane's arena counts: on a multi-CPU host the 128 stacks
            # serve on several lanes, whose workers tracemalloc traces too.
            large = [
                b for lane in state.lanes for b in lane.arena._buffers.values()
                if b.nbytes >= PEAK_BOUND
            ]
            assert large, "no arena buffer reaches the bound: the pin would have no teeth"
        assert max(peaks) < PEAK_BOUND, (
            f"{profile}: a tick peaked {max(peaks)} bytes above its baseline"
        )


LANE_STACKS = 7


def _lane_state(compiled, lanes, scaled, times, stacks=LANE_STACKS):
    state = IncrementalState(compiled.model, compiled.config, stacks, lanes=lanes)
    window = np.stack([scaled[i : i + WINDOW] for i in range(stacks)])
    state.rebuild(window, None if times is None else times[:WINDOW])
    return state


def _lane_ticks(compiled, state, scaled, times, ticks, stacks=LANE_STACKS):
    """Score the rebuilt window, then ``ticks`` appended rows."""
    emitted = [state.score()]
    for k in range(ticks):
        rows = np.stack([scaled[WINDOW + k + i] for i in range(stacks)])
        tick_time = None if times is None else float(times[WINDOW + k])
        emitted.append(compiled.score_stack_step(state, rows, tick_time))
    return emitted


class TestLanes:
    """Lanes split a tick's stacks over threads; scores must not notice."""

    @pytest.mark.parametrize("cadence", ["real", "default"])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("name", sorted(ABLATION_VARIANTS))
    def test_forced_lanes_match_score_stack(
        self, name, dtype, cadence, fitted_variants, test_series, timestamps
    ):
        # 7 stacks: 2 lanes split 4 + 3, 3 lanes 3 + 2 + 2.
        detector = fitted_variants[name]
        times = timestamps if cadence == "real" else None
        reference = compile_detector(detector, dtype=dtype)
        scaled = reference.scaler.transform(test_series)
        ticks = 6
        expected = []
        for k in range(ticks + 1):
            window = np.stack([scaled[i + k : i + k + WINDOW] for i in range(LANE_STACKS)])
            expected.append(
                reference.score_stack(window, None if times is None else times[k : k + WINDOW])
            )
        one_lane = name in ("dynamic_graph", "no_short_window")
        for lanes in (1, 2, 3):
            compiled = compile_detector(detector, dtype=dtype)
            state = _lane_state(compiled, lanes, scaled, times)
            assert len(state.lanes) == (1 if one_lane else lanes)
            for tick, (got, want) in enumerate(
                zip(_lane_ticks(compiled, state, scaled, times, ticks), expected)
            ):
                assert np.array_equal(want, got), f"{lanes} lanes, tick {tick}"

    def test_lane_bounds_are_contiguous_and_even(self, fitted_variants):
        compiled = compile_detector(fitted_variants["full"])
        state = IncrementalState(compiled.model, compiled.config, LANE_STACKS, lanes=3)
        assert [(lane.start, lane.stop) for lane in state.lanes] == [(0, 3), (3, 5), (5, 7)]
        assert len({id(lane.arena) for lane in state.lanes}) == 3
        # Lanes split each slot of a one-lane arena by stack range.
        one_lane = IncrementalState(compiled.model, compiled.config, LANE_STACKS, lanes=1)
        for candidate in (state, one_lane):
            candidate.rebuild(np.zeros((LANE_STACKS, WINDOW, NUM_VARIATES)))
            candidate.score()
        split = set()
        for name, whole in one_lane.arena._buffers.items():
            parts = [lane.arena._buffers[name] for lane in state.lanes]
            if sum(part.nbytes for part in parts) == whole.nbytes:
                assert all(part.base is parts[0].base is not None for part in parts), name
                split.add(name)
        # Per-stack slots are split; batch-1 ones (the shared decoder
        # query) cannot be and get one buffer per lane.
        assert {"enc.in", "enc0.sa.qkv", "model.errors", "model.residual"} <= split
        assert "dec0.ca.q" not in split
        # More lanes than stacks clamp to one stack per lane.
        state = IncrementalState(compiled.model, compiled.config, 2, lanes=5)
        assert [lane.num_stacks for lane in state.lanes] == [1, 1]

    def test_automatic_rule(self, fitted_variants, monkeypatch):
        compiled = compile_detector(fitted_variants["full"])
        model, config = compiled.model, compiled.config
        # Encoder work per stack: N folded sequences x (W - omega) rows x d_model.
        per_stack = NUM_VARIATES * (WINDOW - SHORT) * 8
        enough = -(-incremental._MIN_LANE_WORK // per_stack)  # stacks for one lane's minimum
        monkeypatch.setattr(lanes, "usable_cpus", lambda: 4)
        assert len(IncrementalState(model, config, enough).lanes) == 1
        assert len(IncrementalState(model, config, 2 * enough).lanes) == 2
        assert len(IncrementalState(model, config, 64 * enough).lanes) == 4
        monkeypatch.setattr(lanes, "usable_cpus", lambda: 1)
        assert len(IncrementalState(model, config, 64 * enough).lanes) == 1
        monkeypatch.setattr(lanes, "usable_cpus", lambda: 4)
        # Temporal-free models have no encoder work to split.
        gcn = compile_detector(fitted_variants["no_temporal"])
        assert len(IncrementalState(gcn.model, gcn.config, 64 * enough).lanes) == 1

    def test_memos_after_irregular_cadence_match_one_lane(self, fitted_variants):
        """Only the calling thread inserts into the plan memos.

        A jittered cadence misses every memo on every tick, so the memo
        entries and their tokens record exactly which thread inserted what
        and in which order.
        """
        detector = fitted_variants["full"]
        ticks = TimeEmbeddingPlan.MAX_CACHE + 8
        rng = np.random.default_rng(29)
        times = np.cumsum(0.8 + 0.4 * rng.random(WINDOW + ticks))
        scaled = _make_series(WINDOW + ticks + LANE_STACKS, NUM_VARIATES, seed=19)
        memos = {}
        for lanes in (1, 2):
            compiled = compile_detector(detector)
            state = _lane_state(compiled, lanes, compiled.scaler.transform(scaled), times)
            assert len(state.lanes) == lanes
            _lane_ticks(compiled, state, compiled.scaler.transform(scaled), times, ticks)
            plan = compiled.model.temporal
            memos[lanes] = (
                [(key, token) for key, (token, _) in plan.time_embedding._cache.items()],
                plan.time_embedding._next_token,
                list(plan._self_stage_cache),
                list(plan._default_times),
            )
        assert memos[1] == memos[2]

    def test_learned_graph_is_the_last_stack_adjacency(self, fitted_variants, test_series):
        detector = fitted_variants["full"]  # window-wise graph
        graphs = {}
        for lanes in (1, 2):
            compiled = compile_detector(detector)
            scaled = compiled.scaler.transform(test_series)
            state = _lane_state(compiled, lanes, scaled, None)
            _lane_ticks(compiled, state, scaled, None, 3)
            graphs[lanes] = compiled.model.noise.last_adjacency
        window = np.stack([scaled[i + 3 : i + 3 + WINDOW] for i in range(LANE_STACKS)])
        reference = compile_detector(detector)
        reference.score_stack(window)
        assert np.array_equal(graphs[2], graphs[1])
        assert np.array_equal(graphs[2], reference.model.noise.last_adjacency)

    def test_lanes_never_write_noise_plan_state(
        self, fitted_variants, test_series, monkeypatch
    ):
        """Publishing the graph diagnostics is the calling thread's job."""
        in_lane = threading.local()
        writes = []
        lane_step = incremental.lane_step

        def flagged(*args):
            in_lane.active = True
            try:
                return lane_step(*args)
            finally:
                in_lane.active = False

        def guarded(plan, attr, value):
            if getattr(in_lane, "active", False):
                writes.append(attr)
            object.__setattr__(plan, attr, value)

        monkeypatch.setattr(incremental, "lane_step", flagged)
        monkeypatch.setattr(NoisePlan, "__setattr__", guarded)
        for name in ("full", "static_graph"):
            compiled = compile_detector(fitted_variants[name])
            scaled = compiled.scaler.transform(test_series)
            state = _lane_state(compiled, 2, scaled, None)
            _lane_ticks(compiled, state, scaled, None, 3)
            assert compiled.model.noise.last_adjacency is not None
        assert writes == []

    def test_failing_lane_is_joined_before_the_tick_raises(
        self, fitted_variants, test_series, monkeypatch
    ):
        compiled = compile_detector(fitted_variants["full"])
        scaled = compiled.scaler.transform(test_series)
        state = _lane_state(compiled, 3, scaled, None)
        _lane_ticks(compiled, state, scaled, None, 1)  # first tick: inline
        finished = []
        lane_step = incremental.lane_step

        def failing(model, state, lane, shared, scores):
            if lane.start == 0:
                raise RuntimeError("lane 0 broke")
            lane_step(model, state, lane, shared, scores)
            finished.append(lane.start)

        monkeypatch.setattr(incremental, "lane_step", failing)
        with pytest.raises(RuntimeError, match="lane 0 broke"):
            state.score()
        assert sorted(finished) == [3, 5]


def _tick_in_child(compiled, state, rows, connection):
    connection.send(compiled.score_stack_step(state, rows))
    connection.close()


@pytest.mark.filterwarnings("ignore::DeprecationWarning")  # fork() with live threads
def test_multi_lane_state_ticks_in_a_forked_child(fitted_variants, test_series):
    """A pool inherited over fork has no threads: the child must start its own.

    Without the at-fork reset the child's tick submits to the parent's
    pool, whose futures never complete, and the child hangs.
    """
    compiled = compile_detector(fitted_variants["full"])
    scaled = compiled.scaler.transform(test_series)
    state = _lane_state(compiled, 2, scaled, None)
    _lane_ticks(compiled, state, scaled, None, 2)  # the second tick ran on the pool
    rows = np.stack([scaled[WINDOW + 2 + i] for i in range(LANE_STACKS)])
    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)
    child = context.Process(target=_tick_in_child, args=(compiled, state, rows, sender))
    child.start()
    sender.close()
    try:
        assert receiver.poll(60), "the forked child's multi-lane tick never finished"
        from_child = receiver.recv()
    finally:
        child.join(5)
        if child.is_alive():
            child.kill()
            child.join()
    assert child.exitcode == 0
    assert np.array_equal(from_child, compiled.score_stack_step(state, rows))
