"""Hot-swap tests: registry-published models swapped into live serving
front-ends without dropping buffered state (acceptance criterion of the
training subsystem)."""

import numpy as np
import pytest

from repro.core import AeroDetector
from repro.streaming import FleetManager
from repro.training import ModelRegistry


@pytest.fixture
def detectors(tiny_config, train_series):
    """Two independently trained models over drifted versions of one field."""
    rng = np.random.default_rng(9)
    old = AeroDetector(tiny_config).fit(train_series)
    new = AeroDetector(tiny_config.scaled(seed=11)).fit(
        train_series + rng.normal(0.0, 0.05, train_series.shape)
    )
    return old, new


def expected_next_scores(new_detector, raw_history, next_rows):
    """What the swapped-in model should score on the tick after the swap.

    ``raw_history`` are the raw rows (per shard) the stream has seen so far
    — including the raw equivalent of the seeded context — and ``next_rows``
    the rows of the post-swap tick.  The stream's timeline is in index mode,
    so times are global row indices.
    """
    window = new_detector.config.window
    short = new_detector.config.short_window
    num_shards = next_rows.shape[0]
    longs = np.empty((num_shards, next_rows.shape[1], window))
    for shard in range(num_shards):
        rows = np.concatenate([raw_history[shard], next_rows[shard][None]], axis=0)
        scaled = new_detector.scaler.transform(rows[-window:])
        longs[shard] = scaled.T
    end = raw_history.shape[1]  # global index of the new row
    times = np.arange(end - window + 1, end + 1, dtype=np.float64)[None, :].repeat(
        num_shards, axis=0
    )
    return new_detector.score_windows(
        longs, longs[:, :, window - short:], times, times[:, window - short:]
    )


class TestFleetHotSwap:
    def test_next_tick_serves_new_model_without_dropping_state(
        self, detectors, tiny_config, tmp_path
    ):
        old, new = detectors
        num_shards = 2
        fleet = FleetManager(old, num_shards=num_shards)
        rng = np.random.default_rng(17)

        # Raw history starts with the raw equivalent of the seeded context.
        tail, _ = old.window_context()
        raw_history = np.repeat(
            old.scaler.inverse_transform(tail)[None], num_shards, axis=0
        )
        for _ in range(4):
            rows = rng.normal(10.0, 1.0, size=(num_shards, old.model.num_variates))
            fleet.step(rows)
            raw_history = np.concatenate([raw_history, rows[:, None, :]], axis=1)

        registry = ModelRegistry(tmp_path)
        registry.publish("field", new)
        deployed = registry.deploy("field", fleet)
        assert deployed.version == 1

        next_rows = rng.normal(10.0, 1.0, size=(num_shards, old.model.num_variates))
        result = fleet.step(next_rows)
        raw_history_after = np.concatenate([raw_history, next_rows[:, None, :]], axis=1)

        assert result.ready, "hot swap must not drop buffered state"
        assert result.threshold == pytest.approx(new.threshold())
        expected = expected_next_scores(new, raw_history, next_rows)
        np.testing.assert_allclose(result.scores, expected, rtol=1e-9, atol=1e-12)

        # The fleet keeps serving the new model on subsequent ticks too.
        more = rng.normal(10.0, 1.0, size=(num_shards, old.model.num_variates))
        result2 = fleet.step(more)
        expected2 = expected_next_scores(new, raw_history_after, more)
        np.testing.assert_allclose(result2.scores, expected2, rtol=1e-9, atol=1e-12)

    def test_compiled_fleet_stays_compiled_after_swap(self, detectors):
        old, new = detectors
        fleet = FleetManager(old, num_shards=2, backend="compiled")
        rng = np.random.default_rng(3)
        rows = rng.normal(10.0, 1.0, size=(2, old.model.num_variates))
        fleet.step(rows)
        fleet.swap_model(new)
        assert fleet.backend == "compiled"
        result = fleet.step(rows)
        assert result.ready
        assert np.isfinite(result.scores).all()

    def test_swap_preserves_compiled_dtype(self, detectors):
        """A float32-serving fleet must keep float32 plans across a swap."""
        old, new = detectors
        fleet = FleetManager(old, num_shards=1, backend=old.compile(dtype="float32"))
        assert fleet._engine.dtype == np.float32
        fleet.swap_model(new)
        assert fleet.backend == "compiled"
        assert fleet._engine.dtype == np.float32

    def test_swap_from_artifact_path(self, detectors, tmp_path):
        old, new = detectors
        fleet = FleetManager(old, num_shards=1)
        artifact = new.save(tmp_path / "new.npz")
        fleet.swap_model(artifact)
        assert fleet.threshold == pytest.approx(new.threshold())

    def test_swap_rejects_incompatible_models(self, detectors, tiny_config, train_series):
        old, _ = detectors
        fleet = FleetManager(old, num_shards=1)

        fewer_variates = AeroDetector(tiny_config).fit(train_series[:, :2])
        with pytest.raises(ValueError, match="variates"):
            fleet.swap_model(fewer_variates)

        other_window = AeroDetector(
            tiny_config.scaled(window=12, short_window=4)
        ).fit(train_series)
        with pytest.raises(ValueError, match="window geometry"):
            fleet.swap_model(other_window)

        with pytest.raises(TypeError):
            fleet.swap_model(42)

        # Dynamic-graph smoothing would chain state between shards; a single
        # shard has none to chain into, so only multi-shard fleets refuse.
        dynamic = AeroDetector(tiny_config, graph_mode="dynamic").fit(train_series)
        with pytest.raises(ValueError, match="dynamic"):
            FleetManager(old, num_shards=2).swap_model(dynamic)
        fleet.swap_model(dynamic)

    def test_swap_rejects_unfitted_detector(self, detectors):
        old, _ = detectors
        fleet = FleetManager(old, num_shards=1)
        with pytest.raises(RuntimeError):
            fleet.swap_model(AeroDetector())


class TestStreamingHotSwap:
    """A single stream (``detector.stream()``, a one-shard fleet)."""

    def test_stream_serves_new_model_next_step(self, detectors):
        old, new = detectors
        stream = old.stream()
        rng = np.random.default_rng(23)

        tail, _ = old.window_context()
        raw_history = old.scaler.inverse_transform(tail)
        for _ in range(3):
            row = rng.normal(10.0, 1.0, size=(1, old.model.num_variates))
            stream.step(row)
            raw_history = np.concatenate([raw_history, row], axis=0)

        stream.swap_model(new)
        next_row = rng.normal(10.0, 1.0, size=(1, old.model.num_variates))
        result = stream.step(next_row)
        assert result.ready
        assert result.threshold == pytest.approx(new.threshold())
        expected = expected_next_scores(new, raw_history[None], next_row)
        np.testing.assert_allclose(result.scores, expected, rtol=1e-9, atol=1e-12)

    def test_adaptive_pot_survives_the_swap(self, detectors):
        old, new = detectors
        stream = old.stream(threshold_mode="per_star")
        rng = np.random.default_rng(29)
        for _ in range(3):
            stream.step(rng.normal(10.0, 1.0, size=(1, old.model.num_variates)))
        pot_before = stream.adaptive_pot
        adaptive_before = stream.adaptive_pot.thresholds.copy()
        stream.swap_model(new)
        # The per-star adaptive state rides across the swap untouched and
        # keeps adapting against the new model's scores.
        assert stream.adaptive_pot is pot_before
        np.testing.assert_array_equal(stream.adaptive_pot.thresholds, adaptive_before)
        result = stream.step(rng.normal(10.0, 1.0, size=(1, old.model.num_variates)))
        assert result.thresholds.shape == (1, old.model.num_variates)
        np.testing.assert_array_equal(result.thresholds[0], adaptive_before)
        assert np.isfinite(adaptive_before).all()

    def test_swap_to_prebuilt_compiled_plans(self, detectors):
        old, new = detectors
        stream = old.stream()
        assert stream.backend == "compiled"
        stream.swap_model(new.compile())
        assert stream.backend == "compiled"
        rng = np.random.default_rng(31)
        result = stream.step(rng.normal(10.0, 1.0, size=(1, old.model.num_variates)))
        assert result.ready and np.isfinite(result.scores).all()
