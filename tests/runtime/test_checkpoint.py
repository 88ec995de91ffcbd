"""Full-detector checkpointing: ``AeroDetector.save()`` / ``AeroDetector.load()``.

One ``.npz`` artifact carries config, variant flags, model weights, scaler
statistics, training-tail context and POT calibration — a restored detector
scores bit-for-bit like the one that was saved, and compiled serving plans
can be built straight from disk without retraining.
"""

import json

import numpy as np
import pytest

from repro import AeroConfig, AeroDetector
from repro.core.variants import build_variant
from repro.nn import load_arrays, save_arrays
from repro.streaming import FleetManager


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


@pytest.fixture(scope="module")
def series():
    return _make_series(140, 5, seed=7), _make_series(80, 5, seed=11)


@pytest.fixture(scope="module")
def fitted(series):
    train, _ = series
    detector = AeroDetector(_fast_config())
    detector.fit(train)
    return detector


class TestRoundTrip:
    def test_scores_bit_equal_after_reload(self, fitted, series, tmp_path):
        _, test = series
        path = fitted.save(tmp_path / "detector.npz")
        restored = AeroDetector.load(path)
        assert np.array_equal(fitted.score(test), restored.score(test))
        assert fitted.threshold() == restored.threshold()
        assert np.array_equal(fitted.detect(test), restored.detect(test))

    def test_restored_model_is_in_eval_mode(self, fitted, tmp_path):
        path = fitted.save(tmp_path / "detector.npz")
        restored = AeroDetector.load(path)
        assert all(not module.training for module in restored.model.modules())

    def test_config_flags_and_history_survive(self, fitted, tmp_path):
        path = fitted.save(tmp_path / "detector.npz")
        restored = AeroDetector.load(path)
        assert restored.config == fitted.config
        assert restored.graph_mode == fitted.graph_mode
        assert restored.use_short_window == fitted.use_short_window
        assert restored.history.stage1_losses == pytest.approx(fitted.history.stage1_losses)
        assert restored.history.stage2_losses == pytest.approx(fitted.history.stage2_losses)

    def test_timestamped_context_survives(self, tmp_path):
        rng = np.random.default_rng(3)
        train = _make_series(140, 4, seed=15)
        test = _make_series(60, 4, seed=16)
        train_times = np.cumsum(0.8 + 0.4 * rng.random(len(train)))
        test_times = train_times[-1] + np.cumsum(0.8 + 0.4 * rng.random(len(test)))
        detector = AeroDetector(_fast_config())
        detector.fit(train, train_times)
        restored = AeroDetector.load(detector.save(tmp_path / "timed.npz"))
        assert np.array_equal(
            detector.score(test, test_times), restored.score(test, test_times)
        )

    def test_variant_round_trip(self, series, tmp_path):
        train, test = series
        detector = build_variant("static_graph", config=_fast_config())
        detector.fit(train)
        restored = AeroDetector.load(detector.save(tmp_path / "variant.npz"))
        assert restored.graph_mode == "static"
        assert np.array_equal(detector.score(test), restored.score(test))

    @pytest.mark.parametrize("backend", ["autograd", "compiled"])
    def test_legacy_backend_metadata_loads(self, fitted, series, tmp_path, backend):
        # Older checkpoints (e.g. registry versions) recorded the detector's
        # default serving backend; the key is ignored on load, no longer saved.
        _, test = series
        arrays = load_arrays(fitted.save(tmp_path / "detector.npz"))
        meta = json.loads(str(arrays["meta"]))
        assert "backend" not in meta["detector"]
        meta["detector"]["backend"] = backend
        arrays["meta"] = np.array(json.dumps(meta))
        restored = AeroDetector.load(save_arrays(tmp_path / "legacy.npz", arrays))
        assert np.array_equal(fitted.score(test), restored.score(test))
        assert np.array_equal(fitted.score(test), restored.compile().score(test))


class TestServeFromDisk:
    def test_compile_from_loaded_checkpoint(self, fitted, series, tmp_path):
        _, test = series
        restored = AeroDetector.load(fitted.save(tmp_path / "detector.npz"))
        assert np.array_equal(fitted.score(test), restored.compile().score(test))

    def test_fleet_serves_from_checkpoint(self, fitted, series, tmp_path):
        _, test = series
        restored = AeroDetector.load(fitted.save(tmp_path / "detector.npz"))
        fleet = FleetManager(restored, num_shards=2, backend="compiled")
        result = fleet.step(np.stack([test[0]] * 2))
        assert result.ready
        assert result.scores.shape == (2, test.shape[1])


class TestErrorPaths:
    def test_save_requires_fitted(self, tmp_path):
        with pytest.raises(RuntimeError, match="fitted"):
            AeroDetector(_fast_config()).save(tmp_path / "nope.npz")

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no checkpoint"):
            AeroDetector.load(tmp_path / "absent.npz")

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"this is not a zip archive")
        with pytest.raises(ValueError, match="not a readable"):
            AeroDetector.load(path)

    def test_foreign_archive_rejected(self, tmp_path):
        path = save_arrays(tmp_path / "foreign.npz", {"weights": np.zeros(3)})
        with pytest.raises(ValueError, match="no metadata"):
            AeroDetector.load(path)

    def test_incomplete_checkpoint_names_path_and_keys(self, fitted, tmp_path):
        from repro.nn import load_arrays

        path = fitted.save(tmp_path / "detector.npz")
        arrays = load_arrays(path)
        del arrays["pot.train_scores"]
        save_arrays(path, arrays)
        with pytest.raises(ValueError, match="incomplete.*pot.train_scores"):
            AeroDetector.load(path)

    def test_future_version_rejected(self, fitted, tmp_path):
        import json

        from repro.nn import load_arrays

        path = fitted.save(tmp_path / "detector.npz")
        arrays = load_arrays(path)
        meta = json.loads(str(arrays["meta"]))
        meta["version"] = 99
        arrays["meta"] = np.array(json.dumps(meta))
        save_arrays(path, arrays)
        with pytest.raises(ValueError, match="newer checkpoint format"):
            AeroDetector.load(path)

    def test_tampered_calibration_detected(self, fitted, tmp_path):
        from repro.nn import load_arrays

        path = fitted.save(tmp_path / "detector.npz")
        arrays = load_arrays(path)
        arrays["pot.train_scores"] = arrays["pot.train_scores"] * 3.0
        save_arrays(path, arrays)
        with pytest.raises(ValueError, match="threshold mismatch"):
            AeroDetector.load(path)

    def test_missing_parameter_named_in_error(self, fitted, tmp_path):
        from repro.nn import load_arrays

        path = fitted.save(tmp_path / "detector.npz")
        arrays = load_arrays(path)
        dropped = next(key for key in arrays if key.startswith("model."))
        del arrays[dropped]
        save_arrays(path, arrays)
        with pytest.raises(KeyError, match="does not match"):
            AeroDetector.load(path)

    def test_shape_mismatch_named_in_error(self, fitted, tmp_path):
        from repro.nn import load_arrays

        path = fitted.save(tmp_path / "detector.npz")
        arrays = load_arrays(path)
        key = next(key for key in arrays if key.startswith("model."))
        arrays[key] = np.zeros(np.asarray(arrays[key]).size + 1)
        save_arrays(path, arrays)
        with pytest.raises(ValueError, match="does not match"):
            AeroDetector.load(path)
