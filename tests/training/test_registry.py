"""Tests for ModelRegistry: versioning, atomic publishes, loading and
compiled-plan handoff."""

import json

import numpy as np
import pytest

from repro.core import AeroDetector
from repro.runtime import CompiledDetector
from repro.training import ModelRegistry


@pytest.fixture
def fitted_detector(tiny_config, train_series):
    return AeroDetector(tiny_config).fit(train_series)


class TestVersioning:
    def test_publish_assigns_monotonic_versions(self, tmp_path, fitted_detector):
        registry = ModelRegistry(tmp_path)
        first = registry.publish("field-a", fitted_detector)
        second = registry.publish("field-a", fitted_detector)
        assert (first.version, second.version) == (1, 2)
        assert registry.versions("field-a") == [1, 2]
        assert registry.latest("field-a").version == 2
        assert registry.names() == ["field-a"]
        assert first.label == "field-a@v0001"

    def test_get_specific_and_missing_versions(self, tmp_path, fitted_detector):
        registry = ModelRegistry(tmp_path)
        registry.publish("field-a", fitted_detector)
        assert registry.get("field-a", 1).version == 1
        with pytest.raises(KeyError):
            registry.get("field-a", 9)
        with pytest.raises(KeyError):
            registry.get("never-published")
        assert registry.versions("never-published") == []

    def test_invalid_names_rejected(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        for bad in ("", "../escape", "a/b", ".hidden"):
            with pytest.raises(ValueError):
                registry._check_name(bad)

    def test_manifest_records_metadata(self, tmp_path, fitted_detector):
        registry = ModelRegistry(tmp_path)
        version = registry.publish("field-a", fitted_detector, metadata={"f1": 0.9})
        assert version.metadata == {"f1": 0.9}
        manifest = json.loads((version.path / ModelRegistry.MANIFEST).read_text())
        assert manifest["name"] == "field-a"
        assert manifest["version"] == 1
        # Re-reading through the registry surfaces the same metadata.
        assert registry.get("field-a", 1).metadata == {"f1": 0.9}

    def test_half_written_versions_are_invisible(self, tmp_path, fitted_detector):
        registry = ModelRegistry(tmp_path)
        registry.publish("field-a", fitted_detector)
        # A crashed publish leaves a staging dir (or an empty version dir):
        (tmp_path / "field-a" / ".staging-abc123").mkdir()
        (tmp_path / "field-a" / "v0003").mkdir()  # no artifact inside
        assert registry.versions("field-a") == [1]
        assert registry.latest("field-a").version == 1

    def test_names_skips_foreign_directories(self, tmp_path, fitted_detector):
        registry = ModelRegistry(tmp_path)
        registry.publish("field-a", fitted_detector)
        (tmp_path / ".git").mkdir()
        (tmp_path / "_cache").mkdir()
        assert registry.names() == ["field-a"]

    def test_concurrent_publishers_never_share_staging(self, tmp_path, fitted_detector):
        """Interleaved publishes of one name must yield two intact versions."""
        import threading

        registry = ModelRegistry(tmp_path)
        artifact = fitted_detector.save(tmp_path / "det.npz")
        errors = []

        def publish():
            try:
                registry.publish("field-a", artifact)
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=publish) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        versions = registry.versions("field-a")
        assert len(versions) == 4
        for version in versions:
            loaded = registry.get("field-a", version)
            assert loaded.artifact_path.exists()
            assert (loaded.path / ModelRegistry.MANIFEST).exists()
        assert not list((tmp_path / "field-a").glob(".staging*"))


class TestLoading:
    def test_loaded_detector_scores_identically(self, tmp_path, fitted_detector, train_series):
        registry = ModelRegistry(tmp_path)
        registry.publish("field-a", fitted_detector)
        restored = registry.load_detector("field-a")
        np.testing.assert_array_equal(
            fitted_detector.score(train_series[:60]), restored.score(train_series[:60])
        )

    def test_load_compiled_hands_out_plans(self, tmp_path, fitted_detector, train_series):
        registry = ModelRegistry(tmp_path)
        registry.publish("field-a", fitted_detector)
        compiled = registry.load_compiled("field-a")
        assert isinstance(compiled, CompiledDetector)
        np.testing.assert_array_equal(
            fitted_detector.score(train_series[:60]), compiled.score(train_series[:60])
        )

    def test_publish_from_existing_artifact_path(self, tmp_path, fitted_detector):
        artifact = fitted_detector.save(tmp_path / "det.npz")
        registry = ModelRegistry(tmp_path / "registry")
        version = registry.publish("field-a", artifact)
        assert version.artifact_path.exists()
        assert registry.load_detector("field-a").threshold() == fitted_detector.threshold()

    def test_publish_and_restore_per_star_calibration(self, tmp_path, fitted_detector):
        from repro.streaming import FleetManager

        registry = ModelRegistry(tmp_path)
        fleet = FleetManager(fitted_detector, num_shards=2, threshold_mode="per_star")
        rng = np.random.default_rng(0)
        for _ in range(10):
            fleet.step(rng.normal(10.0, 1.0, size=(2, 3)))
        adapted = fleet.adaptive_pot.thresholds.copy()

        version = registry.publish("field-a", fitted_detector, calibration=fleet)
        assert version.has_calibration
        manifest = json.loads((version.path / ModelRegistry.MANIFEST).read_text())
        assert manifest["calibration"] == ModelRegistry.CALIBRATION
        assert manifest["calibration_stars"] == fleet.num_stars

        # Standalone load restores the exact per-star state.
        restored = registry.load_calibration("field-a")
        np.testing.assert_array_equal(restored.thresholds, adapted)

        # Deploy into a fresh fleet: thresholds come from the registry, not
        # from re-calibrating against the train scores.
        fresh = FleetManager(fitted_detector, num_shards=2, threshold_mode="per_star")
        assert not np.array_equal(fresh.adaptive_pot.thresholds, adapted)
        registry.deploy("field-a", fresh)
        np.testing.assert_array_equal(fresh.adaptive_pot.thresholds, adapted)

        # Opting out keeps the target's own calibration.
        keep = FleetManager(fitted_detector, num_shards=2, threshold_mode="per_star")
        own = keep.adaptive_pot.thresholds.copy()
        registry.deploy("field-a", keep, restore_calibration=False)
        np.testing.assert_array_equal(keep.adaptive_pot.thresholds, own)

    def test_deploy_leaves_global_mode_targets_alone(self, tmp_path, fitted_detector):
        # A fleet deliberately serving the frozen global threshold must not
        # be silently flipped to per-star semantics by a calibration sidecar.
        from repro.streaming import FleetManager

        registry = ModelRegistry(tmp_path)
        donor = FleetManager(fitted_detector, num_shards=2, threshold_mode="per_star")
        registry.publish("field-a", fitted_detector, calibration=donor)
        target = FleetManager(fitted_detector, num_shards=2)
        registry.deploy("field-a", target)
        assert target.threshold_mode == "global"
        assert target.adaptive_pot is None

    def test_deploy_rejects_star_mismatch_before_the_swap(self, tmp_path, fitted_detector):
        from repro.streaming import FleetManager

        registry = ModelRegistry(tmp_path)
        donor = FleetManager(fitted_detector, num_shards=2, threshold_mode="per_star")
        registry.publish("field-a", fitted_detector, calibration=donor)
        mismatched = FleetManager(fitted_detector, num_shards=3, threshold_mode="per_star")
        before = mismatched.adaptive_pot.thresholds.copy()
        with pytest.raises(ValueError, match="before the model swap"):
            registry.deploy("field-a", mismatched)
        # The failed deploy touched nothing: same thresholds, same model.
        np.testing.assert_array_equal(mismatched.adaptive_pot.thresholds, before)
        assert mismatched.detector is fitted_detector

    def test_versions_without_calibration_say_so(self, tmp_path, fitted_detector):
        registry = ModelRegistry(tmp_path)
        registry.publish("field-a", fitted_detector)
        assert not registry.get("field-a").has_calibration
        with pytest.raises(KeyError):
            registry.load_calibration("field-a")

    def test_publish_rejects_bogus_calibration(self, tmp_path, fitted_detector):
        from repro.streaming import FleetManager

        registry = ModelRegistry(tmp_path)
        with pytest.raises(TypeError):
            registry.publish("field-a", fitted_detector, calibration=object())
        with pytest.raises(ValueError):
            registry.publish("field-a", fitted_detector, calibration={"bogus": np.zeros(3)})
        global_fleet = FleetManager(fitted_detector, num_shards=2)
        with pytest.raises(ValueError):
            registry.publish("field-a", fitted_detector, calibration=global_fleet)
        # Failed publishes must not burn version numbers or leave debris.
        assert registry.versions("field-a") == []

    def test_publish_rejects_bogus_sources(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        with pytest.raises(FileNotFoundError):
            registry.publish("field-a", tmp_path / "missing.npz")
        with pytest.raises(TypeError):
            registry.publish("field-a", object())
        with pytest.raises(RuntimeError):
            # an unfitted detector cannot be saved
            registry.publish("field-a", AeroDetector())
        # Failed publishes must not burn version numbers or leave debris.
        assert registry.versions("field-a") == []
        assert not list((tmp_path / "field-a").glob(".staging*"))


class TestDriftReference:
    @staticmethod
    def _monitor(num_stars, seed=0):
        from repro.obs import DriftMonitor

        rng = np.random.default_rng(seed)
        return DriftMonitor().fit(rng.normal(size=400), num_stars=num_stars)

    def test_publish_and_load_drift_reference(self, tmp_path, fitted_detector):
        registry = ModelRegistry(tmp_path)
        monitor = self._monitor(num_stars=6)
        version = registry.publish("field-a", fitted_detector, drift_reference=monitor)
        assert version.has_drift_reference
        manifest = json.loads((version.path / ModelRegistry.MANIFEST).read_text())
        assert manifest["drift_reference"] == ModelRegistry.DRIFT
        assert manifest["drift_stars"] == 6
        restored = registry.load_drift_reference("field-a")
        np.testing.assert_array_equal(restored.ref_probs, monitor.ref_probs)
        np.testing.assert_array_equal(restored.ref_edges, monitor.ref_edges)
        assert restored.halflife == monitor.halflife
        # Live sketches are fresh: the sidecar carries the reference only.
        assert restored.num_observations.sum() == 0

    def test_publish_from_fleet_and_deploy_restores(self, tmp_path, fitted_detector):
        from repro.streaming import FleetManager

        registry = ModelRegistry(tmp_path)
        donor = FleetManager(
            fitted_detector, num_shards=2, drift_monitor=self._monitor(num_stars=6)
        )
        registry.publish("field-a", fitted_detector, drift_reference=donor)

        # A target already monitoring drift gets the published reference.
        target = FleetManager(
            fitted_detector, num_shards=2, drift_monitor=self._monitor(num_stars=6, seed=9)
        )
        assert not np.array_equal(
            target.drift_monitor.ref_edges, donor.drift_monitor.ref_edges
        )
        registry.deploy("field-a", target)
        np.testing.assert_array_equal(
            target.drift_monitor.ref_edges, donor.drift_monitor.ref_edges
        )

        # A target without a monitor is left alone (opt-in semantics) ...
        bare = FleetManager(fitted_detector, num_shards=2)
        registry.deploy("field-a", bare)
        assert bare.drift_monitor is None

        # ... and restore_drift=False keeps the target's own reference.
        keep = FleetManager(
            fitted_detector, num_shards=2, drift_monitor=self._monitor(num_stars=6, seed=9)
        )
        own = keep.drift_monitor.ref_edges.copy()
        registry.deploy("field-a", keep, restore_drift=False)
        np.testing.assert_array_equal(keep.drift_monitor.ref_edges, own)

    def test_deploy_rejects_drift_star_mismatch_before_the_swap(
        self, tmp_path, fitted_detector
    ):
        from repro.streaming import FleetManager

        registry = ModelRegistry(tmp_path)
        registry.publish(
            "field-a", fitted_detector, drift_reference=self._monitor(num_stars=9)
        )
        target = FleetManager(
            fitted_detector, num_shards=2, drift_monitor=self._monitor(num_stars=6)
        )
        before = target.detector
        with pytest.raises(ValueError, match="before the model swap"):
            registry.deploy("field-a", target)
        assert target.detector is before          # nothing was swapped

    def test_versions_without_drift_reference_say_so(self, tmp_path, fitted_detector):
        registry = ModelRegistry(tmp_path)
        registry.publish("field-a", fitted_detector)
        assert not registry.get("field-a").has_drift_reference
        with pytest.raises(KeyError):
            registry.load_drift_reference("field-a")

    def test_publish_rejects_bogus_drift_references(self, tmp_path, fitted_detector):
        from repro.streaming import FleetManager

        registry = ModelRegistry(tmp_path)
        with pytest.raises(TypeError):
            registry.publish("field-a", fitted_detector, drift_reference=object())
        with pytest.raises(ValueError):
            registry.publish(
                "field-a", fitted_detector, drift_reference={"bogus": np.zeros(3)}
            )
        # A fleet without a monitor has no reference sketch to publish.
        bare = FleetManager(fitted_detector, num_shards=2)
        with pytest.raises(ValueError):
            registry.publish("field-a", fitted_detector, drift_reference=bare)
        # Failed publishes must not burn version numbers or leave debris.
        assert registry.versions("field-a") == []


class TestPublishRaceNumbering:
    def test_concurrent_publishes_assign_contiguous_versions(self, tmp_path, fitted_detector):
        """A lost publish race must re-number from the winner, never skip.

        The old retry computed ``latest + 1 + attempt``: the loser of a
        race for v5 would jump straight to v7, leaving a permanent hole at
        v6.  With maximal contention (a barrier start), every version in
        ``1..n`` must exist exactly once.
        """
        import threading

        registry = ModelRegistry(tmp_path)
        artifact = fitted_detector.save(tmp_path / "det.npz")
        publishers = 8
        barrier = threading.Barrier(publishers)
        errors = []

        def publish():
            try:
                barrier.wait()
                registry.publish("field-a", artifact)
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=publish) for _ in range(publishers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert registry.versions("field-a") == list(range(1, publishers + 1))


class TestDeployThreshold:
    def test_explicit_threshold_passes_through_the_swap(self, tmp_path, fitted_detector):
        from repro.streaming import FleetManager

        registry = ModelRegistry(tmp_path)
        registry.publish("field-a", fitted_detector)
        fleet = FleetManager(fitted_detector, num_shards=2, threshold=42.0)
        registry.deploy("field-a", fleet, threshold=7.5)
        assert fleet.threshold == 7.5
        assert fleet.model_version == "field-a@v0001"

    def test_published_threshold_metadata_is_restored(self, tmp_path, fitted_detector):
        import warnings

        from repro.streaming import FleetManager

        registry = ModelRegistry(tmp_path)
        registry.publish("field-a", fitted_detector, metadata={"threshold": 9.25})
        fleet = FleetManager(fitted_detector, num_shards=2, threshold=42.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")      # restoring must not also warn
            registry.deploy("field-a", fleet)
        assert fleet.threshold == 9.25

    def test_silent_override_loss_warns(self, tmp_path, fitted_detector):
        from repro.streaming import FleetManager

        registry = ModelRegistry(tmp_path)
        registry.publish("field-a", fitted_detector)    # no published threshold
        fleet = FleetManager(fitted_detector, num_shards=2, threshold=42.0)
        with pytest.warns(RuntimeWarning, match="threshold"):
            registry.deploy("field-a", fleet)
        # swap_model's by-design reset still happened — but loudly.
        assert fleet.threshold == fitted_detector.threshold()

    def test_no_override_no_warning(self, tmp_path, fitted_detector):
        import warnings

        from repro.streaming import FleetManager

        registry = ModelRegistry(tmp_path)
        registry.publish("field-a", fitted_detector)
        fleet = FleetManager(fitted_detector, num_shards=2)   # serving train calibration
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            registry.deploy("field-a", fleet)
        assert fleet.threshold == fitted_detector.threshold()


class TestDeployStarGuard:
    def test_zero_star_target_fails_loudly_before_the_swap(self, tmp_path, fitted_detector):
        """A malformed target reporting zero stars is a mismatch, not 'unknown'.

        The old guard used ``getattr(...) or getattr(...)``, so a falsy-but-
        present ``num_stars`` fell through to ``num_variates`` and could
        silently skip the pre-swap check entirely.
        """
        from repro.streaming import FleetManager

        registry = ModelRegistry(tmp_path)
        donor = FleetManager(fitted_detector, num_shards=2, threshold_mode="per_star")
        registry.publish("field-a", fitted_detector, calibration=donor)

        class Malformed:
            num_stars = 0                       # present but nonsensical

            def threshold_state(self):
                return {"thresholds": np.zeros(0)}

            def load_threshold_state(self, state):  # pragma: no cover - must not run
                raise AssertionError("restore must not be reached")

            def swap_model(self, model):  # pragma: no cover - must not run
                raise AssertionError("swap must not be reached")

        with pytest.raises(ValueError, match="before the model swap"):
            registry.deploy("field-a", Malformed())

    def test_target_star_count_prefers_num_stars(self):
        class Target:
            num_stars = 6
            num_variates = 3

        assert ModelRegistry._target_star_count(Target()) == 6
        assert ModelRegistry._target_star_count(object()) is None


class TestDeployConsistencyOnRestoreFailure:
    """A failed post-swap sidecar restore must never leave a mixed pair."""

    def test_failed_threshold_restore_swaps_the_old_model_back(
        self, tmp_path, fitted_detector, tiny_config, train_series, monkeypatch
    ):
        from repro.streaming import FleetManager

        registry = ModelRegistry(tmp_path)
        donor = FleetManager(fitted_detector, num_shards=2, threshold_mode="per_star")
        candidate = AeroDetector(tiny_config.scaled(seed=99)).fit(train_series)
        registry.publish("field-a", candidate, calibration=donor)

        target = FleetManager(fitted_detector, num_shards=2, threshold_mode="per_star")
        before_thresholds = target.adaptive_pot.thresholds.copy()

        def broken_restore(state):
            raise RuntimeError("calibration disk died")

        monkeypatch.setattr(target, "load_threshold_state", broken_restore)
        with pytest.raises(RuntimeError, match="calibration disk died"):
            registry.deploy("field-a", target)
        # Old model + old calibration: consistent, never candidate + old.
        assert target.detector is fitted_detector
        np.testing.assert_array_equal(target.adaptive_pot.thresholds, before_thresholds)
        assert target.model_version is None

    def test_failed_drift_restore_swaps_the_old_model_back(
        self, tmp_path, fitted_detector, tiny_config, train_series, monkeypatch
    ):
        from repro.obs import DriftMonitor
        from repro.streaming import FleetManager

        rng = np.random.default_rng(3)
        monitor = DriftMonitor().fit(rng.normal(size=400), num_stars=6)
        registry = ModelRegistry(tmp_path)
        candidate = AeroDetector(tiny_config.scaled(seed=99)).fit(train_series)
        registry.publish("field-a", candidate, drift_reference=monitor)

        target = FleetManager(
            fitted_detector, num_shards=2,
            drift_monitor=DriftMonitor().fit(rng.normal(size=400), num_stars=6),
        )
        own_reference = target.drift_monitor
        before_threshold = target.threshold

        def broken_restore(state):
            raise RuntimeError("drift disk died")

        monkeypatch.setattr(target, "load_drift_state", broken_restore)
        with pytest.raises(RuntimeError, match="drift disk died"):
            registry.deploy("field-a", target)
        assert target.detector is fitted_detector
        assert target.drift_monitor is own_reference
        assert target.threshold == before_threshold
        assert target.model_version is None

    def test_corrupt_sidecar_rejected_before_the_swap(self, tmp_path, fitted_detector):
        from repro.streaming import FleetManager

        registry = ModelRegistry(tmp_path)
        donor = FleetManager(fitted_detector, num_shards=2, threshold_mode="per_star")
        version = registry.publish("field-a", fitted_detector, calibration=donor)
        # Truncate the sidecar to a bare thresholds array: right star count,
        # missing every other state key.
        np.savez_compressed(version.calibration_path, thresholds=np.zeros(6))

        target = FleetManager(fitted_detector, num_shards=2, threshold_mode="per_star")
        before = target.adaptive_pot.thresholds.copy()
        with pytest.raises((KeyError, ValueError)):
            registry.deploy("field-a", target)
        assert target.detector is fitted_detector
        np.testing.assert_array_equal(target.adaptive_pot.thresholds, before)
