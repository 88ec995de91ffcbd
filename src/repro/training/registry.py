"""Versioned on-disk registry of trained detector artifacts.

The bridge between the training fleet and the serving fleet: training
publishes ``AeroDetector.save()`` artifacts under a model name, serving
resolves the latest (or a pinned) version and loads it back — as a plain
detector, or compiled straight into the tape-free plans of
:mod:`repro.runtime` — and :meth:`ModelRegistry.deploy` hands it to a
running :class:`~repro.streaming.FleetManager` (a single
``AeroDetector.stream()`` included) for a hot swap that keeps every
buffered window.

Layout (one directory per name, one immutable directory per version)::

    root/
      <name>/
        v0001/
          model.npz        # the AeroDetector.save() artifact
          manifest.json    # {"name", "version", "metadata", ...}
          calibration.npz  # optional per-star threshold state (see below)
          drift.npz        # optional drift-reference sketch (see below)
        v0002/
          ...

A version may additionally carry the serving fleet's **per-star threshold
calibration** (``ModelRegistry.publish(..., calibration=...)`` with a
:class:`repro.streaming.VectorizedIncrementalPOT`, a front-end exposing
``threshold_state()``, or a plain state dict).  The manifest records the
sidecar and its star count; :meth:`ModelRegistry.deploy` restores it into
the target front-end after the hot swap, so a redeployed fleet keeps its
adapted per-star thresholds instead of re-calibrating from train scores.

Since PR 7 a version may also carry the **drift-monitoring reference
sketch** (``publish(..., drift_reference=...)`` with a fitted
:class:`repro.obs.DriftMonitor`, a front-end exposing ``drift_state()``,
or its state dict): the per-star calibration-time score distribution the
:class:`~repro.obs.drift.DriftMonitor` compares live serving against.
``deploy`` restores it into targets that already monitor drift, so the
deployed model is watched against *its own* calibration snapshot, not the
previous model's.

Publishes are atomic at the directory level: the artifact is staged into a
hidden temp directory and ``rename``d into place, so a concurrently reading
server never observes a half-written version.
"""

from __future__ import annotations

import json
import logging
import re
import shutil
import tempfile
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from ..obs.metrics import get_registry

if TYPE_CHECKING:  # pragma: no cover - imports only for type checkers
    from ..core.detector import AeroDetector
    from ..runtime.compiler import CompiledDetector

__all__ = ["ModelVersion", "ModelRegistry"]

logger = logging.getLogger("repro.training.registry")

_NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")
_VERSION_PATTERN = re.compile(r"^v(\d{4,})$")


@dataclass(frozen=True)
class ModelVersion:
    """One immutable published version of a named model."""

    name: str
    version: int
    path: Path                    # the version directory
    metadata: dict

    @property
    def artifact_path(self) -> Path:
        """The ``AeroDetector.save()`` artifact of this version."""
        return self.path / ModelRegistry.ARTIFACT

    @property
    def calibration_path(self) -> Path:
        """The per-star threshold-state sidecar of this version."""
        return self.path / ModelRegistry.CALIBRATION

    @property
    def has_calibration(self) -> bool:
        """Whether this version was published with per-star thresholds."""
        return self.calibration_path.exists()

    @property
    def drift_path(self) -> Path:
        """The drift-reference sidecar of this version."""
        return self.path / ModelRegistry.DRIFT

    @property
    def has_drift_reference(self) -> bool:
        """Whether this version was published with a drift-reference sketch."""
        return self.drift_path.exists()

    @property
    def label(self) -> str:
        return f"{self.name}@v{self.version:04d}"


class ModelRegistry:
    """Filesystem-backed versioned store of detector checkpoints."""

    ARTIFACT = "model.npz"
    MANIFEST = "manifest.json"
    CALIBRATION = "calibration.npz"
    DRIFT = "drift.npz"
    _PUBLISH_RETRIES = 16

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def names(self) -> list[str]:
        """All model names with at least one published version."""
        return sorted(
            entry.name
            for entry in self.root.iterdir()
            # Skip foreign directories (.git, caches, staging debris, ...).
            if entry.is_dir() and _NAME_PATTERN.match(entry.name) and self.versions(entry.name)
        )

    def versions(self, name: str) -> list[int]:
        """Published version numbers of ``name``, ascending."""
        model_dir = self.root / self._check_name(name)
        if not model_dir.is_dir():
            return []
        found = []
        for entry in model_dir.iterdir():
            match = _VERSION_PATTERN.match(entry.name)
            if match and entry.is_dir() and (entry / self.ARTIFACT).exists():
                found.append(int(match.group(1)))
        return sorted(found)

    def get(self, name: str, version: int | None = None) -> ModelVersion:
        """Resolve one published version (default: the latest)."""
        name = self._check_name(name)
        available = self.versions(name)
        if not available:
            raise KeyError(f"registry has no published versions of {name!r}")
        if version is None:
            version = available[-1]
        elif version not in available:
            raise KeyError(
                f"registry has no version {version} of {name!r} (available: {available})"
            )
        path = self.root / name / f"v{version:04d}"
        manifest_path = path / self.MANIFEST
        metadata = {}
        if manifest_path.exists():
            metadata = json.loads(manifest_path.read_text()).get("metadata", {})
        return ModelVersion(name=name, version=version, path=path, metadata=metadata)

    def latest(self, name: str) -> ModelVersion:
        """The most recently published version of ``name``."""
        return self.get(name)

    def load_detector(self, name: str, version: int | None = None) -> "AeroDetector":
        """Load a published version back into a scoring-ready detector."""
        from ..core.detector import AeroDetector

        return AeroDetector.load(self.get(name, version).artifact_path)

    def load_compiled(
        self, name: str, version: int | None = None, dtype="float64"
    ) -> "CompiledDetector":
        """Load a published version and compile it into tape-free plans."""
        return self.load_detector(name, version).compile(dtype=dtype)

    def load_calibration(self, name: str, version: int | None = None):
        """Load a version's per-star threshold state, ready to serve.

        Returns a :class:`repro.streaming.VectorizedIncrementalPOT` restored
        bit-for-bit from the published ``calibration.npz`` — thresholds,
        excess sets, observation counts and re-fit cadence intact, no
        re-calibration.  Raises :class:`KeyError` when the version was
        published without calibration.
        """
        from ..streaming.vector_pot import VectorizedIncrementalPOT

        resolved = self.get(name, version)
        return VectorizedIncrementalPOT.from_state_dict(self._read_calibration_state(resolved))

    @staticmethod
    def _read_calibration_state(resolved: ModelVersion) -> dict:
        if not resolved.has_calibration:
            raise KeyError(f"{resolved.label} was published without per-star calibration")
        with np.load(resolved.calibration_path) as archive:
            return {key: archive[key] for key in archive.files}

    def load_drift_reference(self, name: str, version: int | None = None):
        """Load a version's drift-reference sketch as a ready monitor.

        Returns a :class:`repro.obs.DriftMonitor` rebuilt from the published
        ``drift.npz`` — the calibration-time reference distributions and
        hysteresis settings intact, live sketches fresh.  Raises
        :class:`KeyError` when the version was published without one.
        """
        from ..obs.drift import DriftMonitor

        resolved = self.get(name, version)
        return DriftMonitor.from_state_dict(self._read_drift_state(resolved))

    @staticmethod
    def _read_drift_state(resolved: ModelVersion) -> dict:
        if not resolved.has_drift_reference:
            raise KeyError(f"{resolved.label} was published without a drift reference")
        with np.load(resolved.drift_path) as archive:
            return {key: archive[key] for key in archive.files}

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def publish(
        self,
        name: str,
        source: "AeroDetector | str | Path",
        metadata: dict | None = None,
        calibration=None,
        drift_reference=None,
    ) -> ModelVersion:
        """Publish a fitted detector (or an existing artifact) as a new version.

        ``source`` is either a fitted :class:`~repro.core.AeroDetector`
        (saved into the registry) or a path to an ``AeroDetector.save()``
        artifact (copied in).  ``calibration`` optionally snapshots per-star
        threshold state alongside the model: a
        :class:`repro.streaming.VectorizedIncrementalPOT`, any serving
        front-end exposing ``threshold_state()`` (a per-star
        :class:`~repro.streaming.FleetManager`), or a plain state
        dict.  ``drift_reference`` likewise snapshots the drift-monitoring
        reference sketch: a fitted :class:`repro.obs.DriftMonitor`, a
        front-end exposing ``drift_state()``, or its state dict.  Returns
        the new :class:`ModelVersion`.
        """
        name = self._check_name(name)
        metadata = dict(metadata or {})
        state = self._resolve_calibration(calibration)
        drift_state = self._resolve_drift_reference(drift_reference)
        model_dir = self.root / name
        model_dir.mkdir(parents=True, exist_ok=True)

        for _attempt in range(self._PUBLISH_RETRIES):
            # Re-reading the published versions is the whole retry story: a
            # lost race means the winner's directory is now visible, so the
            # next read already lands one past it.  (Adding the attempt
            # index on top double-advanced and left permanent gaps in the
            # version sequence.)
            version = (self.versions(name) or [0])[-1] + 1
            # Publisher-unique staging: concurrent publishers must never
            # share (or clean up) each other's in-flight directories.
            staging = Path(tempfile.mkdtemp(prefix=".staging-", dir=model_dir))
            try:
                self._write_artifact(source, staging / self.ARTIFACT)
                manifest = {
                    "format": "aero-model-version",
                    "name": name,
                    "version": version,
                    "artifact": self.ARTIFACT,
                    "metadata": metadata,
                }
                if state is not None:
                    np.savez_compressed(staging / self.CALIBRATION, **state)
                    manifest["calibration"] = self.CALIBRATION
                    manifest["calibration_stars"] = int(
                        np.asarray(state["thresholds"]).size
                    )
                if drift_state is not None:
                    np.savez_compressed(staging / self.DRIFT, **drift_state)
                    manifest["drift_reference"] = self.DRIFT
                    manifest["drift_stars"] = int(
                        np.asarray(drift_state["ref_probs"]).shape[0]
                    )
                (staging / self.MANIFEST).write_text(json.dumps(manifest, indent=2))
            except Exception:
                shutil.rmtree(staging, ignore_errors=True)
                raise
            try:
                staging.rename(model_dir / f"v{version:04d}")
            except OSError:
                # Lost a publish race for this version number: clean the
                # staging directory and try the next slot.
                shutil.rmtree(staging, ignore_errors=True)
                continue
            published = self.get(name, version)
            get_registry().counter(
                "registry_publishes_total", "Model versions published into registries"
            ).inc()
            logger.info("[registry] published %s -> %s", published.label, published.path)
            return published
        raise RuntimeError(
            f"could not publish {name!r}: lost {self._PUBLISH_RETRIES} version races in a row"
        )

    @staticmethod
    def _resolve_calibration(calibration) -> dict | None:
        """Normalise a publishable calibration into a state dict of arrays."""
        if calibration is None:
            return None
        if isinstance(calibration, dict):
            state = calibration
        elif hasattr(calibration, "state_dict"):
            state = calibration.state_dict()
        elif hasattr(calibration, "threshold_state"):
            state = calibration.threshold_state()
            if state is None:
                raise ValueError(
                    "the serving front-end has no per-star threshold state to publish "
                    "(adaptive per-star thresholds are not enabled on it)"
                )
        else:
            raise TypeError(
                "calibration must be a VectorizedIncrementalPOT, a front-end with "
                f"threshold_state(), or a state dict — got {type(calibration).__name__}"
            )
        if "thresholds" not in state:
            raise ValueError("calibration state is missing its 'thresholds' array")
        return state

    @staticmethod
    def _resolve_drift_reference(drift_reference) -> dict | None:
        """Normalise a publishable drift reference into a state dict of arrays."""
        if drift_reference is None:
            return None
        if isinstance(drift_reference, dict):
            state = drift_reference
        elif hasattr(drift_reference, "state_dict"):
            state = drift_reference.state_dict()
        elif hasattr(drift_reference, "drift_state"):
            state = drift_reference.drift_state()
            if state is None:
                raise ValueError(
                    "the serving front-end has no drift monitor attached, "
                    "so there is no reference sketch to publish"
                )
        else:
            raise TypeError(
                "drift_reference must be a fitted DriftMonitor, a front-end with "
                f"drift_state(), or a state dict — got {type(drift_reference).__name__}"
            )
        if "ref_probs" not in state:
            raise ValueError("drift reference state is missing its 'ref_probs' array")
        return state

    def _write_artifact(self, source, destination: Path) -> None:
        if isinstance(source, (str, Path)):
            source = Path(source)
            if not source.exists():
                raise FileNotFoundError(f"no detector artifact at {source}")
            shutil.copyfile(source, destination)
            return
        save = getattr(source, "save", None)
        if save is None:
            raise TypeError(
                "source must be a fitted AeroDetector or a path to a saved artifact, "
                f"got {type(source).__name__}"
            )
        save(destination)

    # ------------------------------------------------------------------
    # serving integration
    # ------------------------------------------------------------------
    def deploy(
        self,
        name: str,
        target,
        version: int | None = None,
        dtype=None,
        restore_calibration: bool = True,
        restore_drift: bool = True,
        threshold: float | None = None,
    ):
        """Hot-swap a published version into a running serving front-end.

        ``target`` is anything exposing ``swap_model(model, threshold=...)``
        — a :class:`~repro.streaming.FleetManager`.  With ``dtype`` given,
        the version is compiled at that precision; otherwise the target
        keeps its current backend kind and precision.

        When the version was published with per-star calibration and the
        target is *already* serving adaptive per-star thresholds
        (``restore_calibration`` left on), the published threshold state is
        restored after the swap: the target serves the published per-star
        thresholds — excess sets, observation counts and re-fit cadence
        intact — instead of re-calibrating from the new model's train
        scores.  A target deliberately running the frozen global threshold
        is left alone (enable per-star mode, or call
        ``load_threshold_state`` yourself, to opt in).  Likewise, when the
        version carries a drift-reference sketch and the target already
        monitors drift (``restore_drift`` left on), the published reference
        replaces the target's after the swap — the new model is watched
        against its own calibration snapshot, not the old model's.  A
        target without a drift monitor is left alone (attach one, or call
        ``load_drift_state`` yourself, to opt in).

        The **global serving threshold** across the swap: an explicit
        ``threshold=`` wins; otherwise a global-mode target picks up the
        version's published ``metadata["threshold"]`` when one exists.
        With neither, ``swap_model`` resets the target to the new model's
        train-score calibration *by design* — and if that silently discards
        a serving-side override (the target's current threshold differs
        from the live model's own calibration), ``deploy`` emits a
        :class:`RuntimeWarning` instead of letting the fleet revert without
        a trace.

        Star-count mismatches and corrupt sidecars are rejected *before*
        the swap; a sidecar restore that fails *after* the swap rolls the
        previous model (and its threshold) back in, so the target always
        serves a consistent model+calibration pair — old or new, never
        mixed.  Returns the deployed :class:`ModelVersion`.
        """
        resolved = self.get(name, version)
        target_stars = self._target_star_count(target)
        state = None
        if (
            restore_calibration
            and resolved.has_calibration
            and hasattr(target, "load_threshold_state")
            and getattr(target, "threshold_state", lambda: None)() is not None
        ):
            state = self._read_calibration_state(resolved)
            published_stars = int(np.asarray(state["thresholds"]).size)
            if target_stars is not None and published_stars != target_stars:
                raise ValueError(
                    f"{resolved.label} calibration covers {published_stars} stars but the "
                    f"target serves {target_stars}; aborting before the model swap"
                )
            # Parse eagerly: a corrupt sidecar must fail here, not after the
            # target is already serving the new model.
            from ..streaming.vector_pot import VectorizedIncrementalPOT

            VectorizedIncrementalPOT.from_state_dict(state)
        drift_state = None
        if (
            restore_drift
            and resolved.has_drift_reference
            and hasattr(target, "load_drift_state")
            and getattr(target, "drift_state", lambda: None)() is not None
        ):
            drift_state = self._read_drift_state(resolved)
            published_stars = int(np.asarray(drift_state["ref_probs"]).shape[0])
            if target_stars is not None and published_stars != target_stars:
                raise ValueError(
                    f"{resolved.label} drift reference covers {published_stars} stars but "
                    f"the target serves {target_stars}; aborting before the model swap"
                )
            from ..obs.drift import DriftMonitor

            DriftMonitor.from_state_dict(drift_state)
        swap_threshold = self._resolve_deploy_threshold(resolved, target, threshold)
        prior_detector = getattr(target, "detector", None)
        prior_threshold = getattr(target, "threshold", None)
        prior_version = getattr(target, "model_version", None)
        if dtype is not None:
            model = self.load_compiled(name, resolved.version, dtype=dtype)
        else:
            model = self.load_detector(name, resolved.version)
        target.swap_model(model, threshold=swap_threshold)
        try:
            if state is not None:
                target.load_threshold_state(state)
                logger.info("[registry] restored per-star thresholds from %s", resolved.label)
            if drift_state is not None:
                target.load_drift_state(drift_state)
                logger.info("[registry] restored drift reference from %s", resolved.label)
        except Exception:
            # Never leave the target serving the new model against the old
            # calibration (or half of each): swap the previous model back so
            # the pair stays consistent, then surface the failure.
            if prior_detector is not None:
                target.swap_model(prior_detector, threshold=prior_threshold)
                if hasattr(target, "model_version"):
                    target.model_version = prior_version
                logger.error(
                    "[registry] deploy of %s aborted: sidecar restore failed after the "
                    "swap; previous model swapped back",
                    resolved.label,
                )
            raise
        # Stamp the serving version for health snapshots — swap_model itself
        # cleared it, since a raw-source swap has no registry identity.
        if hasattr(target, "model_version"):
            target.model_version = resolved.label
        get_registry().counter(
            "registry_deploys_total", "Model versions hot-deployed into serving front-ends"
        ).inc()
        logger.info("[registry] deployed %s into %s", resolved.label, type(target).__name__)
        return resolved

    @staticmethod
    def _target_star_count(target) -> int | None:
        """How many stars the serving target covers, ``None`` when unknown.

        ``num_stars`` wins over ``num_variates``; both are tested with
        ``is not None`` so a malformed target reporting zero stars is a
        loud mismatch against any published sidecar, not silently treated
        as "no star count available".
        """
        stars = getattr(target, "num_stars", None)
        if stars is None:
            stars = getattr(target, "num_variates", None)
        return None if stars is None else int(stars)

    @staticmethod
    def _resolve_deploy_threshold(resolved: ModelVersion, target, threshold) -> float | None:
        """The global threshold the swap should install, or ``None``.

        Precedence: explicit ``threshold=`` argument, then the version's
        published ``metadata["threshold"]`` (global-mode targets only).
        When neither exists but the target is running a serving-side
        override — its current global threshold differs from the live
        model's own train calibration — warn that the swap is about to
        reset it, so the silent-revert failure mode of PR 5's by-design
        ``swap_model`` reset is at least visible.
        """
        if threshold is not None:
            return float(threshold)
        if getattr(target, "threshold_mode", "global") != "global":
            return None
        published = resolved.metadata.get("threshold")
        if published is not None:
            return float(published)
        current = getattr(target, "threshold", None)
        detector = getattr(target, "detector", None)
        calibrated = getattr(detector, "threshold", None)
        if current is None or not callable(calibrated):
            return None
        try:
            train_threshold = float(calibrated())
        except Exception:
            return None
        if float(current) != train_threshold:
            message = (
                f"deploying {resolved.label} resets the target's serving threshold "
                f"override ({float(current):.6g}) to the new model's train calibration; "
                "pass deploy(..., threshold=...) or publish the version with "
                'metadata={"threshold": ...} to carry one across the swap'
            )
            warnings.warn(message, RuntimeWarning, stacklevel=3)
            logger.warning("[registry] %s", message)
        return None

    # ------------------------------------------------------------------
    @staticmethod
    def _check_name(name: str) -> str:
        if not _NAME_PATTERN.match(name or ""):
            raise ValueError(
                f"invalid model name {name!r}: use letters, digits, '.', '_' or '-' "
                "(must not start with a separator)"
            )
        return name
