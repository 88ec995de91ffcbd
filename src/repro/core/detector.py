"""High-level AERO anomaly detector (Algorithm 2: online detection).

:class:`AeroDetector` is the public entry point of the library.  It wraps

* min-max normalisation of the magnitudes (the temporal module's decoder ends
  with a sigmoid, so reconstructions live in [0, 1]);
* the two-stage offline training of :class:`~repro.core.trainer.AeroTrainer`;
* online scoring with a stride-1 sliding window: the anomaly score of star
  ``n`` at time ``t`` is ``| y - y_hat_1 - y_hat_2 |`` at the last timestamp
  of the window ending at ``t`` (Eq. 17), computed on the tape-free plans
  of :mod:`repro.runtime` (the autograd forward serves training only);
* automatic thresholding with POT and point-wise labels (Eq. 18).

Typical usage::

    detector = AeroDetector(AeroConfig.fast())
    detector.fit(dataset.train)
    scores = detector.score(dataset.test)
    labels = detector.detect(dataset.test)
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from ..data.preprocessing import MinMaxScaler
from ..data.windows import WindowDataset, sliding_windows
from ..evaluation import DetectionOutcome, evaluate_scores, pot_threshold
from ..nn.serialization import load_arrays, save_arrays
from .config import AeroConfig
from .model import AeroModel
from .trainer import AeroTrainer, TrainingHistory

__all__ = ["AeroDetector", "DetectionReport", "sliding_window_scores"]


def sliding_window_scores(
    score_windows,
    config: AeroConfig,
    scaled: np.ndarray,
    timestamps: np.ndarray | None,
    context: np.ndarray | None,
    context_times: np.ndarray | None,
    score_dtype=np.float64,
) -> np.ndarray:
    """Stride-1 scoring driver shared by every batch scorer (Algorithm 2).

    Owns the full batch-scoring contract in one place — context stitching,
    timestamp alignment, window staging, score placement by window end
    index, and the conservative early-point backfill — so
    :meth:`AeroDetector.score`, :meth:`repro.runtime.CompiledDetector.score`
    and the autograd test oracle cannot drift apart.

    Parameters
    ----------
    score_windows:
        Callable ``(windows, long_times, short_times) -> (count, N)``
        scoring every stride-1 window of the series, in order.
        ``windows(start, stop)`` stages windows ``[start, stop)`` as
        ``(batch, N, W)`` long and ``(batch, N, omega)`` short arrays (fresh,
        time-major in memory); ``long_times``/``short_times`` are the ``(count, W)`` and
        ``(count, omega)`` window timestamps (read-only views).
        :func:`repro.runtime.lanes.score_batch` is the compiled one.
    scaled:
        Already-normalized series of shape ``(T, N)``.
    context / context_times:
        Optional rows (and their timestamps) prepended before windowing so
        the first points have full windows; scores are reported only for
        the ``scaled`` rows.
    """
    num_points, num_variates = scaled.shape
    context_length = 0
    if context is not None and len(context):
        scaled = np.concatenate([context, scaled], axis=0)
        context_length = len(context)
        if (
            timestamps is not None
            and context_times is not None
            and len(context_times) == context_length
        ):
            timestamps = np.concatenate([context_times, np.asarray(timestamps, dtype=np.float64)])
        else:
            timestamps = None

    scores = np.zeros((num_points, num_variates), dtype=score_dtype)
    window, short = config.window, config.short_window
    if scaled.shape[0] < window:
        return scores
    scaled = np.asarray(scaled, dtype=np.float64)
    if timestamps is None:
        timestamps = np.arange(scaled.shape[0], dtype=np.float64)
    else:
        timestamps = np.asarray(timestamps, dtype=np.float64)
        if len(timestamps) != scaled.shape[0]:
            raise ValueError("timestamps length must match the series")
    # Zero-copy strided views: window k covers rows [k, k + W).
    row_view = sliding_windows(scaled, window, copy=False)
    time_view = sliding_windows(timestamps, window, copy=False)

    def windows(start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        # Staged time-major, as a ring buffer holds them: the kernels' bits
        # may depend on the operands' memory layout.
        rows = row_view[start:stop]
        return (
            np.ascontiguousarray(rows).transpose(0, 2, 1),
            np.ascontiguousarray(rows[:, window - short :]).transpose(0, 2, 1),
        )

    window_scores = score_windows(windows, time_view, time_view[:, window - short :])
    # Window k ends at row k + W - 1: its score belongs to that point.
    positions = np.arange(window - 1, scaled.shape[0]) - context_length
    covered = positions >= 0
    scores[positions[covered]] = window_scores[covered]
    # Early points that no window reaches inherit the first computed score,
    # so every timestamp has a well-defined (if conservative) score.
    if covered.any():
        first = int(positions[covered][0])
        scores[:first] = scores[first]
    return scores


@dataclass
class DetectionReport:
    """Bundle returned by :meth:`AeroDetector.evaluate`."""

    outcome: DetectionOutcome
    train_scores: np.ndarray
    test_scores: np.ndarray
    history: TrainingHistory


class AeroDetector:
    """Unsupervised anomaly detector for astronomical multivariate time series."""

    def __init__(
        self,
        config: AeroConfig | None = None,
        use_temporal: bool = True,
        use_noise_module: bool = True,
        multivariate_input: bool = False,
        use_short_window: bool = True,
        graph_mode: str = "window",
        verbose: bool = False,
    ):
        self.config = config or AeroConfig()
        self.use_temporal = use_temporal
        self.use_noise_module = use_noise_module
        self.multivariate_input = multivariate_input
        self.use_short_window = use_short_window
        self.graph_mode = graph_mode
        self.verbose = verbose

        self.model: AeroModel | None = None
        self.scaler: MinMaxScaler | None = None
        self.history: TrainingHistory | None = None
        self.train_scores_: np.ndarray | None = None
        self._train_tail: np.ndarray | None = None
        self._train_tail_times: np.ndarray | None = None
        self._compiled: dict = {}  # dtype -> cached repro.runtime.CompiledDetector

    # ------------------------------------------------------------------
    def _require_fitted(self) -> AeroModel:
        if self.model is None or self.scaler is None:
            raise RuntimeError("the detector must be fitted before scoring")
        return self.model

    def compile(self, dtype="float64"):
        """Freeze this fitted detector into a tape-free :class:`CompiledDetector`.

        The compiled artifact (see :mod:`repro.runtime`) scores with raw
        ndarray plans — bit-for-bit equal to :meth:`score` in float64 — and
        is cached per dtype; ``fit()`` invalidates the cache.  Serving fleets
        share it; :meth:`score` does not (see :meth:`_with_live_plan`).
        """
        from ..runtime import compile_detector

        self._require_fitted()
        key = np.dtype(dtype)
        compiled = self._compiled.get(key)
        if compiled is None:
            compiled = compile_detector(self, dtype=key)
            self._compiled[key] = compiled
        return compiled

    def _effective_window(self, series_length: int) -> tuple[int, int]:
        """Clamp the configured windows to the available series length."""
        window = min(self.config.window, series_length)
        short = min(self.config.short_window, window)
        if self.config.conditioning == "masked" and short >= window:
            # Masked conditioning needs context preceding the short window.
            short = max(window // 2, 1)
        return window, short

    # ------------------------------------------------------------------
    def fit(
        self,
        train: np.ndarray,
        timestamps: np.ndarray | None = None,
        *,
        validation_split: float = 0.0,
        warm_start: str | Path | None = None,
        checkpoint_path: str | Path | None = None,
        checkpoint_every: int = 1,
        resume: bool = False,
    ) -> "AeroDetector":
        """Train AERO on an unlabeled training series of shape ``(T, N)``.

        The keyword-only arguments surface the fleet-scale controls of
        :class:`repro.training.TrainingSession`: ``validation_split`` holds
        out the chronologically last fraction of training windows and early
        stops on their loss (with best-weight restore either way);
        ``warm_start`` fine-tunes from an existing :meth:`save` artifact
        instead of training from scratch; ``checkpoint_path`` writes an
        epoch-level training checkpoint every ``checkpoint_every`` epochs,
        and ``resume=True`` continues from it bit-identically after an
        interruption.
        """
        train = np.asarray(train, dtype=np.float64)
        if train.ndim != 2:
            raise ValueError("training series must be 2-D (time, variates)")
        window, short = self._effective_window(train.shape[0])
        config = self.config.scaled(window=window, short_window=short)

        self.scaler = MinMaxScaler()
        scaled = self.scaler.fit_transform(train)
        self.model = AeroModel(
            config,
            num_variates=train.shape[1],
            use_temporal=self.use_temporal,
            use_noise_module=self.use_noise_module,
            multivariate_input=self.multivariate_input,
            use_short_window=self.use_short_window,
            graph_mode=self.graph_mode,
        )
        if self.model.noise is not None:
            # Message passing operates in raw magnitude units (see the noise
            # module's ``set_node_scales`` docstring).
            ranges = np.maximum(self.scaler.data_max_ - self.scaler.data_min_, 1e-8)
            self.model.noise.set_node_scales(ranges)
        window_dataset = WindowDataset(
            scaled,
            window=config.window,
            short_window=config.short_window,
            timestamps=timestamps,
            stride=config.train_stride,
        )
        trainer = AeroTrainer(
            config,
            verbose=self.verbose,
            validation_split=validation_split,
            checkpoint_path=checkpoint_path,
            checkpoint_every=checkpoint_every,
        )
        self.history = trainer.train(
            self.model, window_dataset, resume=resume, warm_start=warm_start
        )
        self.config = config

        # Keep the tail of the training series as context so that the first
        # test points can be scored, and calibrate POT on the train scores.
        self._train_tail = scaled[-(config.window - 1):] if config.window > 1 else scaled[:0]
        if timestamps is not None:
            timestamps = np.asarray(timestamps, dtype=np.float64)
            self._train_tail_times = timestamps[-(config.window - 1):] if config.window > 1 else timestamps[:0]
        self.train_scores_ = self._score_scaled(scaled, timestamps, prepend_context=False)
        self._compiled = {}  # stale after re-training
        return self

    # ------------------------------------------------------------------
    def _with_live_plan(self, run):
        """Run ``run(plan)`` on float64 plans compiled from the live model.

        The single inference engine of the batch entry points.  The plans
        are rebuilt on every call (a fraction of a millisecond, no POT
        calibration), which keeps eager semantics: in-place edits of the
        model's weights are seen, a dynamic-graph pass starts from a fresh
        smoothed adjacency without touching the state a live stream or the
        cached :meth:`compile` engine carries, and :meth:`learned_graph`
        reports the last window scored here.
        """
        from ..runtime import compile_model

        model = self._require_fitted()
        plan = compile_model(model)
        result = run(plan)
        if model.noise is not None and plan.noise.last_adjacency is not None:
            model.noise.last_adjacency = plan.noise.last_adjacency
        return result

    def _score_scaled(
        self,
        scaled: np.ndarray,
        timestamps: np.ndarray | None,
        prepend_context: bool,
    ) -> np.ndarray:
        """Score an already-normalized series; returns ``(T, N)`` anomaly scores."""
        from ..runtime.lanes import score_batch

        return self._with_live_plan(
            lambda plan: sliding_window_scores(
                lambda windows, long_times, short_times: score_batch(
                    plan, self.config, windows, long_times, short_times, len(long_times)
                ),
                self.config,
                scaled,
                timestamps,
                self._train_tail if prepend_context else None,
                self._train_tail_times if prepend_context else None,
            )
        )

    def score_windows(
        self,
        long_windows: np.ndarray,
        short_windows: np.ndarray,
        long_times: np.ndarray | None = None,
        short_times: np.ndarray | None = None,
    ) -> np.ndarray:
        """Score a batch of already-normalised windows; returns ``(batch, N)``.

        This is the reusable single-step core of Algorithm 2: one forward
        pass over explicit ``(batch, N, W)`` long windows and ``(batch, N,
        omega)`` short windows, with no re-windowing of the full series.
        """
        return self._with_live_plan(
            lambda plan: plan.scores(long_windows, short_windows, long_times, short_times)
        )

    def window_context(self) -> tuple[np.ndarray | None, np.ndarray | None]:
        """The scaled training tail (and its timestamps) used as scoring context.

        ``score()`` prepends the last ``W - 1`` training rows so the first test
        point already has a full window; a :class:`repro.streaming.FleetManager`
        seeds its ring buffers with exactly this context for equivalence.
        """
        self._require_fitted()
        return self._train_tail, self._train_tail_times

    def stream(self, **kwargs) -> "object":
        """A single stream over this detector: a one-shard :class:`repro.streaming.FleetManager`.

        Rows go in as ``(1, N)``; ``run`` over ``(T, 1, N)`` exposures scores
        bit for bit what :meth:`score` scores on the same series.  ``kwargs``
        are the fleet's (``backend``, ``threshold_mode``, ...).
        """
        from ..streaming import FleetManager

        return FleetManager(self, num_shards=1, **kwargs)

    def score(
        self,
        series: np.ndarray,
        timestamps: np.ndarray | None = None,
    ) -> np.ndarray:
        """Anomaly scores for every point of ``series`` (shape ``(T, N)``).

        Runs on tape-free float64 plans of the live model — bit-for-bit the
        scores of the :class:`AeroModel` autograd forward.
        """
        self._require_fitted()
        series = np.asarray(series, dtype=np.float64)
        if series.ndim != 2:
            raise ValueError("series must be 2-D (time, variates)")
        scaled = self.scaler.transform(series)
        return self._score_scaled(scaled, timestamps, prepend_context=True)

    # ------------------------------------------------------------------
    def threshold(self) -> float:
        """POT threshold calibrated on the training scores (Eq. 18)."""
        if self.train_scores_ is None:
            raise RuntimeError("the detector must be fitted before thresholding")
        return pot_threshold(self.train_scores_, level=self.config.pot_level, q=self.config.pot_q)

    def detect(
        self,
        series: np.ndarray,
        timestamps: np.ndarray | None = None,
    ) -> np.ndarray:
        """Binary anomaly labels ``O_t`` for every point of ``series``."""
        scores = self.score(series, timestamps)
        return (scores >= self.threshold()).astype(np.int64)

    def evaluate(
        self,
        test: np.ndarray,
        test_labels: np.ndarray,
        timestamps: np.ndarray | None = None,
        point_adjust: bool = True,
    ) -> DetectionReport:
        """Score ``test`` and evaluate against labels with the paper's protocol."""
        if self.train_scores_ is None:
            raise RuntimeError("the detector must be fitted before evaluation")
        test_scores = self.score(test, timestamps)
        outcome = evaluate_scores(
            self.train_scores_,
            test_scores,
            test_labels,
            level=self.config.pot_level,
            q=self.config.pot_q,
            point_adjust=point_adjust,
        )
        return DetectionReport(
            outcome=outcome,
            train_scores=self.train_scores_,
            test_scores=test_scores,
            history=self.history,
        )

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    CHECKPOINT_FORMAT = "aero-detector"
    CHECKPOINT_VERSION = 1

    def save(self, path: str | Path) -> Path:
        """Persist the fitted detector into one ``.npz`` checkpoint.

        The artifact bundles everything scoring needs: the configuration and
        variant flags, every model parameter, the fitted scaler statistics,
        the training-tail context and the POT calibration (train scores and
        the derived threshold).  A detector restored with :meth:`load`
        scores identically — and compiled plans (:meth:`compile`) can be
        built straight from the restored detector without retraining.
        """
        model = self._require_fitted()
        if self.train_scores_ is None:
            raise RuntimeError("the detector must be fitted before saving")
        meta = {
            "format": self.CHECKPOINT_FORMAT,
            "version": self.CHECKPOINT_VERSION,
            "config": asdict(self.config),
            "detector": {
                "use_temporal": self.use_temporal,
                "use_noise_module": self.use_noise_module,
                "multivariate_input": self.multivariate_input,
                "use_short_window": self.use_short_window,
                "graph_mode": self.graph_mode,
            },
            "num_variates": model.num_variates,
        }
        arrays: dict[str, np.ndarray] = {
            "meta": np.array(json.dumps(meta)),
            "scaler.data_min": self.scaler.data_min_,
            "scaler.data_max": self.scaler.data_max_,
            "scaler.feature_range": np.asarray(self.scaler.feature_range, dtype=np.float64),
            "scaler.eps": np.asarray(self.scaler.eps, dtype=np.float64),
            "pot.train_scores": self.train_scores_,
            "pot.threshold": np.asarray(self.threshold(), dtype=np.float64),
            "context.train_tail": self._train_tail,
        }
        if self._train_tail_times is not None:
            arrays["context.train_tail_times"] = self._train_tail_times
        if self.history is not None:
            arrays["history.stage1"] = np.asarray(self.history.stage1_losses, dtype=np.float64)
            arrays["history.stage2"] = np.asarray(self.history.stage2_losses, dtype=np.float64)
            arrays["history.stage1_val"] = np.asarray(
                self.history.stage1_val_losses, dtype=np.float64
            )
            arrays["history.stage2_val"] = np.asarray(
                self.history.stage2_val_losses, dtype=np.float64
            )
            arrays["history.best_epochs"] = np.asarray(
                [self.history.stage1_best_epoch, self.history.stage2_best_epoch],
                dtype=np.int64,
            )
        for name, value in model.state_dict().items():
            arrays[f"model.{name}"] = value
        return save_arrays(path, arrays)

    @classmethod
    def load(cls, path: str | Path) -> "AeroDetector":
        """Restore a detector saved by :meth:`save`, ready to score.

        The restored model is in eval mode and scores bit-for-bit like the
        detector that was saved (same weights, scaler, context and POT
        threshold).  Raises :class:`FileNotFoundError` / :class:`ValueError`
        with the offending path for missing or malformed checkpoints.
        """
        path = Path(path)
        arrays = load_arrays(path)
        if "meta" not in arrays:
            raise ValueError(f"{path} is not an {cls.CHECKPOINT_FORMAT} checkpoint (no metadata)")
        try:
            meta = json.loads(str(arrays["meta"]))
        except json.JSONDecodeError as error:
            raise ValueError(f"{path} holds corrupt checkpoint metadata: {error}") from error
        if meta.get("format") != cls.CHECKPOINT_FORMAT:
            raise ValueError(
                f"{path} is a {meta.get('format')!r} checkpoint, expected {cls.CHECKPOINT_FORMAT!r}"
            )
        if meta.get("version", 0) > cls.CHECKPOINT_VERSION:
            raise ValueError(
                f"{path} was written by a newer checkpoint format "
                f"(version {meta['version']} > {cls.CHECKPOINT_VERSION})"
            )
        required = (
            "scaler.data_min", "scaler.data_max", "scaler.feature_range", "scaler.eps",
            "pot.train_scores", "context.train_tail",
        )
        missing = [key for key in required if key not in arrays]
        if missing:
            raise ValueError(f"checkpoint {path} is incomplete: missing {missing}")

        config = AeroConfig(**meta["config"])
        flags = dict(meta["detector"])
        # Checkpoints written before scoring moved onto the compiled plans
        # also record the serving backend they defaulted to; it is moot now.
        flags.pop("backend", None)
        detector = cls(config=config, **flags)
        detector.scaler = MinMaxScaler(
            feature_range=tuple(arrays["scaler.feature_range"].tolist()),
            eps=float(arrays["scaler.eps"]),
        )
        detector.scaler.data_min_ = np.asarray(arrays["scaler.data_min"], dtype=np.float64)
        detector.scaler.data_max_ = np.asarray(arrays["scaler.data_max"], dtype=np.float64)

        detector.model = AeroModel(
            config,
            num_variates=int(meta["num_variates"]),
            use_temporal=detector.use_temporal,
            use_noise_module=detector.use_noise_module,
            multivariate_input=detector.multivariate_input,
            use_short_window=detector.use_short_window,
            graph_mode=detector.graph_mode,
        )
        if detector.model.noise is not None:
            # Same node scales as fit(): per-variate data ranges of the scaler.
            ranges = np.maximum(
                detector.scaler.data_max_ - detector.scaler.data_min_, 1e-8
            )
            detector.model.noise.set_node_scales(ranges)
        state = {
            name[len("model."):]: value
            for name, value in arrays.items()
            if name.startswith("model.")
        }
        try:
            detector.model.load_state_dict(state)
        except (KeyError, ValueError) as error:
            raise type(error)(
                f"checkpoint {path} does not match the detector architecture: {error}"
            ) from error
        detector.model.eval()

        detector.train_scores_ = np.asarray(arrays["pot.train_scores"], dtype=np.float64)
        if "pot.threshold" in arrays:
            # Integrity check: the stored threshold must reproduce from the
            # stored train scores, else the calibration data is corrupt (or
            # the POT configuration diverged between save and load).
            stored = float(arrays["pot.threshold"])
            recomputed = detector.threshold()
            if not np.isclose(recomputed, stored, rtol=1e-6, atol=1e-12):
                raise ValueError(
                    f"checkpoint {path} POT threshold mismatch: stored {stored:.6g}, "
                    f"recomputed {recomputed:.6g} — calibration data is corrupt"
                )
        detector._train_tail = np.asarray(arrays["context.train_tail"], dtype=np.float64)
        if "context.train_tail_times" in arrays:
            detector._train_tail_times = np.asarray(
                arrays["context.train_tail_times"], dtype=np.float64
            )
        if "history.stage1" in arrays:
            best = arrays.get("history.best_epochs", np.zeros(2, dtype=np.int64))
            detector.history = TrainingHistory(
                stage1_losses=arrays["history.stage1"].tolist(),
                stage2_losses=arrays["history.stage2"].tolist(),
                stage1_val_losses=arrays.get(
                    "history.stage1_val", np.empty(0)
                ).tolist(),
                stage2_val_losses=arrays.get(
                    "history.stage2_val", np.empty(0)
                ).tolist(),
                stage1_best_epoch=int(best[0]),
                stage2_best_epoch=int(best[1]),
            )
        return detector

    # ------------------------------------------------------------------
    def learned_graph(self) -> np.ndarray | None:
        """The adjacency of the last window scored (or trained on), for Fig. 8 analysis."""
        model = self._require_fitted()
        if model.noise is None:
            return None
        return model.noise.last_adjacency
