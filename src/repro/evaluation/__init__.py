"""Evaluation protocol: metrics, point-adjust strategy and POT thresholding."""

from .metrics import ConfusionCounts, EvaluationResult, confusion_counts, precision_recall_f1
from .point_adjust import adjust_predictions, anomaly_segments
from .pot import GPDFit, fit_gpd, gpd_tail_threshold, gpd_tail_thresholds, pot_threshold
from .evaluator import DetectionOutcome, evaluate_scores, threshold_scores, best_f1_evaluation

__all__ = [
    "ConfusionCounts",
    "EvaluationResult",
    "confusion_counts",
    "precision_recall_f1",
    "adjust_predictions",
    "anomaly_segments",
    "GPDFit",
    "fit_gpd",
    "gpd_tail_threshold",
    "gpd_tail_thresholds",
    "pot_threshold",
    "DetectionOutcome",
    "evaluate_scores",
    "threshold_scores",
    "best_f1_evaluation",
]
