"""Unit tests for metrics, point-adjust, POT and the evaluation protocol."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.evaluation import (
    adjust_predictions,
    anomaly_segments,
    best_f1_evaluation,
    confusion_counts,
    evaluate_scores,
    fit_gpd,
    pot_threshold,
    precision_recall_f1,
    threshold_scores,
)


class TestMetrics:
    def test_perfect_prediction(self):
        labels = np.array([0, 1, 1, 0])
        result = precision_recall_f1(labels, labels)
        assert result.precision == 1.0
        assert result.recall == 1.0
        assert result.f1 == 1.0

    def test_all_wrong(self):
        result = precision_recall_f1(np.array([1, 0]), np.array([0, 1]))
        assert result.f1 == 0.0

    def test_known_counts(self):
        predictions = np.array([1, 1, 0, 0, 1])
        labels = np.array([1, 0, 0, 1, 1])
        counts = confusion_counts(predictions, labels)
        assert counts.true_positives == 2
        assert counts.false_positives == 1
        assert counts.false_negatives == 1
        assert counts.true_negatives == 1
        assert counts.precision == pytest.approx(2 / 3)
        assert counts.recall == pytest.approx(2 / 3)

    def test_no_positive_predictions(self):
        counts = confusion_counts(np.zeros(5), np.array([1, 0, 0, 0, 1]))
        assert counts.precision == 0.0
        assert counts.recall == 0.0
        assert counts.f1 == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            confusion_counts(np.zeros(3), np.zeros(4))

    def test_percentages(self):
        result = precision_recall_f1(np.array([1, 0]), np.array([1, 0]))
        assert result.as_percentages()["f1"] == 100.0

    def test_2d_inputs(self):
        predictions = np.zeros((4, 2))
        labels = np.zeros((4, 2))
        predictions[0, 0] = labels[0, 0] = 1
        assert precision_recall_f1(predictions, labels).f1 == 1.0


class TestPointAdjust:
    def test_segments_detection(self):
        assert anomaly_segments(np.array([0, 1, 1, 0, 1])) == [(1, 3), (4, 5)]
        assert anomaly_segments(np.zeros(4)) == []
        assert anomaly_segments(np.ones(3)) == [(0, 3)]

    def test_adjustment_expands_partial_hits(self):
        labels = np.array([0, 1, 1, 1, 0])
        predictions = np.array([0, 0, 1, 0, 0])
        adjusted = adjust_predictions(predictions, labels)
        np.testing.assert_array_equal(adjusted, [0, 1, 1, 1, 0])

    def test_adjustment_keeps_missed_segments(self):
        labels = np.array([0, 1, 1, 0, 1, 1])
        predictions = np.array([0, 0, 0, 0, 1, 0])
        adjusted = adjust_predictions(predictions, labels)
        np.testing.assert_array_equal(adjusted, [0, 0, 0, 0, 1, 1])

    def test_adjustment_preserves_false_positives(self):
        labels = np.zeros(5)
        predictions = np.array([0, 1, 0, 0, 0])
        np.testing.assert_array_equal(adjust_predictions(predictions, labels), predictions.astype(bool))

    def test_adjustment_per_variate(self):
        labels = np.zeros((5, 2), dtype=int)
        labels[1:4, 0] = 1
        predictions = np.zeros((5, 2), dtype=int)
        predictions[2, 0] = 1
        predictions[2, 1] = 1
        adjusted = adjust_predictions(predictions, labels)
        assert adjusted[:, 0].sum() == 3
        assert adjusted[:, 1].sum() == 1

    def test_shape_checks(self):
        with pytest.raises(ValueError):
            adjust_predictions(np.zeros(3), np.zeros(4))
        with pytest.raises(ValueError):
            adjust_predictions(np.zeros((2, 2, 2)), np.zeros((2, 2, 2)))


class TestGPDAndPOT:
    def test_fit_gpd_exponential_data(self):
        rng = np.random.default_rng(0)
        fit = fit_gpd(rng.exponential(2.0, size=2000))
        assert abs(fit.shape) < 0.5
        assert 1.0 < fit.scale < 4.0

    def test_fit_gpd_requires_positive_excesses(self):
        with pytest.raises(ValueError):
            fit_gpd(np.array([-1.0, 0.0]))

    def test_fit_gpd_degenerate(self):
        fit = fit_gpd(np.array([1.0, 1.0]))
        assert fit.shape == 0.0

    def test_pot_threshold_above_initial_quantile(self):
        rng = np.random.default_rng(1)
        scores = rng.exponential(1.0, size=5000)
        threshold = pot_threshold(scores, level=0.98, q=1e-3)
        assert threshold >= np.quantile(scores, 0.98)

    def test_pot_threshold_detects_extremes(self):
        rng = np.random.default_rng(2)
        scores = rng.normal(0, 1, size=5000)
        threshold = pot_threshold(np.abs(scores), level=0.99, q=1e-3)
        assert threshold > 2.5
        assert threshold < 10.0

    def test_pot_threshold_validation(self):
        with pytest.raises(ValueError):
            pot_threshold(np.array([]))
        with pytest.raises(ValueError):
            pot_threshold(np.ones(10), level=1.5)
        with pytest.raises(ValueError):
            pot_threshold(np.ones(10), q=0.0)

    def test_pot_threshold_small_sample_fallback(self):
        scores = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        assert np.isfinite(pot_threshold(scores))


class TestEvaluationProtocol:
    def _scores_with_anomaly(self):
        rng = np.random.default_rng(5)
        train = np.abs(rng.normal(0, 1, size=(800, 3)))
        test = np.abs(rng.normal(0, 1, size=(400, 3)))
        labels = np.zeros((400, 3), dtype=int)
        labels[100:110, 1] = 1
        test[100:110, 1] += 15.0
        return train, test, labels

    def test_evaluate_scores_finds_planted_anomaly(self):
        train, test, labels = self._scores_with_anomaly()
        outcome = evaluate_scores(train, test, labels)
        assert outcome.result.recall == 1.0
        assert outcome.result.precision > 0.5
        assert outcome.adjusted_predictions.shape == labels.shape

    def test_point_adjust_improves_or_preserves_recall(self):
        train, test, labels = self._scores_with_anomaly()
        adjusted = evaluate_scores(train, test, labels, point_adjust=True).result
        raw = evaluate_scores(train, test, labels, point_adjust=False).result
        assert adjusted.recall >= raw.recall

    def test_per_variate_thresholds(self):
        train, test, labels = self._scores_with_anomaly()
        predictions, thresholds = threshold_scores(train, test, per_variate=True)
        assert predictions.shape == test.shape
        assert len(thresholds) == 3

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            evaluate_scores(np.ones(10), np.ones(10), np.zeros(5))

    def test_best_f1_evaluation(self):
        train, test, labels = self._scores_with_anomaly()
        result, threshold = best_f1_evaluation(test, labels)
        assert result.f1 > 0.9
        assert np.isfinite(threshold)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=1), min_size=5, max_size=60))
def test_point_adjust_properties(labels_list):
    """Point adjustment never removes predictions and fully covers hit segments."""
    labels = np.array(labels_list)
    rng = np.random.default_rng(0)
    predictions = (rng.random(len(labels)) < 0.3).astype(int)
    adjusted = adjust_predictions(predictions, labels)
    # Monotone: every original positive prediction survives.
    assert (adjusted.astype(int) >= predictions).all()
    # Each ground-truth segment is either fully covered or untouched.
    for start, end in anomaly_segments(labels):
        segment = adjusted[start:end]
        assert segment.all() or not segment.any()


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_pot_threshold_monotone_in_q(seed):
    """Smaller target probability q can only raise the POT threshold."""
    rng = np.random.default_rng(seed)
    scores = np.abs(rng.normal(size=3000))
    loose = pot_threshold(scores, level=0.98, q=1e-2)
    strict = pot_threshold(scores, level=0.98, q=1e-4)
    assert strict >= loose - 1e-9
