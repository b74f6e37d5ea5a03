"""Binary presence metrics (precision, recall, F1) per degradation over an
evaluator's predictions, as acceptance criterion 8 and ``test_perception``
compute them.  No command prints these, so they live beside their tests."""

from __future__ import annotations

from dataclasses import dataclass


class EmptyInput(ValueError):
    """Raised when metrics are requested over an empty prediction list."""


@dataclass(frozen=True)
class MetricRow:
    precision: float
    recall: float
    f1: float
    no_predicted_positives: bool = False


def classification_metrics(predictions) -> dict:
    """Binary presence metrics per degradation.

    ``predictions`` is an iterable of (degradation, predicted_present,
    truly_present).  Every reported degradation needs at least one positive
    ground-truth instance.
    """
    predictions = list(predictions)
    if not predictions:
        raise EmptyInput("no predictions given")
    counts = {}  # degradation -> [tp, fp, fn]
    for degradation, predicted, truth in predictions:
        tp, fp, fn = counts.setdefault(degradation, [0, 0, 0])
        if predicted and truth:
            tp += 1
        elif predicted and not truth:
            fp += 1
        elif truth:
            fn += 1
        counts[degradation] = [tp, fp, fn]
    result = {}
    for degradation, (tp, fp, fn) in counts.items():
        if tp + fn == 0:
            raise ValueError(f"no positive ground truth for {degradation}")
        flagged = tp + fp == 0
        precision = 0.0 if flagged else tp / (tp + fp)
        recall = tp / (tp + fn)
        f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
        result[degradation] = MetricRow(precision, recall, f1, flagged)
    return result
