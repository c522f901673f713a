"""Classification metrics computed over an explicit evaluation subset."""

from __future__ import annotations

import numpy as np

from .graph import check_int, node_index


def _eval_pairs(predictions, labels, eval_set) -> tuple[np.ndarray, np.ndarray]:
    """(predicted, true) classes of the eval-set nodes; ``predictions`` must
    hold one class per node of ``labels``."""
    predictions, labels = np.asarray(predictions), np.asarray(labels)
    if predictions.shape[0] != labels.shape[0]:
        raise ValueError(
            f"predictions hold {predictions.shape[0]} nodes, labels {labels.shape[0]}"
        )
    idx = node_index(eval_set, labels.shape[0], "eval")
    return predictions[idx], labels[idx]


def accuracy(predictions: np.ndarray, labels: np.ndarray, eval_set) -> float:
    """Fraction of eval-set nodes whose predicted class matches the label."""
    preds, truth = _eval_pairs(predictions, labels, eval_set)
    return float(np.mean(preds == truth))


def macro_f1(
    predictions: np.ndarray, labels: np.ndarray, eval_set, num_classes: int
) -> float:
    """Unweighted mean of one-vs-rest F1 over all ``num_classes`` classes.

    Precision (recall) is 0 when its denominator is 0, and F1 is 0 when
    precision + recall is 0, so classes absent from the eval set contribute
    a zero term.
    """
    check_int(num_classes, "num_classes", 1)
    preds, truth = _eval_pairs(predictions, labels, eval_set)
    f1_sum = 0.0
    for c in range(num_classes):
        tp = np.sum((preds == c) & (truth == c))
        fp = np.sum((preds == c) & (truth != c))
        fn = np.sum((preds != c) & (truth == c))
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        if precision + recall > 0:
            f1_sum += 2.0 * precision * recall / (precision + recall)
    return float(f1_sum / num_classes)
