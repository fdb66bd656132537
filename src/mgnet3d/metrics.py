"""Binary classification metrics: confusion counts, accuracy, sensitivity,
specificity, and ROC AUC.

Class 1 is the positive class throughout. AUC is the rank statistic
(probability that a random positive outscores a random negative, ties
counted half), computed from mid-ranks and contractually equal to the
all-pairs count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError

__all__ = ["EvalMetrics", "confusion", "roc_auc", "compute_metrics"]


@dataclass(frozen=True, kw_only=True)
class EvalMetrics:
    """Held-out metrics, with the fields in the order reports print them."""

    accuracy: float
    auc: float
    sensitivity: float
    specificity: float
    tp: int
    tn: int
    fp: int
    fn: int


def _as_binary(values, what: str) -> np.ndarray:
    arr = np.asarray(list(values))
    if arr.ndim != 1 or arr.size == 0:
        raise ArgumentError(f"{what} must be a non-empty 1-D sequence")
    if not np.isin(arr, (0, 1)).all():
        raise ArgumentError(f"{what} must contain only 0 and 1")
    return arr.astype(int)


def confusion(labels, predictions) -> tuple[int, int, int, int]:
    """(tp, tn, fp, fn) counts; the four always sum to the list length."""
    y = _as_binary(labels, "labels")
    p = _as_binary(predictions, "predictions")
    if y.size != p.size:
        raise ArgumentError(f"got {y.size} labels but {p.size} predictions")
    tp = int(((y == 1) & (p == 1)).sum())
    tn = int(((y == 0) & (p == 0)).sum())
    fp = int(((y == 0) & (p == 1)).sum())
    fn = int(((y == 1) & (p == 0)).sum())
    return tp, tn, fp, fn


def roc_auc(labels, scores) -> float:
    """Area under the ROC curve via mid-ranks.

    Equals (pairs with score_pos > score_neg + 0.5 * tied pairs) divided
    by n_pos * n_neg. Requires both classes present.
    """
    y = _as_binary(labels, "labels")
    s = np.asarray(list(scores), dtype=np.float64)
    if s.ndim != 1 or s.size != y.size:
        raise ArgumentError(f"got {y.size} labels but {s.size} scores")
    if np.isnan(s).any():
        raise ArgumentError("roc_auc got a NaN score")
    n_pos = int((y == 1).sum())
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ArgumentError("roc_auc needs both classes present")
    # The mid-rank of a run of tied scores at 1-based positions i+1..j is
    # (i + 1 + j) / 2, which is j - (count - 1) / 2 with j the running count.
    _, run, counts = np.unique(s, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - 0.5 * (counts - 1))[run]
    rank_sum_pos = float(ranks[y == 1].sum())
    return (rank_sum_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def compute_metrics(labels, predictions, scores) -> EvalMetrics:
    """Assemble the full metric set from per-sample outputs.

    Degenerate denominators (a missing class) are an error rather than a
    silent zero, so cross-validation averages stay honest.
    """
    tp, tn, fp, fn = confusion(labels, predictions)
    if tp + fn == 0 or tn + fp == 0:
        raise ArgumentError("metrics need at least one sample of each class")
    total = tp + tn + fp + fn
    return EvalMetrics(
        tp=tp,
        tn=tn,
        fp=fp,
        fn=fn,
        accuracy=(tp + tn) / total,
        sensitivity=tp / (tp + fn),
        specificity=tn / (tn + fp),
        auc=roc_auc(labels, scores),
    )
