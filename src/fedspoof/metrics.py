"""Detection metrics: ROC curves and trapezoidal AUC.

Thresholds sweep the unique score values from high to low with ties grouped,
so the trapezoidal area equals the pairwise rank statistic with ties counted
one half.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class SingleClassError(ValueError):
    """Raised when a score set contains only one truth class."""


@dataclass
class RocCurve:
    """Ordered (false-positive rate, true-positive rate) points.

    Point i is reached by classifying scores >= thresholds[i] as positive;
    the first threshold is +inf so the curve starts at (0, 0) and ends at
    (1, 1).
    """

    fpr: np.ndarray
    tpr: np.ndarray
    thresholds: np.ndarray


def roc(scores: np.ndarray, truth: np.ndarray) -> RocCurve:
    """ROC curve of scores against boolean truth (True = positive class)."""
    scores = np.asarray(scores, dtype=np.float64)
    truth = np.asarray(truth, dtype=bool)
    if scores.shape != truth.shape or scores.ndim != 1:
        raise ValueError("scores and truth must be equal-length 1-D arrays")
    if not np.isfinite(scores).all():
        # np.diff of NaN is non-zero: each NaN would become its own threshold
        raise ValueError("scores must be finite")
    n_pos = int(truth.sum())
    n_neg = truth.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise SingleClassError("single-class truth: an ROC needs both classes present")

    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    t = truth[order]
    # last index of each tie group
    distinct = np.nonzero(np.diff(s))[0]
    idx = np.concatenate([distinct, [s.size - 1]])
    tps = np.cumsum(t)[idx]
    fps = idx + 1 - tps
    fpr = np.concatenate([[0.0], fps / n_neg])
    tpr = np.concatenate([[0.0], tps / n_pos])
    thresholds = np.concatenate([[np.inf], s[idx]])
    return RocCurve(fpr=fpr, tpr=tpr, thresholds=thresholds)


def auc(curve: RocCurve) -> float:
    """Trapezoidal area under the ROC curve."""
    return float(np.trapezoid(curve.tpr, curve.fpr))


def auc_from_scores(scores: np.ndarray, truth: np.ndarray) -> float:
    return auc(roc(scores, truth))


def write_roc_csv(curve: RocCurve, path: str) -> None:
    """Emit (threshold, R_FP, R_TP) rows for plotting."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("threshold,r_fp,r_tp\n")
        for thr, fp, tp in zip(curve.thresholds, curve.fpr, curve.tpr):
            fh.write(f"{thr:.10g},{fp:.10g},{tp:.10g}\n")

