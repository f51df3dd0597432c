"""Detection metrics: ROC curves, trapezoidal AUC and the output tables' writer.

Thresholds sweep the unique score values from high to low with ties grouped,
so the trapezoidal area equals the pairwise rank statistic with ties counted
one half.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np


class SingleClassError(ValueError):
    """Raised when a score set contains only one truth class."""


SINGLE_CLASS = "single-class truth: an ROC needs both classes present"


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
        raise SingleClassError(SINGLE_CLASS)

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


def score_row(scores: np.ndarray, truth: np.ndarray, path: str) -> tuple[float, int, int]:
    """(AUC, n_pos, n_neg) of scores against boolean truth, with the ROC written to
    `path`; a single-class truth gives NaN and writes nothing."""
    n_pos = int(truth.sum())
    n_neg = truth.size - n_pos
    if not (n_pos and n_neg):
        return math.nan, n_pos, n_neg
    curve = roc(scores, truth)
    write_roc_csv(curve, path)
    return auc(curve), n_pos, n_neg


def write_csv(path: str, header: Iterable[str], rows: Iterable[Iterable]) -> None:
    """One output table: strings and ints as they are, floats to 10
    significant digits (`inf`, `-0`, `1e-300`) and NaN as `na`."""

    def cell(value) -> str:
        if isinstance(value, (float, np.floating)):
            return "na" if math.isnan(value) else f"{value:.10g}"
        return str(value)

    with open(path, "w", encoding="ascii") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(cell, row)) + "\n" for row in rows)


def write_roc_csv(curve: RocCurve, path: str) -> None:
    """Emit (threshold, R_FP, R_TP) rows for plotting."""
    write_csv(path, ("threshold", "r_fp", "r_tp"),
              zip(curve.thresholds.tolist(), curve.fpr.tolist(), curve.tpr.tolist()))
