"""Self-supervised label generation.

The training target for each sample is the metric norm of the fused-vs-GNSS
position residual, capped at the 95th percentile of the client's local
deviations and min-max scaled to [0, 1].  No ground truth enters the
computation: labels read only the GNSS position and the fusion output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import Trace
from .fusion import FusedEstimate, apply_cap_minmax, fit_cap_minmax, residual_norm_m


@dataclass(frozen=True)
class LabelNorm:
    """Cap and scaling bounds fitted on a client's pooled training deviations."""

    cap: float
    lo: float
    hi: float


def raw_deviations(trace: Trace, fused: FusedEstimate) -> np.ndarray:
    """Unnormalized per-sample deviation in meters."""
    return residual_norm_m(trace, fused)


def fit_label_norm(deviations: list[np.ndarray]) -> LabelNorm:
    """Fit the cap/min/max over a client's pooled training deviations, one
    array per trace.

    Pooling keeps labels comparable across the client's traces; fit on
    training traces only to avoid leaking validation statistics.
    """
    pooled = np.concatenate(deviations)
    if pooled.size == 0:
        raise ValueError("cannot fit label normalization on empty deviations")
    cap, lo, hi = fit_cap_minmax(pooled)
    return LabelNorm(cap=cap, lo=lo, hi=hi)


def generate(trace: Trace, fused: FusedEstimate, norm: LabelNorm) -> np.ndarray:
    """Unit-interval labels for one trace, one per sample, scaled by `norm`
    (fitted on the client's pooled training deviations).  A degenerate norm
    (lo == hi) yields all-zero labels.
    """
    return apply_cap_minmax(raw_deviations(trace, fused), norm.cap, norm.lo, norm.hi)
