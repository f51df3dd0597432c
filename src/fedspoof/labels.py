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


@dataclass
class LabelSeries:
    """Unit-interval labels aligned to one trace, plus the scaling used."""

    values: np.ndarray
    cap_value: float
    value_min: float
    value_max: float


def raw_deviations(trace: Trace, fused: FusedEstimate) -> np.ndarray:
    """Unnormalized per-sample deviation in meters."""
    return residual_norm_m(trace, fused)


def fit_label_norm(deviations: list[np.ndarray] | np.ndarray) -> LabelNorm:
    """Fit the cap/min/max over a client's pooled training deviations.

    Pooling keeps labels comparable across the client's traces; fit on
    training traces only to avoid leaking validation statistics.
    """
    pooled = np.concatenate([np.asarray(d) for d in deviations]) if isinstance(
        deviations, list
    ) else np.asarray(deviations)
    if pooled.size == 0:
        raise ValueError("cannot fit label normalization on empty deviations")
    cap, lo, hi = fit_cap_minmax(pooled)
    return LabelNorm(cap=cap, lo=lo, hi=hi)


def generate(trace: Trace, fused: FusedEstimate, norm: LabelNorm | None = None) -> LabelSeries:
    """Labels for one trace.

    With norm=None the cap and scaling are fitted on this trace alone;
    pipelines pass a LabelNorm fitted on the client's pooled training
    deviations.  All-equal deviations yield all-zero labels.
    """
    d = raw_deviations(trace, fused)
    if norm is None:
        cap, lo, hi = fit_cap_minmax(d)
        norm = LabelNorm(cap=cap, lo=lo, hi=hi)
    values = apply_cap_minmax(d, norm.cap, norm.lo, norm.hi)
    return LabelSeries(values=values, cap_value=norm.cap, value_min=norm.lo, value_max=norm.hi)
