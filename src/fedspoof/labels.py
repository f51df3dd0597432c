"""Self-supervised label generation.

The training target for each sample is the metric norm of the fused-vs-GNSS
position residual, capped at the 95th percentile of the client's local
deviations and min-max scaled to [0, 1]; this is `fusion`'s cap -> min-max
map, which the baseline detector fits on each trace's residual.  No ground
truth enters the computation: labels read only the GNSS position and the
fusion output.
"""

from __future__ import annotations

import numpy as np

from .domain import Trace
from .fusion import CapMinMax, FusedEstimate, apply_cap_minmax, fit_cap_minmax, residual_norm_m


def raw_deviations(trace: Trace, fused: FusedEstimate) -> np.ndarray:
    """Unnormalized per-sample deviation in meters."""
    return residual_norm_m(trace, fused)


def fit_label_norm(deviations: list[np.ndarray]) -> CapMinMax:
    """Fit the cap -> min-max map over a client's pooled training deviations,
    one array per trace.

    Pooling keeps labels comparable across the client's traces; fit on
    training traces only to avoid leaking validation statistics.
    """
    pooled = np.concatenate(deviations)
    if pooled.size == 0:
        raise ValueError("cannot fit label normalization on empty deviations")
    return fit_cap_minmax(pooled[:, None])


def generate(trace: Trace, fused: FusedEstimate, norm: CapMinMax) -> np.ndarray:
    """Unit-interval labels for one trace, one per sample, scaled by `norm`
    (fitted on the client's pooled training deviations).  A degenerate norm
    (lo == hi) yields all-zero labels.
    """
    return apply_cap_minmax(raw_deviations(trace, fused)[:, None], norm)[:, 0]
