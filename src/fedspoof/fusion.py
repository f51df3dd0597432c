"""GNSS-independent position fusion and the position-based baseline detector.

A constant-velocity Kalman filter over the network-provided position, driven
by onboard acceleration, produces a fused position with one uncertainty that
the north and east axes share.  The GNSS position is deliberately excluded
from the filter so the estimate is unaffected by spoofing; speed and attitude
rates only scale the process noise.
The baseline detector scores each sample by its normalized fused-vs-GNSS
residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import GeoPos, Trace, local_meters, offset_geopos

# Initial velocity uncertainty of the filter, m/s.
INITIAL_VELOCITY_STD = 10.0


@dataclass(frozen=True)
class FusionConfig:
    """Noise parameters of the fusion filter.

    process_noise is the acceleration-driven variance scale; net_meas_noise
    and initial_sigma are standard deviations in meters.
    """

    process_noise: float = 0.5
    net_meas_noise: float = 20.0
    initial_sigma: float = 50.0

    def __post_init__(self) -> None:
        for name in ("process_noise", "net_meas_noise", "initial_sigma"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be strictly positive")


@dataclass(frozen=True)
class FusedEstimate:
    """Fused position with its standard deviation in meters, shared by the
    north and east axes."""

    mu: GeoPos
    sigma: float

    def __post_init__(self) -> None:
        if not self.sigma > 0.0:
            raise ValueError("sigma must be strictly positive")


def fuse_trace(trace: Trace, cfg: FusionConfig) -> list[FusedEstimate]:
    """Run the fusion filter over one trace.

    The state is a (north, east) position and velocity in a local tangent
    plane anchored at the trace's first network position.  Both axes start
    with the same variances and see the same process and measurement noise,
    so they share one (position, velocity) covariance [[a, b], [b, c]].
    Propagation uses the previous sample's acceleration as a control input
    over the elapsed interval, with process noise scaled up while the
    platform is fast or turning.  Output depends only on p_net, v, a, omega
    and t.
    """
    samples = trace.samples
    origin = samples[0].p_net

    pos, vel = np.zeros(2), np.zeros(2)
    a, b, c = cfg.initial_sigma**2, 0.0, INITIAL_VELOCITY_STD**2
    r = cfg.net_meas_noise**2

    out: list[FusedEstimate] = []
    prev = None
    for smp in samples:
        if prev is not None:
            dt = smp.t - prev.t
            acc = prev.a[:2]
            pos = pos + dt * vel + 0.5 * acc * dt * dt
            vel = vel + acc * dt
            # faster or turning platforms get a looser motion model
            q = cfg.process_noise * (1.0 + float(np.linalg.norm(prev.omega)) + prev.v / 10.0)
            b_dt = b + dt * c
            a = (a + dt * b) + dt * b_dt + q * (dt**4 / 4.0)
            b = b_dt + q * (dt**3 / 2.0)
            c = c + q * dt**2

        innov = np.array(local_meters(origin, smp.p_net)) - pos
        inv_s = 1.0 / (a + r)
        k_pos, k_vel = a * inv_s, b * inv_s
        pos = pos + k_pos * innov
        vel = vel + k_vel * innov
        # (I - KH) P has the off-diagonal terms (1 - k_pos) b and b - k_vel a,
        # equal but for rounding; symmetrising takes their mean
        a, b, c = (
            (1.0 - k_pos) * a,
            0.5 * ((1.0 - k_pos) * b + (b - k_vel * a)),
            c - k_vel * b,
        )

        out.append(FusedEstimate(mu=offset_geopos(origin, pos[0], pos[1]), sigma=math.sqrt(a)))
        prev = smp
    return out


def residual_norm_m(trace: Trace, fused: list[FusedEstimate]) -> np.ndarray:
    """Per-sample metric norm of (fused position - GNSS position)."""
    if len(fused) != len(trace.samples):
        raise ValueError("trace and fused estimate lengths differ")
    d = np.empty(len(fused))
    for i, (smp, est) in enumerate(zip(trace.samples, fused)):
        north, east = local_meters(smp.p_gnss, est.mu)
        d[i] = np.hypot(north, east)
    return d


def fit_cap_minmax(values: np.ndarray, percentile: float = 95.0) -> tuple[float, float, float]:
    """Fit the shared cleaning chain: percentile cap, then min/max of capped values.

    The percentile uses linear interpolation between order statistics.
    """
    values = np.asarray(values, dtype=np.float64)
    cap = float(np.percentile(values, percentile))
    capped = np.minimum(values, cap)
    return cap, float(capped.min()), float(capped.max())


def apply_cap_minmax(values: np.ndarray, cap: float, lo: float, hi: float) -> np.ndarray:
    """Cap then min-max scale to [0, 1]; a degenerate range maps everything to 0."""
    capped = np.minimum(np.asarray(values, dtype=np.float64), cap)
    if hi <= lo:
        return np.zeros_like(capped)
    return np.clip((capped - lo) / (hi - lo), 0.0, 1.0)


def pds_score(trace: Trace, fused: list[FusedEstimate]) -> np.ndarray:
    """Baseline detection score per sample: the trace's normalized residual.

    Residuals are capped at the trace's own 95th percentile and min-max scaled
    to [0, 1]; higher means more suspicious.  A trace whose residuals are all
    equal scores 0 everywhere.
    """
    d = residual_norm_m(trace, fused)
    cap, lo, hi = fit_cap_minmax(d)
    return apply_cap_minmax(d, cap, lo, hi)
