"""GNSS-independent position fusion and the position-based baseline detector.

A constant-velocity Kalman filter over the network-provided position, driven
by onboard acceleration, produces a fused position with one uncertainty that
the north and east axes share.  The GNSS position is deliberately excluded
from the filter so the estimate is unaffected by spoofing; speed and attitude
rates only scale the process noise.
The baseline detector scores each sample by its normalized fused-vs-GNSS
residual.  Its normalization, a cap -> min-max map fitted on the trace, is
the one that the features and the labels fit on their training rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import Trace, frozen_column, local_meters, offset_geopos

# Initial velocity uncertainty of the filter, m/s.
INITIAL_VELOCITY_STD = 10.0

#: The percentile of the magnitudes at which every cap -> min-max map caps:
#: the position features', the labels' and the baseline detector's.
CAP_PERCENTILE = 95.0


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


@dataclass(frozen=True, eq=False)
class FusedEstimate:
    """Fused positions of one trace, one read-only column per field: latitude
    and longitude in degrees and the standard deviation in meters that the
    north and east axes share."""

    lat: np.ndarray  # (n,)
    lon: np.ndarray  # (n,)
    sigma: np.ndarray  # (n,)

    def __post_init__(self) -> None:
        for name in ("lat", "lon", "sigma"):
            object.__setattr__(self, name, frozen_column(getattr(self, name)))
        if self.lat.ndim != 1 or not self.lat.shape == self.lon.shape == self.sigma.shape:
            raise ValueError("lat, lon and sigma must be columns of one length")
        if not np.all(self.sigma > 0.0):
            raise ValueError("sigma must be strictly positive")

    def __len__(self) -> int:
        return len(self.sigma)


def fuse_trace(trace: Trace, cfg: FusionConfig) -> FusedEstimate:
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
    lat0, lon0 = trace.p_net[0]
    z_north, z_east = local_meters(lat0, lon0, *trace.p_net.T)
    # faster or turning platforms get a looser motion model; the stacked
    # matmul takes each |omega| through the same dot product as np.linalg.norm
    omega_norm = np.sqrt(np.matmul(trace.omega[:, None, :], trace.omega[:, :, None]).ravel())
    q_scale = cfg.process_noise * (1.0 + omega_norm + trace.v / 10.0)
    # the step into sample k spans the interval since sample k-1 and uses that
    # sample's acceleration and process noise
    steps = zip(np.diff(trace.t).tolist(), trace.a[:-1, 0].tolist(), trace.a[:-1, 1].tolist(),
                q_scale[:-1].tolist())

    pn = pe = vn = ve = 0.0
    a, b, c = cfg.initial_sigma**2, 0.0, INITIAL_VELOCITY_STD**2
    r = cfg.net_meas_noise**2

    n = len(trace)
    mu_north, mu_east, var = np.empty(n), np.empty(n), np.empty(n)
    for k, (zn, ze) in enumerate(zip(z_north.tolist(), z_east.tolist())):
        if k:
            dt, an, ae, q = next(steps)
            pn = pn + dt * vn + 0.5 * an * dt * dt
            pe = pe + dt * ve + 0.5 * ae * dt * dt
            vn = vn + an * dt
            ve = ve + ae * dt
            b_dt = b + dt * c
            a = (a + dt * b) + dt * b_dt + q * (dt**4 / 4.0)
            b = b_dt + q * (dt**3 / 2.0)
            c = c + q * dt**2

        inv_s = 1.0 / (a + r)
        k_pos, k_vel = a * inv_s, b * inv_s
        innov_n, innov_e = zn - pn, ze - pe
        pn = pn + k_pos * innov_n
        pe = pe + k_pos * innov_e
        vn = vn + k_vel * innov_n
        ve = ve + k_vel * innov_e
        # (I - KH) P has the off-diagonal terms (1 - k_pos) b and b - k_vel a,
        # equal but for rounding; symmetrising takes their mean
        a, b, c = (
            (1.0 - k_pos) * a,
            0.5 * ((1.0 - k_pos) * b + (b - k_vel * a)),
            c - k_vel * b,
        )
        mu_north[k], mu_east[k], var[k] = pn, pe, a

    lat, lon = offset_geopos(lat0, lon0, mu_north, mu_east)
    return FusedEstimate(lat=lat, lon=lon, sigma=np.sqrt(var))


def residual_norm_m(trace: Trace, fused: FusedEstimate) -> np.ndarray:
    """Per-sample metric norm of (fused position - GNSS position)."""
    if len(fused) != len(trace):
        raise ValueError("trace and fused estimate lengths differ")
    return np.hypot(*local_meters(*trace.p_gnss.T, fused.lat, fused.lon))


@dataclass(frozen=True, eq=False)
class CapMinMax:
    """A cap -> min-max map over the k columns of an (n, k) matrix.

    caps holds the magnitude cap of each of the first len(caps) columns; lo
    and hi hold every column's min and max after capping, over the rows the
    map was fitted on.
    """

    caps: np.ndarray  # (n_capped,)
    lo: np.ndarray  # (k,)
    hi: np.ndarray  # (k,)


def _capped(mat: np.ndarray, caps: np.ndarray) -> np.ndarray:
    """A float64 copy of mat whose first len(caps) columns are capped in
    magnitude, sign kept."""
    out = np.array(mat, dtype=np.float64)
    head = out[:, : len(caps)]
    head[...] = np.sign(head) * np.minimum(np.abs(head), caps)
    return out


def fit_cap_minmax(mat: np.ndarray, n_capped: int | None = None) -> CapMinMax:
    """Fit the map on the rows of mat: the cap of each of the first
    `n_capped` columns (all by default) is the CAP_PERCENTILE of its
    magnitudes, with linear interpolation between order statistics."""
    mat = np.asarray(mat)
    n_capped = mat.shape[1] if n_capped is None else n_capped
    caps = np.percentile(np.abs(mat[:, :n_capped]), CAP_PERCENTILE, axis=0)
    capped = _capped(mat, caps)
    return CapMinMax(caps=caps, lo=capped.min(axis=0), hi=capped.max(axis=0))


def apply_cap_minmax(mat: np.ndarray, norm: CapMinMax) -> np.ndarray:
    """Cap, then min-max scale every column to [0, 1].

    Values beyond the fitted range clamp to the endpoints, and a column whose
    fitted min equals its max maps to 0.
    """
    out = _capped(mat, norm.caps)
    span = norm.hi - norm.lo
    ok = span > 0.0
    np.subtract(out, norm.lo, out=out, where=ok)
    np.divide(out, span, out=out, where=ok)
    out[:, ~ok] = 0.0
    return np.clip(out, 0.0, 1.0, out=out)


def pds_score(trace: Trace, fused: FusedEstimate) -> np.ndarray:
    """Baseline detection score per sample: the trace's normalized residual.

    Residuals are capped at the trace's own 95th percentile and min-max scaled
    to [0, 1]; higher means more suspicious.  A trace whose residuals are all
    equal scores 0 everywhere.
    """
    d = residual_norm_m(trace, fused)[:, None]
    return apply_cap_minmax(d, fit_cap_minmax(d))[:, 0]
