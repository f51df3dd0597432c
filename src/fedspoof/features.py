"""36-element feature vectors: extraction, cleaning, normalization, windowing.

Each sample yields 4 position features (per-axis fused-vs-GNSS residual and
the fusion uncertainty, meters) followed by the 32 signal statistics in
SIGNAL_SLOTS order.  The fusion filter's north and east axes share one
covariance, so slot 3 (sigma_lon_m) repeats slot 2 (sigma_lat_m); both are
kept so the vector keeps the paper's 36-slot layout.  Cleaning replaces
invalid signal values with the minimum of their valid range.  Normalization
is `fusion`'s cap -> min-max map, fitted per client on local training data
only: the position features are capped at their training 95th percentile
(applied to magnitude, sign preserved), and every feature is min-max scaled
to [0, 1].  `window_traces` windows a client's training and test traces
alike, each window ending where `window_ends` says.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .domain import CONSTELLATIONS, PROPERTIES, SIGNAL_SLOTS, STATISTICS, Trace, local_meters
from .fusion import CapMinMax, FusedEstimate, apply_cap_minmax, fit_cap_minmax

POSITION_FEATURES = ("res_lat_m", "res_lon_m", "sigma_lat_m", "sigma_lon_m")
FEATURE_NAMES = POSITION_FEATURES + SIGNAL_SLOTS
N_FEATURES = len(FEATURE_NAMES)
N_POSITION = len(POSITION_FEATURES)

#: Valid measurement range per signal property; invalid values are replaced
#: with the range minimum before scaling.
DEFAULT_VALID_RANGES = {
    "agc_db": (-100.0, 100.0),
    "cn0_ant_dbhz": (0.0, 64.0),
    "cn0_base_dbhz": (0.0, 64.0),
    "doppler_hz": (-10_000.0, 10_000.0),
}

#: The replacement for an invalid value in each signal slot, in SIGNAL_SLOTS order.
SIGNAL_REPLACEMENTS = np.array(
    [DEFAULT_VALID_RANGES[p][0] for _ in CONSTELLATIONS for p in PROPERTIES for _ in STATISTICS]
)


@dataclass(frozen=True)
class FeatureConfig:
    """Windowing and cleaning knobs for the feature pipeline."""

    window_len: int = 10
    stride: int = 1
    cap_percentile: float = 95.0

    def __post_init__(self) -> None:
        if self.window_len < 1 or self.stride < 1:
            raise ValueError("window_len and stride must be >= 1")
        if not 0.0 <= self.cap_percentile <= 100.0:
            raise ValueError("cap_percentile must be in [0, 100]")


def extract_raw(trace: Trace, fused: FusedEstimate) -> np.ndarray:
    """Raw per-sample feature matrix (n, 36); NaN marks invalid signal slots.

    Position residuals are signed per-axis offsets (fused minus GNSS) in
    meters; slots 2 and 3 both hold the fusion sigma.  Signal slots are copied
    verbatim, invalid values staying NaN for later replacement.
    """
    n = len(trace)
    if len(fused) != n:
        raise ValueError("trace and fused estimate lengths differ")
    out = np.empty((n, N_FEATURES))
    out[:, 0], out[:, 1] = local_meters(*trace.p_gnss.T, fused.lat, fused.lon)
    out[:, 2] = out[:, 3] = fused.sigma
    out[:, N_POSITION:] = trace.signal
    return out


def _replace_invalid(mat: np.ndarray) -> np.ndarray:
    """mat, with each invalid (NaN) signal value replaced in place."""
    signal = mat[:, N_POSITION:]
    np.copyto(signal, SIGNAL_REPLACEMENTS, where=np.isnan(signal))
    return mat


def fit_normalization(raws: list[np.ndarray], cfg: FeatureConfig) -> CapMinMax:
    """Fit the cap -> min-max map on the pooled raw training features of a
    client's traces, one (n_i, 36) matrix each.

    The position features are capped at the `cfg.cap_percentile` of their
    magnitudes; min/max are taken after capping and invalid-value replacement.
    """
    mat = np.vstack(raws)
    if mat.shape[1] != N_FEATURES or mat.shape[0] == 0:
        raise ValueError(f"expected non-empty (n, {N_FEATURES}) matrices")
    return fit_cap_minmax(_replace_invalid(mat), cfg.cap_percentile, N_POSITION)


def apply_normalization(raw: np.ndarray, state: CapMinMax) -> np.ndarray:
    """Normalize raw features to float32 values in [0, 1].

    Values outside the fitted range (test-time drift) clamp to the endpoints;
    degenerate features map to 0.
    """
    valid = _replace_invalid(np.array(raw, dtype=np.float64, ndmin=2))
    return apply_cap_minmax(valid, state).astype(np.float32)


def window_ends(n: int, window_len: int, stride: int = 1) -> np.ndarray:
    """The sample position of each window's last timestep in an n-sample trace."""
    if window_len < 1 or stride < 1:
        raise ValueError("window_len and stride must be >= 1")
    return np.arange(window_len - 1, n, stride, dtype=np.int64)


def make_windows(
    features: np.ndarray, window_len: int, stride: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Sliding windows over one trace's features: (k, window_len, 36)
    sequences and their k `window_ends`, where callers read each window's
    target, truth or score.  A trace shorter than the window yields none.
    """
    features = np.asarray(features, dtype=np.float32)
    last = window_ends(features.shape[0], window_len, stride)
    return features[last[:, None] + np.arange(1 - window_len, 1)], last


def window_traces(
    raws: Iterable[np.ndarray], norm: CapMinMax, cfg: FeatureConfig
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Each trace's raw matrix normalized with `norm` and windowed: every
    trace's windows, concatenated, and each trace's window ends.  `raws` may
    be a generator, so that one raw matrix at a time is held."""
    pairs = [make_windows(apply_normalization(raw, norm), cfg.window_len, cfg.stride)
             for raw in raws]
    # an empty first part gives the shape and dtype when no trace has a window
    empty = np.empty((0, cfg.window_len, N_FEATURES), dtype=np.float32)
    return np.concatenate([empty, *(wx for wx, _ in pairs)]), [last for _, last in pairs]
