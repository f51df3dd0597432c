"""36-element feature vectors: extraction, cleaning, normalization, windowing.

Each sample yields 4 position features (per-axis fused-vs-GNSS residual and
the fusion uncertainty, meters) followed by the 32 signal statistics in
SIGNAL_SLOTS order.  The fusion filter's north and east axes share one
covariance, so slot 3 (sigma_lon_m) repeats slot 2 (sigma_lat_m); both are
kept so the vector keeps the paper's 36-slot layout.  Cleaning caps the
position features at their training 95th percentile (applied to magnitude,
sign preserved), replaces invalid signal values with the minimum of their
valid range, and min-max scales every feature to [0, 1].  Normalization is
fitted per client on local training data only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import SIGNAL_SLOTS, Trace, local_meters
from .fusion import FusedEstimate

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


def _slot_property(slot_name: str) -> str:
    for prop in DEFAULT_VALID_RANGES:
        if f"_{prop}_" in slot_name:
            return prop
    raise KeyError(f"no valid range for slot {slot_name!r}")


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


@dataclass
class NormalizationState:
    """Per-feature cleaning parameters fitted on training data.

    caps hold the magnitude cap for the 4 position features (inf elsewhere),
    replacements the valid-range minimum for each signal slot, and lo/hi the
    post-cleaning min/max per feature.  Features with lo == hi are degenerate
    and normalize to 0.
    """

    caps: np.ndarray  # (36,)
    replacements: np.ndarray  # (32,)
    lo: np.ndarray  # (36,)
    hi: np.ndarray  # (36,)


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


def fit_normalization(
    raws: list[np.ndarray], cfg: FeatureConfig | None = None
) -> NormalizationState:
    """Fit cleaning parameters on the pooled raw training features of a
    client's traces, one (n_i, 36) matrix each.

    Caps are empirical 95th percentiles of the position-feature magnitudes
    (linear interpolation between order statistics); min/max are taken after
    capping and invalid-value replacement.
    """
    cfg = cfg or FeatureConfig()
    mat = np.vstack(raws)
    if mat.shape[1] != N_FEATURES or mat.shape[0] == 0:
        raise ValueError(f"expected non-empty (n, {N_FEATURES}) matrices")

    replacements = np.array(
        [DEFAULT_VALID_RANGES[_slot_property(name)][0] for name in SIGNAL_SLOTS]
    )
    caps = np.full(N_FEATURES, np.inf)
    for j in range(N_POSITION):
        caps[j] = np.percentile(np.abs(mat[:, j]), cfg.cap_percentile)

    cleaned = _clean(mat, caps, replacements)
    return NormalizationState(
        caps=caps,
        replacements=replacements,
        lo=cleaned.min(axis=0),
        hi=cleaned.max(axis=0),
    )


def _clean(mat: np.ndarray, caps: np.ndarray, replacements: np.ndarray) -> np.ndarray:
    cleaned = np.array(mat, dtype=np.float64)
    for j, rep in enumerate(replacements, start=N_POSITION):
        col = cleaned[:, j]
        col[np.isnan(col)] = rep
    for j in range(N_POSITION):
        col = cleaned[:, j]
        cleaned[:, j] = np.sign(col) * np.minimum(np.abs(col), caps[j])
    return cleaned


def apply_normalization(raw: np.ndarray, state: NormalizationState) -> np.ndarray:
    """Normalize raw features to float32 values in [0, 1].

    Values outside the fitted range (test-time drift) clamp to the endpoints;
    degenerate features map to 0.
    """
    cleaned = _clean(np.atleast_2d(np.asarray(raw, dtype=np.float64)), state.caps, state.replacements)
    span = state.hi - state.lo
    ok = span > 0.0
    out = np.zeros_like(cleaned)
    out[:, ok] = (cleaned[:, ok] - state.lo[ok]) / span[ok]
    np.clip(out, 0.0, 1.0, out=out)
    return out.astype(np.float32)


def make_windows(
    features: np.ndarray, window_len: int, stride: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Sliding windows over one trace's features.

    Returns (sequences, last_index): sequences is (k, window_len, 36) and
    last_index maps each window to the sample position of its final
    timestep, where callers read the window's target, truth or score.  A
    trace shorter than the window yields zero windows.  Windows never span
    trace boundaries because this operates on a single trace.
    """
    if window_len < 1 or stride < 1:
        raise ValueError("window_len and stride must be >= 1")
    features = np.asarray(features, dtype=np.float32)
    n = features.shape[0]
    if n < window_len:
        return (
            np.empty((0, window_len, features.shape[1]), dtype=np.float32),
            np.empty(0, dtype=np.int64),
        )
    last = np.arange(window_len - 1, n, stride, dtype=np.int64)
    seqs = np.stack([features[i - window_len + 1 : i + 1] for i in last])
    return seqs, last
