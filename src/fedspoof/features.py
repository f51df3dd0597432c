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
alike, each window ending where `make_windows` says.  `Windows` holds them
as the normalized rows plus each window's last row, one window per sample:
a gathered (k, window_len, 36) array repeats every row window_len times;
a client's labels, truth and baseline scores are read at those last rows.
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

#: The value that replaces a NaN signal value of each property before
#: scaling: the minimum of the property's valid range.  Only NaN is
#: replaced; no value is checked against the range.
NAN_REPLACEMENTS = {
    "agc_db": -100.0,
    "cn0_ant_dbhz": 0.0,
    "cn0_base_dbhz": 0.0,
    "doppler_hz": -10_000.0,
}

#: The replacement for a NaN value in each signal slot, in SIGNAL_SLOTS order.
SIGNAL_REPLACEMENTS = np.array(
    [NAN_REPLACEMENTS[p] for _ in CONSTELLATIONS for p in PROPERTIES for _ in STATISTICS]
)


@dataclass(frozen=True)
class FeatureConfig:
    """Windowing knob for the feature pipeline."""

    window_len: int = 10

    def __post_init__(self) -> None:
        if self.window_len < 1:
            raise ValueError("window_len must be >= 1")


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


def fit_normalization(raws: list[np.ndarray]) -> CapMinMax:
    """Fit the cap -> min-max map on the pooled raw training features of a
    client's traces, one (n_i, 36) matrix each.

    The position features are capped at the CAP_PERCENTILE of their
    magnitudes; min/max are taken after capping and invalid-value replacement.
    """
    mat = np.vstack(raws)
    if mat.shape[1] != N_FEATURES or mat.shape[0] == 0:
        raise ValueError(f"expected non-empty (n, {N_FEATURES}) matrices")
    return fit_cap_minmax(_replace_invalid(mat), N_POSITION)


def apply_normalization(raw: np.ndarray, state: CapMinMax) -> np.ndarray:
    """Normalize raw features to float32 values in [0, 1].

    Values outside the fitted range (test-time drift) clamp to the endpoints;
    degenerate features map to 0.
    """
    valid = _replace_invalid(np.array(raw, dtype=np.float64, ndmin=2))
    return apply_cap_minmax(valid, state).astype(np.float32)


class Windows:
    """Sliding windows held as feature rows plus the row each window ends at.

    `rows` is (n, d) read-only float32, shared by every view; window k is
    rows[ends[k] - window_len + 1 : ends[k] + 1].  A slice or an index array
    gives the `Windows` of those windows.  `np.asarray` gathers the
    (k, window_len, d) array, laid out time-major, so that the LSTM's
    (window_len, k, d) view of it is contiguous; `shape`, `len` and
    `tobytes()` are the gathered array's.
    """

    __slots__ = ("rows", "ends", "window_len")

    def __init__(self, rows: np.ndarray, ends: np.ndarray, window_len: int):
        rows = np.asarray(rows, dtype=np.float32)
        if rows.flags.writeable:  # freeze a view: the caller's array stays as it is
            rows = rows.view()
            rows.setflags(write=False)
        self.rows = rows
        self.ends = np.asarray(ends, dtype=np.int64)
        if self.ends.ndim != 1:  # an int index; window k is np.asarray(w)[k]
            raise TypeError("Windows take a slice or an index array, not an int")
        self.window_len = window_len

    def __len__(self) -> int:
        return self.ends.shape[0]

    @property
    def shape(self) -> tuple[int, int, int]:
        return (len(self), self.window_len, self.rows.shape[1])

    def __getitem__(self, index) -> Windows:
        return Windows(self.rows, self.ends[index], self.window_len)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:  # a gather always copies
        x = self.rows[np.arange(1 - self.window_len, 1)[:, None] + self.ends].transpose(1, 0, 2)
        return x if dtype is None else x.astype(dtype, copy=False)

    def tobytes(self) -> bytes:
        return np.asarray(self).tobytes()


def concat_windows(parts: list[Windows]) -> Windows:
    """The windows of every part in order, over the parts' rows concatenated."""
    offsets = np.cumsum([0] + [p.rows.shape[0] for p in parts[:-1]])
    return Windows(np.concatenate([p.rows for p in parts]),
                   np.concatenate([p.ends + off for p, off in zip(parts, offsets)]),
                   parts[0].window_len)


def make_windows(features: np.ndarray, window_len: int) -> tuple[Windows, np.ndarray]:
    """Sliding windows over one trace's features, one sample apart: the
    `Windows` of its (k, window_len, 36) sequences and each one's last row.
    A trace shorter than the window yields none.
    """
    last = np.arange(window_len - 1, np.shape(features)[0], dtype=np.int64)
    return Windows(features, last, window_len), last


def window_traces(raws: Iterable[np.ndarray], norm: CapMinMax, cfg: FeatureConfig) -> Windows:
    """Each trace's raw matrix normalized with `norm` and windowed: every
    trace's windows, over their rows concatenated.  `raws` may be a
    generator, so that one raw matrix at a time is held."""
    parts = [make_windows(apply_normalization(raw, norm), cfg.window_len)[0]
             for raw in raws]
    # an empty first part gives the row width when no trace is given
    empty = Windows(np.empty((0, N_FEATURES)), np.empty(0), cfg.window_len)
    return concat_windows([empty, *parts])
