"""Independent reference computations that the tests check the package against."""

import math

import numpy as np

from fedspoof.domain import EARTH_RADIUS_M, HEADER_COLUMNS, SIGNAL_SLOTS
from fedspoof.features import DEFAULT_VALID_RANGES


def haversine_m(lat_a: float, lon_a: float, lat_b: float, lon_b: float) -> float:
    """Great-circle distance in meters between two points given in degrees."""
    lat1, lon1, lat2, lon2 = map(math.radians, (lat_a, lon_a, lat_b, lon_b))
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    h = math.sin(dlat / 2.0) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(h)))


def dataset_text(traces) -> str:
    """A dataset file's text written one sample at a time: each value's repr,
    NaN signal slots as "na", the attacked flag as 0 or 1."""
    lines = [",".join(HEADER_COLUMNS) + "\n"]
    for trace in traces:
        numeric = np.column_stack(
            [trace.t, trace.p_true, trace.p_gnss, trace.p_net, trace.v, trace.a, trace.omega])
        for row, sig, hit in zip(numeric, trace.signal, trace.attacked):
            lines.append(
                f"{trace.platform_id},{trace.trace_id},"
                + ",".join(map(repr, row.tolist()))
                + ","
                + ",".join("na" if math.isnan(x) else repr(x) for x in sig.tolist())
                + (",1\n" if hit else ",0\n")
            )
    return "".join(lines)


def lstm_forward(blocks: dict, x) -> np.ndarray:
    """Textbook two-layer LSTM with a dense sigmoid head, in float64, one
    step at a time from zero states.

    `blocks` maps the names of fedspoof.lstm's parameter layout to arrays and
    x is (B, T, D).  Within each 4H block the gates are (input, forget, cell,
    output); the sigmoid is 1 / (1 + exp(-z)).
    """

    def sigmoid(z):
        return 1.0 / (1.0 + np.exp(-z))

    seq = np.asarray(x, dtype=np.float64)
    for layer in ("l1", "l2"):
        wx, wh, b = (np.asarray(blocks[f"{layer}_{name}"], dtype=np.float64)
                     for name in ("wx", "wh", "b"))
        n = wh.shape[0]
        h = np.zeros((seq.shape[0], n))
        c = np.zeros((seq.shape[0], n))
        hs = []
        for t in range(seq.shape[1]):
            z = seq[:, t] @ wx + h @ wh + b
            i, f = sigmoid(z[:, :n]), sigmoid(z[:, n : 2 * n])
            g, o = np.tanh(z[:, 2 * n : 3 * n]), sigmoid(z[:, 3 * n :])
            c = f * c + i * g
            h = o * np.tanh(c)
            hs.append(h)
        seq = np.stack(hs, axis=1)
    head_w = np.asarray(blocks["head_w"], dtype=np.float64)
    return sigmoid(seq[:, -1] @ head_w + float(blocks["head_b"][0]))


def fit_cap_minmax(values, percentile=95.0):
    """(cap, lo, hi) of one column: its percentile (linear interpolation
    between order statistics), then the min and max of the capped values."""
    values = np.asarray(values, dtype=np.float64)
    cap = float(np.percentile(values, percentile))
    capped = np.minimum(values, cap)
    return cap, float(capped.min()), float(capped.max())


def apply_cap_minmax(values, cap, lo, hi) -> np.ndarray:
    """One column capped, then min-max scaled to [0, 1]; 0 if hi <= lo."""
    capped = np.minimum(np.asarray(values, dtype=np.float64), cap)
    if hi <= lo:
        return np.zeros_like(capped)
    return np.clip((capped - lo) / (hi - lo), 0.0, 1.0)


def _signal_replacements() -> np.ndarray:
    """The minimum of each signal slot's valid range, found by slot name."""
    reps = []
    for name in SIGNAL_SLOTS:
        (prop,) = [p for p in DEFAULT_VALID_RANGES if f"_{p}_" in name]
        reps.append(DEFAULT_VALID_RANGES[prop][0])
    return np.array(reps)


def _clean_features(mat, caps, replacements, n_position):
    cleaned = np.array(mat, dtype=np.float64)
    for j, rep in enumerate(replacements, start=n_position):
        col = cleaned[:, j]
        col[np.isnan(col)] = rep
    for j in range(n_position):
        col = cleaned[:, j]
        cleaned[:, j] = np.sign(col) * np.minimum(np.abs(col), caps[j])
    return cleaned


def fit_feature_normalization(raws, cap_percentile=95.0, n_position=4):
    """(caps, replacements, lo, hi) fitted column by column on the pooled raw
    feature matrices: the first n_position columns capped at the percentile
    of their magnitudes (inf elsewhere), NaN signal values replaced with the
    minimum of their valid range."""
    mat = np.vstack(raws)
    replacements = _signal_replacements()
    caps = np.full(mat.shape[1], np.inf)
    for j in range(n_position):
        caps[j] = np.percentile(np.abs(mat[:, j]), cap_percentile)
    cleaned = _clean_features(mat, caps, replacements, n_position)
    return caps, replacements, cleaned.min(axis=0), cleaned.max(axis=0)


def apply_feature_normalization(raw, state, n_position=4) -> np.ndarray:
    """Raw features cleaned with a fitted state and scaled to float32 in [0, 1]."""
    caps, replacements, lo, hi = state
    raw = np.atleast_2d(np.asarray(raw, dtype=np.float64))
    cleaned = _clean_features(raw, caps, replacements, n_position)
    span = hi - lo
    ok = span > 0.0
    out = np.zeros_like(cleaned)
    out[:, ok] = (cleaned[:, ok] - lo[ok]) / span[ok]
    np.clip(out, 0.0, 1.0, out=out)
    return out.astype(np.float32)
