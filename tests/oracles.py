"""Independent reference computations that the tests check the package
against, and the traced-memory meter of the memory tests."""

import math
import tracemalloc

import numpy as np

from fedspoof.domain import EARTH_RADIUS_M, HEADER_COLUMNS, SIGNAL_SLOTS
from fedspoof.features import NAN_REPLACEMENTS


def haversine_m(lat_a: float, lon_a: float, lat_b: float, lon_b: float) -> float:
    """Great-circle distance in meters between two points given in degrees."""
    lat1, lon1, lat2, lon2 = map(math.radians, (lat_a, lon_a, lat_b, lon_b))
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    h = math.sin(dlat / 2.0) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(h)))


def traced_peak(fn) -> int:
    """Bytes by which the traced heap's peak during fn() rose above its start."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def adam_step(m, v, t, vector, grad, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """One Adam step as whole-array expressions; updates m, v and vector in place."""
    m += (1.0 - beta1) * (grad - m)
    v += (1.0 - beta2) * (grad * grad - v)
    m_hat = m / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    vector -= (lr * m_hat / (np.sqrt(v_hat) + eps)).astype(vector.dtype)


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


def fit_cap_minmax(values):
    """(cap, lo, hi) of one column: its 95th percentile (linear interpolation
    between order statistics), then the min and max of the capped values."""
    values = np.asarray(values, dtype=np.float64)
    cap = float(np.percentile(values, 95.0))
    capped = np.minimum(values, cap)
    return cap, float(capped.min()), float(capped.max())


def apply_cap_minmax(values, cap, lo, hi) -> np.ndarray:
    """One column capped, then min-max scaled to [0, 1]; 0 if hi <= lo."""
    capped = np.minimum(np.asarray(values, dtype=np.float64), cap)
    if hi <= lo:
        return np.zeros_like(capped)
    return np.clip((capped - lo) / (hi - lo), 0.0, 1.0)


def _signal_replacements() -> np.ndarray:
    """Each signal slot's NaN replacement, found by slot name."""
    reps = []
    for name in SIGNAL_SLOTS:
        (prop,) = [p for p in NAN_REPLACEMENTS if f"_{p}_" in name]
        reps.append(NAN_REPLACEMENTS[prop])
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


def fit_feature_normalization(raws, n_position=4):
    """(caps, replacements, lo, hi) fitted column by column on the pooled raw
    feature matrices: the first n_position columns capped at the 95th
    percentile of their magnitudes (inf elsewhere), NaN signal values
    replaced with the minimum of their valid range."""
    mat = np.vstack(raws)
    replacements = _signal_replacements()
    caps = np.full(mat.shape[1], np.inf)
    for j in range(n_position):
        caps[j] = np.percentile(np.abs(mat[:, j]), 95.0)
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


# The output tables as their five formatters wrote them one by one: floats to
# 10 significant digits, NaN as "na" where a column could hold it.


def write_roc_csv(curve, path):
    with open(path, "w", encoding="ascii") as fh:
        fh.write("threshold,r_fp,r_tp\n")
        for thr, fp, tp in zip(curve.thresholds, curve.fpr, curve.tpr):
            fh.write(f"{thr:.10g},{fp:.10g},{tp:.10g}\n")


def write_auc(path, method, auc, n_pos, n_neg):
    with open(path, "w", encoding="ascii") as fh:
        fh.write("method,auc,n_pos,n_neg\n")
        fh.write(f"{method},{auc:.10g},{n_pos},{n_neg}\n")


def write_centralized_metrics(path, train_mse_curve, val_mse_curve):
    with open(path, "w", encoding="ascii") as fh:
        fh.write("epoch,train_mse,val_mse\n")
        for i, (tr, va) in enumerate(zip(train_mse_curve, val_mse_curve), start=1):
            fh.write(f"{i},{tr:.10g},{va:.10g}\n")


def write_round_metrics(rows, path):
    with open(path, "w", encoding="ascii") as fh:
        fh.write("round,accepted_clients,mean_gate_auc,global_val_mse\n")
        for r in rows:
            gate = "na" if math.isnan(r["mean_gate_auc"]) else f"{r['mean_gate_auc']:.10g}"
            fh.write(f"{r['round']},{r['accepted_clients']},{gate},{r['global_val_mse']:.10g}\n")


def write_auc_table(rows, path):
    with open(path, "w", encoding="ascii") as fh:
        fh.write("cell,split,method,detail,auc,n_pos,n_neg\n")
        for r in rows:
            auc = "na" if math.isnan(r.auc) else f"{r.auc:.10g}"
            fh.write(f"{r.cell},{r.split},{r.method},{r.detail},{auc},{r.n_pos},{r.n_neg}\n")
