"""Independent reference computations that the tests check the package against."""

import math

import numpy as np

from fedspoof.domain import EARTH_RADIUS_M, HEADER_COLUMNS


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
