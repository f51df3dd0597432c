"""Stacked LSTM regressor: forward pass, backpropagation through time, Adam
training loop with early stopping, and flat-vector checkpointing.

The model is two LSTM layers (the second consumes the first layer's full
hidden sequence and emits only its last hidden state) followed by a dense
sigmoid head producing one value in (0, 1).  Parameters live in a single flat
vector with a fixed layout so they can be averaged coordinate-wise and
checkpointed bit-exactly.  Gate packing order within each 4H block is
(input, forget, cell, output).

The kernels work time-major.  `forward` transposes a (B, T, D) batch once to
(T, B, D), and each layer keeps one (T, B, 4H) gate buffer, so the slab of
step t, `gates[t]`, is one contiguous (B, 4H) block; layer 2 reads layer 1's
(T, B, H) output as it is.  The forward pass fills the buffer with the input
projection of every step in a single (T*B, D) @ (D, 4H) GEMM plus the bias;
step t then adds h_{t-1} @ wh into its slab and overwrites the slab with the
gate activations, which stay there for BPTT.  Sigmoids use the exact,
overflow-free form 0.5 * (1 + tanh(z / 2)): per call, the sigmoid gates'
(i, f, o) columns of wx, wh and b are multiplied by 0.5 in copies (a power
of two, so the GEMMs yield z/2 bit for bit and the stored parameters are
untouched), and one tanh covers the whole slab.  The backward pass
overwrites each slab with the gradient on its (unscaled) gate
pre-activations, so the input-weight, bias and input gradients are one GEMM
or reduction over the whole buffer after the time loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

DEFAULT_INPUT_SIZE = 36
DEFAULT_HIDDEN_SIZE = 100
PREDICT_CHUNK = 64


def layout_blocks(input_size: int, hidden_size: int) -> list[tuple[str, tuple[int, ...], int]]:
    """(name, shape, offset) manifest of the flat parameter vector."""
    d, h = input_size, hidden_size
    shapes = [
        ("l1_wx", (d, 4 * h)),
        ("l1_wh", (h, 4 * h)),
        ("l1_b", (4 * h,)),
        ("l2_wx", (h, 4 * h)),
        ("l2_wh", (h, 4 * h)),
        ("l2_b", (4 * h,)),
        ("head_w", (h,)),
        ("head_b", (1,)),
    ]
    blocks = []
    offset = 0
    for name, shape in shapes:
        blocks.append((name, shape, offset))
        offset += math.prod(shape)
    return blocks


def param_count(input_size: int, hidden_size: int) -> int:
    """Total parameters of the 2-layer LSTM plus dense head."""
    _, shape, offset = layout_blocks(input_size, hidden_size)[-1]
    return offset + math.prod(shape)


@dataclass
class LstmModelParams:
    """Flat, ordered parameter vector with a layout manifest."""

    input_size: int
    hidden_size: int
    vector: np.ndarray

    def __post_init__(self) -> None:
        expected = param_count(self.input_size, self.hidden_size)
        self.vector = np.ascontiguousarray(self.vector)
        if self.vector.ndim != 1 or self.vector.size != expected:
            raise ValueError(
                f"parameter vector must be flat with {expected} entries, got {self.vector.shape}"
            )

    def blocks(self) -> dict[str, np.ndarray]:
        """Zero-copy views of the named blocks, reshaped per the layout; in-place
        writes to `vector` (Adam steps, finite-difference probes) show through them."""
        return {name: self.vector[offset : offset + math.prod(shape)].reshape(shape)
                for name, shape, offset in self.layout()}

    def layout(self) -> list[tuple[str, tuple[int, ...], int]]:
        return layout_blocks(self.input_size, self.hidden_size)

    def copy(self) -> "LstmModelParams":
        return LstmModelParams(self.input_size, self.hidden_size, self.vector.copy())


def init_params(
    seed: int,
    input_size: int = DEFAULT_INPUT_SIZE,
    hidden_size: int = DEFAULT_HIDDEN_SIZE,
    dtype=np.float32,
) -> LstmModelParams:
    """Glorot-uniform weights per gate block, zero biases, forget bias 1.0.

    Deterministic per seed.
    """
    rng = np.random.default_rng(seed)
    params = LstmModelParams(
        input_size, hidden_size, np.zeros(param_count(input_size, hidden_size), dtype=dtype)
    )
    h = hidden_size
    blocks = params.blocks()
    for name in ("l1_wx", "l1_wh", "l2_wx", "l2_wh"):
        w = blocks[name]
        fan_in = w.shape[0]
        limit = np.sqrt(6.0 / (fan_in + h))
        w[:] = rng.uniform(-limit, limit, size=w.shape).astype(dtype)
    limit = np.sqrt(6.0 / (h + 1))
    blocks["head_w"][:] = rng.uniform(-limit, limit, size=h).astype(dtype)
    blocks["l1_b"][h : 2 * h] = 1.0
    blocks["l2_b"][h : 2 * h] = 1.0
    return params


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function in the exact, overflow-free form 0.5 * (1 + tanh(x / 2))."""
    out = np.multiply(x, 0.5)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


def _layer_forward(wx, wh, b, x):
    """One LSTM layer over a time-major batch.  x is (T, B, D); returns the
    hidden sequence (T, B, H) and the cache BPTT needs.

    With the sigmoid columns of the weights halved, one tanh over a step's
    slab gives tanh(z/2) on (i, f, o) and tanh(z) on the cell candidate g.
    One multiply-add over the slab then makes the former 0.5 * tanh(z/2) + 0.5,
    bitwise 0.5 * (1 + tanh(z/2)), and leaves g as g * 1 + (-0.0), bitwise g.
    """
    steps, bsz, in_dim = x.shape
    h_dim = wh.shape[0]
    scale = np.full(4 * h_dim, 0.5, dtype=wx.dtype)
    scale[2 * h_dim : 3 * h_dim] = 1.0
    shift = scale.copy()
    shift[2 * h_dim : 3 * h_dim] = -0.0
    # full (B, 4H) operands: a broadcast row costs numpy a loop per row
    scale_slab = np.tile(scale, (bsz, 1))
    shift_slab = np.tile(shift, (bsz, 1))
    gates = np.matmul(x.reshape(steps * bsz, in_dim), wx * scale).reshape(steps, bsz, 4 * h_dim)
    gates += b * scale
    wh_half = wh * scale
    cs = np.empty((steps, bsz, h_dim), dtype=gates.dtype)
    tc = np.empty_like(cs)
    hs = np.empty_like(cs)
    rec = np.empty((bsz, 4 * h_dim), dtype=gates.dtype)
    fc = np.empty((bsz, h_dim), dtype=gates.dtype)
    for t in range(steps):
        z = gates[t]
        if t > 0:
            z += np.matmul(hs[t - 1], wh_half, out=rec)
        np.tanh(z, out=z)
        z *= scale_slab
        z += shift_slab
        i, f, g, o = (z[:, k * h_dim : (k + 1) * h_dim] for k in range(4))
        c = np.multiply(i, g, out=cs[t])
        if t > 0:
            c += np.multiply(f, cs[t - 1], out=fc)
        np.multiply(o, np.tanh(c, out=tc[t]), out=hs[t])
    return hs, {"x": x, "gates": gates, "c": cs, "tc": tc, "hs": hs}


def _batch_major(a):
    """(T, B, N) -> contiguous (B*T, N) rows in batch-major order."""
    steps, bsz, n = a.shape
    return np.ascontiguousarray(a.transpose(1, 0, 2)).reshape(bsz * steps, n)


def _layer_backward(wx, wh, cache, d_hs, need_dx=True):
    """BPTT through one layer given upstream gradients on every hidden state,
    all time-major.

    Each step's gradient on the gate pre-activations (the unscaled z, so the
    stored weights serve as they are) overwrites that step's activations in
    the cache's gate buffer, which is then reduced with one GEMM per weight;
    the cache cannot be used again.  The input-weight and bias reductions run
    over batch-major copies of the buffer and the input: a sum over the B*T
    rows in another order would change their bits.  Returns gradients for the
    layer inputs (time-major; None unless need_dx) and for (wx, wh, b).
    """
    x, gates, cs, tc, hs = cache["x"], cache["gates"], cache["c"], cache["tc"], cache["hs"]
    steps, bsz, in_dim = x.shape
    h_dim = wh.shape[0]
    d_act = np.empty((bsz, 4 * h_dim), dtype=gates.dtype)
    d_gate = np.empty_like(d_act)
    d_wh = np.zeros_like(wh)
    dh_rec = dc_rec = None
    for t in range(steps - 1, -1, -1):
        z = gates[t]
        i, f, g, o = (z[:, k * h_dim : (k + 1) * h_dim] for k in range(4))
        t_c = tc[t]
        if dh_rec is None:
            dh = d_hs[t]
        else:
            dh = dh_rec
            dh += d_hs[t]

        # dc = dh * o * (1 - tanh(c)^2) + dc from step t + 1
        dc = np.multiply(t_c, t_c)
        np.subtract(1.0, dc, out=dc)
        dc *= o
        dc *= dh
        if dc_rec is not None:
            dc += dc_rec
        # gradients on the activations (i, f, g, o)
        np.multiply(dc, g, out=d_act[:, :h_dim])
        if t > 0:
            np.multiply(dc, cs[t - 1], out=d_act[:, h_dim : 2 * h_dim])
        else:
            d_act[:, h_dim : 2 * h_dim] = 0.0
        np.multiply(dc, i, out=d_act[:, 2 * h_dim : 3 * h_dim])
        np.multiply(dh, t_c, out=d_act[:, 3 * h_dim :])
        dc_rec = np.multiply(dc, f, out=dc)

        # activation derivatives in place: s(1 - s) for the sigmoid gates,
        # 1 - g^2 for the cell candidate, whose column holds 1 once g^2 has
        # gone into 1 - z; then z holds dz
        np.multiply(g, g, out=g)
        np.subtract(1.0, z, out=d_gate)
        g[...] = 1.0
        z *= d_gate
        z *= d_act
        if t > 0:
            d_wh += hs[t - 1].T @ z
            dh_rec = z @ wh.T

    dz = _batch_major(gates)
    d_wx = _batch_major(x).T @ dz
    d_b = dz.sum(axis=0)
    d_x = None
    if need_dx:
        d_x = (gates.reshape(steps * bsz, 4 * h_dim) @ wx.T).reshape(steps, bsz, in_dim)
    return d_x, d_wx, d_wh, d_b


def forward(params: LstmModelParams, x: np.ndarray) -> tuple[np.ndarray, dict]:
    """Model output for a batch of sequences.

    x is (B, W, input_size).  Returns (predictions in (0, 1), cached
    activations, which one backward pass consumes).
    """
    x = np.asarray(x)
    if x.ndim != 3 or x.shape[2] != params.input_size:
        raise ValueError(f"input must be (B, W, {params.input_size}), got {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("non-finite values in input sequence")
    x = np.ascontiguousarray(x.transpose(1, 0, 2), dtype=params.vector.dtype)

    blocks = params.blocks()
    h1, cache1 = _layer_forward(blocks["l1_wx"], blocks["l1_wh"], blocks["l1_b"], x)
    h2, cache2 = _layer_forward(blocks["l2_wx"], blocks["l2_wh"], blocks["l2_b"], h1)

    h_last = h2[-1]
    u = h_last @ blocks["head_w"] + blocks["head_b"][0]
    y = _sigmoid(u)
    cache = {"cache1": cache1, "cache2": cache2, "h2_last": h_last, "y": y}
    return y, cache


def predict(params: LstmModelParams, x: np.ndarray) -> np.ndarray:
    """Scores for many windows, evaluated in chunks of `PREDICT_CHUNK`.

    The chunk size is fixed by numerics, not tuned: the input projection is
    one GEMM over a chunk's B*T rows, and OpenBLAS's result for a row depends
    on the GEMM's row count, so the scores of one model at chunk sizes 1, 7,
    64 and 256 differ by up to 6e-8.  Changing it moves every AUC.
    """
    x = np.asarray(x)
    out = np.empty(x.shape[0], dtype=np.float64)
    for start in range(0, x.shape[0], PREDICT_CHUNK):
        y, _ = forward(params, x[start : start + PREDICT_CHUNK])
        out[start : start + y.shape[0]] = y
    return out


def backward(
    params: LstmModelParams, x: np.ndarray, targets: np.ndarray
) -> tuple[np.ndarray, float]:
    """Gradient of batch-mean squared error w.r.t. every parameter.

    Returns (flat gradient in parameter layout order, batch MSE).
    """
    x = np.asarray(x)
    targets = np.asarray(targets)
    if x.ndim != 3:
        raise ValueError("backward expects a batch of sequences")
    if x.shape[0] == 0:
        raise ValueError("empty batch")
    if targets.shape != (x.shape[0],):
        raise ValueError(f"targets shape {targets.shape} does not match batch {x.shape[0]}")

    y, cache = forward(params, x)
    dtype = params.vector.dtype
    bsz = x.shape[0]
    resid = y - targets.astype(y.dtype)
    mse = float(np.mean(resid.astype(np.float64) ** 2))

    blocks = params.blocks()
    dy = (2.0 / bsz) * resid
    du = (dy * y * (1.0 - y)).astype(dtype)

    # each block's gradient goes straight into its view of the flat vector
    grad = LstmModelParams(params.input_size, params.hidden_size, np.empty_like(params.vector))
    g = grad.blocks()
    g["head_w"][...] = cache["h2_last"].T @ du
    g["head_b"][...] = du.sum()

    steps = x.shape[1]
    d_h2 = np.zeros((steps, bsz, params.hidden_size), dtype=dtype)
    d_h2[-1] = np.outer(du, blocks["head_w"])
    d_h1, g["l2_wx"][...], g["l2_wh"][...], g["l2_b"][...] = _layer_backward(
        blocks["l2_wx"], blocks["l2_wh"], cache["cache2"], d_h2
    )
    _, g["l1_wx"][...], g["l1_wh"][...], g["l1_b"][...] = _layer_backward(
        blocks["l1_wx"], blocks["l1_wh"], cache["cache1"], d_h1, need_dx=False
    )
    return grad.vector, mse


def batch_mse(params: LstmModelParams, x: np.ndarray, targets: np.ndarray) -> float:
    scores = predict(params, x)
    return float(np.mean((scores - np.asarray(targets, dtype=np.float64)) ** 2))


def clip_gradient_norm(grad: np.ndarray, max_norm: float) -> float:
    """Scale grad in place so its global L2 norm is at most max_norm."""
    norm = float(np.linalg.norm(grad.astype(np.float64)))
    if norm > max_norm > 0.0:
        grad *= max_norm / norm
    return norm


class AdamOptimizer:
    """Adam with bias correction; moments live in the parameter dtype."""

    def __init__(self, n_params: int, lr: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8, dtype=np.float32):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = np.zeros(n_params, dtype=dtype)
        self.v = np.zeros(n_params, dtype=dtype)

    def step(self, vector: np.ndarray, grad: np.ndarray) -> None:
        self.t += 1
        self.m += (1.0 - self.beta1) * (grad - self.m)
        self.v += (1.0 - self.beta2) * (grad * grad - self.v)
        m_hat = self.m / (1.0 - self.beta1**self.t)
        v_hat = self.v / (1.0 - self.beta2**self.t)
        vector -= (self.lr * m_hat / (np.sqrt(v_hat) + self.eps)).astype(vector.dtype)


class EarlyStopping:
    """Stop when validation loss fails to improve for `patience` epochs.

    Improvement means a strict decrease of at least min_delta below the best
    loss seen so far.
    """

    def __init__(self, patience: int, min_delta: float):
        self.patience = patience
        self.min_delta = min_delta
        self.best: float | None = None
        self.counter = 0
        self.should_stop = False

    def update(self, loss: float) -> None:
        if self.best is None or self.best - loss >= self.min_delta:
            self.best = loss
            self.counter = 0
        else:
            self.counter += 1
            if self.counter >= self.patience:
                self.should_stop = True


@dataclass(frozen=True)
class TrainConfig:
    """Local training hyperparameters."""

    batch_size: int = 72
    base_learning_rate: float = 1e-3
    early_stop_patience: int = 20
    validation_fraction: float = 0.2
    min_improvement: float = 1e-6
    clip_norm: float = 5.0
    lr_scale_min: float = 0.5
    lr_scale_max: float = 2.0

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.early_stop_patience < 1:
            raise ValueError("early_stop_patience must be >= 1")
        if not (0.0 < self.validation_fraction < 1.0):
            raise ValueError("validation_fraction must be in (0, 1)")
        # a rate of 0 freezes the model, which pins early stopping in tests
        if self.base_learning_rate < 0.0:
            raise ValueError("base_learning_rate must be >= 0")
        if self.min_improvement < 0.0 or self.clip_norm < 0.0:  # clip_norm 0: no clipping
            raise ValueError("min_improvement and clip_norm must be >= 0")
        if not 0.0 < self.lr_scale_min <= self.lr_scale_max:
            raise ValueError("need 0 < lr_scale_min <= lr_scale_max")


@dataclass
class TrainReport:
    """Per-epoch loss curves, one entry per epoch run."""

    train_mse_curve: list[float] = field(default_factory=list)
    val_mse_curve: list[float] = field(default_factory=list)

    @property
    def epochs_run(self) -> int:
        return len(self.val_mse_curve)


def scaled_learning_rate(cfg: TrainConfig, n_local: int, announced_mean: float | None) -> float:
    """Per-client learning rate: base rate scaled by local data volume.

    The multiplier is n_local over the server-announced mean dataset size,
    clamped to [lr_scale_min, lr_scale_max]; without an announced mean the
    base rate is used unchanged.
    """
    if announced_mean is None or announced_mean <= 0.0:
        return cfg.base_learning_rate
    scale = min(max(n_local / announced_mean, cfg.lr_scale_min), cfg.lr_scale_max)
    return cfg.base_learning_rate * scale


def validation_split(n: int, fraction: float) -> int:
    """Number of training windows when the last `fraction` of n windows is
    held out for validation; windows [result, n) form the validation set.

    Raises ValueError unless both parts hold at least one window.
    """
    n_val = int(n * fraction)
    if n_val < 1 or n_val >= n:
        raise ValueError(f"dataset of {n} windows is smaller than the validation split minimum")
    return n - n_val


def train_local(
    params: LstmModelParams,
    x: np.ndarray,
    targets: np.ndarray,
    cfg: TrainConfig,
    epochs: int,
    seed: int,
    announced_mean_size: float | None = None,
) -> tuple[LstmModelParams, TrainReport]:
    """Train on one client's windows with Adam for at most `epochs` epochs,
    stopping early when the validation loss stalls.

    The validation split is the last `validation_fraction` of the windows in
    time order (no shuffling across the split, to avoid temporal leakage).
    Mini-batches of `batch_size` are drawn from a per-epoch shuffle of the
    training windows, the final short batch kept.  Returns the parameters of
    the best validation epoch; deterministic per seed.
    """
    x = np.asarray(x, dtype=np.float32)
    targets = np.asarray(targets, dtype=np.float32)
    n = x.shape[0]
    if n == 0 or targets.shape[0] != n:
        raise ValueError("dataset empty or targets misaligned")
    n_train = validation_split(n, cfg.validation_fraction)
    train_x, val_x = x[:n_train], x[n_train:]
    train_y, val_y = targets[:n_train], targets[n_train:]

    work = params.copy()
    best_vec = work.vector.copy()
    best_loss = np.inf
    lr = scaled_learning_rate(cfg, n_train, announced_mean_size)
    opt = AdamOptimizer(work.vector.size, lr, dtype=work.vector.dtype)
    # the min_delta rule governs only the stopping counter; the returned model
    # is the plain argmin of the validation curve
    stopper = EarlyStopping(cfg.early_stop_patience, cfg.min_improvement)
    rng = np.random.default_rng(seed)
    report = TrainReport()

    for epoch in range(1, epochs + 1):
        order = rng.permutation(n_train)
        sq_err_sum = 0.0
        for start in range(0, n_train, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            grad, mse = backward(work, train_x[idx], train_y[idx])
            clip_gradient_norm(grad, cfg.clip_norm)
            opt.step(work.vector, grad)
            sq_err_sum += mse * idx.size
        if not np.isfinite(work.vector).all():
            raise FloatingPointError(f"non-finite parameters after epoch {epoch}")

        report.train_mse_curve.append(sq_err_sum / n_train)
        val_mse = batch_mse(work, val_x, val_y)
        report.val_mse_curve.append(val_mse)
        if val_mse < best_loss:
            best_loss = val_mse
            best_vec = work.vector.copy()
        stopper.update(val_mse)
        if stopper.should_stop:
            break

    return LstmModelParams(params.input_size, params.hidden_size, best_vec), report


CHECKPOINT_MAGIC = "fedspoof-lstm-checkpoint v1"


def _manifest(input_size: int, hidden_size: int) -> list[str]:
    return [f"block {name} {'x'.join(map(str, shape))} {offset}"
            for name, shape, offset in layout_blocks(input_size, hidden_size)]


def save_checkpoint(params: LstmModelParams, path: str) -> None:
    """Write a checkpoint: text layout manifest + little-endian float32 block."""
    vec = params.vector.astype("<f4")
    with open(path, "wb") as fh:
        header = [CHECKPOINT_MAGIC,
                  f"input_size {params.input_size}",
                  f"hidden_size {params.hidden_size}",
                  f"param_count {vec.size}"]
        header += _manifest(params.input_size, params.hidden_size)
        fh.write(("\n".join(header) + "\n\n").encode("ascii"))
        fh.write(vec.tobytes())


def load_checkpoint(path: str) -> LstmModelParams:
    """Read a checkpoint written by save_checkpoint; bit-exact round-trip.

    The block manifest must match the layout of the stated sizes and the body
    must hold exactly param_count float32 values; otherwise ValueError.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    head, _, body = blob.partition(b"\n\n")
    lines = head.decode("ascii", errors="replace").split("\n")
    if lines[0] != CHECKPOINT_MAGIC:
        raise ValueError(f"unrecognized checkpoint {path!r}")
    try:
        meta = dict(line.split(" ", 1) for line in lines[1:] if not line.startswith("block "))
        input_size = int(meta["input_size"])
        hidden_size = int(meta["hidden_size"])
        count = int(meta["param_count"])
    except (KeyError, ValueError) as exc:
        raise ValueError(f"malformed checkpoint header in {path!r}: {exc}") from None
    manifest = [line for line in lines[1:] if line.startswith("block ")]
    if (manifest != _manifest(input_size, hidden_size)
            or count != param_count(input_size, hidden_size)):
        raise ValueError(
            f"checkpoint {path!r}: block manifest does not match the "
            f"{input_size}x{hidden_size} layout"
        )
    if len(body) != 4 * count:
        raise ValueError(
            f"checkpoint {path!r}: body holds {len(body)} bytes, expected {4 * count}"
        )
    vec = np.frombuffer(body, dtype="<f4").astype(np.float32)
    return LstmModelParams(input_size, hidden_size, vec)
