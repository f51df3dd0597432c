import copy
import os
import pickle
import platform
import subprocess
import sys

import numpy as np
import pytest

from fedspoof import lstm
from fedspoof.lstm import (
    AdamOptimizer,
    EarlyStopping,
    LstmModelParams,
    TrainConfig,
    _sigmoid,
    backward,
    batch_mse,
    clip_gradient_norm,
    forward,
    init_params,
    layout_blocks,
    load_checkpoint,
    param_count,
    predict,
    save_checkpoint,
    scaled_learning_rate,
    train_local,
    validation_split,
)
from oracles import adam_step, lstm_forward, traced_peak


def finite_difference_grad(params, x, y, coords, eps=1e-4):
    """Central-difference oracle on selected coordinates (float64 params)."""
    out = {}
    for k in coords:
        v0 = params.vector[k]
        params.vector[k] = v0 + eps
        _, up = backward(params, x, y)
        params.vector[k] = v0 - eps
        _, down = backward(params, x, y)
        params.vector[k] = v0
        out[k] = (up - down) / (2.0 * eps)
    return out


def _float64(params):
    return LstmModelParams(params.input_size, params.hidden_size, params.vector.astype(np.float64))


def masked_sigmoid(x):
    """The logistic function by sign-split exponentials, as an oracle."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class TestLayout:
    def test_param_count_formula(self):
        assert param_count(36, 100) == 4 * (36 * 100 + 100 * 100 + 100) + 4 * (
            100 * 100 + 100 * 100 + 100
        ) + 100 + 1
        assert param_count(36, 100) == 135_301

    def test_vector_size_matches_layout(self):
        p = init_params(0)
        assert p.vector.size == param_count(36, 100)
        blocks = layout_blocks(36, 100)
        assert blocks[-1][2] + 1 == p.vector.size  # head_b is the final scalar

    def test_flatten_unflatten_round_trip(self):
        p = init_params(1, input_size=7, hidden_size=5)
        rebuilt = np.concatenate([p.blocks()[name].ravel() for name, _, _ in p.layout()])
        assert np.array_equal(rebuilt, p.vector)

    def test_block_views_share_memory(self):
        p = init_params(2, input_size=4, hidden_size=3)
        p.blocks()["head_w"][:] = 7.0
        name, _, offset = [b for b in p.layout() if b[0] == "head_w"][0]
        assert np.all(p.vector[offset : offset + 3] == 7.0)

    def test_cached_views_alias_vector(self):
        p = init_params(2, input_size=4, hidden_size=3)
        for name, _, _ in p.layout():
            assert np.shares_memory(p.blocks()[name], p.vector), name

    @pytest.mark.parametrize("round_trip", [
        lambda p: pickle.loads(pickle.dumps(p)), copy.deepcopy,
    ], ids=["pickle", "deepcopy"])
    def test_views_alias_vector_after_round_trip(self, round_trip):
        p = round_trip(init_params(2))
        p.vector[0] = 42.0  # l1_wx opens the vector
        assert p.blocks()["l1_wx"][0, 0] == 42.0
        for name, _, _ in p.layout():
            assert np.shares_memory(p.blocks()[name], p.vector), name

    def test_pickle_carries_the_vector_once(self):
        p = init_params(2)
        assert len(pickle.dumps(p)) < 4 * param_count(36, 100) + 1024

    def test_wrong_vector_size_rejected(self):
        with pytest.raises(ValueError):
            LstmModelParams(36, 100, np.zeros(10))


class TestInit:
    def test_deterministic_per_seed(self):
        assert np.array_equal(init_params(5).vector, init_params(5).vector)

    def test_different_seeds_differ(self):
        assert not np.array_equal(init_params(5).vector, init_params(6).vector)

    def test_forget_gate_bias_is_one(self):
        p = init_params(0, input_size=6, hidden_size=4)
        for name in ("l1_b", "l2_b"):
            b = p.blocks()[name]
            assert np.all(b[4:8] == 1.0)
            assert np.all(b[:4] == 0.0) and np.all(b[8:] == 0.0)

    def test_head_bias_zero(self):
        assert init_params(0).blocks()["head_b"][0] == 0.0


class TestSigmoid:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_masked_form_without_warnings(self, dtype):
        x = np.concatenate([np.linspace(-1e4, 1e4, 200_001), np.linspace(-40, 40, 80_001)])
        x = x.astype(dtype)
        got = _sigmoid(x)
        assert got.dtype == dtype
        eps = np.finfo(dtype).eps
        np.testing.assert_allclose(got, masked_sigmoid(x), rtol=2 * eps, atol=2 * eps)
        assert got.min() >= 0.0 and got.max() <= 1.0


class TestForward:
    def test_zero_params_give_half(self):
        p = LstmModelParams(6, 4, np.zeros(param_count(6, 4), dtype=np.float32))
        y, _ = forward(p, np.random.default_rng(0).uniform(0, 1, (3, 5, 6)))
        np.testing.assert_allclose(y, 0.5 * np.ones(3), atol=1e-7)

    def test_output_strictly_inside_unit_interval(self, rng):
        p = init_params(3, input_size=6, hidden_size=5)
        y, _ = forward(p, rng.uniform(0, 1, (8, 7, 6)))
        assert np.all((y > 0.0) & (y < 1.0))

    def test_predict_frees_each_chunk_before_the_next(self, rng):
        # 4 chunks of 64 windows peak well below one training forward of a
        # chunk: predict keeps no BPTT cache, so no chunk outlives its scores
        p = init_params(3)
        x = rng.uniform(0, 1, (4 * lstm.PREDICT_CHUNK, 10, p.input_size)).astype(np.float32)
        one_chunk = traced_peak(lambda: forward(p, x[: lstm.PREDICT_CHUNK]))
        assert traced_peak(lambda: predict(p, x)) <= 0.6 * one_chunk

    def test_forward_without_cache_gives_the_same_scores(self, rng):
        p = init_params(3, input_size=6, hidden_size=5)
        for steps in (1, 2, 7):
            x = rng.uniform(0, 1, (9, steps, 6)).astype(np.float32)
            y, cache = forward(p, x, keep_cache=False)
            assert cache is None
            assert np.array_equal(y, forward(p, x)[0])

    def test_order_sensitivity(self, rng):
        p = init_params(4, input_size=6, hidden_size=5)
        x = rng.uniform(0, 1, (1, 7, 6)).astype(np.float32)
        y_a, _ = forward(p, x)
        swapped = x.copy()
        swapped[0, [0, 6]] = swapped[0, [6, 0]]
        y_b, _ = forward(p, swapped)
        assert abs(float(y_a[0]) - float(y_b[0])) > 1e-7

    def test_non_finite_input_rejected(self):
        p = init_params(0, input_size=3, hidden_size=2)
        x = np.zeros((1, 4, 3))
        x[0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            forward(p, x)

    def test_in_place_vector_write_reaches_forward(self, rng):
        p = init_params(4, input_size=6, hidden_size=5)
        x = rng.uniform(0, 1, (3, 7, 6))
        y, _ = forward(p, x)
        assert not np.allclose(y, 0.5)
        p.vector[:] = 0.0
        y, _ = forward(p, x)
        np.testing.assert_array_equal(y, np.full(3, 0.5, dtype=np.float32))

    def test_predict_independent_of_batch_size(self, rng, monkeypatch):
        p = init_params(5, input_size=6, hidden_size=8)
        x = rng.uniform(0, 1, (300, 7, 6)).astype(np.float32)
        chunked = {}
        for chunk in (7, 256):
            monkeypatch.setattr(lstm, "PREDICT_CHUNK", chunk)
            chunked[chunk] = predict(p, x)
        np.testing.assert_allclose(chunked[7], chunked[256], rtol=1e-6, atol=1e-6)

    @pytest.mark.parametrize("input_size, hidden_size", [(6, 8), (36, 100)])
    def test_matches_textbook_oracle(self, rng, input_size, hidden_size):
        p = init_params(7, input_size=input_size, hidden_size=hidden_size)
        p.vector += rng.normal(0.0, 0.1, p.vector.size).astype(np.float32)
        x = rng.uniform(0, 1, (9, 10, input_size)).astype(np.float32)
        y, _ = forward(p, x)
        np.testing.assert_allclose(y, lstm_forward(p.blocks(), x), rtol=1e-5)

    def test_kernels_leave_parameters_unchanged(self, rng):
        # the halved sigmoid-gate weights are per-call copies
        p = init_params(8, input_size=6, hidden_size=8)
        before = p.vector.copy()
        x = rng.uniform(0, 1, (70, 5, 6)).astype(np.float32)
        forward(p, x)
        backward(p, x, rng.uniform(0, 1, 70).astype(np.float32))
        predict(p, x)
        assert p.vector.tobytes() == before.tobytes()

    def test_wrong_width_rejected(self):
        p = init_params(0, input_size=3, hidden_size=2)
        with pytest.raises(ValueError):
            forward(p, np.zeros((1, 4, 5)))
        with pytest.raises(ValueError):  # one sequence without its batch axis
            forward(p, np.zeros((4, 3)))


class TestBackward:
    def test_gradient_matches_finite_differences(self, rng):
        p = _float64(init_params(11, input_size=5, hidden_size=3))
        x = rng.uniform(0, 1, (2, 4, 5))
        y = rng.uniform(0.1, 0.9, 2)
        grad, _ = backward(p, x, y)
        coords = rng.choice(p.vector.size, 80, replace=False)
        fd = finite_difference_grad(p, x, y, coords)
        for k, fd_val in fd.items():
            rel = abs(grad[k] - fd_val) / max(abs(grad[k]) + abs(fd_val), 1e-6)
            assert rel < 1e-4, f"coordinate {k}: {grad[k]} vs {fd_val}"

    def test_duplicated_rows_leave_gradient_unchanged(self, rng):
        p = _float64(init_params(12, input_size=4, hidden_size=3))
        x = rng.uniform(0, 1, (1, 5, 4))
        y = np.array([0.4])
        g1, mse1 = backward(p, x, y)
        g2, mse2 = backward(p, np.repeat(x, 3, axis=0), np.repeat(y, 3))
        np.testing.assert_allclose(g1, g2, rtol=1e-12, atol=1e-15)
        assert mse1 == pytest.approx(mse2)

    def test_repeat_calls_bitwise_equal(self, rng):
        p = init_params(13, input_size=6, hidden_size=5)
        x = rng.uniform(0, 1, (9, 7, 6)).astype(np.float32)
        y = rng.uniform(0, 1, 9).astype(np.float32)
        g1, mse1 = backward(p, x, y)
        g2, mse2 = backward(p, x, y)
        assert np.array_equal(g1, g2)
        assert mse1 == mse2

    def test_layer_2_is_freed_before_layer_1(self, rng):
        # backward holds the forward caches; of what it makes itself, one
        # layer's reductions at a time, and the gradient vector only at the end
        p = init_params(3)
        x = rng.uniform(0, 1, (72, 10, p.input_size)).astype(np.float32)
        y = rng.uniform(0, 1, 72).astype(np.float32)
        forward_peak = traced_peak(lambda: forward(p, x))
        assert traced_peak(lambda: backward(p, x, y)) <= 1.25 * forward_peak

    def test_caches_hold_only_what_bptt_reads(self, rng):
        # in (T, B, 4H) float32 gate buffers of one layer: a cached forward
        # holds each layer's buffer, c and h, and x, not tanh(c) (parent 4.11);
        # backward gives layer 2 no zero gradients and holds no time-major
        # buffer beside its batch-major copy (parent 4.88)
        p = init_params(3)
        x = rng.uniform(0, 1, (72, 10, p.input_size)).astype(np.float32)
        y = rng.uniform(0, 1, 72).astype(np.float32)
        gate_buffer = x.shape[0] * x.shape[1] * 4 * p.hidden_size * 4
        assert traced_peak(lambda: forward(p, x)) <= 3.8 * gate_buffer
        assert traced_peak(lambda: backward(p, x, y)) <= 4.2 * gate_buffer

    def test_target_mismatch_rejected(self, rng):
        p = init_params(0, input_size=3, hidden_size=2)
        with pytest.raises(ValueError, match="targets"):
            backward(p, rng.uniform(0, 1, (2, 4, 3)), np.zeros(3))

    def test_empty_batch_rejected(self):
        p = init_params(0, input_size=3, hidden_size=2)
        with pytest.raises(ValueError, match="empty"):
            backward(p, np.zeros((0, 4, 3)), np.zeros(0))

    def test_gradient_layout_matches_params(self, rng):
        p = init_params(1, input_size=4, hidden_size=3)
        g, _ = backward(p, rng.uniform(0, 1, (2, 5, 4)).astype(np.float32),
                        np.array([0.2, 0.8], dtype=np.float32))
        assert g.shape == p.vector.shape
        assert g.dtype == p.vector.dtype


class TestOptimizerAndClip:
    def test_clip_rescales_large_gradients(self):
        g = np.array([3.0, 4.0], dtype=np.float32)
        norm = clip_gradient_norm(g, 1.0)
        assert norm == pytest.approx(5.0)
        assert np.linalg.norm(g) == pytest.approx(1.0)

    def test_clip_leaves_small_gradients(self):
        g = np.array([0.3, 0.4], dtype=np.float32)
        clip_gradient_norm(g, 5.0)
        np.testing.assert_array_equal(g, np.array([0.3, 0.4], dtype=np.float32))

    def test_adam_moves_against_gradient(self):
        opt = AdamOptimizer(2, lr=0.1)
        v = np.zeros(2, dtype=np.float32)
        opt.step(v, np.array([1.0, -1.0], dtype=np.float32))
        assert v[0] < 0.0 < v[1]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_adam_step_equals_the_whole_array_expressions(self, rng, dtype):
        n = 1000
        opt = AdamOptimizer(n, lr=1.7e-3, dtype=dtype)
        m, v = np.zeros(n, dtype), np.zeros(n, dtype)
        vec = rng.normal(0, 1, n).astype(dtype)
        ref = vec.copy()
        for t in range(1, 6):
            grad = rng.normal(0, 1, n).astype(dtype)
            opt.step(vec, grad)
            adam_step(m, v, t, ref, grad, 1.7e-3)
        assert vec.tobytes() == ref.tobytes()
        assert opt.m.tobytes() == m.tobytes() and opt.v.tobytes() == v.tobytes()

    def test_adam_step_works_in_two_scratch_vectors(self, rng):
        n = param_count(lstm.DEFAULT_INPUT_SIZE, lstm.DEFAULT_HIDDEN_SIZE)
        assert n == 135_301
        opt = AdamOptimizer(n, lr=1e-3)
        vec = rng.normal(0, 1, n).astype(np.float32)
        grad = rng.normal(0, 1, n).astype(np.float32)
        assert traced_peak(lambda: opt.step(vec, grad)) < 2.5 * vec.nbytes

    def test_lr_scaling_clamped(self):
        cfg = TrainConfig()
        assert scaled_learning_rate(cfg, 100, 100.0) == pytest.approx(1e-3)
        assert scaled_learning_rate(cfg, 1000, 100.0) == pytest.approx(2e-3)
        assert scaled_learning_rate(cfg, 1, 100.0) == pytest.approx(5e-4)
        assert scaled_learning_rate(cfg, 50, None) == pytest.approx(1e-3)


class TestEarlyStopping:
    def test_plateau_stops_exactly_patience_epochs_later(self):
        plateau_start = 7
        stopper = EarlyStopping(patience=20, min_delta=1e-6)
        stopped_at = None
        for epoch in range(1, 100):
            loss = 1.0 / epoch if epoch <= plateau_start else 1.0 / plateau_start
            stopper.update(loss)
            if stopper.should_stop:
                stopped_at = epoch
                break
        assert stopped_at == plateau_start + 20

    def test_sub_delta_improvement_does_not_reset(self):
        stopper = EarlyStopping(patience=3, min_delta=1e-6)
        stopper.update(1.0)
        for epoch in range(2, 5):
            stopper.update(1.0 - 1e-9 * epoch)
        assert stopper.should_stop


def _toy_dataset(rng, n=60, window=6, dim=5):
    x = rng.uniform(0, 1, (n, window, dim)).astype(np.float32)
    y = x[:, -1, :2].mean(axis=1).astype(np.float32)
    return x, y


class TestTrainLocal:
    def test_converges_to_constant_target(self, rng):
        x = rng.uniform(0, 1, (80, 5, 4)).astype(np.float32)
        y = np.full(80, 0.3, dtype=np.float32)
        cfg = TrainConfig(batch_size=16)
        trained, _ = train_local(init_params(0, 4, 6), x, y, cfg, 60, 0)
        preds = predict(trained, x)
        assert np.all(np.abs(preds - 0.3) < 0.05)

    def test_training_loss_decreases(self, rng):
        x, y = _toy_dataset(rng, n=120)
        cfg = TrainConfig(batch_size=24)
        _, report = train_local(init_params(1, 5, 8), x, y, cfg, 30, 2)
        first = np.mean(report.train_mse_curve[:5])
        last = np.mean(report.train_mse_curve[-5:])
        assert last < first

    def test_deterministic_per_seed(self, rng):
        x, y = _toy_dataset(rng)
        cfg = TrainConfig(batch_size=16)
        a, _ = train_local(init_params(3, 5, 6), x, y, cfg, 6, 9)
        b, _ = train_local(init_params(3, 5, 6), x, y, cfg, 6, 9)
        assert np.array_equal(a.vector, b.vector)

    def test_zero_learning_rate_plateaus_after_exactly_patience(self, rng):
        # lr = 0 freezes the model, so validation loss plateaus from epoch 1
        # and training must stop at epoch 1 + patience
        x, y = _toy_dataset(rng)
        cfg = TrainConfig(batch_size=16, base_learning_rate=0.0)
        _, report = train_local(init_params(0, 5, 6), x, y, cfg, 500, 4)
        assert report.epochs_run == 21

    def test_returns_best_epoch_parameters(self, rng):
        x, y = _toy_dataset(rng)
        cfg = TrainConfig(batch_size=16)
        trained, report = train_local(init_params(2, 5, 6), x, y, cfg, 15, 6)
        n_val = int(len(x) * lstm.VALIDATION_FRACTION)
        val_mse = batch_mse(trained, x[-n_val:], y[-n_val:])
        assert val_mse == pytest.approx(min(report.val_mse_curve), rel=1e-5)

    def test_validation_split_holds_out_tail(self):
        assert validation_split(63) == 51
        assert validation_split(5) == 4
        for n in (1, 4):
            with pytest.raises(ValueError, match="validation split"):
                validation_split(n)

    def test_tiny_dataset_rejected(self, rng):
        x = rng.uniform(0, 1, (3, 4, 3)).astype(np.float32)
        with pytest.raises(ValueError, match="validation split"):
            train_local(init_params(0, 3, 2), x, np.zeros(3, dtype=np.float32), TrainConfig(),
                        1, 0)

    def test_holds_no_dead_vector(self, rng):
        # beyond backward's own peak, training holds its working copy and
        # Adam's two moments: not the last batch's gradient, and no best copy
        # before the first validation
        p = init_params(3)
        x = rng.uniform(0, 1, (180, 10, p.input_size)).astype(np.float32)
        y = rng.uniform(0, 1, 180).astype(np.float32)
        cfg = TrainConfig()
        assert validation_split(len(x)) == 2 * cfg.batch_size
        backward_peak = traced_peak(lambda: backward(p, x[: cfg.batch_size], y[: cfg.batch_size]))
        train_peak = traced_peak(lambda: train_local(p, x, y, cfg, 1, 0))
        assert train_peak <= backward_peak + 3.5 * p.vector.nbytes

    def test_zero_epochs_return_the_input_parameters(self, rng):
        x, y = _toy_dataset(rng)
        p = init_params(7, 5, 6)
        trained, report = train_local(p, x, y, TrainConfig(batch_size=16), 0, 1)
        assert np.array_equal(trained.vector, p.vector)
        assert trained.vector is not p.vector
        assert report.epochs_run == 0

    def test_no_finite_validation_loss_returns_the_input_parameters(self, rng):
        x, y = _toy_dataset(rng)
        y[validation_split(len(y)):] = np.nan
        p = init_params(7, 5, 6)
        trained, report = train_local(p, x, y, TrainConfig(batch_size=16), 2, 1)
        assert np.isnan(report.val_mse_curve).all()
        assert np.array_equal(trained.vector, p.vector)

    def test_input_params_not_mutated(self, rng):
        x, y = _toy_dataset(rng)
        p = init_params(7, 5, 6)
        before = p.vector.copy()
        train_local(p, x, y, TrainConfig(batch_size=16), 3, 1)
        assert np.array_equal(p.vector, before)


class TestCheckpoint:
    def test_bit_exact_round_trip(self, tmp_path):
        p = init_params(8)
        path = tmp_path / "model.ckpt"
        save_checkpoint(p, str(path))
        back = load_checkpoint(str(path))
        assert back.input_size == 36 and back.hidden_size == 100
        assert np.array_equal(back.vector, p.vector)
        assert back.vector.dtype == np.float32

    def test_small_net_round_trip(self, tmp_path):
        p = init_params(9, input_size=4, hidden_size=3)
        path = tmp_path / "small.ckpt"
        save_checkpoint(p, str(path))
        assert np.array_equal(load_checkpoint(str(path)).vector, p.vector)

    def _saved(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_params(9, input_size=4, hidden_size=3), str(path))
        return path, path.read_bytes()

    def test_truncated_body_rejected(self, tmp_path):
        path, blob = self._saved(tmp_path)
        path.write_bytes(blob[:-4])
        with pytest.raises(ValueError, match="body holds") as err:
            load_checkpoint(str(path))
        assert str(path) in str(err.value)

    def test_trailing_bytes_rejected(self, tmp_path):
        path, blob = self._saved(tmp_path)
        path.write_bytes(blob + b"\0\0\0\0")
        with pytest.raises(ValueError, match="body holds") as err:
            load_checkpoint(str(path))
        assert str(path) in str(err.value)

    def test_mismatched_manifest_rejected(self, tmp_path):
        path, blob = self._saved(tmp_path)
        path.write_bytes(blob.replace(b"block l1_wh 3x12 48", b"block l1_wh 12x3 48", 1))
        with pytest.raises(ValueError, match="manifest") as err:
            load_checkpoint(str(path))
        assert str(path) in str(err.value)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a checkpoint\n\nxxxx")
        with pytest.raises(ValueError, match="unrecognized"):
            load_checkpoint(str(path))


BACKWARD_FAULTS = """
import resource
import numpy as np
import fedspoof
from fedspoof import lstm
rng = np.random.default_rng(0)
p = lstm.init_params(0)
x = rng.uniform(0, 1, (72, 10, p.input_size)).astype(np.float32)
y = rng.uniform(0, 1, 72).astype(np.float32)
lstm.backward(p, x, y)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(5):
    lstm.backward(p, x, y)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 5)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's malloc settings")
class TestMallocPin:
    """`import fedspoof` makes glibc keep the kernels' freed buffers, unless
    the user tunes malloc."""

    MALLOC = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "GLIBC_TUNABLES")

    def _backward_faults(self, **user) -> float:
        """Minor page faults per `backward` call on 72 windows, after one
        warm-up call, in a fresh interpreter whose environment sets only
        `user` of the malloc settings."""
        env = {k: v for k, v in os.environ.items() if k not in self.MALLOC}
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = os.pathsep.join([src, *filter(None, [env.get("PYTHONPATH")])])
        out = subprocess.run([sys.executable, "-c", BACKWARD_FAULTS], env={**env, **user},
                             capture_output=True, text=True, check=True)
        return float(out.stdout)

    def test_backward_reuses_its_buffers(self):
        assert self._backward_faults() <= 100

    @pytest.mark.parametrize("user", [{"MALLOC_TRIM_THRESHOLD_": "0"},
                                      {"MALLOC_MMAP_THRESHOLD_": "131072"},
                                      {"GLIBC_TUNABLES": "glibc.malloc.trim_threshold=0"}])
    def test_user_malloc_setting_kept(self, user):
        # trimming on every free, or a mapping of its own for each buffer
        # over 128 KiB, as the user asked: each call faults its buffers in again
        assert self._backward_faults(**user) > 100
