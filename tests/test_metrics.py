import math

import numpy as np
import pytest

import oracles
from fedspoof.experiments import MatrixRow, write_auc_table
from fedspoof.metrics import (
    RocCurve,
    SingleClassError,
    auc,
    auc_from_scores,
    roc,
    score_row,
    write_csv,
    write_roc_csv,
)


def pairwise_auc(scores, truth):
    """O(n^2) rank oracle: P(score_pos > score_neg), ties counted one half."""
    pos = scores[truth]
    neg = scores[~truth]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


class TestRoc:
    def test_perfect_separation(self):
        scores = np.array([0.9, 0.8, 0.7, 0.2, 0.1])
        truth = np.array([True, True, True, False, False])
        curve = roc(scores, truth)
        assert auc(curve) == 1.0
        # passes through the (0, 1) corner
        assert any(fp == 0.0 and tp == 1.0 for fp, tp in zip(curve.fpr, curve.tpr))

    def test_non_finite_scores_rejected(self):
        # NaNs never tie, so each would become a threshold of its own and
        # all-NaN scores would get an AUC set by the input order
        truth = np.arange(10) % 2 == 0
        for bad in (np.full(10, np.nan), np.where(truth, 0.9, np.inf)):
            with pytest.raises(ValueError, match="finite"):
                roc(bad, truth)
            with pytest.raises(ValueError, match="finite"):
                auc_from_scores(bad, truth)

    def test_constant_scores_give_half(self):
        scores = np.full(10, 0.5)
        truth = np.arange(10) < 4
        assert auc_from_scores(scores, truth) == pytest.approx(0.5)

    def test_endpoints_and_monotonicity(self, rng):
        for _ in range(50):
            n = int(rng.integers(4, 200))
            scores = rng.normal(0, 1, n)
            truth = rng.random(n) < 0.4
            if truth.all() or not truth.any():
                continue
            curve = roc(scores, truth)
            assert curve.fpr[0] == 0.0 and curve.tpr[0] == 0.0
            assert curve.fpr[-1] == 1.0 and curve.tpr[-1] == 1.0
            assert np.all(np.diff(curve.fpr) >= 0.0)
            assert np.all(np.diff(curve.tpr) >= 0.0)
            assert curve.thresholds[0] == np.inf
            assert np.all(np.diff(curve.thresholds) < 0.0)

    def test_matches_pairwise_oracle_with_ties(self, rng):
        for trial in range(30):
            n = int(rng.integers(5, 80))
            scores = np.round(rng.uniform(0, 1, n), 1 if trial % 2 else 6)
            truth = rng.random(n) < 0.5
            if truth.all() or not truth.any():
                continue
            assert auc_from_scores(scores, truth) == pytest.approx(
                pairwise_auc(scores, truth), abs=1e-9
            )

    def test_invariant_under_monotone_transform(self, rng):
        scores = rng.uniform(0, 1, 60)
        truth = rng.random(60) < 0.5
        base = auc_from_scores(scores, truth)
        assert auc_from_scores(np.exp(4.0 * scores), truth) == pytest.approx(base, abs=1e-12)
        assert auc_from_scores(scores**3, truth) == pytest.approx(base, abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(SingleClassError):
            roc(np.array([0.1, 0.2]), np.array([True, True]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            roc(np.array([0.1, 0.2]), np.array([True]))


class TestCsv:
    def test_round_trip_values(self, tmp_path, rng):
        scores = rng.uniform(0, 1, 25)
        truth = rng.random(25) < 0.5
        truth[0], truth[1] = True, False
        curve = roc(scores, truth)
        path = tmp_path / "c.csv"
        write_roc_csv(curve, str(path))
        data = np.genfromtxt(str(path), delimiter=",", skip_header=1)
        np.testing.assert_allclose(data[:, 1], curve.fpr, atol=1e-9)
        np.testing.assert_allclose(data[:, 2], curve.tpr, atol=1e-9)

    def test_score_row_writes_the_roc(self, tmp_path, rng):
        scores = rng.uniform(0, 1, 40)
        truth = rng.random(40) < 0.3
        truth[0], truth[1] = True, False
        path = tmp_path / "row.csv"
        got = score_row(scores, truth, str(path))
        assert got == (auc_from_scores(scores, truth), int(truth.sum()), int((~truth).sum()))
        write_roc_csv(roc(scores, truth), str(tmp_path / "ref.csv"))
        assert path.read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_score_row_single_class_is_nan(self, tmp_path):
        path = tmp_path / "row.csv"
        auc_value, n_pos, n_neg = score_row(np.array([0.1, 0.2]), np.zeros(2, bool), str(path))
        assert math.isnan(auc_value) and (n_pos, n_neg) == (0, 2)
        assert not path.exists()


class TestWriteCsv:
    """`write_csv` writes every table byte for byte as the formatters it replaced."""

    def _same(self, tmp_path, old, new):
        old(str(tmp_path / "old.csv"))
        new(str(tmp_path / "new.csv"))
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_roc(self, tmp_path):
        curve = RocCurve(fpr=np.array([0.0, -0.0, 1e-300, 1 / 3, 1.0]),
                         tpr=np.array([0.0, 0.1, 2 / 3, 1.0, 1.0]),
                         thresholds=np.array([np.inf, 0.987654321012, 1e-300, -0.0, -2.5]))
        self._same(tmp_path, lambda p: oracles.write_roc_csv(curve, p),
                   lambda p: write_roc_csv(curve, p))

    def test_auc_line(self, tmp_path):
        row = ("federated", np.float64(0.1) + np.float64(0.2), np.int64(96), 344)
        self._same(tmp_path, lambda p: oracles.write_auc(p, *row),
                   lambda p: write_csv(p, ("method", "auc", "n_pos", "n_neg"), [row]))

    def test_centralized_metrics(self, tmp_path):
        train = [np.float64(0.25), 1e-300, -0.0, 1 / 7]
        val = [0.5, np.float64(2 / 3), 1e-300, 123456.789012345]
        self._same(tmp_path, lambda p: oracles.write_centralized_metrics(p, train, val),
                   lambda p: write_csv(p, ("epoch", "train_mse", "val_mse"),
                                       zip(range(1, len(train) + 1), train, val)))

    def test_round_metrics(self, tmp_path):
        rows = [
            {"round": 1, "accepted_clients": np.int64(6), "mean_gate_auc": math.nan,
             "global_val_mse": np.float64(0.0123456789012)},
            {"round": 2, "accepted_clients": 5, "mean_gate_auc": np.float64(0.75),
             "global_val_mse": -0.0},
            {"round": 3, "accepted_clients": 0, "mean_gate_auc": 1e-300,
             "global_val_mse": 1e-300},
        ]
        self._same(tmp_path, lambda p: oracles.write_round_metrics(rows, p),
                   lambda p: write_csv(p, rows[0].keys(), [r.values() for r in rows]))

    def test_auc_table(self, tmp_path):
        rows = [
            MatrixRow("clfl", "iid", "federated", "all", np.float64(0.867338905), 96, 344),
            MatrixRow("per_device", "trace", "local", "device_3", math.nan, np.int64(0), 12),
            MatrixRow("per_model", "trace", "federated", "flagship", -0.0, 1, np.int64(1)),
            MatrixRow("cross_model", "iid", "federated", "train_x", 1e-300, 2, 3),
        ]
        for table in (rows, []):
            self._same(tmp_path, lambda p: oracles.write_auc_table(table, p),
                       lambda p: write_auc_table(table, p))
