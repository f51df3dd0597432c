import numpy as np
import pytest

from fedspoof.metrics import (
    SingleClassError,
    auc,
    auc_from_scores,
    roc,
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
