"""Test-side clients: clients built from bare windows, for tests that need no
traces, and a faulty client, the one way the tests inject a bad update; and
traces cut short, for clients with fewer windows."""

from dataclasses import replace

import numpy as np

from fedspoof import domain, features
from fedspoof.federation import LocalClient
from fedspoof.lstm import LstmModelParams

#: the feature map of every bare-window client, fitted on one all-zero sample
FEATURE_MAP = features.fit_normalization([np.zeros((1, features.N_FEATURES))])


def client_from_windows(client_id, x, y, train_cfg, seed):
    """A client that trains on bare (n, W, D) windows x with targets y, seeded
    by seed.  x is held as `features.Windows` that do not overlap: the
    windows' rows laid end to end, each window ending W rows after the last."""
    n, w, d = np.shape(x)
    windows = features.Windows(np.reshape(x, (-1, d)), np.arange(w - 1, n * w, w), w)
    return LocalClient(client_id, windows, y, train_cfg, seed, FEATURE_MAP)


class FaultyClient(LocalClient):
    """`client`, except that from round `from_round` on its update's parameter
    vector is replaced by `fault(update)`, as a poisoned or diverged platform
    would upload it."""

    def __init__(self, client, from_round, fault):
        super().__init__(client.client_id, client.train_x, client.train_y, client.train_cfg,
                         client.seed, client.feature_norm)
        self.from_round = from_round
        self.fault = fault

    def train(self, global_params, round_index, *args):
        update = super().train(global_params, round_index, *args)
        if round_index < self.from_round:
            return update
        p = update.params
        return replace(update, params=LstmModelParams(p.input_size, p.hidden_size,
                                                      self.fault(update)))


def shuffled(seed):
    """A fault: the update's vector permuted, seeded by seed, round and client."""

    def permute(update):
        rng = np.random.default_rng(
            np.random.SeedSequence([seed, update.round_index, update.client_id]))
        return update.params.vector[rng.permutation(update.params.vector.size)]

    return permute


def not_finite(update):
    """A fault: every parameter NaN, as a diverged training leaves it."""
    return np.full_like(update.params.vector, np.nan)


def first_samples(trace, n):
    """trace cut to its first n samples."""
    return replace(trace, **{name: getattr(trace, name)[:n] for name in domain.COLUMN_SHAPES})
