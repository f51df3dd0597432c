"""Clients built from bare windows, for tests that need no traces."""

import numpy as np

from fedspoof import features
from fedspoof.federation import LocalClient

#: the feature map of every bare-window client, fitted on one all-zero sample
FEATURE_MAP = features.fit_normalization([np.zeros((1, features.N_FEATURES))])


def client_from_windows(client_id, x, y, train_cfg):
    """A client that trains on windows x with targets y."""
    return LocalClient(client_id, x, y, train_cfg, FEATURE_MAP)
