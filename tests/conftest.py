# fedspoof before numpy: importing the package pins the BLAS to one thread,
# without which the suite's process would run a thread per CPU and never
# fork its shards
import fedspoof  # noqa: F401

import numpy as np
import pytest

from fedspoof import features, fusion, lstm, simulate
from fedspoof.experiments import build_bundles


@pytest.fixture(scope="session")
def tiny_corpus():
    """Six short traces across six devices; enough attack time for both classes."""
    cfg = simulate.SimConfig(n_traces=6, duration_s=80.0, rng_seed=3)
    return cfg, simulate.generate(cfg)


@pytest.fixture(scope="session")
def tiny_bundles(tiny_corpus):
    cfg, traces = tiny_corpus
    part = simulate.partition(traces, "iid", 2, cfg.rng_seed)
    return build_bundles(
        part,
        fusion.FusionConfig(),
        features.FeatureConfig(),
        lstm.TrainConfig(),
        cfg.rng_seed,
    )


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
