import os

# one BLAS thread, as CI runs the suite: an unpinned OpenBLAS starts a thread
# per CPU at import, and a process with threads never forks its shards, so
# the forked shard paths would run only in CI; set before numpy's import
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from fedspoof import features, fusion, lstm, simulate  # noqa: E402
from fedspoof.experiments import build_bundles  # noqa: E402


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
