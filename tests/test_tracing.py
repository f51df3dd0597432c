"""The benchmark's tracer resolves every name it wraps and counts what it reads.

`bench/tracing.py` patches fedspoof functions by module and attribute name,
and derives its counts from their arguments and results, so renaming or
deleting one of them, or changing what one returns, breaks the traced
benchmark runs.
"""

import importlib.util
import os

import numpy as np

# cli imports every fedspoof module, which the tracer looks up in sys.modules
from fedspoof import cli, experiments, features, fusion, lstm, simulate  # noqa: F401

TRACING_PY = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "tracing.py"
)


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING_PY)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_tracer_installs_and_uninstalls():
    original = fusion.fuse_trace
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        assert fusion.fuse_trace is not original
        assert experiments.fuse_trace is fusion.fuse_trace
    finally:
        tracer.uninstall()
    assert fusion.fuse_trace is original and experiments.fuse_trace is original


def test_tracer_counts_the_epochs_train_local_ran(rng, monkeypatch):
    # a frozen model stops early, at epoch 1 + patience of the 10 allowed
    monkeypatch.setattr(lstm, "EARLY_STOP_PATIENCE", 2)
    x = rng.uniform(0, 1, (20, 3, 2)).astype(np.float32)
    y = rng.uniform(0, 1, 20).astype(np.float32)
    cfg = lstm.TrainConfig(batch_size=8, base_learning_rate=0.0)
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        _, report = lstm.train_local(lstm.init_params(0, 2, 2), x, y, cfg, 10, 0)
    finally:
        tracer.uninstall()
    assert report.epochs_run == 3
    counts = tracer.phase_counts(tracer.phase)
    assert counts["lstm.train_local.calls"] == 1
    assert counts["lstm.train_local.epochs"] == report.epochs_run


def test_tracer_counts_the_windows_and_samples_built(tiny_corpus):
    # the trace split windows test traces too, and leaves one client none
    cfg, traces = tiny_corpus
    part = simulate.partition(traces, "non-iid-by-trace", 2, cfg.rng_seed)
    assert sorted(bool(split.test) for split in part.values()) == [False, True]
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        bundles = experiments.build_bundles(part, fusion.FusionConfig(), features.FeatureConfig(),
                                            lstm.TrainConfig(), cfg.rng_seed)
    finally:
        tracer.uninstall()
    counts = tracer.phase_counts(tracer.phase)
    windows = sum(b.client.n_train + len(b.test_x) for b in bundles)
    assert counts["features.make_windows.windows"] == windows > 0
    samples = sum(len(t) for split in part.values() for t in split.train)
    assert counts["labels.generate.samples"] == samples > 0
