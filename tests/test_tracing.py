"""The benchmark's tracer resolves every name it wraps.

`bench/tracing.py` patches fedspoof functions by module and attribute name,
so renaming or deleting one of them breaks the traced benchmark runs.  This
installs and uninstalls the tracer without running anything.
"""

import importlib.util
import os

# cli imports every fedspoof module, which the tracer looks up in sys.modules
from fedspoof import cli, experiments, fusion  # noqa: F401

TRACING_PY = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "tracing.py"
)


def test_tracer_installs_and_uninstalls():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING_PY)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    original = fusion.fuse_trace
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert fusion.fuse_trace is not original
        assert experiments.fuse_trace is fusion.fuse_trace
    finally:
        tracer.uninstall()
    assert fusion.fuse_trace is original and experiments.fuse_trace is original
