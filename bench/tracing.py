"""In-memory spans and counts around fedspoof's public functions.

`Tracer.install` replaces each traced function at every module binding that
holds it, so a function reached through `from .fusion import fuse_trace` in
`federation` and `experiments` is traced as well as `fusion.fuse_trace`.
`Tracer.uninstall` puts the original objects back, which lets one run
alternate traced and untraced passes.  Spans are (id, parent, name, phase,
start, end); counts are kept per phase, where a phase is one set-up or one
pass of the workload.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import Counter, defaultdict


PACKAGE = "fedspoof"


def _samples(traces) -> int:
    return sum(len(t) for t in traces)


def _fed_key(tracer, args):
    # a federation is fully determined by its clients and its config; keep
    # the clients alive so their ids stay unique for the whole run
    tracer.held.append(args["bundles"])
    return (tuple(id(b.client) for b in args["bundles"]), args["fed_cfg"])


# (module, attribute, span name, counts derived from the bound arguments and result)
TRACED = (
    ("simulate", "generate", None, lambda t, a, r: {"samples": _samples(r)}),
    ("simulate", "partition", None, None),
    ("domain", "write_dataset", None, lambda t, a, r: {
        "samples": _samples(a["traces"]), "bytes": os.path.getsize(a["path"])}),
    ("domain", "read_dataset", None, lambda t, a, r: {"samples": _samples(r)}),
    ("fusion", "fuse_trace", None, lambda t, a, r: {
        "samples": len(a["trace"]),
        "trace_keys": {(a["trace"].platform_id, a["trace"].trace_id)}}),
    ("fusion", "pds_score", None, None),
    ("fusion", "residual_norm_m", None, None),
    ("features", "extract_raw", None, lambda t, a, r: {"samples": len(a["trace"])}),
    ("features", "fit_normalization", None, None),
    ("features", "apply_normalization", None, lambda t, a, r: {"samples": a["raw"].shape[0]}),
    ("features", "make_windows", None, lambda t, a, r: {"windows": r[0].shape[0]}),
    ("labels", "raw_deviations", None, None),
    ("labels", "fit_label_norm", None, None),
    ("labels", "generate", None, lambda t, a, r: {"samples": len(a["trace"])}),
    ("lstm", "init_params", None, None),
    ("lstm", "forward", None, None),
    ("lstm", "backward", None, lambda t, a, r: {"windows": a["x"].shape[0]}),
    ("lstm", "predict", None, lambda t, a, r: {"windows": a["x"].shape[0]}),
    ("lstm", "batch_mse", None, None),
    ("lstm", "train_local", None, lambda t, a, r: {"epochs": r[1].epochs_run}),
    ("federation", "fedavg", None, None),
    ("federation", "quality_gate", None, lambda t, a, r: {
        "accepted": int(r[0]), "reports": len(r[1])}),
    ("federation", "run_rounds", None, lambda t, a, r: {
        "rounds": a["cfg"].rounds,
        "gated_rounds": max(0, a["cfg"].rounds - a["cfg"].gate_warmup_rounds)
        if a["cfg"].gate_enabled else 0}),
    ("federation", "LocalClient.from_traces", "federation.from_traces", None),
    ("federation", "LocalClient.train", "federation.client_train", None),
    ("federation", "LocalClient.score_candidate", "federation.score_candidate",
     lambda t, a, r: {"abstentions": int(r is None)}),
    ("federation", "LocalClient.validation_mse", "federation.validation_mse", None),
    ("metrics", "roc", None, None),
    ("metrics", "auc", None, None),
    ("metrics", "auc_from_scores", None, lambda t, a, r: {"scores": len(a["scores"])}),
    ("metrics", "write_roc_csv", None, None),
    ("experiments", "build_bundles", None, None),
    ("experiments", "pooled_test", None, None),
    ("experiments", "model_scores", None, None),
    ("experiments", "pds_pooled", None, None),
    ("experiments", "run_federated", None, lambda t, a, r: {"fed_keys": {_fed_key(t, a)}}),
    ("experiments", "pooled_training_set", None, None),
    ("experiments", "run_centralized", None, None),
    ("experiments", "experiment_matrix", None, None),
    ("experiments", "write_auc_table", None, None),
    ("config", "load_config", None, None),
    ("config", "config_hash", None, None),
    ("cli", "main", None, None),
)


class Tracer:
    """Spans and per-phase counts for the functions listed in TRACED."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, str, float, float]] = []
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self.sets: dict[str, dict[str, set]] = defaultdict(lambda: defaultdict(set))
        self.held: list = []
        self.phase = ""
        self._next_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @staticmethod
    def _modules():
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]

    def _wrap(self, fn, name: str, count_fn):
        tracer = self
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name
            if name == "cli.main":
                argv = args[0] if args else kwargs.get("argv")
                span_name = f"cli.main.{argv[0] if argv else 'none'}"
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append((sid, parent, span_name, tracer.phase, start, end))
            counts = tracer.counts[tracer.phase]
            counts[f"{span_name}.calls"] += 1
            if count_fn is not None:
                bound = signature.bind(*args, **kwargs).arguments
                for key, value in count_fn(tracer, bound, result).items():
                    if isinstance(value, set):
                        tracer.sets[tracer.phase][f"{span_name}.{key}"] |= value
                    else:
                        counts[f"{span_name}.{key}"] += value
            return result

        return traced

    def install(self) -> None:
        """Wrap every TRACED function at every binding that holds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {m.__name__.rsplit(".", 1)[-1]: m for m in self._modules()}
        for module_name, attr, span_name, count_fn in TRACED:
            span_name = span_name or f"{module_name}.{attr}"
            owner = modules[module_name]
            if "." in attr:  # a method: patch the class dict entry
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, span_name, count_fn))
                else:
                    wrapped = self._wrap(raw, span_name, count_fn)
                self._patches.append((cls, meth, raw))
                setattr(cls, meth, wrapped)
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(original, span_name, count_fn)
            for module in modules.values():
                for binding, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, binding, original))
                        setattr(module, binding, wrapped)

    def uninstall(self) -> None:
        for target, binding, original in reversed(self._patches):
            setattr(target, binding, original)
        self._patches.clear()

    def phase_counts(self, phase: str) -> dict[str, int]:
        """Every count of one phase, distinct-key sets reduced to their sizes."""
        out = dict(self.counts[phase])
        for key, values in self.sets[phase].items():
            out[key] = len(values)
        return out

    def self_times(self) -> dict[str, dict[str, float]]:
        """phase -> layer -> seconds spent in that layer's own code.

        A span's self time is its duration minus its direct children's
        durations; spans nest, so children never overlap.
        """
        child = defaultdict(float)
        for _, parent, _, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for sid, _, name, phase, start, end in self.spans:
            out[phase][name.split(".", 1)[0]] += end - start - child[sid]
        return out

    def span_totals(self) -> dict[tuple, float]:
        """Seconds per (phase, name) and per (phase, name, direct parent's name)."""
        names = {sid: n for sid, _, n, _, _, _ in self.spans}
        out: dict[tuple, float] = defaultdict(float)
        for _, parent, name, phase, start, end in self.spans:
            out[(phase, name)] += end - start
            out[(phase, name, names.get(parent))] += end - start
        return out
