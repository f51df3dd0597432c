#!/usr/bin/env python3
"""fedspoof benchmark: closed-loop, single-process workloads.

    python3 bench/run.py --workload fed-gated --seed 1 --seconds 45 --trace 0

runs one workload from the root of a checkout and prints, as its last
stdout line, one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with `--trace 0`, the per-layer metrics
from a traced run with `--trace 1`.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: the keys of workloads.WORKLOADS, named here so that argument parsing need
#: not import numpy or fedspoof
WORKLOAD_NAMES = ("fed-gated", "eval-matrix")
#: at the LSTM's matrix sizes a second OpenBLAS thread gained nothing (a gated
#: two-round federation took 7.3 s on one thread, 8.5 s on two), so every run
#: uses one and leaves the second core to the rest of the machine
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "auc": "ratio",
    "checks_passed_frac": "ratio",
}


class Ledger:
    """The checks of one run, each counted once however often it is made: a
    check fails if it failed on any set-up or pass.  So `attempted` does not
    grow with the number of passes, and one failed check always lowers
    `checks_passed_frac` by 1/attempted."""

    def __init__(self) -> None:
        self.checks: dict[str, bool] = {}

    def record(self, check: str, ok: bool) -> None:
        if not ok:
            print(f"FAILED: {check}", file=sys.stderr)
        self.checks[check] = self.checks.get(check, True) and ok

    @property
    def attempted(self) -> int:
        return len(self.checks)

    @property
    def failed(self) -> list[str]:
        return [check for check, ok in self.checks.items() if not ok]


def _blas_threads() -> int | None:
    """Thread count OpenBLAS reports, when numpy bundles an OpenBLAS."""
    import ctypes
    import glob

    import numpy as np

    libs_dir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs_dir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = 0
    pkg = os.path.join(SRC, "fedspoof")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                src_lines += sum(1 for _ in fh)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": round(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**20),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "src_lines": src_lines,
    }


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _finite_unit(value: float) -> bool:
    return math.isfinite(value) and 0.0 <= value <= 1.0


def _median(values) -> float:
    """Median, or 0.0 where a failure left nothing to measure."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def run_workload(args, import_s: float) -> dict:
    import tracing
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    ledger = Ledger()
    tracer = tracing.Tracer() if args.trace else None
    work_dir = os.path.join(ROOT, ".bench_out", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        # Every pass has a set-up of its own before it, so the set-up times
        # sample the whole run, as the pass times do, and not only its start.
        setup_s, digests, passes = [], [], []  # passes: (seconds, traced, cpu s, result)
        n_traced = 0
        start = time.perf_counter()
        while True:
            if tracer:  # every set-up is traced in a traced run
                tracer.uninstall()
                tracer.phase = f"setup{len(setup_s)}"
                tracer.install()
            state = None
            gc.collect()
            t0 = time.perf_counter()
            try:
                state = wl.setup(args.seed, work_dir)
                seconds = time.perf_counter() - t0
                digests.append(wl.setup_digest(state))
            except Exception:  # noqa: BLE001 - a failing set-up is a measured failure
                traceback.print_exc()
                ledger.record("every set-up completes", False)
                break
            setup_s.append(seconds)
            ledger.record("every set-up completes", True)
            ledger.record("every set-up repeats the first one's inputs", digests[-1] == digests[0])

            # a traced run alternates traced and untraced passes, traced first
            traced = tracer is not None and 2 * n_traced <= len(passes)
            if tracer:
                tracer.uninstall()
                if traced:
                    tracer.phase = f"pass{n_traced}"
                    tracer.install()
            gc.collect()  # start every pass with the same heap
            cpu0, t0 = _cpu_s(), time.perf_counter()
            try:
                res = wl.run(state)
                seconds, cpu_s = time.perf_counter() - t0, _cpu_s() - cpu0
                checks = wl.check(state, res)
            except Exception:  # noqa: BLE001 - a failing pass is a measured failure
                traceback.print_exc()
                ledger.record("every pass completes", False)
                break
            passes.append((seconds, traced, cpu_s, res))
            n_traced += traced
            ledger.record("every pass completes", True)
            for check, ok in checks:
                ledger.record(check, ok)
            res.scratch.clear()
            ledger.record("every AUC finite in [0, 1]", all(map(_finite_unit, res.aucs.values())))
            ledger.record("every pass repeats the first one's AUCs and outputs",
                          repr((res.aucs, res.outputs))
                          == repr((passes[0][3].aucs, passes[0][3].outputs)))
            # two passes at least, so that the repeat checks always compare
            enough = (n_traced >= 2 and len(passes) > n_traced) if tracer else len(passes) >= 2
            if enough and time.perf_counter() - start >= args.seconds:
                break
        if tracer:
            tracer.uninstall()

        untraced = [p for p in passes if not p[1]]
        aucs = passes[0][3].aucs if passes else {}
        figures = {}
        for name, (_, unit) in (passes[0][3].figures.items() if passes else ()):
            figures[name] = (_median(p[3].figures[name][0] for p in untraced), unit)
        for name, value in aucs.items():
            figures[name] = (value, "ratio")
        if tracer:
            metrics = layer_metrics(tracer, untraced, [p for p in passes if p[1]], ledger)
            write_spans(tracer, args)
        else:
            metrics = {
                "setup_s": import_s + _median(setup_s),
                "run_s": _median(p[0] for p in untraced),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "auc": _mean(aucs.get(name, 0.0) for name in wl.GUARD_AUCS),
                "checks_passed_frac": 1.0 - len(ledger.failed) / ledger.attempted,
            }
            metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
        figures["failed_frac"] = (len(ledger.failed) / ledger.attempted, "ratio")
        figures["set-ups"] = (len(setup_s), "count")
        figures["passes"] = (len(passes), "count")
        return {"ledger": ledger, "metrics": metrics, "figures": figures, "passes": passes}
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(work_dir, ignore_errors=True)


LAYERS = ("simulate", "domain", "fusion", "features", "labels", "lstm", "federation",
          "metrics", "experiments", "cli", "config")


def layer_metrics(tracer, untraced: list, traced_passes: list,
                  ledger: Ledger) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one set-up plus one traced pass, and the exact
    counts check: every set-up and every traced pass must repeat the counts
    of the first one."""
    setups = sorted({s[3] for s in tracer.spans if s[3].startswith("setup")})
    traced = sorted({s[3] for s in tracer.spans if s[3].startswith("pass")})
    phases = setups + traced
    counts = {ph: tracer.phase_counts(ph) for ph in phases}
    for group in (setups, traced):
        for ph in group[1:]:
            ledger.record(f"{ph}: counts repeat {group[0]} exactly",
                          counts[ph] == counts[group[0]])

    def per_unit(fn) -> float:
        # what one set-up plus one traced pass costs
        return _mean(fn(ph) for ph in setups) + _mean(fn(ph) for ph in traced)

    def count(key: str) -> float:
        return per_unit(lambda ph: counts[ph].get(key, 0))

    totals = tracer.span_totals()

    def secs(name: str) -> float:
        return per_unit(lambda ph: totals[(ph, name)])

    def rate(name: str, key: str | None, per: float, scale: float) -> float:
        """scale x seconds in `name` per `per` units of `key` (calls if None)."""
        n = sum(counts[ph].get(f"{name}.{key or 'calls'}", 0) for ph in phases)
        t = sum(totals[(ph, name)] for ph in phases)
        return scale * t / n * per if n else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    gated = count("federation.run_rounds.gated_rounds")
    rounds = count("federation.run_rounds.rounds")
    # the gate's work: screening every candidate, plus scoring the broadcast model
    gate_s = per_unit(lambda ph: totals[(ph, "federation.quality_gate")] + totals[
        (ph, "federation.score_candidate", "federation.run_rounds")])
    fed_calls = count("experiments.run_federated.calls")
    traced_s = _median(p[0] for p in traced_passes)
    untraced_s = _median(p[0] for p in untraced)
    self_times = tracer.self_times()

    m = {
        "simulate.generate.ms_per_1k_samples": (rate("simulate.generate", "samples", 1e3, 1e3), "ms"),
        "domain.write_dataset.ms_per_1k_samples": (
            rate("domain.write_dataset", "samples", 1e3, 1e3), "ms"),
        "domain.read_dataset.ms_per_1k_samples": (
            rate("domain.read_dataset", "samples", 1e3, 1e3), "ms"),
        "domain.dataset_bytes": (ratio(count("domain.write_dataset.bytes"),
                                       count("domain.write_dataset.calls")), "bytes"),
        "fusion.fuse_trace.ms_per_1k_samples": (rate("fusion.fuse_trace", "samples", 1e3, 1e3), "ms"),
        "fusion.fuse_trace.calls_per_trace": (ratio(count("fusion.fuse_trace.calls"),
                                                    count("fusion.fuse_trace.trace_keys")), "ratio"),
        "features.extract_raw.ms_per_1k_samples": (
            rate("features.extract_raw", "samples", 1e3, 1e3), "ms"),
        "features.apply_normalization.ms_per_1k_samples": (
            rate("features.apply_normalization", "samples", 1e3, 1e3), "ms"),
        "features.make_windows.ms_per_1k_windows": (
            rate("features.make_windows", "windows", 1e3, 1e3), "ms"),
        "labels.generate.ms_per_1k_samples": (rate("labels.generate", "samples", 1e3, 1e3), "ms"),
        "lstm.backward.calls": (count("lstm.backward.calls"), "count"),
        "lstm.backward.ms_per_batch": (rate("lstm.backward", None, 1, 1e3), "ms"),
        "lstm.train_local.s_per_epoch": (rate("lstm.train_local", "epochs", 1, 1), "s"),
        "lstm.predict.calls": (count("lstm.predict.calls"), "count"),
        "lstm.predict.windows": (count("lstm.predict.windows"), "count"),
        "lstm.predict.ms_per_512_windows": (rate("lstm.predict", "windows", 512, 1e3), "ms"),
        "lstm.batch_mse.s": (secs("lstm.batch_mse"), "s"),
        "federation.client_train.s_per_client_round": (
            rate("federation.client_train", None, 1, 1), "s"),
        "federation.quality_gate.s_per_gated_round": (ratio(gate_s, gated), "s"),
        "federation.score_candidate.calls_per_gated_round": (
            ratio(count("federation.score_candidate.calls"), gated), "count"),
        "federation.gate.accept_ratio": (ratio(count("federation.quality_gate.accepted"),
                                               count("federation.quality_gate.calls")), "ratio"),
        "federation.gate.abstentions": (count("federation.score_candidate.abstentions"), "count"),
        "federation.fedavg.ms_per_call": (rate("federation.fedavg", None, 1, 1e3), "ms"),
        "federation.validation_mse.s_per_round": (
            ratio(secs("federation.validation_mse"), rounds), "s"),
        "federation.from_traces.s": (secs("federation.from_traces"), "s"),
        "metrics.auc_from_scores.ms_per_100k_scores": (
            rate("metrics.auc_from_scores", "scores", 1e5, 1e3), "ms"),
        "metrics.roc.ms": (1e3 * secs("metrics.roc"), "ms"),
        "metrics.write_roc_csv.ms": (1e3 * secs("metrics.write_roc_csv"), "ms"),
        "experiments.build_bundles.s": (secs("experiments.build_bundles"), "s"),
        "experiments.run_federated.calls": (fed_calls, "count"),
        "experiments.run_federated.distinct_ratio": (
            ratio(count("experiments.run_federated.fed_keys"), fed_calls), "ratio"),
        "experiments.run_centralized.s": (secs("experiments.run_centralized"), "s"),
        "experiments.model_scores.s": (secs("experiments.model_scores"), "s"),
        "cli.main.generate.s": (secs("cli.main.generate"), "s"),
        "cli.main.eval.s": (secs("cli.main.eval"), "s"),
        "config.load_config.ms": (rate("config.load_config", None, 1, 1e3), "ms"),
        "process.cpu_s": (_median(p[2] for p in untraced), "s"),
        "process.cpu_per_wall": (_median(p[2] / p[0] for p in untraced), "ratio"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
        "trace.spans": (float(len(tracer.spans)), "count"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (per_unit(lambda ph: self_times[ph].get(layer, 0.0)), "s")
    return m


def write_spans(tracer, args) -> None:
    """Spans and per-phase counts of a traced run, as one JSON file."""
    out_dir = os.path.join(ROOT, ".bench_out")
    path = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.json")
    phases = sorted(set(tracer.counts) | set(tracer.sets))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({
            "workload": args.workload,
            "seed": args.seed,
            "span_fields": ["id", "parent", "name", "phase", "start_s", "end_s"],
            "spans": tracer.spans,
            "counts": {ph: tracer.phase_counts(ph) for ph in phases},
        }, fh)
    print(f"spans written to {os.path.relpath(path, ROOT)}")


def print_report(workload: str, result: dict) -> None:
    for i, (seconds, traced, _, _) in enumerate(result["passes"]):
        print(f"{workload:12s} pass {i} {'traced' if traced else 'untraced'} {seconds:.4f} s")
    for name, (value, unit) in {**result["metrics"], **result["figures"]}.items():
        print(f"{workload:12s} {name:50s} {value:16.6g} {unit}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    if not os.path.isfile(os.path.join(SRC, "fedspoof", "__init__.py")):
        print(f"error: no fedspoof sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import fedspoof.cli  # noqa: F401 - imports every fedspoof module

    if os.path.dirname(os.path.abspath(fedspoof.__file__)) != os.path.join(SRC, "fedspoof"):
        print(f"error: fedspoof imported from {fedspoof.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0

    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    result = run_workload(args, import_s)
    print_report(args.workload, result)
    ledger = result["ledger"]
    print(json.dumps({
        "correct": not ledger.failed,
        "attempted": ledger.attempted,
        "failed": len(ledger.failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
