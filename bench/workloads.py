"""The benchmark's workloads.

Each workload has a `setup` (what a researcher waits for before the work
starts), a `run` that is one timed pass of the work, and a `check` of the
pass's outputs made after its clock has stopped.  A pass returns the AUCs it
produced, figures the benchmark timed around its own calls into fedspoof,
and outputs that must repeat exactly for one seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from fedspoof import cli, config, experiments, federation, metrics, simulate

MATRIX_INI = os.path.join(os.path.dirname(os.path.abspath(__file__)), "matrix.ini")

#: gated federation: one warm-up round, then one round behind the quality gate
FED_GATED = {"rounds": 2, "local_epochs": 1, "gate_warmup_rounds": 1}


@dataclass
class PassResult:
    aucs: dict[str, float]
    figures: dict[str, tuple[float, str]]
    outputs: dict = field(default_factory=dict)
    scratch: dict = field(default_factory=dict)  # for check(); not compared


def _auc(scores: np.ndarray, truth: np.ndarray) -> float:
    return metrics.auc_from_scores(scores, truth)


@dataclass
class FedState:
    fed_cfg: federation.FederationConfig
    bundles: list
    truth: np.ndarray


class FedGated:
    """Default-scenario corpus (6 IID clients, 40 traces x 150 s) through
    `federation.run_rounds` behind the quality gate."""

    #: the AUCs the `auc` metric averages; on the pooled IID test set both
    #: vary little between seeds
    GUARD_AUCS = ("auc_federated", "auc_pds")

    def setup(self, seed: int, work_dir: str) -> FedState:
        cfg = config.load_config(None, {"seed": seed})
        traces = simulate.generate(cfg.sim)
        part = simulate.partition(traces, "iid", cfg.sim.n_clients, seed)
        bundles = experiments.build_bundles(part, cfg.fusion, cfg.features, cfg.train, seed)
        _, truth = experiments.pooled_test(bundles)
        return FedState(replace(cfg.federation, **FED_GATED), bundles, truth)

    def setup_digest(self, st: FedState) -> str:
        h = hashlib.sha256()
        for b in st.bundles:
            h.update(b.client.train_x.tobytes())
            h.update(b.client.train_y.tobytes())
            h.update(b.test_x.tobytes())
        return h.hexdigest()

    def run(self, st: FedState) -> PassResult:
        fed = st.fed_cfg
        t0 = time.perf_counter()
        state, rows = federation.run_rounds([b.client for b in st.bundles], fed)
        round_s = (time.perf_counter() - t0) / fed.rounds
        aucs = {
            "auc_federated": _auc(experiments.model_scores(state.params, st.bundles), st.truth),
            "auc_pds": _auc(experiments.pds_pooled(st.bundles), st.truth),
        }
        return PassResult(aucs, {"round_s": (round_s, "s")}, outputs={"rows": rows})

    def check(self, st: FedState, res: PassResult) -> list[tuple[str, bool]]:
        rows = res.outputs["rows"]
        n_active = sum(1 for b in st.bundles if b.client.n_train > 0)
        return [
            ("one metrics row per round", [r["round"] for r in rows]
             == list(range(1, st.fed_cfg.rounds + 1))),
            ("accepted clients within 0..K", all(0 <= r["accepted_clients"] <= n_active
                                                  for r in rows)),
            ("warm-up rounds accept every client", all(
                r["accepted_clients"] == n_active for r in rows
                if r["round"] <= st.fed_cfg.gate_warmup_rounds)),
            ("validation MSE finite", all(math.isfinite(r["global_val_mse"]) for r in rows)),
        ]


@dataclass
class MatrixState:
    argv_tail: list[str]
    out_dir: str


EXPECTED_MATRIX_ROWS = {
    ("clfl", "federated"): 1, ("clfl", "centralized"): 1, ("clfl", "pds"): 1,
    ("per_model", "federated"): 3, ("cross_model", "federated"): 3,
}
MATRIX_HEADER = "cell,split,method,detail,auc,n_pos,n_neg"


def _quiet_cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


class EvalMatrix:
    """`fedspoof eval` on the benchmark's own INI: all four cells on the
    trace split at a one-round, one-epoch federation budget."""

    #: the AUC the `auc` metric takes: only four traces are held out, so the
    #: other rows vary by 8-16% between seeds; the centralized row by 3%
    GUARD_AUCS = ("auc_centralized",)

    def setup(self, seed: int, work_dir: str) -> MatrixState:
        out_dir = os.path.join(work_dir, "eval-matrix")
        tail = ["--config", MATRIX_INI, "--seed", str(seed), "--out", out_dir]
        rc = _quiet_cli(["generate", *tail])
        if rc != 0:
            raise RuntimeError(f"fedspoof generate exited with {rc}")
        return MatrixState(tail, out_dir)

    def setup_digest(self, st: MatrixState) -> str:
        with open(os.path.join(st.out_dir, "dataset.csv"), "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()

    def run(self, st: MatrixState) -> PassResult:
        rc = _quiet_cli(["eval", *st.argv_tail])
        if rc != 0:
            raise RuntimeError(f"fedspoof eval exited with {rc}")
        with open(os.path.join(st.out_dir, "auc_table.csv"), encoding="ascii") as fh:
            table = fh.read()
        rows = [line.split(",") for line in table.splitlines()[1:]]
        by_key = {(r[0], r[2]): float(r[4]) for r in rows if r[0] == "clfl" and r[4] != "na"}
        aucs = {f"auc_{method}": by_key.get(("clfl", method), math.nan)
                for method in ("federated", "centralized", "pds")}
        for r in rows:
            if r[0] != "clfl" and r[4] != "na":
                aucs[f"auc_{r[0]}_{r[3]}"] = float(r[4])
        return PassResult(aucs, {}, outputs={"auc_table": table},
                          scratch={"table": table, "rows": rows})

    def check(self, st: MatrixState, res: PassResult) -> list[tuple[str, bool]]:
        rows = res.scratch["rows"]
        lines = res.scratch["table"].splitlines()
        counts: dict[tuple[str, str], int] = {}
        for r in rows:
            counts[(r[0], r[2])] = counts.get((r[0], r[2]), 0) + 1
        per_device = counts.pop(("per_device", "local"), 0)
        return [
            ("auc_table.csv header", bool(lines) and lines[0] == MATRIX_HEADER),
            ("auc_table.csv cell and method rows", counts == EXPECTED_MATRIX_ROWS
             and 1 <= per_device <= 6),
            ("auc_table.csv rows on the trace split only", all(r[1] == "trace" for r in rows)),
            ("na exactly where the test split has one class", all(
                (r[4] == "na") == (int(r[5]) == 0 or int(r[6]) == 0) for r in rows)),
        ]


WORKLOADS = {
    "fed-gated": FedGated(),
    "eval-matrix": EvalMatrix(),
}
