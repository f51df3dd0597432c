"""Experiment front door: generate, train, eval and report subcommands.

Flag values override config-file values; the FEDSPOOF_OUT_ROOT environment
variable relocates the output root.  Every run writes a manifest recording
the resolved config hash, seed and package version so identical manifests
reproduce outputs byte-identically.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 runtime error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import __version__
from . import domain, experiments, lstm, metrics
from . import simulate
from .config import ConfigError, ExperimentConfig, config_hash, load_config

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_RUNTIME = 4

TRAIN_MODES = ("centralized", "federated", "pds-baseline")


def _resolve_out(cfg: ExperimentConfig, flag_out: str | None) -> str:
    if flag_out:
        return flag_out
    root = os.environ.get("FEDSPOOF_OUT_ROOT")
    if root:
        return os.path.join(root, cfg.out_dir)
    return cfg.out_dir


def _write_manifest(out_dir: str, cfg: ExperimentConfig, command: str) -> None:
    with open(os.path.join(out_dir, "manifest.txt"), "w", encoding="ascii") as fh:
        fh.write(f"version={__version__}\n")
        fh.write(f"command={command}\n")
        fh.write(f"config_hash={config_hash(cfg)}\n")
        fh.write(f"seed={cfg.seed}\n")
        fh.write(f"openblas_num_threads={os.environ.get('OPENBLAS_NUM_THREADS')}\n")


def _dataset_path(cfg: ExperimentConfig, out_dir: str) -> str:
    return os.path.join(out_dir, cfg.dataset_file)


def _load_traces(cfg: ExperimentConfig, out_dir: str) -> list[domain.Trace]:
    path = _dataset_path(cfg, out_dir)
    if not os.path.exists(path):
        raise FileNotFoundError(f"dataset {path!r} not found; run `fedspoof generate` first")
    return domain.read_dataset(path)


def _bundles(cfg: ExperimentConfig, traces: list[domain.Trace]) -> list[experiments.ClientBundle]:
    part = simulate.partition(
        traces, cfg.sim.partition_mode, cfg.sim.n_clients, cfg.seed
    )
    return experiments.build_bundles(part, cfg.fusion, cfg.features, cfg.train, cfg.seed)


def cmd_generate(cfg: ExperimentConfig, out_dir: str) -> int:
    traces = simulate.generate(cfg.sim)
    domain.write_dataset(traces, _dataset_path(cfg, out_dir))
    _write_manifest(out_dir, cfg, "generate")
    n = sum(len(t) for t in traces)
    print(f"wrote {len(traces)} traces ({n} samples) to {_dataset_path(cfg, out_dir)}")
    return EXIT_OK


def cmd_train(cfg: ExperimentConfig, out_dir: str, mode: str) -> int:
    # the corpus is unreachable once the clients are built, before any training
    bundles = _bundles(cfg, _load_traces(cfg, out_dir))
    truth = np.concatenate([b.test_truth for b in bundles])
    if truth.all() or not truth.any():  # checked before any training or writing
        raise metrics.SingleClassError(f"{mode} evaluation on {cfg.sim.partition_mode!r} "
                                       f"test split: {metrics.SINGLE_CLASS}")
    if mode == "pds-baseline":
        scores = experiments.pds_pooled(bundles)
    else:
        if mode == "federated":
            params, rows = experiments.run_federated(bundles, cfg.federation)
            header, table = rows[0].keys(), [r.values() for r in rows]
        else:  # centralized
            budget = cfg.federation.rounds * cfg.federation.local_epochs
            params, report = experiments.run_centralized(bundles, cfg.train, cfg.seed, budget)
            header = ("epoch", "train_mse", "val_mse")
            table = zip(range(1, report.epochs_run + 1), report.train_mse_curve,
                        report.val_mse_curve)
        metrics.write_csv(os.path.join(out_dir, f"metrics_{mode}.csv"), header, table)
        # the model is scored as it was saved, so the checkpoint is what the AUC measures
        ckpt = os.path.join(out_dir, f"model_{mode}.ckpt")
        lstm.save_checkpoint(params, ckpt)
        scores = experiments.model_scores(lstm.load_checkpoint(ckpt), bundles)

    tag = mode.replace("-baseline", "")
    auc, n_pos, n_neg = metrics.score_row(scores, truth, os.path.join(out_dir, f"roc_{tag}.csv"))
    metrics.write_csv(os.path.join(out_dir, f"auc_{tag}.csv"), ("method", "auc", "n_pos", "n_neg"),
                      [(tag, auc, n_pos, n_neg)])
    _write_manifest(out_dir, cfg, f"train {mode}")
    print(f"{mode}: AUC {auc:.4f} on {truth.size} test windows")
    return EXIT_OK


def cmd_eval(cfg: ExperimentConfig, out_dir: str) -> int:
    # as in `train`, the corpus is unreachable once the plan's clients are built
    rows = experiments.experiment_matrix(
        experiments.plan_matrix(_load_traces(cfg, out_dir), cfg), out_dir)
    if not rows:
        raise domain.DatasetFormatError(f"the matrix has no row for cells = {', '.join(cfg.cells)}"
                                        f" and splits = {', '.join(cfg.splits)}")
    if all(math.isnan(r.auc) for r in rows):
        raise metrics.SingleClassError(
            f"every cell of the matrix had a single-class test split "
            f"(first: {rows[0].cell}/{rows[0].split})"
        )
    experiments.write_matrix(rows, out_dir)  # after the checks: a failed eval writes no table
    _write_manifest(out_dir, cfg, "eval")
    for r in rows:
        auc = "na" if math.isnan(r.auc) else f"{r.auc:.4f}"
        print(f"{r.cell:12s} {r.split:6s} {r.method:12s} {r.detail:16s} AUC {auc}")
    print(f"wrote {os.path.join(out_dir, 'auc_table.csv')}")
    return EXIT_OK


def cmd_report(out_dir: str) -> int:
    path = os.path.join(out_dir, "auc_table.csv")
    if not os.path.exists(path):
        raise FileNotFoundError(f"no AUC table at {path!r}; run `fedspoof eval` first")
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip().split(",")
        print("  ".join(f"{h:>12s}" for h in header))
        for line in fh:
            print("  ".join(f"{v:>12s}" for v in line.strip().split(",")))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedspoof",
        description="Self-supervised federated GNSS spoofing detection experiments",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("generate", "generate a synthetic dataset"),
        ("train", "train one detector (centralized, federated or pds-baseline)"),
        ("eval", "run the experiment comparison matrix"),
        ("report", "pretty-print an existing AUC table"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="experiment config file (INI-style sections)")
        p.add_argument("--seed", type=int, help="master seed override")
        p.add_argument("--out", help="output directory override")
        if name == "train":
            p.add_argument("--mode", required=True, choices=TRAIN_MODES)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        overrides: dict[str, object] = {}
        if args.seed is not None:
            overrides["seed"] = args.seed
        cfg = load_config(args.config, overrides)
        out_dir = _resolve_out(cfg, args.out)
        os.makedirs(out_dir, exist_ok=True)

        if args.command == "generate":
            return cmd_generate(cfg, out_dir)
        if args.command == "train":
            return cmd_train(cfg, out_dir, args.mode)
        if args.command == "eval":
            return cmd_eval(cfg, out_dir)
        return cmd_report(out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (domain.DatasetFormatError, metrics.SingleClassError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
