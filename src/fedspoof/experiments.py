"""Experiment pipelines: client construction from a partitioned corpus,
centralized / federated / position-baseline training, pooled evaluation, and
the comparison matrix.

Evaluation ground truth is the simulator's attacked flag at each window's
last timestep; it never enters training.  Test windows are normalized with
the owning client's locally fitted state, and scores are pooled across
clients for one corpus-level ROC.
"""

from __future__ import annotations

import os
from dataclasses import astuple, dataclass, fields
from functools import partial

import numpy as np

from . import features as feat
from . import lstm, metrics, shards
from .domain import Trace
from .federation import FederationConfig, LocalClient, run_rounds
from .fusion import FusedEstimate, FusionConfig, fuse_trace, pds_score
from .simulate import ClientSplit, SimConfig, device_models, partition


@dataclass
class ClientBundle:
    """A client plus the simulator-side evaluation data for its test traces."""

    client: LocalClient
    test_x: np.ndarray
    test_truth: np.ndarray
    test_pds: np.ndarray


def _build_test_set(
    client: LocalClient,
    test_traces: list[Trace],
    fused_traces: list[FusedEstimate],
    cfg: feat.FeatureConfig,
    iid: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Test windows, with truth and PDS read at each window's last index; an
    IID split's test windows are the client's training windows themselves."""
    if iid:
        test_x = client.train_x
        ends = [feat.window_ends(len(t), cfg.window_len, cfg.stride) for t in test_traces]
    else:
        raws = (feat.extract_raw(t, f) for t, f in zip(test_traces, fused_traces))
        test_x, ends = feat.window_traces(raws, client.feature_norm, cfg)
    # an empty first part gives each array its dtype when no trace has a window
    truths, pds_vals = [np.empty(0, dtype=bool)], [np.empty(0)]
    for trace, fused, last in zip(test_traces, fused_traces, ends):
        if last.size:
            truths.append(trace.attacked[last])
            pds_vals.append(pds_score(trace, fused)[last])
    truth, pds_vals = np.concatenate(truths), np.concatenate(pds_vals)
    for a in (test_x, truth, pds_vals):
        a.setflags(write=False)
    return test_x, truth, pds_vals


def fuse_each(traces: list[Trace], fusion_cfg: FusionConfig) -> dict[int, FusedEstimate]:
    """`fuse_trace` of every distinct trace object, keyed by `id(trace)`."""
    fused: dict[int, FusedEstimate] = {}
    for trace in traces:
        if id(trace) not in fused:
            fused[id(trace)] = fuse_trace(trace, fusion_cfg)
    return fused


def build_bundles(
    clients: dict[int, ClientSplit],
    fusion_cfg: FusionConfig,
    feature_cfg: feat.FeatureConfig,
    train_cfg: lstm.TrainConfig,
    master_seed: int,
    fused: dict[int, FusedEstimate] | None = None,
) -> list[ClientBundle]:
    """Run every client's local pipeline and assemble its evaluation data.

    `fused` holds `fuse_each`'s estimates for the partition's traces; without
    it each trace is fused here, once: in an IID partition a client's test
    traces are its training traces, the same objects.
    """
    if fused is None:
        fused = fuse_each(
            [t for split in clients.values() for t in split.train + split.test], fusion_cfg
        )
    bundles = []
    for client_id in sorted(clients):
        split = clients[client_id]
        client = LocalClient.from_traces(
            client_id,
            split.train,
            [fused[id(t)] for t in split.train],
            feature_cfg,
            train_cfg,
            master_seed + client_id,
        )
        # Trace compares by identity: equal lists hold the same trace objects
        test_x, truth, pds_vals = _build_test_set(
            client, split.test, [fused[id(t)] for t in split.test], feature_cfg,
            iid=split.test == split.train,
        )
        bundles.append(
            ClientBundle(client=client, test_x=test_x, test_truth=truth, test_pds=pds_vals)
        )
    return bundles


def pooled_test(bundles: list[ClientBundle]) -> tuple[np.ndarray, np.ndarray]:
    x = np.concatenate([b.test_x for b in bundles])
    truth = np.concatenate([b.test_truth for b in bundles])
    return x, truth


def model_scores(params: lstm.LstmModelParams, bundles: list[ClientBundle]) -> np.ndarray:
    """Each bundle scores its own test windows in shard i mod W; the scores
    come back in bundle order."""
    scores = shards.run([partial(lstm.predict, params, b.test_x) for b in bundles])
    return np.concatenate([np.empty(0), *scores])


def pds_pooled(bundles: list[ClientBundle]) -> np.ndarray:
    return np.concatenate([b.test_pds for b in bundles])


def run_federated(
    bundles: list[ClientBundle], fed_cfg: FederationConfig
) -> tuple[lstm.LstmModelParams, list[dict]]:
    state, rows = run_rounds([b.client for b in bundles], fed_cfg)
    return state.params, rows


def pooled_training_set(bundles: list[ClientBundle]) -> tuple[np.ndarray, np.ndarray]:
    """All clients' windows in one array, interleaved by window position so
    the time-ordered validation tail still mixes every client."""
    sizes = [b.client.n_train for b in bundles]
    client = np.repeat(np.arange(len(bundles)), sizes)
    position = np.concatenate([np.arange(n) for n in sizes])
    order = np.lexsort((client, position))
    x = np.concatenate([b.client.train_x for b in bundles])[order]
    y = np.concatenate([b.client.train_y for b in bundles])[order]
    return x, y


def run_centralized(
    bundles: list[ClientBundle],
    train_cfg: lstm.TrainConfig,
    seed: int,
    max_epochs: int,
) -> tuple[lstm.LstmModelParams, lstm.TrainReport]:
    x, y = pooled_training_set(bundles)
    return lstm.train_local(lstm.init_params(seed), x, y, train_cfg, max_epochs, seed)


@dataclass
class MatrixRow:
    cell: str
    split: str
    method: str
    detail: str
    auc: float
    n_pos: int
    n_neg: int


def _scores(train, groups: list[list[ClientBundle]]) -> list[np.ndarray]:
    """A matrix job: the model `train()` returns, scored on each group of
    bundles in the job's own shard, since a pool of its own would oversubscribe."""
    params, _ = train()
    return [np.concatenate([lstm.predict(params, b.test_x) for b in g]) for g in groups]


GNUPLOT_SCRIPT = """\
# plot the ROC curves emitted next to this script: gnuplot plot_roc.gp
set datafile separator ','
set xlabel 'false positive rate'
set ylabel 'true positive rate'
set key bottom right
set terminal pngcairo size 900,700
set output 'roc.png'
plot for [file in system('ls roc_*.csv')] file using 2:3 every ::1 with lines title file
"""

ALL_CELLS = ("clfl", "per_device", "per_model", "cross_model")
ALL_SPLITS = ("iid", "trace")


def experiment_matrix(
    traces: list[Trace],
    sim_cfg: SimConfig,
    fusion_cfg: FusionConfig,
    feature_cfg: feat.FeatureConfig,
    train_cfg: lstm.TrainConfig,
    fed_cfg: FederationConfig,
    master_seed: int,
    out_dir: str,
    cells: tuple[str, ...] = ALL_CELLS,
    splits: tuple[str, ...] = ALL_SPLITS,
) -> list[MatrixRow]:
    """Run the comparison matrix and emit the AUC table plus ROC CSVs.

    Cells: clfl (centralized vs federated vs position baseline), per_device
    (each device trains and tests alone), per_model (federation within each
    hardware family), cross_model (federation on one family, tested on the
    others); each in an iid variant (test traces are the training traces) and
    a trace-split variant (held-out test traces).
    """
    models = device_models(sim_cfg)
    # every partition below holds these trace objects; fuse each one once
    fused = fuse_each(traces, fusion_cfg)
    budget_epochs = fed_cfg.rounds * fed_cfg.local_epochs
    rows: list[MatrixRow] = []

    for split in splits:
        holdout = split == "trace"
        uniform_mode = "non-iid-by-trace" if holdout else "iid"
        # one job per model to train: the training plus the rows it is scored
        # on, each (cell, method, detail, tag, test bundles); the centralized
        # training, the largest, is job 1, so it runs in a forked shard
        # whenever there is one
        jobs = []
        pds_rows = []  # scored by the server itself

        if "clfl" in cells:
            part = partition(traces, uniform_mode, sim_cfg.n_clients, master_seed)
            clfl = build_bundles(part, fusion_cfg, feature_cfg, train_cfg, master_seed, fused)
            jobs.append((partial(run_federated, clfl, fed_cfg),
                         [("clfl", "federated", "all", "federated", clfl)]))
            jobs.append((partial(run_centralized, clfl, train_cfg, master_seed, budget_epochs),
                         [("clfl", "centralized", "all", "centralized", clfl)]))
            pds_rows.append((("clfl", "pds", "all", "pds", clfl), pds_pooled(clfl)))

        if {"per_device", "per_model", "cross_model"} & set(cells):
            n_devices = len({t.platform_id for t in traces})
            part = partition(
                traces, "non-iid-by-device", n_devices, master_seed, trace_holdout=holdout
            )
            bundles = build_bundles(part, fusion_cfg, feature_cfg, train_cfg, master_seed, fused)
            by_model: dict[str, list[ClientBundle]] = {}
            for b in bundles:
                by_model.setdefault(models[b.client.client_id], []).append(b)
            # one federation per hardware family serves both its per_model row
            # and its cross_model row, tested on the other families; a family
            # that covers every bundle trains only for per_model
            for name, group in sorted(by_model.items()):
                others = [b for b in bundles if models[b.client.client_id] != name]
                family_rows = []
                if "per_model" in cells:
                    family_rows.append(("per_model", "federated", name, name, group))
                if "cross_model" in cells and others:
                    family_rows.append(("cross_model", "federated", f"train_{name}", name, others))
                if family_rows:
                    jobs.append((partial(run_federated, group, fed_cfg), family_rows))
            if "per_device" in cells:
                init = lstm.init_params(master_seed)  # train_local trains a copy
                for b in bundles:
                    c = b.client
                    if c.n_train and b.test_x.shape[0]:
                        jobs.append((partial(lstm.train_local, init, c.train_x, c.train_y,
                                             c.train_cfg, budget_epochs, c.seed),
                                     [("per_device", "local", f"device_{c.client_id}",
                                       str(c.client_id), [b])]))

        scored = []
        calls = [partial(_scores, train, [r[4] for r in job_rows]) for train, job_rows in jobs]
        for (_, job_rows), job_scores in zip(jobs, shards.run(calls)):
            scored += zip(job_rows, job_scores)
        scored += pds_rows
        scored.sort(key=lambda row: ALL_CELLS.index(row[0][0]))  # stable: cell by cell
        for (cell, method, detail, tag, group), scores in scored:
            truth = np.concatenate([b.test_truth for b in group])
            path = os.path.join(out_dir, f"roc_{cell}_{split}_{tag}.csv")
            rows.append(MatrixRow(cell, split, method, detail,
                                  *metrics.score_row(scores, truth, path)))

    write_auc_table(rows, os.path.join(out_dir, "auc_table.csv"))
    with open(os.path.join(out_dir, "plot_roc.gp"), "w", encoding="ascii") as fh:
        fh.write(GNUPLOT_SCRIPT)
    return rows


def write_auc_table(rows: list[MatrixRow], path: str) -> None:
    metrics.write_csv(path, [f.name for f in fields(MatrixRow)], map(astuple, rows))
