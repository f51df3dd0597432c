"""Federated orchestration: client state, FedAvg aggregation, AUC quality
gate, and the round loop.

Clients keep their traces, features and labels local; the only values that
cross the client/server boundary are flat parameter vectors, sample counts
and per-evaluator AUCs.  Client work runs in shards: the server process
itself and forked processes, up to one per usable CPU, which exchange
pickled value-semantic messages with the server over pipes.
"""

from __future__ import annotations

import logging
import math
import multiprocessing
import os
import traceback
from dataclasses import dataclass, replace

import numpy as np

from . import features as feat
from . import labels as lab
from . import lstm, metrics
from .domain import Trace
from .fusion import FusedEstimate

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class RoundUpdate:
    """A client's trained parameters for one round."""

    client_id: int
    round_index: int
    params: lstm.LstmModelParams
    n_samples: int

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")


@dataclass(frozen=True)
class QualityReport:
    """One evaluator's verdict on a candidate update."""

    candidate_client_id: int
    evaluating_client_id: int
    auc_vs_reference: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.auc_vs_reference <= 1.0):
            raise ValueError("auc_vs_reference must be in [0, 1]")


@dataclass
class GlobalModelState:
    round_index: int
    params: lstm.LstmModelParams
    last_auc: float = 0.0


#: Every message type the server can receive from clients.  The privacy
#: contract is enforced against this tuple: none of these may carry position,
#: feature or raw-sensor fields.
SERVER_RECEIVABLE_MESSAGE_TYPES = (RoundUpdate, QualityReport)


def fedavg(updates: list[RoundUpdate], weighted: bool = True) -> lstm.LstmModelParams:
    """Coordinate-wise mean of client parameters, weighted by sample counts.

    Accumulates in 64-bit and returns the updates' dtype.  Updates are
    canonicalized by client id first, so the result is bitwise
    permutation-invariant; weights n_k / sum(n_k) make it exactly invariant
    under uniform scaling of all n_k.
    """
    if not updates:
        raise ValueError("fedavg needs at least one update")
    first = updates[0]
    ids = [u.client_id for u in updates]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate client ids in one aggregation round")
    for u in updates:
        if (
            u.params.input_size != first.params.input_size
            or u.params.hidden_size != first.params.hidden_size
        ):
            raise ValueError("parameter layout mismatch across updates")
        if u.round_index != first.round_index:
            raise ValueError("updates from different rounds cannot be aggregated")

    ordered = sorted(updates, key=lambda u: u.client_id)
    total = float(sum(u.n_samples for u in ordered))
    acc = np.zeros(first.params.vector.size, dtype=np.float64)
    for u in ordered:
        w = u.n_samples / total if weighted else 1.0 / len(ordered)
        acc += w * u.params.vector.astype(np.float64)
    return lstm.LstmModelParams(
        first.params.input_size,
        first.params.hidden_size,
        acc.astype(first.params.vector.dtype),
    )


class LocalClient:
    """One mobile platform: local windows, self-supervised targets, and the
    binarized reference labels used when evaluating other clients' updates."""

    def __init__(
        self,
        client_id: int,
        train_x: np.ndarray,
        train_y: np.ndarray,
        train_cfg: lstm.TrainConfig,
        feature_norm: feat.NormalizationState | None = None,
        label_norm: lab.LabelNorm | None = None,
        feature_cfg: feat.FeatureConfig | None = None,
    ):
        self.client_id = client_id
        self.train_x = np.asarray(train_x, dtype=np.float32)
        self.train_y = np.asarray(train_y, dtype=np.float32)
        self.train_cfg = train_cfg
        self.feature_norm = feature_norm
        self.label_norm = label_norm
        self.feature_cfg = feature_cfg
        self.reference_binary = self.train_y > 0.5

    @property
    def n_train(self) -> int:
        return int(self.train_x.shape[0])

    @classmethod
    def from_traces(
        cls,
        client_id: int,
        traces: list[Trace],
        fused: list[list[FusedEstimate]],
        feature_cfg: feat.FeatureConfig,
        train_cfg: lstm.TrainConfig,
    ) -> "LocalClient":
        """Run the local pipeline on fused traces: self-label, normalize, window.

        `fused[i]` is `fuse_trace`'s output for `traces[i]`.  Feature and
        label normalizations are fitted on this client's data only and never
        leave the client.
        """
        raws = [feat.extract_raw(t, f) for t, f in zip(traces, fused)]
        devs = [lab.raw_deviations(t, f) for t, f in zip(traces, fused)]
        fnorm = feat.fit_normalization(raws, feature_cfg)
        lnorm = lab.fit_label_norm(devs)

        xs, ys = [], []
        for trace, fused_t, raw in zip(traces, fused, raws):
            series = lab.generate(trace, fused_t, lnorm)
            fx = feat.apply_normalization(raw, fnorm)
            wx, wy, _ = feat.make_windows(
                fx, series.values, feature_cfg.window_len, feature_cfg.stride
            )
            if wx.shape[0] == 0:
                log.warning(
                    "trace %d of client %d shorter than window; skipped",
                    trace.trace_id,
                    client_id,
                )
                continue
            xs.append(wx)
            ys.append(wy)
        if not xs:
            train_x = np.empty((0, feature_cfg.window_len, feat.N_FEATURES), dtype=np.float32)
            train_y = np.empty(0, dtype=np.float32)
        else:
            train_x = np.concatenate(xs)
            train_y = np.concatenate(ys)
        return cls(
            client_id,
            train_x,
            train_y,
            train_cfg,
            feature_norm=fnorm,
            label_norm=lnorm,
            feature_cfg=feature_cfg,
        )

    def _round_seed(self, round_index: int) -> int:
        # stable combination so identical client seeds give identical rounds
        return int(
            np.random.SeedSequence([self.train_cfg.rng_seed, round_index]).generate_state(1)[0]
        )

    def train(
        self,
        global_params: lstm.LstmModelParams,
        round_index: int,
        local_epochs: int,
        announced_mean_size: float | None,
    ) -> RoundUpdate:
        """Run local_epochs of training from the broadcast parameters."""
        cfg = replace(
            self.train_cfg,
            max_epochs=local_epochs,
            rng_seed=self._round_seed(round_index),
        )
        trained, _ = lstm.train_local(
            global_params.copy(), self.train_x, self.train_y, cfg, announced_mean_size
        )
        return RoundUpdate(
            client_id=self.client_id,
            round_index=round_index,
            params=trained,
            n_samples=self.n_train,
        )

    def eval_subset(self, max_windows: int) -> np.ndarray:
        """Deterministic, evenly spaced window subset used for gate scoring."""
        n = self.n_train
        if n <= max_windows:
            return np.arange(n)
        return np.unique(np.linspace(0, n - 1, max_windows).astype(np.int64))

    def score_candidate(
        self, params: lstm.LstmModelParams, max_windows: int
    ) -> tuple[np.ndarray, float] | None:
        """Candidate scores and AUC on local windows vs binarized self-labels.

        Returns None (abstains) when the local reference has a single class.
        """
        idx = self.eval_subset(max_windows)
        ref = self.reference_binary[idx]
        if ref.all() or not ref.any():
            return None
        scores = lstm.predict(params, self.train_x[idx])
        return scores, metrics.auc_from_scores(scores, ref)

    def validation_mse(self, params: lstm.LstmModelParams) -> float:
        """MSE of params on this client's validation windows."""
        start = lstm.validation_split(self.n_train, self.train_cfg.validation_fraction)
        return lstm.batch_mse(params, self.train_x[start:], self.train_y[start:])

    def review(
        self,
        global_params: lstm.LstmModelParams,
        candidates: list[RoundUpdate],
        max_windows: int,
    ) -> tuple[float | None, list[QualityReport | None]]:
        """This client's part of one gated round.

        Returns the AUC of the broadcast model and one entry per candidate:
        a QualityReport, or None for the client's own candidate and where
        the client abstains (single-class reference labels, AUC None too).
        The per-window scores stay with the client.
        """
        result = self.score_candidate(global_params, max_windows)
        if result is None:
            log.warning("client %d abstained from gating (single-class labels)", self.client_id)
        reports: list[QualityReport | None] = []
        for candidate in candidates:
            if candidate.client_id == self.client_id:
                reports.append(None)
                continue
            scored = self.score_candidate(candidate.params, max_windows)
            reports.append(None if scored is None else QualityReport(
                candidate_client_id=candidate.client_id,
                evaluating_client_id=self.client_id,
                auc_vs_reference=scored[1],
            ))
        return (None if result is None else result[1]), reports


def quality_gate(
    candidate: RoundUpdate,
    reports: list[QualityReport | None],
    global_state: GlobalModelState,
    threshold_delta: float,
) -> tuple[bool, list[QualityReport]]:
    """Cross-client screening of one candidate update.

    `reports` holds one entry per client other than the candidate's own, in
    client-id order: that evaluator's QualityReport on the candidate, scored
    on its local windows against its binarized self-supervised labels, or
    None where it abstained.  The update is accepted iff the mean AUC is at
    least the global model's rolling AUC minus threshold_delta; if every
    evaluator abstained it is accepted with a warning.  Returns the verdict
    and the reports that were given.
    """
    if not reports:
        raise ValueError("quality gate needs at least one evaluator besides the candidate")
    given = [r for r in reports if r is not None]
    if not given:
        log.warning(
            "all evaluators abstained for client %d; accepting by default",
            candidate.client_id,
        )
        return True, []
    mean_auc = float(np.mean([r.auc_vs_reference for r in given]))
    return mean_auc >= global_state.last_auc - threshold_delta, given


@dataclass(frozen=True)
class FederationConfig:
    """Round loop configuration."""

    rounds: int = 100
    local_epochs: int = 5
    weighted: bool = True
    gate_enabled: bool = True
    gate_warmup_rounds: int = 10
    gate_threshold_delta: float = 0.02
    gate_eval_max_windows: int = 512
    init_seed: int = 0
    # write the global model every N rounds (0 disables periodic checkpoints)
    checkpoint_every: int = 0
    checkpoint_dir: str | None = None
    # fault injection used by the quality-gate evaluation: the named client
    # submits parameter-shuffled updates from the given round onward
    corrupt_client_id: int | None = None
    corrupt_from_round: int | None = None


def _corrupt_update(update: RoundUpdate, seed: int) -> RoundUpdate:
    rng = np.random.default_rng(
        np.random.SeedSequence([seed, update.round_index, update.client_id])
    )
    vec = update.params.vector[rng.permutation(update.params.vector.size)]
    return replace(
        update,
        params=lstm.LstmModelParams(
            update.params.input_size, update.params.hidden_size, vec
        ),
    )


def _shard_reply(clients: list[LocalClient], method: str, args: tuple) -> list:
    """One shard's answer to a broadcast: `method(*args)` on each of its clients."""
    return [getattr(client, method)(*args) for client in clients]


def _serve(conn, clients: list[LocalClient], inherited: list) -> None:
    """A forked shard: answer the server's requests until it hangs up.

    A failure goes back to the server, which raises it; the shard keeps
    serving.  A closed pipe, from either side, ends the shard.
    """
    for other in inherited:  # the server's ends of the pipes, its own included
        other.close()
    with conn:
        while True:
            try:
                method, args = conn.recv()
            except EOFError:
                return
            try:
                reply = ("ok", _shard_reply(clients, method, args), None)
            except Exception as exc:  # noqa: BLE001 - raised again in the server
                reply = ("error", exc, traceback.format_exc())
            try:
                conn.send(reply)
            except BrokenPipeError:
                return


class _Shards:
    """The active clients spread over shards, client i to shard i mod n.

    Shard 0 is the server process.  Every other shard is a process forked
    once, when the shards are made, so it starts with its clients in memory;
    only requests and their replies cross its pipe.  Used as a context
    manager, which ends every forked shard on the way out.
    """

    #: seconds a shard that was hung up on may take to exit
    EXIT_TIMEOUT_S = 10.0

    def __init__(self, clients: list[LocalClient], n: int):
        self._clients = clients
        self._n = n
        self._conns: list = []
        self._procs: list = []
        ctx = multiprocessing.get_context("fork")
        try:
            for k in range(1, n):
                here, there = ctx.Pipe()
                proc = ctx.Process(
                    target=_serve, args=(there, clients[k::n], [*self._conns, here]), daemon=True
                )
                proc.start()
                there.close()
                self._conns.append(here)
                self._procs.append(proc)
        except BaseException:
            self._stop(abort=True)
            raise

    def __enter__(self) -> "_Shards":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._stop(abort=exc_type is not None)

    def _stop(self, abort: bool) -> None:
        # a forked shard exits when its pipe closes; one still working on a
        # request the server no longer waits for is terminated
        for conn in self._conns:
            conn.close()
        for proc in self._procs:
            if abort:
                proc.terminate()
            proc.join(self.EXIT_TIMEOUT_S)
            if proc.is_alive():
                proc.terminate()
                proc.join()

    def ask(self, method: str, *args) -> list:
        """`method(*args)` on every client, the results in client order."""
        for conn in self._conns:
            conn.send((method, args))
        replies = [_shard_reply(self._clients[:: self._n], method, args)]
        for k, conn in enumerate(self._conns, 1):
            try:
                status, payload, remote_tb = conn.recv()
            except EOFError:
                raise RuntimeError(f"federation shard {k} exited without replying") from None
            if status == "error":
                raise payload from RuntimeError(f"in federation shard {k}:\n{remote_tb}")
            replies.append(payload)
        results: list = [None] * len(self._clients)
        for k, reply in enumerate(replies):
            results[k :: self._n] = reply
        return results


def _shard_count(n_clients: int) -> int:
    """One shard per CPU this process may run on, at most one per client.

    A process that already runs other threads stays one shard: an unpinned
    BLAS keeps a thread per CPU, so forked shards would each bring a pool to
    the same CPUs (a gated six-client federation ran 3.3x slower on two),
    and a forked child can inherit a lock held by a thread it does not have.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
        threads = len(os.listdir("/proc/self/task"))
    except (AttributeError, OSError):  # no affinity mask or /proc: not Linux
        return 1
    return min(cpus, n_clients) if threads == 1 else 1


def run_rounds(
    clients: list[LocalClient],
    cfg: FederationConfig,
    input_size: int = lstm.DEFAULT_INPUT_SIZE,
    hidden_size: int = lstm.DEFAULT_HIDDEN_SIZE,
) -> tuple[GlobalModelState, list[dict]]:
    """Run the federated round loop.

    Per round: broadcast the global parameters, train every client locally,
    screen updates through the quality gate once the warm-up has passed,
    aggregate the accepted updates with FedAvg, and record metrics.  Client
    work runs in shards, one per usable CPU (see `_shard_count`); results
    are gathered in client order, so the outcome does not depend on the
    shard count.
    Deterministic given client seeds and cfg.init_seed.
    """
    active = [c for c in sorted(clients, key=lambda c: c.client_id) if c.n_train > 0]
    for c in clients:
        if c.n_train == 0:
            log.warning("client %d has no training windows; skipped", c.client_id)
    if not active:
        raise ValueError("no client has training windows")

    announced_mean = float(np.mean([c.n_train for c in active]))
    global_state = GlobalModelState(
        round_index=0,
        params=lstm.init_params(cfg.init_seed, input_size, hidden_size),
    )
    weights = np.array([c.n_train for c in active], dtype=np.float64)
    rows: list[dict] = []

    with _Shards(active, _shard_count(len(active))) as shards:
        for round_index in range(1, cfg.rounds + 1):
            updates = shards.ask(
                "train", global_state.params, round_index, cfg.local_epochs, announced_mean
            )
            if cfg.corrupt_from_round is not None and round_index >= cfg.corrupt_from_round:
                updates = [
                    _corrupt_update(u, cfg.init_seed) if u.client_id == cfg.corrupt_client_id
                    else u
                    for u in updates
                ]

            gate_active = cfg.gate_enabled and round_index > cfg.gate_warmup_rounds
            gate_aucs: list[float] = []
            if gate_active:
                reviews = shards.ask(
                    "review", global_state.params, updates, cfg.gate_eval_max_windows
                )
                # rolling AUC of the model broadcast this round, same reference
                # labels the candidates are judged against
                global_aucs = [auc for auc, _ in reviews if auc is not None]
                if global_aucs:
                    global_state.last_auc = float(np.mean(global_aucs))
                accepted = []
                for j, update in enumerate(updates):
                    ok, reports = quality_gate(
                        update,
                        [r[j] for i, (_, r) in enumerate(reviews) if i != j],
                        global_state,
                        cfg.gate_threshold_delta,
                    )
                    gate_aucs.extend(r.auc_vs_reference for r in reports)
                    if ok:
                        accepted.append(update)
                    else:
                        log.info(
                            "round %d: rejected update from client %d",
                            round_index,
                            update.client_id,
                        )
            else:
                accepted = updates

            if accepted:
                new_params = fedavg(accepted, cfg.weighted)
            else:
                log.warning("round %d: no update accepted; global model unchanged", round_index)
                new_params = global_state.params
            global_state = GlobalModelState(
                round_index=round_index, params=new_params, last_auc=global_state.last_auc
            )
            if (
                cfg.checkpoint_every > 0
                and cfg.checkpoint_dir is not None
                and round_index % cfg.checkpoint_every == 0
            ):
                lstm.save_checkpoint(
                    new_params,
                    os.path.join(cfg.checkpoint_dir, f"global_round_{round_index:04d}.ckpt"),
                )

            val_mses = np.array(shards.ask("validation_mse", new_params))
            rows.append(
                {
                    "round": round_index,
                    "accepted_clients": len(accepted),
                    "mean_gate_auc": float(np.mean(gate_aucs)) if gate_aucs else math.nan,
                    "global_val_mse": float(np.average(val_mses, weights=weights)),
                }
            )
    return global_state, rows


def write_round_metrics(rows: list[dict], path: str) -> None:
    """Per-round federation metrics as CSV."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("round,accepted_clients,mean_gate_auc,global_val_mse\n")
        for r in rows:
            gate = "na" if math.isnan(r["mean_gate_auc"]) else f"{r['mean_gate_auc']:.10g}"
            fh.write(
                f"{r['round']},{r['accepted_clients']},{gate},{r['global_val_mse']:.10g}\n"
            )
