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
from dataclasses import dataclass

import numpy as np

from . import features as feat
from . import labels as lab
from . import lstm, metrics, shards
from .domain import Trace
from .fusion import CapMinMax, FusedEstimate

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
    params: lstm.LstmModelParams
    last_auc: float = 0.0


#: Every message type the server can receive from clients.  The privacy
#: contract is enforced against this tuple: none of these may carry position,
#: feature or raw-sensor fields.
SERVER_RECEIVABLE_MESSAGE_TYPES = (RoundUpdate, QualityReport)


def fedavg(updates: list[RoundUpdate]) -> lstm.LstmModelParams:
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
        acc += (u.n_samples / total) * u.params.vector.astype(np.float64)
    return lstm.LstmModelParams(
        first.params.input_size,
        first.params.hidden_size,
        acc.astype(first.params.vector.dtype),
    )


class LocalClient:
    """One mobile platform: local windows, self-supervised targets, the
    binarized reference labels used when evaluating other clients' updates,
    the feature map fitted on its training traces, which normalizes its
    test traces, and the seed its local training rounds derive from."""

    def __init__(
        self,
        client_id: int,
        train_x: np.ndarray,
        train_y: np.ndarray,
        train_cfg: lstm.TrainConfig,
        seed: int,
        feature_norm: CapMinMax,
    ):
        self.client_id = client_id
        self.train_x = np.asarray(train_x, dtype=np.float32)
        self.train_y = np.asarray(train_y, dtype=np.float32)
        self.train_cfg = train_cfg
        self.seed = seed
        self.feature_norm = feature_norm
        self.reference_binary = self.train_y > 0.5

    @property
    def n_train(self) -> int:
        return int(self.train_x.shape[0])

    @classmethod
    def from_traces(
        cls,
        client_id: int,
        traces: list[Trace],
        fused: list[FusedEstimate],
        feature_cfg: feat.FeatureConfig,
        train_cfg: lstm.TrainConfig,
        seed: int,
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

        train_x, ends = feat.window_traces(raws, fnorm, feature_cfg)
        ys = [np.empty(0, dtype=np.float32)]  # the dtype when no trace has a window
        for trace, fused_t, last in zip(traces, fused, ends):
            if last.size:
                ys.append(lab.generate(trace, fused_t, lnorm)[last])
            else:
                log.warning("trace %d of client %d shorter than window; skipped",
                            trace.trace_id, client_id)
        train_y = np.concatenate(ys)
        client = cls(client_id, train_x, train_y, train_cfg, seed, fnorm)
        client.train_x.setflags(write=False)  # an IID test set shares these windows
        client.train_y.setflags(write=False)
        return client

    def _round_seed(self, round_index: int) -> int:
        # stable combination so identical client seeds give identical rounds
        return int(np.random.SeedSequence([self.seed, round_index]).generate_state(1)[0])

    def train(
        self,
        global_params: lstm.LstmModelParams,
        round_index: int,
        local_epochs: int,
        announced_mean_size: float | None,
    ) -> RoundUpdate:
        """Run local_epochs of training from the broadcast parameters."""
        trained, _ = lstm.train_local(
            global_params.copy(), self.train_x, self.train_y, self.train_cfg, local_epochs,
            self._round_seed(round_index), announced_mean_size
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

    def score_candidate(self, params: lstm.LstmModelParams, max_windows: int) -> float | None:
        """Candidate AUC on local windows vs binarized self-labels.

        Returns None (abstains) when the local reference has a single class.
        """
        idx = self.eval_subset(max_windows)
        ref = self.reference_binary[idx]
        if ref.all() or not ref.any():
            return None
        return metrics.auc_from_scores(lstm.predict(params, self.train_x[idx]), ref)

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
        global_auc = self.score_candidate(global_params, max_windows)
        if global_auc is None:
            log.warning("client %d abstained from gating (single-class labels)", self.client_id)
        reports: list[QualityReport | None] = []
        for candidate in candidates:
            if candidate.client_id == self.client_id:
                reports.append(None)
                continue
            auc = self.score_candidate(candidate.params, max_windows)
            reports.append(None if auc is None else QualityReport(
                candidate_client_id=candidate.client_id,
                evaluating_client_id=self.client_id,
                auc_vs_reference=auc,
            ))
        return global_auc, reports


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
    gate_enabled: bool = True
    gate_warmup_rounds: int = 10
    gate_threshold_delta: float = 0.02
    gate_eval_max_windows: int = 512
    init_seed: int = 0

    def __post_init__(self) -> None:
        if self.rounds < 1 or self.local_epochs < 1:
            raise ValueError("rounds and local_epochs must be >= 1")
        if self.gate_warmup_rounds < 0 or self.gate_threshold_delta < 0.0:
            raise ValueError("gate_warmup_rounds and gate_threshold_delta must be >= 0")
        if self.gate_eval_max_windows < 1:
            raise ValueError("gate_eval_max_windows must be >= 1")


def run_rounds(
    clients: list[LocalClient],
    cfg: FederationConfig,
    hidden_size: int = lstm.DEFAULT_HIDDEN_SIZE,
) -> tuple[GlobalModelState, list[dict]]:
    """Run the federated round loop.

    Per round: broadcast the global parameters, train every client locally,
    drop any update with a non-finite parameter, screen the rest through the
    quality gate once the warm-up has passed, aggregate the accepted updates
    with FedAvg, and record metrics.  The model's input size is the feature
    count of the clients' windows.  A federation with one active client
    runs ungated: no other client can review its updates.  Client work runs
    in shards, as many as the pool picks; results are gathered in client
    order, so the outcome does not depend on the shard count.
    Deterministic given client seeds and cfg.init_seed.
    """
    active = [c for c in sorted(clients, key=lambda c: c.client_id) if c.n_train > 0]
    for c in clients:
        if c.n_train == 0:
            log.warning("client %d has no training windows; skipped", c.client_id)
    if not active:
        raise ValueError("no client has training windows")
    gate_enabled = cfg.gate_enabled
    if gate_enabled and len(active) < 2:
        log.warning("one active client and no evaluator for its updates; running ungated")
        gate_enabled = False

    announced_mean = float(np.mean([c.n_train for c in active]))
    input_size = active[0].train_x.shape[2]
    global_state = GlobalModelState(lstm.init_params(cfg.init_seed, input_size, hidden_size))
    weights = np.array([c.n_train for c in active], dtype=np.float64)
    rows: list[dict] = []

    with shards._Shards(active) as pool:
        for round_index in range(1, cfg.rounds + 1):
            updates = pool.ask(
                "train", global_state.params, round_index, cfg.local_epochs, announced_mean
            )

            # a non-finite update is neither scored by the gate nor averaged
            finite = []
            for update in updates:
                if np.isfinite(update.params.vector).all():
                    finite.append(update)
                else:
                    log.warning(
                        "round %d: dropped non-finite update from client %d",
                        round_index,
                        update.client_id,
                    )

            gate_active = gate_enabled and round_index > cfg.gate_warmup_rounds
            gate_aucs: list[float] = []
            if gate_active:
                reviews = pool.ask(
                    "review", global_state.params, finite, cfg.gate_eval_max_windows
                )
                # rolling AUC of the model broadcast this round, same reference
                # labels the candidates are judged against
                global_aucs = [auc for auc, _ in reviews if auc is not None]
                if global_aucs:
                    global_state.last_auc = float(np.mean(global_aucs))
                accepted = []
                for j, update in enumerate(finite):
                    ok, reports = quality_gate(
                        update,
                        [r[j] for c, (_, r) in zip(active, reviews)
                         if c.client_id != update.client_id],
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
                accepted = finite

            if accepted:
                new_params = fedavg(accepted)
            else:
                log.warning("round %d: no update accepted; global model unchanged", round_index)
                new_params = global_state.params
            global_state = GlobalModelState(new_params, last_auc=global_state.last_auc)

            val_mses = np.array(pool.ask("validation_mse", new_params))
            rows.append(
                {
                    "round": round_index,
                    "accepted_clients": len(accepted),
                    "mean_gate_auc": float(np.mean(gate_aucs)) if gate_aucs else math.nan,
                    "global_val_mse": float(np.average(val_mses, weights=weights)),
                }
            )
    return global_state, rows
