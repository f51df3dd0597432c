"""Federated orchestration: client state, FedAvg aggregation, AUC quality
gate, and the round loop.

Clients keep their traces, features and labels local; the only values that
cross the client/server boundary are flat parameter vectors, sample counts
and per-evaluator AUCs.  Client work runs in shards: the server process
itself and forked processes, up to one per usable CPU, which exchange
value-semantic messages with the server over pipes.  A message crosses as a
small pickle followed by each parameter vector's bytes, written from the
vector's own memory and read into the memory the received vector owns
(`shards._send`), so a gated round's broadcast of the global model and every
candidate is never copied whole.
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

#: The most windows a client scores per model in a gated round, and how far
#: below the broadcast model's mean AUC a candidate's may fall and pass.
GATE_EVAL_MAX_WINDOWS = 512
GATE_THRESHOLD_DELTA = 0.02


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


@dataclass(frozen=True)
class GlobalModelState:
    """The final global parameters."""

    params: lstm.LstmModelParams


#: Every message type the server can receive from clients.  The privacy
#: contract is enforced against this tuple: none of these may carry position,
#: feature or raw-sensor fields.
SERVER_RECEIVABLE_MESSAGE_TYPES = (RoundUpdate, QualityReport)


def fedavg(updates: list[RoundUpdate]) -> lstm.LstmModelParams:
    """Coordinate-wise mean of client parameters, weighted by sample counts.

    Accumulates in 64-bit, each update weighted in one scratch vector, and
    returns the updates' dtype.  Updates are canonicalized by client id
    first, so the result is bitwise permutation-invariant; weights
    n_k / sum(n_k) make it exactly invariant under uniform scaling of all n_k.
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
    scratch = np.empty_like(acc)
    for u in ordered:
        scratch[...] = u.params.vector
        scratch *= u.n_samples / total
        acc += scratch
    del scratch  # freed before the result is made
    return lstm.LstmModelParams(
        first.params.input_size,
        first.params.hidden_size,
        acc.astype(first.params.vector.dtype),
    )


class LocalClient:
    """One mobile platform: local windows (`features.Windows`, which an IID
    test set shares), self-supervised targets, the feature map fitted on its
    training traces, which normalizes its test traces, the seed its local
    training rounds derive from, and its gate evidence, fixed once: at most
    GATE_EVAL_MAX_WINDOWS evenly spaced training windows and their binarized
    self-labels, or None (the client abstains) when those hold one class."""

    def __init__(
        self,
        client_id: int,
        train_x: feat.Windows,
        train_y: np.ndarray,
        train_cfg: lstm.TrainConfig,
        seed: int,
        feature_norm: CapMinMax,
    ):
        self.client_id = client_id
        self.train_x = train_x
        self.train_y = np.asarray(train_y, dtype=np.float32)
        self.train_cfg = train_cfg
        self.seed = seed
        self.feature_norm = feature_norm
        n = len(train_x)
        idx = np.unique(np.linspace(0, n - 1, min(n, GATE_EVAL_MAX_WINDOWS)).astype(np.int64))
        ref = self.train_y[idx] > 0.5
        self.gate_evidence = None if ref.all() or not ref.any() else (train_x[idx], ref)

    @property
    def n_train(self) -> int:
        return len(self.train_x)

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
        fnorm = feat.fit_normalization(raws)
        lnorm = lab.fit_label_norm(devs)

        for trace in traces:
            if len(trace) < feature_cfg.window_len:
                log.warning("trace %d of client %d shorter than window; skipped",
                            trace.trace_id, client_id)
        train_x = feat.window_traces(raws, fnorm, feature_cfg)
        ys = np.concatenate([lab.generate(t, f, lnorm) for t, f in zip(traces, fused)])
        client = cls(client_id, train_x, ys[train_x.ends], train_cfg, seed, fnorm)
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
            global_params, self.train_x, self.train_y, self.train_cfg, local_epochs,
            self._round_seed(round_index), announced_mean_size
        )
        return RoundUpdate(
            client_id=self.client_id,
            round_index=round_index,
            params=trained,
            n_samples=self.n_train,
        )

    def score_candidate(self, params: lstm.LstmModelParams) -> float | None:
        """AUC of params on the gate windows against their binarized
        self-labels, or None (abstains) without gate evidence."""
        if self.gate_evidence is None:
            return None
        x, ref = self.gate_evidence
        return metrics.auc_from_scores(lstm.predict(params, x), ref)

    def validation_mse(self, params: lstm.LstmModelParams) -> float:
        """MSE of params on this client's validation windows."""
        start = lstm.validation_split(self.n_train)
        return lstm.batch_mse(params, self.train_x[start:], self.train_y[start:])

    def review(
        self,
        global_params: lstm.LstmModelParams,
        candidates: list[RoundUpdate],
    ) -> tuple[float | None, list[QualityReport]]:
        """This client's part of one gated round.

        Returns the AUC of the broadcast model and one QualityReport per
        other client's candidate, in candidate order.  A client without gate
        evidence abstains: it scores no candidate and returns (None, []).
        The per-window scores stay with the client.
        """
        global_auc = self.score_candidate(global_params)
        if global_auc is None:
            log.warning("client %d abstained from gating (single-class labels)", self.client_id)
            return None, []
        return global_auc, [
            QualityReport(candidate.client_id, self.client_id,
                          self.score_candidate(candidate.params))
            for candidate in candidates if candidate.client_id != self.client_id
        ]


def quality_gate(
    candidate: RoundUpdate,
    reviews: list[tuple[float | None, list[QualityReport]]],
) -> tuple[bool, list[QualityReport]]:
    """Cross-client screening of one candidate update.

    `reviews` are one gated round's `review` replies, in evaluator client-id
    order.  The candidate is judged on the reports that name it, each one
    evaluator's AUC of the candidate on its gate windows against its
    binarized self-labels.  The update is accepted iff their mean is at
    least the reference, the broadcast model's mean AUC over the evaluators
    that did not abstain, minus GATE_THRESHOLD_DELTA; with no report on it
    (every evaluator abstained) it is accepted with a warning.  Returns the
    verdict and the reports it was judged on, in evaluator order.
    """
    given = [r for _, reports in reviews for r in reports
             if r.candidate_client_id == candidate.client_id]
    if not given:
        log.warning("all evaluators abstained for client %d; accepting by default",
                    candidate.client_id)
        return True, []
    reference = float(np.mean([auc for auc, _ in reviews if auc is not None]))
    mean_auc = float(np.mean([r.auc_vs_reference for r in given]))
    return mean_auc >= reference - GATE_THRESHOLD_DELTA, given


@dataclass(frozen=True)
class FederationConfig:
    """Round loop configuration."""

    rounds: int = 100
    local_epochs: int = 5
    gate_enabled: bool = True
    gate_warmup_rounds: int = 10
    init_seed: int = 0

    def __post_init__(self) -> None:
        if self.rounds < 1 or self.local_epochs < 1:
            raise ValueError("rounds and local_epochs must be >= 1")
        if self.gate_warmup_rounds < 0:
            raise ValueError("gate_warmup_rounds must be >= 0")


def _round(pool, params, round_index, cfg, announced_mean, gate_active):
    """One round of `run_rounds`: the new global parameters, the count
    accepted and the gate's AUCs.  No update or report outlives it."""
    updates = pool.ask("train", params, round_index, cfg.local_epochs, announced_mean)

    # a non-finite update is neither scored by the gate nor averaged
    finite = []
    for update in updates:
        if np.isfinite(update.params.vector).all():
            finite.append(update)
        else:
            log.warning("round %d: dropped non-finite update from client %d",
                        round_index, update.client_id)

    gate_aucs: list[float] = []
    accepted = finite
    if gate_active and finite:
        reviews = pool.ask("review", params, finite)
        accepted = []
        for update in finite:
            ok, given = quality_gate(update, reviews)
            gate_aucs.extend(r.auc_vs_reference for r in given)
            if ok:
                accepted.append(update)
            else:
                log.info("round %d: rejected update from client %d", round_index, update.client_id)

    if accepted:
        params = fedavg(accepted)
    else:
        log.warning("round %d: no update accepted; global model unchanged", round_index)
    return params, len(accepted), gate_aucs


def run_rounds(
    clients: list[LocalClient],
    cfg: FederationConfig,
    hidden_size: int = lstm.DEFAULT_HIDDEN_SIZE,
) -> tuple[GlobalModelState, list[dict]]:
    """Run the federated round loop.

    Per round: broadcast the global parameters, train every client locally,
    drop any update with a non-finite parameter, screen the rest through the
    quality gate once the warm-up has passed (each candidate judged on the
    round's review replies alone), aggregate the accepted updates with
    FedAvg, and record metrics.  The model's input size is the feature
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
    params = lstm.init_params(cfg.init_seed, input_size, hidden_size)
    weights = np.array([c.n_train for c in active], dtype=np.float64)
    rows: list[dict] = []

    with shards._Shards(active) as pool:
        for round_index in range(1, cfg.rounds + 1):
            gate_active = gate_enabled and round_index > cfg.gate_warmup_rounds
            params, n_accepted, gate_aucs = _round(
                pool, params, round_index, cfg, announced_mean, gate_active)
            val_mses = np.array(pool.ask("validation_mse", params))
            rows.append(
                {
                    "round": round_index,
                    "accepted_clients": n_accepted,
                    "mean_gate_auc": float(np.mean(gate_aucs)) if gate_aucs else math.nan,
                    "global_val_mse": float(np.average(val_mses, weights=weights)),
                }
            )
    return GlobalModelState(params), rows
