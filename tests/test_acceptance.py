"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with `pytest -s tests/test_acceptance.py -v` to see the per-criterion
PASS/FAIL lines.  The heavy criteria share one default-scenario corpus
(6 clients, 3 device profiles, 40 traces, 20% attack time, fixed seed);
the federated runs use desk-scale round budgets so the whole suite stays
within the stated runtime targets.
"""

import dataclasses
import time
import typing
from functools import partial

import numpy as np
import pytest

from fedspoof import cli, domain, features, fusion, lstm, metrics, shards, simulate
from fedspoof.experiments import (
    build_bundles,
    model_scores,
    pds_pooled,
    pooled_test,
    run_centralized,
    run_federated,
)
from fedspoof.federation import (
    FederationConfig,
    QualityReport,
    RoundUpdate,
    SERVER_RECEIVABLE_MESSAGE_TYPES,
    fedavg,
    run_rounds,
)
from fedspoof.lstm import (
    EarlyStopping,
    LstmModelParams,
    TrainConfig,
    backward,
    init_params,
    param_count,
    train_local,
)

from clients import FaultyClient, shuffled

SEED = 7
FED_ROUNDS = 20
LOCAL_EPOCHS = 2
CENTRAL_BUDGET = FED_ROUNDS * LOCAL_EPOCHS


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\n[{criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def default_scenario():
    sim_cfg = simulate.SimConfig()
    assert sim_cfg.n_clients == 6 and sim_cfg.n_devices == 6
    assert sim_cfg.n_traces == 40
    assert simulate.ATTACK_FRACTION == 0.2
    assert len({p.model_name for p in simulate.device_profiles(sim_cfg).values()}) == 3
    assert sim_cfg.rng_seed == SEED
    return sim_cfg, simulate.generate(sim_cfg)


def _bundles_for(sim_cfg, traces, mode):
    part = simulate.partition(traces, mode, sim_cfg.n_clients, SEED)
    return build_bundles(
        part, fusion.FusionConfig(), features.FeatureConfig(), TrainConfig(), SEED
    )


@pytest.fixture(scope="module")
def iid_run(default_scenario):
    sim_cfg, traces = default_scenario
    started = time.perf_counter()
    bundles = _bundles_for(sim_cfg, traces, "iid")
    _, truth = pooled_test(bundles)

    pds_auc = metrics.auc_from_scores(pds_pooled(bundles), truth)
    fed_cfg = FederationConfig(rounds=FED_ROUNDS, local_epochs=LOCAL_EPOCHS, init_seed=SEED)
    # two jobs on the shard pool: the federation here, the centralized
    # baseline in a forked shard when a second CPU is free
    (fed_params, _), (cen_params, _) = shards.run([
        partial(run_federated, bundles, fed_cfg),
        partial(run_centralized, bundles, TrainConfig(), SEED, CENTRAL_BUDGET),
    ])
    fed_auc = metrics.auc_from_scores(model_scores(fed_params, bundles), truth)
    cen_auc = metrics.auc_from_scores(model_scores(cen_params, bundles), truth)
    return {
        "bundles": bundles,
        "pds_auc": pds_auc,
        "fed_auc": fed_auc,
        "cen_auc": cen_auc,
        "runtime_s": time.perf_counter() - started,
    }


class TestC1GradientCorrectness:
    def test_bptt_matches_central_differences(self):
        started = time.perf_counter()
        rng = np.random.default_rng(SEED)
        init = init_params(SEED, input_size=5, hidden_size=3)
        params = LstmModelParams(5, 3, init.vector.astype(np.float64))
        x = rng.uniform(0.0, 1.0, (2, 4, 5))
        y = rng.uniform(0.1, 0.9, 2)
        grad, _ = backward(params, x, y)

        eps = 1e-4
        worst = 0.0
        for name, shape, offset in params.layout():
            size = int(np.prod(shape))
            n_coords = min(50, size)
            coords = offset + rng.choice(size, n_coords, replace=False)
            for k in coords:
                v0 = params.vector[k]
                params.vector[k] = v0 + eps
                _, up = backward(params, x, y)
                params.vector[k] = v0 - eps
                _, down = backward(params, x, y)
                params.vector[k] = v0
                fd = (up - down) / (2.0 * eps)
                rel = abs(grad[k] - fd) / max(abs(grad[k]) + abs(fd), 1e-6)
                worst = max(worst, rel)
        elapsed = time.perf_counter() - started
        _report(
            "C1 gradient-correctness",
            worst < 1e-4 and elapsed < 10.0,
            f"max rel err {worst:.2e} (<1e-4), {elapsed:.1f}s (<10s), "
            f">=50 coords per block on hidden=3 window=4",
        )


class TestC2AucOracle:
    @staticmethod
    def _pairwise(scores, truth):
        pos = scores[truth][:, None]
        neg = scores[~truth][None, :]
        wins = (pos > neg).sum() + 0.5 * (pos == neg).sum()
        return wins / (pos.size * neg.size)

    def test_trapezoid_equals_rank_statistic(self):
        started = time.perf_counter()
        rng = np.random.default_rng(SEED)
        worst = 0.0
        for trial in range(100):
            n = int(rng.integers(4, 501))
            scores = rng.normal(0.0, 1.0, n)
            if trial % 3 == 0:
                scores = np.round(scores, 1)  # force ties
            truth = rng.random(n) < rng.uniform(0.2, 0.8)
            if truth.all() or not truth.any():
                truth[0] = True
                truth[1] = False
            diff = abs(
                metrics.auc_from_scores(scores, truth) - self._pairwise(scores, truth)
            )
            worst = max(worst, diff)
        elapsed = time.perf_counter() - started
        _report(
            "C2 auc-oracle-equivalence",
            worst < 1e-9 and elapsed < 5.0,
            f"max |trapezoid - pairwise| {worst:.2e} (<1e-9) over 100 instances, "
            f"{elapsed:.1f}s (<5s)",
        )


class TestC3FedavgAlgebra:
    def test_identity_mean_permutation_scale(self):
        started = time.perf_counter()
        rng = np.random.default_rng(SEED)
        size = param_count(36, 100)

        def update(cid, vec, n):
            return RoundUpdate(cid, 1, LstmModelParams(36, 100, vec), n)

        v = rng.normal(0, 1, size).astype(np.float32)
        identity_ok = np.array_equal(
            fedavg([update(1, v, 3), update(2, v.copy(), 11)]).vector, v
        )

        oracle_ok = True
        for _ in range(5):
            vecs = [rng.normal(0, 1, size).astype(np.float32) for _ in range(4)]
            ns = [int(n) for n in rng.integers(1, 5000, 4)]
            got = fedavg([update(i + 1, w, n) for i, (w, n) in enumerate(zip(vecs, ns))])
            oracle = sum(
                n * w.astype(np.float64) for w, n in zip(vecs, ns)
            ) / float(sum(ns))
            try:
                np.testing.assert_allclose(
                    got.vector.astype(np.float64), oracle, rtol=1e-7, atol=1e-12
                )
            except AssertionError:
                oracle_ok = False

        updates = [update(i + 1, rng.normal(0, 1, size).astype(np.float32), i + 2)
                   for i in range(4)]
        perm_ok = np.array_equal(
            fedavg(updates).vector, fedavg(updates[::-1]).vector
        )
        scaled = [
            dataclasses.replace(u, n_samples=u.n_samples * 23) for u in updates
        ]
        scale_ok = np.array_equal(fedavg(updates).vector, fedavg(scaled).vector)

        elapsed = time.perf_counter() - started
        _report(
            "C3 fedavg-algebra",
            identity_ok and oracle_ok and perm_ok and scale_ok and elapsed < 5.0,
            f"identity={identity_ok} oracle(1e-7)={oracle_ok} permutation={perm_ok} "
            f"weight-scale={scale_ok}, {elapsed:.1f}s (<5s)",
        )


@pytest.mark.slow
class TestC4OrderingReproduction:
    def test_federated_beats_baseline_and_tracks_centralized(self, iid_run):
        fed, cen, pds = iid_run["fed_auc"], iid_run["cen_auc"], iid_run["pds_auc"]
        ok = fed >= pds + 0.02 and abs(fed - cen) <= 0.05 and iid_run["runtime_s"] < 900.0
        _report(
            "C4 ordering-reproduction",
            ok,
            f"AUC federated {fed:.4f} >= pds {pds:.4f}+0.02; "
            f"|federated-centralized| = {abs(fed - cen):.4f} <= 0.05; "
            f"runtime {iid_run['runtime_s']:.0f}s (<900s)",
        )


@pytest.mark.slow
class TestC5TraceSplitGeneralization:
    def test_trace_split_auc_close_to_iid(self, default_scenario, iid_run):
        sim_cfg, traces = default_scenario
        bundles = _bundles_for(sim_cfg, traces, "non-iid-by-trace")
        _, truth = pooled_test(bundles)
        fed_cfg = FederationConfig(rounds=FED_ROUNDS, local_epochs=LOCAL_EPOCHS,
                                   init_seed=SEED)
        fed_params, _ = run_federated(bundles, fed_cfg)
        trace_auc = metrics.auc_from_scores(model_scores(fed_params, bundles), truth)
        diff = abs(trace_auc - iid_run["fed_auc"])
        _report(
            "C5 trace-split-generalization",
            diff <= 0.05,
            f"AUC trace-split {trace_auc:.4f} vs iid {iid_run['fed_auc']:.4f}, "
            f"|diff| = {diff:.4f} <= 0.05",
        )


@pytest.mark.slow
class TestC6QualityGateEfficacy:
    def test_gate_rescues_corrupted_federation(self, default_scenario):
        sim_cfg, traces = default_scenario
        bundles = _bundles_for(sim_cfg, traces, "iid")
        _, truth = pooled_test(bundles)
        base = FederationConfig(rounds=25, local_epochs=LOCAL_EPOCHS, init_seed=SEED)
        # client 3 uploads parameter-shuffled updates from round 15 on
        clients = [FaultyClient(b.client, 15, shuffled(SEED)) if b.client.client_id == 3
                   else b.client for b in bundles]
        runs = shards.run([partial(run_rounds, clients, dataclasses.replace(base, gate_enabled=g))
                           for g in (True, False)])
        aucs = {gated: metrics.auc_from_scores(model_scores(state.params, bundles), truth)
                for gated, (state, _) in zip((True, False), runs)}
        gap = aucs[True] - aucs[False]
        _report(
            "C6 quality-gate-efficacy",
            gap >= 0.03,
            f"AUC gated {aucs[True]:.4f} vs ungated {aucs[False]:.4f}, "
            f"gap {gap:+.4f} >= 0.03 (client 3 shuffled from round 15)",
        )


class TestC7PrivacyContract:
    FORBIDDEN_TYPES = (domain.Trace, fusion.FusedEstimate, fusion.CapMinMax)
    FORBIDDEN_TOKENS = (
        "lat", "lon", "pos", "gnss", "net", "coord", "feature", "window",
        "accel", "omega", "speed", "trace", "signal", "sensor",
    )

    # the only array the server may receive: the parameter vector of an update
    ALLOWED_ARRAY_FIELDS = {"RoundUpdate.params.vector"}

    def _fields(self, message_type, path, stack):
        if message_type in stack or not dataclasses.is_dataclass(message_type):
            return
        hints = typing.get_type_hints(message_type)
        for field in dataclasses.fields(message_type):
            field_path = f"{path}.{field.name}"
            yield message_type, field.name, field_path, hints[field.name]
            yield from self._fields(hints[field.name], field_path, stack | {message_type})

    @staticmethod
    def _mentions_array(hint):
        if hint is np.ndarray or typing.get_origin(hint) is np.ndarray:
            return True
        return any(TestC7PrivacyContract._mentions_array(arg) for arg in typing.get_args(hint))

    def test_server_messages_carry_no_sensitive_fields(self):
        violations = []
        assert set(SERVER_RECEIVABLE_MESSAGE_TYPES) == {RoundUpdate, QualityReport}
        for msg_type in SERVER_RECEIVABLE_MESSAGE_TYPES:
            for owner, name, path, hint in self._fields(msg_type, msg_type.__name__, frozenset()):
                if hint in self.FORBIDDEN_TYPES:
                    violations.append(f"{owner.__name__}.{name}: {hint}")
                if any(tok in name.lower() for tok in self.FORBIDDEN_TOKENS):
                    violations.append(f"{owner.__name__}.{name}: name")
                if self._mentions_array(hint) and path not in self.ALLOWED_ARRAY_FIELDS:
                    violations.append(f"{path}: array")
        _report(
            "C7 privacy-contract",
            not violations,
            "server receives only parameter vectors, counts and AUCs"
            if not violations
            else f"violations: {violations}",
        )


@pytest.mark.slow
class TestC8Determinism:
    CONFIG = """\
[experiment]
seed = 11
cells = clfl
splits = iid

[sim]
n_traces = 8
n_devices = 2
n_clients = 2
duration_s = 60.0
attack_trace_prob = 1.0

[features]
window_len = 6

[train]
batch_size = 24

[federation]
rounds = 2
local_epochs = 1
gate_enabled = false
"""

    def test_repeat_pipeline_runs_byte_identical(self, tmp_path):
        config = tmp_path / "exp.ini"
        config.write_text(self.CONFIG)
        tracked = (
            "dataset.csv", "metrics_federated.csv", "auc_federated.csv",
            "roc_federated.csv", "auc_table.csv", "manifest.txt",
        )
        blobs = {}
        for name in ("a", "b"):
            out = tmp_path / name
            for argv in (
                ["generate", "--config", str(config), "--out", str(out)],
                ["train", "--mode", "federated", "--config", str(config), "--out", str(out)],
                ["eval", "--config", str(config), "--out", str(out)],
            ):
                assert cli.main(argv) == 0
            blobs[name] = {f: (out / f).read_bytes() for f in tracked}
        identical = blobs["a"] == blobs["b"]
        _report(
            "C8 determinism",
            identical,
            f"two full pipeline runs produced byte-identical {', '.join(tracked)}"
            if identical else "runs differ",
        )


class TestC9EarlyStopping:
    def test_plateau_stops_exactly_patience_later(self):
        outcomes = []
        for plateau_start in (1, 5, 13):
            stopper = EarlyStopping(patience=20, min_delta=1e-6)
            stopped_at = None
            for epoch in range(1, 200):
                loss = 2.0 / epoch if epoch <= plateau_start else 2.0 / plateau_start
                stopper.update(loss)
                if stopper.should_stop:
                    stopped_at = epoch
                    break
            outcomes.append(stopped_at == plateau_start + 20)

        # lr = 0 freezes training, so validation loss plateaus from epoch 1 and
        # the trainer itself must stop at epoch 21
        rng = np.random.default_rng(SEED)
        x = rng.uniform(0, 1, (60, 5, 4)).astype(np.float32)
        y = rng.uniform(0, 1, 60).astype(np.float32)
        cfg = TrainConfig(batch_size=16, base_learning_rate=0.0)
        _, rep = train_local(init_params(SEED, 4, 3), x, y, cfg, 500, SEED)
        outcomes.append(rep.epochs_run == 21)

        _report(
            "C9 early-stopping",
            all(outcomes),
            f"plateau at epochs 1/5/13 stopped at +20 each: {outcomes[:3]}; "
            f"frozen trainer stopped at epoch {rep.epochs_run} (= 1 + 20)",
        )
