import dataclasses
import functools
import io
import logging
import multiprocessing
import os
import pickle
import time

import numpy as np
import pytest

from fedspoof import features, fusion, lstm, metrics, shards
from fedspoof.federation import (
    SERVER_RECEIVABLE_MESSAGE_TYPES,
    FederationConfig,
    GlobalModelState,
    LocalClient,
    QualityReport,
    RoundUpdate,
    fedavg,
    quality_gate,
    run_rounds,
)
from fedspoof.lstm import LstmModelParams, TrainConfig, init_params, param_count

from clients import FaultyClient, client_from_windows, first_samples, not_finite, shuffled


def _update(client_id, vector, n=1, round_index=1, input_size=4, hidden_size=3):
    return RoundUpdate(
        client_id=client_id,
        round_index=round_index,
        params=LstmModelParams(input_size, hidden_size, np.asarray(vector, dtype=np.float32)),
        n_samples=n,
    )


def _rand_vec(rng, input_size=4, hidden_size=3):
    return rng.normal(0, 1, param_count(input_size, hidden_size)).astype(np.float32)


class TestFedavg:
    def test_identity_on_equal_inputs(self, rng):
        v = _rand_vec(rng)
        out = fedavg([_update(1, v, n=1), _update(2, v, n=50), _update(3, v, n=7)])
        assert np.array_equal(out.vector, v)

    def test_weighted_mean_arithmetic(self):
        size = param_count(4, 3)
        out = fedavg([_update(1, np.zeros(size), n=1), _update(2, np.ones(size), n=3)])
        np.testing.assert_array_equal(out.vector, np.full(size, 0.75, dtype=np.float32))

    def test_matches_float64_oracle(self, rng):
        for _ in range(20):
            k = int(rng.integers(2, 6))
            vecs = [_rand_vec(rng) for _ in range(k)]
            ns = rng.integers(1, 10_000, k)
            updates = [_update(i + 1, v, n=int(n)) for i, (v, n) in enumerate(zip(vecs, ns))]
            out = fedavg(updates).vector.astype(np.float64)
            oracle = sum(
                n * v.astype(np.float64) for v, n in zip(vecs, ns)
            ) / float(ns.sum())
            np.testing.assert_allclose(out, oracle, rtol=1e-7)

    def test_permutation_invariance_bitwise(self, rng):
        vecs = [_rand_vec(rng) for _ in range(4)]
        updates = [_update(i + 1, v, n=i + 2) for i, v in enumerate(vecs)]
        a = fedavg(updates)
        b = fedavg(list(reversed(updates)))
        assert np.array_equal(a.vector, b.vector)

    def test_weight_scale_invariance_bitwise(self, rng):
        vecs = [_rand_vec(rng) for _ in range(3)]
        base = [_update(i + 1, v, n=(i + 1) * 3) for i, v in enumerate(vecs)]
        scaled = [_update(i + 1, v, n=(i + 1) * 3 * 17) for i, v in enumerate(vecs)]
        assert np.array_equal(fedavg(base).vector, fedavg(scaled).vector)

    def test_rejects_bad_inputs(self, rng):
        with pytest.raises(ValueError, match="at least one"):
            fedavg([])
        v = _rand_vec(rng)
        with pytest.raises(ValueError, match="duplicate"):
            fedavg([_update(1, v), _update(1, v)])
        with pytest.raises(ValueError, match="rounds"):
            fedavg([_update(1, v, round_index=1), _update(2, v, round_index=2)])
        other = rng.normal(0, 1, param_count(5, 3)).astype(np.float32)
        with pytest.raises(ValueError, match="layout"):
            fedavg([_update(1, v), _update(2, other, input_size=5)])
        with pytest.raises(ValueError, match="n_samples"):
            _update(1, v, n=0)


def _client_from_windows(client_id, x, y, seed=0):
    # higher rate than the full-size default so micro nets converge quickly
    return client_from_windows(
        client_id, x, y, TrainConfig(batch_size=16, base_learning_rate=5e-3), seed
    )


def _reports(candidate, clients, max_windows=512):
    """Every other client's report on candidate, in client order, as run_rounds
    gathers them (None where an evaluator abstains)."""
    return [c.review(candidate.params, [candidate], max_windows)[1][0]
            for c in sorted(clients, key=lambda c: c.client_id)
            if c.client_id != candidate.client_id]


def _separable_client(rng, client_id, n=120, seed=0):
    """Windows whose first feature at the last step predicts the label."""
    x = rng.uniform(0, 1, (n, 4, feat_dim := 6)).astype(np.float32)
    y = (x[:, -1, 0] > 0.5).astype(np.float32) * 0.9 + 0.05
    return _client_from_windows(client_id, x, y, seed=seed)


class TestQualityGate:
    def test_current_global_accepted_against_itself(self, rng):
        clients = [_separable_client(rng, i + 1, seed=i) for i in range(3)]
        params = init_params(0, 6, 4)
        state = GlobalModelState(params)
        aucs = [c.score_candidate(params, 256) for c in clients]
        state.last_auc = float(np.mean(aucs))
        candidate = RoundUpdate(1, 1, params, n_samples=10)
        accepted, reports = quality_gate(
            candidate, _reports(candidate, clients), state, threshold_delta=0.02
        )
        assert accepted
        assert {r.evaluating_client_id for r in reports} == {2, 3}
        assert all(r.candidate_client_id == 1 for r in reports)

    def test_single_class_evaluator_abstains(self, rng):
        good = _separable_client(rng, 1)
        degenerate = _client_from_windows(
            2, rng.uniform(0, 1, (40, 4, 6)).astype(np.float32), np.zeros(40, np.float32)
        )
        state = GlobalModelState(init_params(0, 6, 4), last_auc=0.0)
        candidate = RoundUpdate(1, 1, init_params(1, 6, 4), n_samples=10)
        accepted, reports = quality_gate(candidate, _reports(candidate, [good, degenerate]),
                                         state, 0.02)
        assert accepted  # the only evaluator abstained -> accept by default
        assert reports == []

    def test_needs_an_evaluator(self, rng):
        client = _separable_client(rng, 1)
        state = GlobalModelState(init_params(0, 6, 4))
        candidate = RoundUpdate(1, 1, init_params(0, 6, 4), 5)
        with pytest.raises(ValueError, match="evaluator"):
            quality_gate(candidate, _reports(candidate, [client]), state, 0.02)

    def test_shuffled_parameters_rejected(self, rng):
        # train a competent global, then gate a parameter-shuffled clone of it
        clients = [_separable_client(rng, i + 1, n=240, seed=i) for i in range(3)]
        cfg = FederationConfig(rounds=5, local_epochs=6, gate_enabled=False, init_seed=0)
        state, _ = run_rounds(clients, cfg, hidden_size=8)
        aucs = [c.score_candidate(state.params, 256) for c in clients]
        state.last_auc = float(np.mean(aucs))
        assert state.last_auc > 0.8

        vector = state.params.vector[rng.permutation(state.params.vector.size)]
        bad = RoundUpdate(1, 6, LstmModelParams(6, 8, vector), n_samples=240)
        accepted, reports = quality_gate(bad, _reports(bad, clients), state, threshold_delta=0.02)
        assert not accepted
        assert np.mean([r.auc_vs_reference for r in reports]) < state.last_auc - 0.02

    def test_report_validates_auc_range(self):
        with pytest.raises(ValueError):
            QualityReport(1, 2, 1.2)


class TestRunRounds:
    def test_single_client_round_equals_local_training(self, rng):
        client = _separable_client(rng, 1, seed=42)
        cfg = FederationConfig(rounds=1, local_epochs=2, gate_enabled=False, init_seed=7)
        state, rows = run_rounds([client], cfg, hidden_size=4)
        expected = client.train(
            init_params(7, 6, 4), 1, 2, announced_mean_size=float(client.n_train)
        )
        assert np.array_equal(state.params.vector, expected.params.vector)
        assert rows[0]["accepted_clients"] == 1

    def test_identical_clients_keep_global_equal_to_local(self, rng):
        x = rng.uniform(0, 1, (100, 4, 6)).astype(np.float32)
        y = (x[:, -1, 0] > 0.5).astype(np.float32)
        clients = [_client_from_windows(i + 1, x, y, seed=5) for i in range(3)]
        cfg = FederationConfig(rounds=2, local_epochs=1, gate_enabled=False, init_seed=1)
        state, _ = run_rounds(clients, cfg, hidden_size=4)
        solo = clients[0].train(init_params(1, 6, 4), 1, 1, float(clients[0].n_train))
        follow = clients[0].train(solo.params, 2, 1, float(clients[0].n_train))
        assert np.array_equal(state.params.vector, follow.params.vector)

    def test_gate_disabled_equals_plain_fedavg(self, rng):
        clients = [_separable_client(rng, i + 1, seed=i) for i in range(2)]
        cfg = FederationConfig(rounds=2, local_epochs=1, gate_enabled=False, init_seed=3)
        state, _ = run_rounds(clients, cfg, hidden_size=4)

        params = init_params(3, 6, 4)
        mean_n = float(np.mean([c.n_train for c in clients]))
        for round_index in (1, 2):
            updates = [c.train(params, round_index, 1, mean_n) for c in clients]
            params = fedavg(updates)
        assert np.array_equal(state.params.vector, params.vector)

    def test_validation_mse_scores_the_windows_training_held_out(self, rng, monkeypatch):
        # 20% of 63 windows is 12.6, so both sides must round the split alike
        client = _separable_client(rng, 1, n=63, seed=1)
        scored = []

        def spy(params, x, targets):
            scored.append(np.array(x))
            return 0.0

        monkeypatch.setattr(lstm, "batch_mse", spy)
        client.train(init_params(0, 6, 4), 1, 1, announced_mean_size=None)
        client.validation_mse(init_params(0, 6, 4))
        assert len(scored) == 2
        held_out, validated = scored
        assert held_out.shape[0] == 12
        assert np.array_equal(held_out, validated)
        assert np.array_equal(validated, client.train_x[-12:])

    def test_no_trainable_client_rejected(self):
        empty = client_from_windows(1, np.empty((0, 4, 6), np.float32), np.empty(0, np.float32),
                                    TrainConfig(), 0)
        with pytest.raises(ValueError, match="no client"):
            run_rounds([empty], FederationConfig(rounds=1), hidden_size=4)

    def test_one_client_federation_runs_ungated(self, rng):
        # no other client can review the only client's updates, so the gate
        # is skipped and the run equals the same run with the gate off
        clients = [_separable_client(rng, 1)]
        gated = FederationConfig(rounds=3, local_epochs=1, gate_warmup_rounds=1, init_seed=3)
        state, rows = run_rounds(clients, gated, hidden_size=4)
        ungated = dataclasses.replace(gated, gate_enabled=False)
        ref_state, ref_rows = run_rounds(clients, ungated, hidden_size=4)
        assert np.array_equal(state.params.vector, ref_state.params.vector)
        assert [r["accepted_clients"] for r in rows] == [1, 1, 1]
        assert all(np.isnan(r["mean_gate_auc"]) for r in rows)
        assert [r["global_val_mse"] for r in rows] == [r["global_val_mse"] for r in ref_rows]

    def test_non_finite_update_dropped(self, rng, monkeypatch, caplog):
        # client 2 diverges from round 2 on; the run goes on without its
        # updates, gated and ungated, and client 2 still reviews the others
        _force_shards(monkeypatch, 2)  # client 2 trains in the forked shard
        good = [_separable_client(rng, i + 1, seed=i) for i in range(3)]
        clients = [good[0], FaultyClient(good[1], 2, not_finite), good[2]]
        ungated = FederationConfig(rounds=3, local_epochs=1, gate_enabled=False, init_seed=3)
        # a threshold of 1 accepts every update the gate scores
        gated = dataclasses.replace(ungated, gate_enabled=True, gate_warmup_rounds=1,
                                    gate_threshold_delta=1.0)
        for cfg in (ungated, gated):
            caplog.clear()
            state, rows = run_rounds(clients, cfg, hidden_size=4)
            assert [r["accepted_clients"] for r in rows] == [3, 2, 2]
            assert all(np.isfinite(r["global_val_mse"]) for r in rows)
            assert np.isfinite(state.params.vector).all()
            dropped = [r.getMessage() for r in caplog.records if "non-finite" in r.getMessage()]
            assert dropped == [f"round {k}: dropped non-finite update from client 2"
                               for k in (2, 3)]
        assert not np.isnan(rows[2]["mean_gate_auc"])

    def test_metrics_rows_and_csv(self, rng, tmp_path):
        clients = [_separable_client(rng, i + 1, seed=i) for i in range(2)]
        cfg = FederationConfig(rounds=3, local_epochs=1, gate_enabled=True,
                               gate_warmup_rounds=1, init_seed=0)
        _, rows = run_rounds(clients, cfg, hidden_size=4)
        assert [r["round"] for r in rows] == [1, 2, 3]
        assert np.isnan(rows[0]["mean_gate_auc"])  # warm-up round
        assert not np.isnan(rows[1]["mean_gate_auc"])
        path = tmp_path / "rounds.csv"
        metrics.write_csv(str(path), rows[0].keys(), [r.values() for r in rows])
        lines = path.read_text().splitlines()
        assert lines[0] == "round,accepted_clients,mean_gate_auc,global_val_mse"
        assert lines[1].split(",")[2] == "na"
        assert len(lines) == 4


class TestWindowlessClient:
    """A client whose every trace is shorter than its window."""

    CFG = features.FeatureConfig()

    def _client(self, traces):
        short = [first_samples(t, self.CFG.window_len - 1) for t in traces[:3]]
        fused = [fusion.fuse_trace(t, fusion.FusionConfig()) for t in short]
        return LocalClient.from_traces(9, short, fused, self.CFG, TrainConfig(), 0)

    def test_from_traces_gives_no_windows(self, tiny_corpus, caplog):
        _, traces = tiny_corpus
        with caplog.at_level(logging.WARNING, logger="fedspoof.federation"):
            client = self._client(traces)
        assert client.train_x.shape == (0, self.CFG.window_len, features.N_FEATURES)
        assert client.train_x.dtype == np.float32
        assert client.train_y.shape == (0,) and client.train_y.dtype == np.float32
        assert [r.getMessage() for r in caplog.records] == [
            f"trace {t.trace_id} of client 9 shorter than window; skipped" for t in traces[:3]]

    def test_skipped_beside_trainable_clients(self, rng, tiny_corpus, caplog):
        _, traces = tiny_corpus
        windowless = self._client(traces)
        trainable = [_separable_client(rng, i + 1, seed=i) for i in range(3)]
        cfg = FederationConfig(rounds=3, local_epochs=1, gate_warmup_rounds=1, init_seed=4)
        with caplog.at_level(logging.WARNING, logger="fedspoof.federation"):
            state, rows = run_rounds([*trainable, windowless], cfg, hidden_size=4)
        assert "client 9 has no training windows; skipped" in caplog.messages
        ref_state, ref_rows = run_rounds(trainable, cfg, hidden_size=4)
        assert state.params.vector.tobytes() == ref_state.params.vector.tobytes()
        assert np.float64(state.last_auc).tobytes() == np.float64(ref_state.last_auc).tobytes()
        assert state.last_auc > 0.0  # the gate ran
        assert rows[0].keys() == ref_rows[0].keys()
        assert (np.array([list(r.values()) for r in rows]).tobytes()
                == np.array([list(r.values()) for r in ref_rows]).tobytes())


def _force_shards(monkeypatch, n):
    monkeypatch.setattr(shards, "_shard_count", lambda n_clients: min(n, n_clients))


def _fake_process(monkeypatch, cpus, threads):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(os, "listdir", lambda path: [str(i) for i in range(threads)])


def _count_forks(monkeypatch):
    forks = []
    start = multiprocessing.context.ForkProcess.start

    def counting_start(proc):
        forks.append(proc)
        start(proc)

    monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", counting_start)
    return forks


class _FailingClient(LocalClient):
    def train(self, *args, **kwargs):
        raise FloatingPointError(f"client {self.client_id} diverged")


class _DyingClient(LocalClient):
    server_pid = None

    def train(self, *args, **kwargs):
        assert os.getpid() != self.server_pid, "must only run in a forked shard"
        os._exit(3)


class _SleepingClient(LocalClient):
    def train(self, *args, **kwargs):
        time.sleep(60)


def _c7_violations(reply) -> list[str]:
    """What a shard's reply breaks of C7: only server-receivable messages,
    floats or None, and no array on the wire but an update's parameter vector."""
    violations = []

    def walk(obj, path):
        if isinstance(obj, (list, tuple)):
            for i, item in enumerate(obj):
                walk(item, f"{path}[{i}]")
        elif not (obj is None or isinstance(obj, (float, *SERVER_RECEIVABLE_MESSAGE_TYPES))):
            violations.append(f"{path}: {type(obj).__name__}")

    walk(reply, "reply")
    pickled_arrays = []

    class ArrayRecorder(pickle.Pickler):
        def persistent_id(self, obj):
            if isinstance(obj, np.ndarray):
                pickled_arrays.append(obj)
            return None

    ArrayRecorder(io.BytesIO()).dump(reply)
    vectors = {id(u.params.vector) for u in reply if isinstance(u, RoundUpdate)}
    violations += [f"array of shape {a.shape} on the wire" for a in pickled_arrays
                   if id(a) not in vectors]
    return violations


class TestShardedRounds:
    """run_rounds spreads clients over up to one shard per usable CPU; shard
    0 is the server process, the others are forked."""

    GATED = FederationConfig(rounds=3, local_epochs=2, gate_enabled=True, gate_warmup_rounds=1,
                             init_seed=4)

    def _clients(self, rng, k=4):
        """k clients; client 3 uploads shuffled updates from round 2 on."""
        clients = [_separable_client(rng, i + 1, seed=i) for i in range(k)]
        clients[2] = FaultyClient(clients[2], 2, shuffled(self.GATED.init_seed))
        return clients

    def test_shard_count_does_not_change_the_outcome(self, rng, monkeypatch, caplog):
        caplog.set_level(logging.INFO, logger="fedspoof.federation")
        clients = self._clients(rng)
        forks = _count_forks(monkeypatch)
        outcomes = {}
        for n in (1, 2, 3):
            _force_shards(monkeypatch, n)
            forks.clear()
            caplog.clear()
            outcomes[n] = run_rounds(clients, self.GATED, hidden_size=4)
            assert len(forks) == n - 1
            # the gate rejects the shuffled client 3, and only it
            rejected = [r.getMessage() for r in caplog.records if "rejected" in r.getMessage()]
            assert rejected == [f"round {k}: rejected update from client 3" for k in (2, 3)]
        state, rows = outcomes[1]
        assert [r["accepted_clients"] for r in rows] == [4, 3, 3]
        for n in (2, 3):
            assert np.array_equal(outcomes[n][0].params.vector, state.params.vector)
            assert outcomes[n][0].last_auc == state.last_auc
            assert repr(outcomes[n][1]) == repr(rows)  # equal, NaN included

    def test_shard_count_from_affinity_and_threads(self, monkeypatch):
        _fake_process(monkeypatch, cpus=8, threads=1)
        assert shards._shard_count(6) == 6
        assert shards._shard_count(12) == 8
        _fake_process(monkeypatch, cpus=1, threads=1)
        assert shards._shard_count(6) == 1
        # a process already running other threads, such as an unpinned
        # BLAS pool, is not forked
        _fake_process(monkeypatch, cpus=8, threads=9)
        assert shards._shard_count(6) == 1
        monkeypatch.delattr(os, "sched_getaffinity")
        assert shards._shard_count(6) == 1

    def test_no_items_get_one_shard(self, monkeypatch):
        # shard 0, the server, answers for an empty list
        _fake_process(monkeypatch, cpus=8, threads=1)
        assert shards._shard_count(0) == 1
        with shards._Shards([]) as pool:
            assert pool.ask("__call__") == []
        assert shards.run([]) == []

    def test_forked_shard_counts_one_shard(self, monkeypatch):
        # a daemonic shard may not fork; the server may, here 8 CPUs, 1 thread
        _fake_process(monkeypatch, cpus=8, threads=1)
        job = functools.partial(shards._shard_count, 6)
        assert shards.run([job, job]) == [6, 1]

    def test_shard_error_raised_in_server(self, rng, monkeypatch):
        _force_shards(monkeypatch, 2)
        good = _separable_client(rng, 1)
        failing = _FailingClient(2, good.train_x, good.train_y, good.train_cfg, good.seed,
                                 good.feature_norm)
        with pytest.raises(FloatingPointError, match="client 2 diverged") as excinfo:
            run_rounds([good, failing], self.GATED, hidden_size=4)
        assert "in shard 1" in str(excinfo.value.__cause__)
        assert multiprocessing.active_children() == []

    def test_error_in_the_server_ends_a_working_shard(self, rng, monkeypatch):
        # client 1 fails in shard 0, the server, while client 2 still trains
        # in the forked shard; that shard is terminated, not waited for
        _force_shards(monkeypatch, 2)
        good = _separable_client(rng, 1)
        args = (good.train_x, good.train_y, good.train_cfg, good.seed, good.feature_norm)
        clients = [_FailingClient(1, *args), _SleepingClient(2, *args)]
        start = time.monotonic()
        with pytest.raises(FloatingPointError, match="client 1 diverged"):
            run_rounds(clients, self.GATED, hidden_size=4)
        assert time.monotonic() - start < shards._Shards.EXIT_TIMEOUT_S / 2
        assert multiprocessing.active_children() == []

    def test_dead_shard_raised_in_server(self, rng, monkeypatch):
        _force_shards(monkeypatch, 2)
        good = _separable_client(rng, 1)
        dying = _DyingClient(2, good.train_x, good.train_y, good.train_cfg, good.seed,
                             good.feature_norm)
        dying.server_pid = os.getpid()
        with pytest.raises(RuntimeError, match="shard 1 exited without replying"):
            run_rounds([good, dying], self.GATED, hidden_size=4)
        assert multiprocessing.active_children() == []

    def test_shard_replies_keep_the_privacy_contract(self, rng, monkeypatch):
        _force_shards(monkeypatch, 2)
        checked = []
        reply_of = shards._shard_reply

        def checked_reply(clients, method, args):
            reply = reply_of(clients, method, args)
            violations = _c7_violations(reply)
            assert not violations, f"{method}: {violations}"  # raised in the server
            checked.append(method)
            return reply

        monkeypatch.setattr(shards, "_shard_reply", checked_reply)
        run_rounds(self._clients(rng), self.GATED, hidden_size=4)
        # shard 0's replies, checked here; the forked shard's are checked there
        assert sorted(set(checked)) == ["review", "train", "validation_mse"]

    def test_views_in_a_reply_would_break_the_contract(self, rng):
        update = _update(1, _rand_vec(rng))
        assert _c7_violations([update, 0.5, None]) == []
        assert _c7_violations([update.params.vector]) != []
        assert _c7_violations([update.params.blocks()["l1_wx"]]) != []
        assert _c7_violations([1]) == ["reply[0]: int"]
