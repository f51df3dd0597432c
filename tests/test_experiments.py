import functools
import multiprocessing
import os
from dataclasses import replace

import numpy as np
import pytest

from fedspoof import experiments, features, fusion, lstm, metrics, shards, simulate
from fedspoof.experiments import (
    build_bundles,
    experiment_matrix,
    model_scores,
    pds_pooled,
    pooled_test,
    pooled_training_set,
    run_centralized,
    run_federated,
)
from fedspoof.federation import FederationConfig

from clients import client_from_windows, first_samples


def _micro_setup(seed=5, **sim_kwargs):
    defaults = dict(n_traces=8, n_devices=2, n_clients=2, duration_s=60.0,
                    attack_trace_prob=1.0, rng_seed=seed)
    defaults.update(sim_kwargs)
    sim = simulate.SimConfig(**defaults)
    traces = simulate.generate(sim)
    fc = features.FeatureConfig(window_len=6)
    tc = lstm.TrainConfig(batch_size=24, base_learning_rate=0.003)
    return sim, traces, fc, tc


class TestBundles:
    def test_bundle_invariants(self):
        sim, traces, fc, tc = _micro_setup()
        part = simulate.partition(traces, "iid", 2, sim.rng_seed)
        bundles = build_bundles(part, fusion.FusionConfig(), fc, tc, sim.rng_seed)
        assert [b.client.client_id for b in bundles] == [1, 2]
        for b in bundles:
            assert b.client.train_x.shape[1:] == (6, features.N_FEATURES)
            assert b.client.train_x.min() >= 0.0 and b.client.train_x.max() <= 1.0
            assert b.test_x.shape[0] == b.test_truth.shape[0] == b.test_pds.shape[0]
            assert np.all((b.test_pds >= 0.0) & (b.test_pds <= 1.0))

    def test_trace_split_bundles_hold_out_windows(self):
        sim, traces, fc, tc = _micro_setup(n_traces=10)
        part = simulate.partition(traces, "non-iid-by-trace", 2, sim.rng_seed)
        bundles = build_bundles(part, fusion.FusionConfig(), fc, tc, sim.rng_seed)
        train = sum(b.client.n_train for b in bundles)
        test = sum(b.test_x.shape[0] for b in bundles)
        assert test < train

    def test_pooled_training_set_interleaves_clients(self):
        sim, traces, fc, tc = _micro_setup()
        part = simulate.partition(traces, "iid", 2, sim.rng_seed)
        bundles = build_bundles(part, fusion.FusionConfig(), fc, tc, sim.rng_seed)
        x, y = pooled_training_set(bundles)
        assert x.shape[0] == sum(b.client.n_train for b in bundles)
        # first rows alternate between clients rather than concatenating them
        assert np.array_equal(x[0], bundles[0].client.train_x[0])
        assert np.array_equal(x[1], bundles[1].client.train_x[0])
        assert np.array_equal(x[2], bundles[0].client.train_x[1])

    def test_pooled_training_set_interleaves_ragged_clients(self):
        # three clients of 3, 0 and 2 windows; window w of client c is filled
        # with 10 c + w
        bundles = []
        for c, n in enumerate((3, 0, 2)):
            values = (10 * c + np.arange(n)).astype(np.float32)
            client = client_from_windows(c + 1, np.broadcast_to(values[:, None, None], (n, 4, 2)),
                                         values / 100, lstm.TrainConfig(), 0)
            bundles.append(experiments.ClientBundle(client, np.empty((0, 4, 2)), np.empty(0),
                                                    np.empty(0)))
        x, y = pooled_training_set(bundles)
        order = [(0, 0), (2, 0), (0, 1), (2, 1), (0, 2)]
        assert x.dtype == y.dtype == np.float32
        assert np.array_equal(x, np.stack([bundles[c].client.train_x[w] for c, w in order]))
        assert np.array_equal(y, np.array([bundles[c].client.train_y[w] for c, w in order]))


class TestSharedIidSet:
    """An IID bundle tests on its training traces, so its test windows are its
    client's training windows, built once."""

    @pytest.mark.parametrize("stride", [1, 3])
    def test_iid_test_set_is_the_training_windows(self, stride):
        sim, traces, fc, tc = _micro_setup()
        fc = replace(fc, stride=stride)
        short = first_samples(traces[0], fc.window_len - 2)  # no window; skipped
        own = [traces[1], short, traces[2]]
        part = {1: simulate.ClientSplit(train=own, test=list(own)),
                2: simulate.ClientSplit(train=traces[3:5], test=traces[3:5])}
        bundles = build_bundles(part, fusion.FusionConfig(), fc, tc, sim.rng_seed)
        for b, split in zip(bundles, part.values()):
            assert b.test_x is b.client.train_x
            fused = [fusion.fuse_trace(t, fusion.FusionConfig()) for t in split.test]
            rebuilt = experiments._build_test_set(b.client, split.test, fused, fc, iid=False)
            for shared, built in zip((b.test_x, b.test_truth, b.test_pds), rebuilt):
                assert shared.dtype == built.dtype and shared.shape == built.shape
                assert shared.tobytes() == built.tobytes()
        assert bundles[0].test_x.shape[0] == sum(
            len(range(fc.window_len - 1, len(t), stride)) for t in own)

    def test_trace_split_test_set_is_its_own_array(self):
        sim, traces, fc, tc = _micro_setup(n_traces=10)
        part = simulate.partition(traces, "non-iid-by-trace", 2, sim.rng_seed)
        bundles = build_bundles(part, fusion.FusionConfig(), fc, tc, sim.rng_seed)
        assert sum(b.test_x.shape[0] for b in bundles) > 0
        for b in bundles:
            assert not np.shares_memory(b.test_x, b.client.train_x)

    def test_windows_and_test_arrays_are_read_only(self):
        sim, traces, fc, tc = _micro_setup(n_traces=10)
        for mode in ("iid", "non-iid-by-trace"):
            part = simulate.partition(traces, mode, 2, sim.rng_seed)
            for b in build_bundles(part, fusion.FusionConfig(), fc, tc, sim.rng_seed):
                for a in (b.client.train_x, b.client.train_y,
                          b.test_x, b.test_truth, b.test_pds):
                    with pytest.raises(ValueError, match="read-only"):
                        a[...] = 0


class TestMatrixFederations:
    """experiment_matrix trains each hardware family's federation once per
    split and scores it for both per_model and cross_model."""

    def _run(self, monkeypatch, tmp_path, cells, **sim_kwargs):
        sim, traces, fc, tc = _micro_setup(**sim_kwargs)
        fed_cfg = FederationConfig(rounds=1, local_epochs=1, gate_enabled=False,
                                   init_seed=sim.rng_seed)
        real = experiments.run_federated
        calls = []

        def spy(bundles, cfg):
            calls.append(tuple(b.client.client_id for b in bundles))
            return real(bundles, cfg)

        monkeypatch.setattr(experiments, "run_federated", spy)
        # the spy sees the calls of one process only: no forked shards
        monkeypatch.setattr(shards, "_shard_count", lambda n: 1)
        rows = experiment_matrix(traces, sim, fusion.FusionConfig(), fc, tc, fed_cfg,
                                 sim.rng_seed, str(tmp_path), cells=cells)
        return calls, rows

    def test_one_federation_per_split_and_family(self, monkeypatch, tmp_path):
        # devices 1 and 4 share the alpha8 family
        families = [(1, 4), (2,), (3,)]
        for cells in (("per_model", "cross_model"), ("cross_model",)):
            calls, rows = self._run(monkeypatch, tmp_path, cells, n_devices=4, n_traces=12)
            assert calls == families * 2
            per_split = [r.cell for r in rows if r.split == "iid"]
            assert per_split == [c for c in cells for _ in families]

    def test_family_covering_every_bundle_trains_only_for_per_model(self, monkeypatch, tmp_path):
        calls, rows = self._run(monkeypatch, tmp_path, ("cross_model",), n_devices=1)
        assert calls == [] and rows == []
        calls, rows = self._run(monkeypatch, tmp_path, ("per_model",), n_devices=1)
        assert calls == [(1,), (1,)]
        assert [(r.cell, r.split) for r in rows] == [("per_model", "iid"), ("per_model", "trace")]

    def test_each_trace_fused_once_per_matrix(self, monkeypatch, tmp_path):
        # clfl and the by-device partitions of both splits share the traces
        real = experiments.fuse_trace
        fused = []

        def spy(trace, cfg):
            fused.append(trace.trace_id)
            return real(trace, cfg)

        monkeypatch.setattr(experiments, "fuse_trace", spy)
        sim, traces, fc, tc = _micro_setup(n_traces=6)
        fed_cfg = FederationConfig(rounds=1, local_epochs=1, gate_enabled=False,
                                   init_seed=sim.rng_seed)
        experiment_matrix(traces, sim, fusion.FusionConfig(), fc, tc, fed_cfg, sim.rng_seed,
                          str(tmp_path), cells=("clfl", "per_device"))
        assert sorted(fused) == sorted(t.trace_id for t in traces)


def _force_shards(monkeypatch, n):
    """Pools of n shards in the server; a forked shard runs alone, as it must."""
    monkeypatch.setattr(shards, "_shard_count", lambda n_items: (
        1 if multiprocessing.parent_process() else min(n, n_items)))


@pytest.fixture
def forks(monkeypatch):
    """Every process forked while the test runs."""
    started = []
    start = multiprocessing.context.ForkProcess.start

    def counting_start(proc):
        started.append(proc)
        start(proc)

    monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", counting_start)
    return started


class TestPooledScoring:
    """model_scores scores bundle i's test windows in shard i mod W."""

    def _bundles(self):
        sim, traces, fc, tc = _micro_setup(n_traces=9, n_clients=3)
        part = simulate.partition(traces, "iid", 3, sim.rng_seed)
        return build_bundles(part, fusion.FusionConfig(), fc, tc, sim.rng_seed)

    def test_shard_count_does_not_change_the_scores(self, monkeypatch, forks):
        bundles = self._bundles()
        params = lstm.init_params(7)
        serial = np.concatenate([lstm.predict(params, b.test_x) for b in bundles])
        n_first = bundles[0].test_x.shape[0]
        for n in (1, 2, 3):
            _force_shards(monkeypatch, n)
            forks.clear()
            assert model_scores(params, bundles).tobytes() == serial.tobytes()
            assert len(forks) == n - 1
            forks.clear()
            assert model_scores(params, bundles[:1]).tobytes() == serial[:n_first].tobytes()
            assert forks == []
        assert multiprocessing.active_children() == []

    def test_no_bundles_give_no_scores(self, forks):
        scores = model_scores(lstm.init_params(7), [])
        assert scores.shape == (0,) and scores.dtype == np.float64
        assert forks == []

    def test_error_in_forked_shard_raised_in_server(self, monkeypatch):
        _force_shards(monkeypatch, 3)
        server_pid = os.getpid()
        bundles = self._bundles()
        real = lstm.predict

        def failing(params, x):
            if os.getpid() != server_pid:
                client = next(b.client for b in bundles if b.test_x is x)
                raise FloatingPointError(f"client {client.client_id} diverged")
            return real(params, x)

        monkeypatch.setattr(lstm, "predict", failing)
        with pytest.raises(FloatingPointError, match="client 2 diverged") as excinfo:
            model_scores(lstm.init_params(7), bundles)
        assert "shard 1" in str(excinfo.value.__cause__)
        assert multiprocessing.active_children() == []


class TestMatrixJobs:
    """experiment_matrix trains each split's models as jobs on one pool of
    shards; the rows and files do not depend on its size."""

    FED = dict(rounds=1, local_epochs=1, gate_enabled=False)

    def _matrix(self, corpus, out_dir, cells=experiments.ALL_CELLS,
                splits=experiments.ALL_SPLITS):
        sim, traces, fc, tc = corpus
        fed_cfg = FederationConfig(init_seed=sim.rng_seed, **self.FED)
        return experiment_matrix(traces, sim, fusion.FusionConfig(), fc, tc, fed_cfg,
                                 sim.rng_seed, out_dir=out_dir, cells=cells, splits=splits)

    def test_pool_size_does_not_change_the_matrix(self, monkeypatch, tmp_path, forks):
        # the corpus is built, on its own pool, before pools are recorded
        corpus = _micro_setup(n_devices=4, n_traces=12)
        pools = []
        real_shards = shards._Shards

        def kind(item):
            if isinstance(item, functools.partial):
                return "jobs" if item.func is experiments._scores else "scores"
            return "clients"

        class RecordedShards(real_shards):
            def __init__(self, items):
                super().__init__(items)
                pools.append((kind(items[0]), self._n))

        monkeypatch.setattr(shards, "_Shards", RecordedShards)
        outcomes = {}
        for n in (1, 2, 3):
            _force_shards(monkeypatch, n)
            forks.clear()
            pools.clear()
            out = tmp_path / f"shards{n}"
            out.mkdir()
            rows = self._matrix(corpus, out_dir=str(out))
            files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            outcomes[n] = (repr(rows), files)  # repr: NaN rows compare equal
            # one job pool per split, each with n shards of at least n jobs;
            # every fork is the server's, n - 1 per pool it made, and job 0,
            # the clfl federation, runs in the server and forks its clients;
            # a job scores its models in its own shard, with no pool of its own
            assert [k for kind, k in pools if kind == "jobs"] == [n, n]
            assert "scores" not in {kind for kind, _ in pools}
            assert len(forks) == sum(k - 1 for _, k in pools)
            assert any(kind == "clients" and k == min(n, 2) for kind, k in pools)
        table = outcomes[1][1]["auc_table.csv"].decode().splitlines()[1:]
        assert {line.split(",")[0] for line in table} == set(experiments.ALL_CELLS)
        for n in (2, 3):
            assert outcomes[n] == outcomes[1]

    def test_job_error_in_forked_shard_raised_in_server(self, monkeypatch, tmp_path):
        _force_shards(monkeypatch, 2)
        server_pid = os.getpid()
        real = experiments.run_centralized

        def failing(*args):
            if os.getpid() != server_pid:  # job 1, the centralized training, is forked
                raise FloatingPointError("centralized training diverged")
            return real(*args)

        monkeypatch.setattr(experiments, "run_centralized", failing)
        with pytest.raises(FloatingPointError, match="centralized training diverged") as excinfo:
            self._matrix(_micro_setup(), str(tmp_path), cells=("clfl",), splits=("iid",))
        assert "shard 1" in str(excinfo.value.__cause__)
        assert multiprocessing.active_children() == []

    def test_row_order(self, tmp_path):
        # split by split: clfl federated, centralized, pds; per_device by
        # device; per_model and cross_model by hardware family (devices 1 and
        # 4 share alpha8); on the trace split only device 3 holds out a trace
        families = ("alpha8", "bravo4x", "charlie9")

        def split_rows(split, devices):
            return ([("clfl", split, m, "all") for m in ("federated", "centralized", "pds")]
                    + [("per_device", split, "local", f"device_{d}") for d in devices]
                    + [("per_model", split, "federated", f) for f in families]
                    + [("cross_model", split, "federated", f"train_{f}") for f in families])

        rows = self._matrix(_micro_setup(n_devices=4, n_traces=12), str(tmp_path))
        assert [(r.cell, r.split, r.method, r.detail) for r in rows] == (
            split_rows("iid", (1, 2, 3, 4)) + split_rows("trace", (3,)))

    def test_no_jobs_builds_no_pool(self, tmp_path, forks):
        corpus = _micro_setup(n_devices=1)  # on a pool of its own, before the check
        forks.clear()
        # one hardware family: no other family to test a cross_model row on;
        # an empty pool is the server alone
        assert self._matrix(corpus, str(tmp_path), cells=("cross_model",)) == []
        assert forks == []


@pytest.mark.slow
class TestEndToEnd:
    def test_federated_beats_best_local_on_two_clusters(self):
        # two dissimilar hardware families, one client each: a model trained on
        # either alone generalizes worse to the pooled test set than the
        # federated model that saw both
        profiles = (
            simulate.DeviceProfile("alpha", 45.0, 1.0, 40.0, 0.8, 12.0, 15.0, 1.0, 0.01, 0.01),
            simulate.DeviceProfile("omega", 36.0, 3.5, 31.0, 3.0, 30.0, 28.0, 1.0, 0.05, 0.85),
        )
        sim, traces, fc, tc = _micro_setup(
            seed=5, n_traces=12, duration_s=90.0, attack_trace_prob=0.9, profiles=profiles
        )
        part = simulate.partition(traces, "non-iid-by-device", 2, sim.rng_seed)
        bundles = build_bundles(part, fusion.FusionConfig(), fc, tc, sim.rng_seed)
        _, truth = pooled_test(bundles)

        local_aucs = []
        for b in bundles:
            params, _ = lstm.train_local(
                lstm.init_params(sim.rng_seed), b.client.train_x, b.client.train_y, tc, 20,
                b.client.seed
            )
            local_aucs.append(
                metrics.auc_from_scores(model_scores(params, bundles), truth)
            )

        fed_cfg = FederationConfig(rounds=5, local_epochs=4, gate_enabled=False,
                                   init_seed=sim.rng_seed)
        fed_params, _ = run_federated(bundles, fed_cfg)
        fed_auc = metrics.auc_from_scores(model_scores(fed_params, bundles), truth)
        assert fed_auc > max(local_aucs)

    def test_matrix_runs_all_cells_and_emits_artifacts(self, tmp_path):
        sim, traces, fc, tc = _micro_setup(n_traces=10)
        fed_cfg = FederationConfig(rounds=2, local_epochs=1, gate_enabled=False,
                                   init_seed=sim.rng_seed)
        rows = experiment_matrix(
            traces, sim, fusion.FusionConfig(), fc, tc, fed_cfg, sim.rng_seed,
            out_dir=str(tmp_path),
        )
        cells = {(r.cell, r.split) for r in rows}
        for cell in ("clfl", "per_device", "per_model", "cross_model"):
            assert (cell, "iid") in cells
            assert (cell, "trace") in cells
        clfl_methods = {r.method for r in rows if r.cell == "clfl"}
        assert clfl_methods == {"federated", "centralized", "pds"}
        assert os.path.exists(tmp_path / "auc_table.csv")
        assert os.path.exists(tmp_path / "plot_roc.gp")
        assert os.path.exists(tmp_path / "roc_clfl_iid_federated.csv")
        table = (tmp_path / "auc_table.csv").read_text().splitlines()
        assert table[0] == "cell,split,method,detail,auc,n_pos,n_neg"
        assert len(table) == len(rows) + 1

    def test_matrix_cell_selection(self, tmp_path):
        sim, traces, fc, tc = _micro_setup()
        fed_cfg = FederationConfig(rounds=1, local_epochs=1, gate_enabled=False,
                                   init_seed=sim.rng_seed)
        rows = experiment_matrix(
            traces, sim, fusion.FusionConfig(), fc, tc, fed_cfg, sim.rng_seed,
            out_dir=str(tmp_path), cells=("clfl",), splits=("iid",),
        )
        assert {r.cell for r in rows} == {"clfl"}
        assert {r.split for r in rows} == {"iid"}

    def test_centralized_uses_pooled_windows(self):
        sim, traces, fc, tc = _micro_setup()
        part = simulate.partition(traces, "iid", 2, sim.rng_seed)
        bundles = build_bundles(part, fusion.FusionConfig(), fc, tc, sim.rng_seed)
        params, report = run_centralized(bundles, tc, sim.rng_seed, max_epochs=2)
        assert report.epochs_run <= 2
        scores = model_scores(params, bundles)
        assert scores.shape[0] == pooled_test(bundles)[1].shape[0]

    def test_pds_scores_cover_test_windows(self):
        sim, traces, fc, tc = _micro_setup()
        part = simulate.partition(traces, "iid", 2, sim.rng_seed)
        bundles = build_bundles(part, fusion.FusionConfig(), fc, tc, sim.rng_seed)
        _, truth = pooled_test(bundles)
        assert pds_pooled(bundles).shape == truth.shape
