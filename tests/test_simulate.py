import multiprocessing

import numpy as np
import pytest

from fedspoof import shards
from fedspoof.domain import COLUMN_SHAPES, signal_slot
from fedspoof.simulate import (
    AttackScenario,
    DEFAULT_PROFILES,
    DeviceProfile,
    SimConfig,
    device_models,
    device_profiles,
    generate,
    partition,
)

from oracles import haversine_m


def rank_probability_smaller(a, b):
    """P(sample of a < sample of b), ties half; rank-sum form of Mann-Whitney."""
    a = np.asarray(a)
    b = np.asarray(b)
    wins = sum((x < b).sum() + 0.5 * (x == b).sum() for x in a)
    return wins / (len(a) * len(b))


class TestConfigAndScenario:
    def test_attack_fraction_validated(self):
        with pytest.raises(ValueError):
            SimConfig(attack_fraction=1.5)

    def test_partition_mode_validated(self):
        with pytest.raises(ValueError):
            SimConfig(partition_mode="bogus")

    def test_scenario_rejects_overlap(self):
        with pytest.raises(ValueError, match="overlap"):
            AttackScenario(100.0, ((10.0, 50.0), (40.0, 80.0)), "ramp", 100.0, 10.0, 0.0)

    def test_scenario_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="duration"):
            AttackScenario(100.0, ((90.0, 120.0),), "step", 100.0, 10.0, 0.0)

    def test_scenario_rejects_unknown_model(self):
        with pytest.raises(ValueError, match="offset model"):
            AttackScenario(100.0, ((10.0, 20.0),), "teleport", 100.0, 10.0, 0.0)

    def test_ramp_deviation_shape(self):
        sc = AttackScenario(100.0, ((10.0, 60.0),), "ramp", 200.0, 25.0, 0.0)
        t = np.arange(100.0)
        dev = sc.deviation_at(t)
        assert dev[9] == 0.0
        assert dev[10] == 0.0  # ramp starts from zero
        assert dev[22] == pytest.approx(200.0 * 12.0 / 25.0)
        assert dev[50] == 200.0
        assert dev[60] == 0.0


class TestGenerate:
    def test_no_attack_means_no_flags_and_clean_gnss(self):
        cfg = SimConfig(n_traces=4, duration_s=60.0, attack_fraction=0.0, rng_seed=5)
        traces = generate(cfg)
        for trace in traces:
            assert not trace.attacked.any()
            for k in range(len(trace)):
                assert haversine_m(*trace.p_gnss[k], *trace.p_true[k]) < 6.0 * cfg.gnss_noise_m

    def test_step_offset_lands_in_band(self):
        cfg = SimConfig(
            n_traces=6, duration_s=80.0, rng_seed=9,
            attack_step_prob=1.0, attack_dev_min_m=300.0, attack_dev_max_m=300.0,
            attack_trace_prob=1.0,
        )
        traces = generate(cfg)
        attacked_found = 0
        for trace in traces:
            for k in np.flatnonzero(trace.attacked):
                attacked_found += 1
                assert 250.0 <= haversine_m(*trace.p_gnss[k], *trace.p_true[k]) <= 350.0
        assert attacked_found > 0

    def test_deterministic_per_seed(self):
        cfg = SimConfig(n_traces=3, duration_s=40.0, rng_seed=21)
        a = generate(cfg)
        b = generate(cfg)
        for ta, tb in zip(a, b):
            assert ta.platform_id == tb.platform_id
            assert np.array_equal(ta.p_gnss, tb.p_gnss) and np.array_equal(ta.p_net, tb.p_net)
            assert np.array_equal(ta.v, tb.v) and np.array_equal(ta.attacked, tb.attacked)
            assert np.array_equal(ta.signal, tb.signal, equal_nan=True)

    def test_shard_count_does_not_change_the_corpus(self, monkeypatch):
        # trace i is made in shard i mod W from its own seed
        forks = []
        start = multiprocessing.context.ForkProcess.start

        def counting_start(proc):
            forks.append(proc)
            start(proc)

        monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", counting_start)
        cfg = SimConfig(n_traces=5, duration_s=30.0, rng_seed=13)
        corpora = {}
        for n in (1, 2, 3):
            monkeypatch.setattr(shards, "_shard_count", lambda n_items, n=n: min(n, n_items))
            forks.clear()
            corpora[n] = generate(cfg)
            assert len(forks) == n - 1
        for n in (2, 3):
            assert len(corpora[n]) == len(corpora[1])
            for a, b in zip(corpora[1], corpora[n]):
                assert (a.trace_id, a.platform_id) == (b.trace_id, b.platform_id)
                for name in COLUMN_SHAPES:
                    x, y = getattr(a, name), getattr(b, name)
                    assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name
                    assert not y.flags.writeable, name
        assert multiprocessing.active_children() == []

    def test_different_seeds_differ(self):
        a = generate(SimConfig(n_traces=2, duration_s=30.0, rng_seed=1))
        b = generate(SimConfig(n_traces=2, duration_s=30.0, rng_seed=2))
        assert not np.array_equal(a[0].p_true[0], b[0].p_true[0])

    def test_speed_bounded(self):
        traces = generate(SimConfig(n_traces=3, duration_s=60.0, rng_seed=4))
        for trace in traces:
            assert np.all(trace.v <= 25.0)

    def test_attack_fraction_roughly_respected(self):
        cfg = SimConfig(n_traces=30, duration_s=120.0, attack_fraction=0.2, rng_seed=13)
        traces = generate(cfg)
        flags = np.concatenate([t.attacked for t in traces])
        assert 0.12 <= flags.mean() <= 0.28

    def test_attacked_cn0_spread_stochastically_smaller(self):
        # spoofing makes cross-satellite statistics artificially similar
        cfg = SimConfig(n_traces=12, duration_s=100.0, rng_seed=17)
        traces = generate(cfg)
        lo = signal_slot("gps_l1", "cn0_ant_dbhz", "min")
        hi = signal_slot("gps_l1", "cn0_ant_dbhz", "max")
        spread_att, spread_ben = [], []
        for trace in traces:
            valid = ~(np.isnan(trace.signal[:, lo]) | np.isnan(trace.signal[:, hi]))
            spread = trace.signal[:, hi] - trace.signal[:, lo]
            spread_att.extend(spread[valid & trace.attacked])
            spread_ben.extend(spread[valid & ~trace.attacked])
        assert len(spread_att) > 30 and len(spread_ben) > 30
        assert rank_probability_smaller(spread_att, spread_ben) > 0.9

    def test_benign_doppler_statistics_vary_across_satellites(self):
        traces = generate(SimConfig(n_traces=4, duration_s=60.0, attack_fraction=0.0,
                                    rng_seed=23))
        lo = signal_slot("gps_l1", "doppler_hz", "min")
        hi = signal_slot("gps_l1", "doppler_hz", "max")
        signal = np.concatenate([t.signal for t in traces])
        valid = ~np.isnan(signal[:, lo])
        spreads = signal[valid, hi] - signal[valid, lo]
        assert np.median(spreads) > 500.0

    def test_dropout_produces_missing_blocks(self):
        profiles = (DeviceProfile("dropper", 40.0, 1.0, 35.0, 1.0, 10.0, 15.0, 1.0,
                                  dropout_rate=0.5),)
        cfg = SimConfig(n_traces=2, n_devices=1, n_clients=1, duration_s=60.0,
                        rng_seed=3, profiles=profiles)
        traces = generate(cfg)
        values = np.concatenate([t.signal for t in traces])
        assert np.isnan(values).any()
        # a dropped block loses all four statistics together
        nan_pattern = np.isnan(values.reshape(-1, 8, 4))
        assert np.array_equal(nan_pattern.any(axis=2), nan_pattern.all(axis=2))


class TestProfiles:
    def test_paired_family_pattern(self):
        models = device_models(SimConfig())
        assert models[1] == models[4]
        assert models[2] == models[6]
        assert models[3] == models[5]
        assert len(set(models.values())) == 3

    def test_trace_volume_follows_dataset_scale(self):
        cfg = SimConfig(n_traces=40)
        traces = generate(cfg)
        profiles = device_profiles(cfg)
        counts = {d: 0 for d in profiles}
        for t in traces:
            counts[t.platform_id] += 1
        flagship = [d for d, p in profiles.items() if p.dataset_scale == 1.58]
        legacy = [d for d, p in profiles.items() if p.dataset_scale == 1.0]
        assert sum(counts[d] for d in flagship) > sum(counts[d] for d in legacy)

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            DeviceProfile("bad", 40.0, -1.0, 35.0, 1.0, 10.0, 15.0, 1.0)


class TestPartition:
    def _traces(self, n=85, seed=11):
        return generate(SimConfig(n_traces=n, duration_s=12.0, rng_seed=seed))

    def test_trace_split_holds_out_nine_of_85(self):
        # 85 * 0.1 = 8.5 rounds half up to 9
        part = partition(self._traces(85), "non-iid-by-trace", 6, seed=1)
        train = sum(len(s.train) for s in part.values())
        test = sum(len(s.test) for s in part.values())
        assert train == 76 and test == 9

    def test_device_partition_is_device_pure(self):
        traces = self._traces(30)
        part = partition(traces, "non-iid-by-device", 6, seed=2)
        assert len(part) == 6
        for client_id, split in part.items():
            assert {t.platform_id for t in split.train + split.test} == {client_id}

    def test_device_partition_requires_matching_client_count(self):
        with pytest.raises(ValueError, match="n_clients"):
            partition(self._traces(12), "non-iid-by-device", 4, seed=0)

    def test_iid_test_set_is_training_set(self):
        part = partition(self._traces(20), "iid", 4, seed=3)
        for split in part.values():
            assert split.train == split.test

    def test_conservation(self):
        traces = self._traces(40)
        for mode in ("iid", "non-iid-by-trace"):
            part = partition(traces, mode, 5, seed=4)
            owned = []
            for split in part.values():
                owned.extend(t.trace_id for t in split.train)
                if mode == "non-iid-by-trace":
                    owned.extend(t.trace_id for t in split.test)
            assert sorted(owned) == sorted(t.trace_id for t in traces)

    def test_fewer_traces_than_clients_rejected(self):
        with pytest.raises(ValueError, match="fewer traces"):
            partition(self._traces(3), "iid", 5, seed=0)

    def test_deterministic(self):
        traces = self._traces(20)
        a = partition(traces, "non-iid-by-trace", 4, seed=9)
        b = partition(traces, "non-iid-by-trace", 4, seed=9)
        for cid in a:
            for side in ("train", "test"):
                assert [t.trace_id for t in getattr(a[cid], side)] == [
                    t.trace_id for t in getattr(b[cid], side)
                ]

    def test_holdout_override_on_device_partition(self):
        traces = self._traces(30)
        part = partition(traces, "non-iid-by-device", 6, seed=5, trace_holdout=True)
        assert any(split.test for split in part.values())
        for split in part.values():
            held = {t.trace_id for t in split.test}
            assert held.isdisjoint({t.trace_id for t in split.train})
