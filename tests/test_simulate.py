import multiprocessing

import numpy as np
import pytest

from fedspoof import shards, simulate
from fedspoof.domain import COLUMN_SHAPES, DatasetFormatError, local_meters, signal_slot
from fedspoof.simulate import (
    ANCHOR_LAT,
    ANCHOR_LON,
    ATTACK_RAMP_S,
    GNSS_NOISE_M,
    DeviceProfile,
    SimConfig,
    device_model,
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


def attacked_runs(flags):
    """Sample indices of each maximal run of attacked samples, in order."""
    edges = np.flatnonzero(np.diff(np.concatenate([[0], flags.astype(np.int8), [0]])))
    return [np.arange(a, b) for a, b in zip(edges[::2], edges[1::2])]


def gnss_offset_m(trace):
    """Distance of each GNSS fix from the true position, in the local plane."""
    gnss = local_meters(ANCHOR_LAT, ANCHOR_LON, *trace.p_gnss.T)
    true = local_meters(ANCHOR_LAT, ANCHOR_LON, *trace.p_true.T)
    return np.hypot(gnss[0] - true[0], gnss[1] - true[1])


def scenario(monkeypatch, **constants):
    """Set simulate's attack and noise constants for one test."""
    for name, value in constants.items():
        monkeypatch.setattr(simulate, name, value)


class TestConfigAndScenario:
    def test_attack_trace_prob_validated(self):
        with pytest.raises(ValueError):
            SimConfig(attack_trace_prob=1.5)

    def test_partition_mode_validated(self):
        with pytest.raises(ValueError):
            SimConfig(partition_mode="bogus")

    def test_ramp_deviation_shape(self, monkeypatch):
        # noise-free GNSS: within each attacked run the offset from the true
        # position grows by dev / ATTACK_RAMP_S per second, then holds at dev
        dev = 200.0
        scenario(monkeypatch, ATTACK_FRACTION=0.5, ATTACK_STEP_PROB=0.0, ATTACK_DEV_MIN_M=dev,
                 ATTACK_DEV_MAX_M=dev, GNSS_NOISE_M=0.0)
        for rate_hz in (1.0, 10.0):
            cfg = SimConfig(n_traces=4, duration_s=200.0, sample_rate_hz=rate_hz,
                            attack_trace_prob=1.0, rng_seed=3)
            dt = 1.0 / rate_hz
            n_runs = 0
            for trace in generate(cfg):
                offset = gnss_offset_m(trace)
                assert np.all(offset[~trace.attacked] < 1e-6)
                for run in attacked_runs(trace.attacked):
                    n_runs += 1
                    ramp = offset[run]
                    held = int(np.argmax(np.abs(ramp - dev) < 1e-6))
                    assert held > 0, "a ramp starts below its deviation"
                    assert ATTACK_RAMP_S - dt <= held * dt <= ATTACK_RAMP_S
                    assert ramp[0] < dev / ATTACK_RAMP_S * dt + 1e-6
                    np.testing.assert_allclose(np.diff(ramp[:held]), dev / ATTACK_RAMP_S * dt,
                                               rtol=1e-6)
                    assert 0.0 < ramp[held] - ramp[held - 1] <= dev / ATTACK_RAMP_S * dt + 1e-6
                    np.testing.assert_allclose(ramp[held:], dev, rtol=1e-9)
            assert n_runs == 8  # 100 s of attack per trace, in two runs

    @staticmethod
    def generated_runs(monkeypatch):
        """(cfg, attacked runs) of each trace, over rates, attack shares and seeds."""
        for rate_hz in (1.0, 10.0):
            for fraction in (0.2, 0.5, 0.8):
                scenario(monkeypatch, ATTACK_FRACTION=fraction)
                for seed in (1, 2, 3):
                    cfg = SimConfig(n_traces=3, duration_s=200.0, sample_rate_hz=rate_hz,
                                    attack_trace_prob=0.9, rng_seed=seed)
                    for trace in generate(cfg):
                        yield cfg, trace, attacked_runs(trace.attacked)

    def test_scenario_rejects_overlap(self, monkeypatch):
        # the attack plan admits at most two runs, 10 s apart
        for _, trace, runs in self.generated_runs(monkeypatch):
            assert len(runs) <= 2
            if len(runs) == 2:
                assert trace.t[runs[1][0]] - trace.t[runs[0][-1]] >= 10.0

    def test_scenario_rejects_out_of_range(self, monkeypatch):
        # the attack plan admits no run within 5 s of the trace's ends
        for cfg, trace, runs in self.generated_runs(monkeypatch):
            for run in runs:
                assert trace.t[run[0]] >= 5.0
                assert trace.t[run[-1]] < cfg.duration_s - 5.0


class TestGenerate:
    def test_no_attack_means_no_flags_and_clean_gnss(self, monkeypatch):
        scenario(monkeypatch, ATTACK_FRACTION=0.0)
        cfg = SimConfig(n_traces=4, duration_s=60.0, rng_seed=5)
        traces = generate(cfg)
        for trace in traces:
            assert not trace.attacked.any()
            for k in range(len(trace)):
                assert haversine_m(*trace.p_gnss[k], *trace.p_true[k]) < 6.0 * GNSS_NOISE_M

    def test_step_offset_lands_in_band(self, monkeypatch):
        scenario(monkeypatch, ATTACK_STEP_PROB=1.0, ATTACK_DEV_MIN_M=300.0,
                 ATTACK_DEV_MAX_M=300.0)
        cfg = SimConfig(n_traces=6, duration_s=80.0, rng_seed=9, attack_trace_prob=1.0)
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
        cfg = SimConfig(n_traces=30, duration_s=120.0, rng_seed=13)
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

    def test_benign_doppler_statistics_vary_across_satellites(self, monkeypatch):
        scenario(monkeypatch, ATTACK_FRACTION=0.0)
        traces = generate(SimConfig(n_traces=4, duration_s=60.0, rng_seed=23))
        lo = signal_slot("gps_l1", "doppler_hz", "min")
        hi = signal_slot("gps_l1", "doppler_hz", "max")
        signal = np.concatenate([t.signal for t in traces])
        valid = ~np.isnan(signal[:, lo])
        spreads = signal[valid, hi] - signal[valid, lo]
        assert np.median(spreads) > 500.0

    def test_dropout_produces_missing_blocks(self, monkeypatch):
        dropper = DeviceProfile("dropper", 40.0, 1.0, 35.0, 1.0, 10.0, 15.0, 1.0,
                                dropout_rate=0.5, gal_dropout_rate=0.02)
        monkeypatch.setattr(simulate, "device_profiles", lambda cfg: {1: dropper})
        cfg = SimConfig(n_traces=2, n_devices=1, n_clients=1, duration_s=60.0, rng_seed=3)
        traces = generate(cfg)
        values = np.concatenate([t.signal for t in traces])
        assert np.isnan(values).any()
        # a dropped block loses all four statistics together
        nan_pattern = np.isnan(values.reshape(-1, 8, 4))
        assert np.array_equal(nan_pattern.any(axis=2), nan_pattern.all(axis=2))


class TestProfiles:
    def test_paired_family_pattern(self):
        # device_model gives each id the family of the profile generate gives it
        models = {dev: device_model(dev) for dev in range(1, 7)}
        assert models == {dev: p.model_name for dev, p in device_profiles(SimConfig()).items()}
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

    def test_holdout_leaving_a_client_no_training_trace_rejected(self):
        # six traces, one per device or client: a held-out trace leaves its owner none
        traces = self._traces(6)
        message = r"the trace hold-out leaves client \d+ no training trace"
        for mode in ("iid", "non-iid-by-device"):
            with pytest.raises(DatasetFormatError, match=message):
                partition(traces, mode, 6, seed=3, holdout=True)
            partition(traces, mode, 6, seed=3)  # without the hold-out every client trains
        with pytest.raises(DatasetFormatError, match=message):
            partition(traces, "non-iid-by-trace", 6, seed=3)

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
        part = partition(traces, "non-iid-by-device", 6, seed=5, holdout=True)
        assert any(split.test for split in part.values())
        for split in part.values():
            held = {t.trace_id for t in split.test}
            assert held.isdisjoint({t.trace_id for t in split.train})
