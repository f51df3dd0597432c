import math

import numpy as np
import pytest

from fedspoof import simulate
from fedspoof.domain import (
    DatasetFormatError,
    GeoPos,
    HEADER_COLUMNS,
    PlatformSample,
    SignalProps,
    Trace,
    local_meters,
    offset_geopos,
    read_dataset,
    signal_slot,
    write_dataset,
)

from oracles import haversine_m


def _sample(pid=1, tid=1, t=0.0, attacked=False, lat=10.0, lon=20.0):
    sig = np.arange(32, dtype=float)
    return PlatformSample(
        platform_id=pid,
        trace_id=tid,
        t=t,
        p_true=GeoPos(lat, lon),
        p_gnss=GeoPos(lat + 1e-5, lon - 1e-5),
        p_net=GeoPos(lat - 2e-5, lon + 3e-5),
        v=12.5,
        a=np.array([0.1, -0.2, 0.01]),
        omega=np.array([0.0, 0.001, -0.03]),
        signal=SignalProps(sig),
        attacked=attacked,
    )


class TestGeoPos:
    def test_valid_range_enforced(self):
        with pytest.raises(ValueError):
            GeoPos(91.0, 0.0)
        with pytest.raises(ValueError):
            GeoPos(0.0, -180.5)

    def test_boundary_values_ok(self):
        GeoPos(90.0, 180.0)
        GeoPos(-90.0, -180.0)


class TestSignalProps:
    def test_requires_32_slots(self):
        with pytest.raises(ValueError):
            SignalProps(np.zeros(31))

    def test_slot_index_layout(self):
        assert signal_slot("gps_l1", "agc_db", "mean") == 0
        assert signal_slot("gps_l1", "agc_db", "max") == 3
        assert signal_slot("gps_l1", "doppler_hz", "mean") == 12
        assert signal_slot("gal_e1", "agc_db", "mean") == 16


class TestTrace:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Trace(trace_id=1, platform_id=1, samples=[])

    def test_rejects_id_mismatch(self):
        with pytest.raises(ValueError, match="do not match"):
            Trace(trace_id=2, platform_id=1, samples=[_sample(tid=1)])

    def test_rejects_non_monotone_time(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Trace(1, 1, [_sample(t=0.0), _sample(t=0.0)])


class TestDatasetRoundTrip:
    def test_empty_dataset_is_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_dataset([], str(path))
        lines = path.read_text().splitlines()
        assert lines == [",".join(HEADER_COLUMNS)]
        assert read_dataset(str(path)) == []

    def test_small_round_trip_identity(self, tmp_path):
        trace = Trace(1, 1, [_sample(t=float(k)) for k in range(3)])
        path = tmp_path / "d.csv"
        write_dataset([trace], str(path))
        (back,) = read_dataset(str(path))
        assert len(back) == 3
        for a, b in zip(trace.samples, back.samples):
            assert a.t == b.t
            assert a.p_true == b.p_true and a.p_gnss == b.p_gnss and a.p_net == b.p_net
            assert a.v == b.v
            assert np.array_equal(a.a, b.a) and np.array_equal(a.omega, b.omega)
            assert np.array_equal(a.signal.values, b.signal.values)
            assert a.attacked == b.attacked

    def test_generated_corpus_round_trips(self, tmp_path):
        # 85 traces across 6 platforms, including NaN signal slots
        cfg = simulate.SimConfig(n_traces=85, duration_s=12.0, rng_seed=11)
        traces = simulate.generate(cfg)
        path = tmp_path / "corpus.csv"
        write_dataset(traces, str(path))
        back = read_dataset(str(path))
        assert len(back) == 85
        key = lambda t: (t.platform_id, t.trace_id)
        assert sorted(key(t) for t in traces) == [key(t) for t in back]
        by_key = {key(t): t for t in traces}
        for t in back:
            orig = by_key[key(t)]
            assert len(t) == len(orig)
            for a, b in zip(orig.samples, t.samples):
                assert a.t == b.t and a.p_gnss == b.p_gnss and a.attacked == b.attacked
                assert np.array_equal(a.signal.values, b.signal.values, equal_nan=True)

    def test_malformed_record_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_dataset([Trace(1, 1, [_sample()])], str(path))
        with open(path, "a") as fh:
            fh.write("1,2,garbage\n")
        with pytest.raises(DatasetFormatError, match="line 3"):
            read_dataset(str(path))

    def test_duplicate_timestamp_names_trace(self, tmp_path):
        path = tmp_path / "dup.csv"
        write_dataset([Trace(7, 1, [_sample(tid=7, t=1.0)])], str(path))
        with open(path) as fh:
            fh.readline()
            row = fh.readline()
        with open(path, "a") as fh:
            fh.write(row)
        with pytest.raises(DatasetFormatError, match="trace 7"):
            read_dataset(str(path))

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(DatasetFormatError, match="line 1"):
            read_dataset(str(path))


class TestHaversine:
    def test_identical_points_zero(self):
        p = GeoPos(45.0, 9.0)
        assert haversine_m(p, p) == 0.0

    def test_equator_milli_degree(self):
        # independent oracle: R * radians(0.001)
        expected = 6_371_000.0 * math.radians(0.001)
        got = haversine_m(GeoPos(0.0, 0.0), GeoPos(0.0, 0.001))
        assert got == pytest.approx(expected, abs=1e-6)
        assert got == pytest.approx(111.19, abs=0.01)

    def test_symmetry_and_nonnegativity(self, rng):
        for _ in range(200):
            a = GeoPos(rng.uniform(-80, 80), rng.uniform(-179, 179))
            b = GeoPos(rng.uniform(-80, 80), rng.uniform(-179, 179))
            d_ab = haversine_m(a, b)
            assert d_ab >= 0.0
            assert d_ab == pytest.approx(haversine_m(b, a), rel=1e-12)

    def test_triangle_inequality(self, rng):
        for _ in range(200):
            pts = [GeoPos(rng.uniform(-80, 80), rng.uniform(-179, 179)) for _ in range(3)]
            a, b, c = pts
            lhs = haversine_m(a, c)
            rhs = haversine_m(a, b) + haversine_m(b, c)
            assert lhs <= rhs * (1.0 + 1e-6)


class TestLocalPlane:
    def test_round_trip(self, rng):
        origin = GeoPos(59.3, 18.1)
        for _ in range(50):
            n, e = rng.uniform(-800, 800, 2)
            p = offset_geopos(origin, n, e)
            n2, e2 = local_meters(origin, p)
            assert n2 == pytest.approx(n, abs=1e-6)
            assert e2 == pytest.approx(e, abs=1e-6)

    def test_matches_haversine_at_small_range(self, rng):
        origin = GeoPos(40.0, -3.0)
        for _ in range(50):
            n, e = rng.uniform(-500, 500, 2)
            p = offset_geopos(origin, n, e)
            planar = math.hypot(*local_meters(origin, p))
            assert planar == pytest.approx(haversine_m(origin, p), rel=1e-4)
