import dataclasses
import math
import pickle
import re

import numpy as np
import pytest

from fedspoof import shards, simulate
from fedspoof.domain import (
    COLUMN_SHAPES,
    DatasetFormatError,
    HEADER_COLUMNS,
    RECORD,
    SIGNAL_SLOTS,
    Trace,
    local_meters,
    offset_geopos,
    read_dataset,
    signal_slot,
    write_dataset,
)

from oracles import dataset_text, haversine_m, traced_peak


def _trace(n=1, tid=1, pid=1, t=None, lat=10.0, lon=20.0, **columns):
    """An n-sample trace with the same readings at every step."""
    cols = dict(
        t=np.arange(n, dtype=float) if t is None else t,
        p_true=np.tile([lat, lon], (n, 1)),
        p_gnss=np.tile([lat + 1e-5, lon - 1e-5], (n, 1)),
        p_net=np.tile([lat - 2e-5, lon + 3e-5], (n, 1)),
        v=np.full(n, 12.5),
        a=np.tile([0.1, -0.2, 0.01], (n, 1)),
        omega=np.tile([0.0, 0.001, -0.03], (n, 1)),
        signal=np.tile(np.arange(32, dtype=float), (n, 1)),
        attacked=np.zeros(n, dtype=bool),
    )
    cols.update(columns)
    return Trace(trace_id=tid, platform_id=pid, **cols)


def _with_value(trace, column, value, row=1):
    """The Trace column holding a file column, as a copy of trace's with the
    value at row replaced, keyed by its name."""
    name = next(name for name, cols in RECORD.items() if column in cols)
    col = getattr(trace, name).copy()
    col[(row, RECORD[name].index(column))[: col.ndim]] = value
    return {name: col}


def _assert_traces_equal(a, b):
    assert (a.trace_id, a.platform_id) == (b.trace_id, b.platform_id)
    for name in COLUMN_SHAPES:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape, name
        assert x.tobytes() == y.tobytes(), name


class TestSignalSlots:
    def test_slot_index_layout(self):
        assert signal_slot("gps_l1", "agc_db", "mean") == 0
        assert signal_slot("gps_l1", "agc_db", "max") == 3
        assert signal_slot("gps_l1", "doppler_hz", "mean") == 12
        assert signal_slot("gal_e1", "agc_db", "mean") == 16


class TestRecord:
    def test_record_names_the_trace_columns_in_order(self):
        names = [f.name for f in dataclasses.fields(Trace)]
        assert names[:2] == ["trace_id", "platform_id"]
        assert list(RECORD) == list(COLUMN_SHAPES) == names[2:]

    def test_header_spans_each_column_in_record_order(self):
        assert HEADER_COLUMNS[:2] == ("platform_id", "trace_id")
        start = 2
        for name, shape in COLUMN_SHAPES.items():
            width = shape[0] if shape else 1
            assert HEADER_COLUMNS[start:start + width] == RECORD[name], name
            start += width
        assert start == len(HEADER_COLUMNS) == 49


class TestTrace:
    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one sample"):
            _trace(n=0)

    def test_out_of_range_position_names_value(self):
        with pytest.raises(ValueError, match="latitude out of range: 91.0"):
            _trace(lat=91.0)
        with pytest.raises(ValueError, match="longitude out of range: -180.5"):
            _trace(p_gnss=[[0.0, -180.5]])
        # a NaN position is not finite before it is out of range
        with pytest.raises(ValueError, match="lat_net_deg is not finite: nan"):
            _trace(n=2, p_net=[[0.0, 0.0], [np.nan, 0.0]])

    @pytest.mark.parametrize("column, value", [
        *((c, v) for c in HEADER_COLUMNS[2:HEADER_COLUMNS.index(SIGNAL_SLOTS[0])]
          for v in (math.nan, math.inf)),
        *((c, v) for c in (SIGNAL_SLOTS[0], SIGNAL_SLOTS[-1]) for v in (math.inf, -math.inf)),
    ])
    def test_non_finite_value_names_column(self, column, value):
        trace = _trace(n=3)
        with pytest.raises(ValueError, match=re.escape(f"{column} is not finite: {value}")):
            dataclasses.replace(trace, **_with_value(trace, column, value))

    def test_nan_signal_value_marks_missing(self):
        trace = _trace(n=3)
        missing = dataclasses.replace(trace, **_with_value(trace, SIGNAL_SLOTS[5], math.nan))
        assert np.argwhere(np.isnan(missing.signal)).tolist() == [[1, 5]]

    def test_copy_of_generated_trace_rejects_infinite_signal(self):
        (trace,) = simulate.generate(simulate.SimConfig(n_traces=1, duration_s=12.0))
        signal = trace.signal.copy()
        signal[3, 5] = math.inf
        with pytest.raises(ValueError, match=f"{SIGNAL_SLOTS[5]} is not finite: inf"):
            dataclasses.replace(trace, signal=signal)

    def test_boundary_positions_ok(self):
        _trace(lat=90.0, lon=180.0, p_gnss=[[90.0, 180.0]], p_net=[[90.0, 180.0]])
        _trace(lat=-90.0, lon=-180.0, p_gnss=[[-90.0, -180.0]], p_net=[[-90.0, -180.0]])

    def test_requires_32_signal_slots(self):
        with pytest.raises(ValueError, match="must have 32 slots, got \\(31,\\)"):
            _trace(n=2, signal=np.zeros((2, 31)))

    def test_requires_3_axes(self):
        with pytest.raises(ValueError, match="3 axes"):
            _trace(n=2, a=np.zeros((2, 2)))
        with pytest.raises(ValueError, match="3 axes"):
            _trace(n=2, omega=np.zeros(2))

    def test_rejects_mismatched_column_lengths(self):
        with pytest.raises(ValueError, match="column lengths differ"):
            _trace(n=3, v=np.zeros(2))
        with pytest.raises(ValueError, match="column lengths differ"):
            _trace(n=3, attacked=np.zeros(4, dtype=bool))

    def test_rejects_non_monotone_time(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            _trace(n=2, t=np.array([0.0, 0.0]))

    def test_columns_are_read_only_copies(self):
        t = np.arange(3.0)
        trace = _trace(n=3, t=t)
        t[0] = -1.0
        assert trace.t[0] == 0.0
        for name in COLUMN_SHAPES:
            with pytest.raises(ValueError, match="read-only"):
                getattr(trace, name)[0] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            trace.v = np.zeros(3)


class TestTracePickle:
    def test_round_trip_keeps_bytes_and_read_only_columns(self):
        signal = np.tile(np.arange(32, dtype=float), (3, 1))
        signal[1, 4:8] = np.nan
        trace = _trace(n=3, signal=signal, attacked=np.array([False, True, False]))
        back = pickle.loads(pickle.dumps(trace))
        _assert_traces_equal(trace, back)
        for name in COLUMN_SHAPES:
            assert not getattr(back, name).flags.writeable, name


class TestDatasetWriter:
    """write_dataset formats each trace's lines in the shard pool; the file
    equals that of a writer that formats one sample at a time."""

    @pytest.mark.parametrize("n_shards", [1, 2])
    def test_bytes_equal_sample_by_sample_writer(self, tmp_path, monkeypatch, n_shards):
        monkeypatch.setattr(shards, "_shard_count", lambda n_items: max(1, min(n_shards, n_items)))
        odd_values = np.array([-0.0, 1e-05, 1e16])
        signal = np.tile(np.arange(32, dtype=float), (3, 1))
        signal[0, :4] = np.nan
        signal[1] = np.resize(odd_values, 32)
        signal[2, 31] = np.nan
        odd = _trace(
            n=3, tid=2, t=odd_values, v=odd_values, signal=signal,
            a=np.tile(odd_values, (3, 1)), omega=[[1e16, -0.0, 1e-05]] * 3,
            p_gnss=[[-0.0, 1e-05], [1e-05, -0.0], [89.999999, 1e-300]],
            attacked=np.array([True, False, True]),
        )
        single = _trace(n=1, tid=3, pid=2)
        # longer than a chunk of domain._FORMAT_ROWS samples
        long = _trace(n=70, tid=4, pid=3, v=np.arange(70) / 7.0, attacked=np.arange(70) % 3 == 0)
        generated = simulate.generate(simulate.SimConfig(n_traces=3, duration_s=12.0))
        path = tmp_path / "d.csv"
        for traces in ([], [single], [odd, single, long, *generated]):
            write_dataset(traces, str(path))
            assert path.read_bytes() == dataset_text(traces).encode("ascii")
        text = path.read_text()
        # a missing signal value reads "na"; a Trace holds NaN nowhere else
        for token in (",na,", ",-0.0,", ",1e-05,", ",1e+16,", ",1e-300,"):
            assert token in text, token
        assert "nan" not in text

    def test_holds_the_corpus_text_once(self, tmp_path, monkeypatch, tiny_corpus):
        # a forked shard's blocks cross as bytes out of band, so the server
        # never holds a reply's pickle beside its blocks (1.53x before); one
        # shard formats every block itself, a few rows at a time (1.49x before)
        path = tmp_path / "d.csv"
        for n_shards in (1, 2):
            monkeypatch.setattr(shards, "_shard_count",
                                lambda n_items, n=n_shards: max(1, min(n, n_items)))
            peak = traced_peak(lambda: write_dataset(tiny_corpus[1], str(path)))
            assert peak <= 1.25 * path.stat().st_size, n_shards


class TestDatasetRoundTrip:
    def test_empty_dataset_is_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_dataset([], str(path))
        lines = path.read_text().splitlines()
        assert lines == [",".join(HEADER_COLUMNS)]
        assert read_dataset(str(path)) == []

    def test_small_round_trip_identity(self, tmp_path):
        trace = _trace(n=3, attacked=np.array([False, True, False]))
        path = tmp_path / "d.csv"
        write_dataset([trace], str(path))
        (back,) = read_dataset(str(path))
        assert len(back) == 3
        _assert_traces_equal(trace, back)

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
        assert any(np.isnan(t.signal).any() for t in traces)
        for t in back:
            _assert_traces_equal(by_key[key(t)], t)

    def test_malformed_record_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_dataset([_trace()], str(path))
        with open(path, "a") as fh:
            fh.write("1,2,garbage\n")
        with pytest.raises(DatasetFormatError, match="line 3"):
            read_dataset(str(path))

    def test_duplicate_timestamp_names_trace(self, tmp_path):
        path = tmp_path / "dup.csv"
        write_dataset([_trace(tid=7, t=np.array([1.0]))], str(path))
        with open(path) as fh:
            fh.readline()
            row = fh.readline()
        with open(path, "a") as fh:
            fh.write(row)
        with pytest.raises(DatasetFormatError, match="trace 7"):
            read_dataset(str(path))

    @pytest.mark.parametrize("column, token, message", [
        ("lat_gnss_deg", "91.0", "line 3: latitude out of range: 91.0"),
        ("attacked", "yes", "line 3: attacked must be 0 or 1, got 'yes'"),
        ("t_s", "nan", "line 3: t_s is not finite: nan"),
        ("speed_mps", "inf", "line 3: speed_mps is not finite: inf"),
        ("speed_mps", "na", "line 3: speed_mps is not finite: nan"),
        ("lon_net_deg", "-inf", "line 3: lon_net_deg is not finite: -inf"),
        ("accel_u_mps2", "nan", "line 3: accel_u_mps2 is not finite: nan"),
        ("omega_x_rads", "inf", "line 3: omega_x_rads is not finite: inf"),
        ("gps_l1_cn0_ant_dbhz_mean", "inf", "line 3: gps_l1_cn0_ant_dbhz_mean is not finite: inf"),
        ("gal_e1_doppler_hz_max", "-inf", "line 3: gal_e1_doppler_hz_max is not finite: -inf"),
    ])
    def test_bad_value_names_line(self, tmp_path, column, token, message):
        path = tmp_path / "bad.csv"
        write_dataset([_trace(n=3)], str(path))
        lines = path.read_text().splitlines()
        cols = lines[2].split(",")
        cols[HEADER_COLUMNS.index(column)] = token
        lines[2] = ",".join(cols)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError, match=re.escape(message)):
            read_dataset(str(path))

    def test_bad_value_on_a_line_the_sort_moves_names_that_line(self, tmp_path):
        # the lines hold t = 2, 1, 0, so the first of them is the trace's last sample
        path = tmp_path / "reversed.csv"
        write_dataset([_trace(n=3)], str(path))
        header, *lines = path.read_text().splitlines()
        cols = lines[-1].split(",")
        cols[HEADER_COLUMNS.index("omega_y_rads")] = "inf"
        lines = [",".join(cols), lines[1], lines[0]]
        path.write_text("\n".join([header, *lines]) + "\n")
        with pytest.raises(DatasetFormatError, match="^line 2: omega_y_rads is not finite: inf$"):
            read_dataset(str(path))

    def test_literal_nan_signal_reads_as_missing(self, tmp_path):
        # only an infinite signal value is rejected; `nan` is missing, as `na` is
        path = tmp_path / "nan.csv"
        write_dataset([_trace(n=3)], str(path))
        lines = path.read_text().splitlines()
        cols = lines[2].split(",")
        cols[HEADER_COLUMNS.index("gps_l1_cn0_ant_dbhz_mean")] = "nan"
        lines[2] = ",".join(cols)
        path.write_text("\n".join(lines) + "\n")
        (trace,) = read_dataset(str(path))
        slot = signal_slot("gps_l1", "cn0_ant_dbhz", "mean")
        assert np.argwhere(np.isnan(trace.signal)).tolist() == [[1, slot]]

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(DatasetFormatError, match="line 1"):
            read_dataset(str(path))


class TestHaversine:
    def test_identical_points_zero(self):
        assert haversine_m(45.0, 9.0, 45.0, 9.0) == 0.0

    def test_equator_milli_degree(self):
        # independent oracle: R * radians(0.001)
        expected = 6_371_000.0 * math.radians(0.001)
        got = haversine_m(0.0, 0.0, 0.0, 0.001)
        assert got == pytest.approx(expected, abs=1e-6)
        assert got == pytest.approx(111.19, abs=0.01)

    def test_symmetry_and_nonnegativity(self, rng):
        for _ in range(200):
            a = (rng.uniform(-80, 80), rng.uniform(-179, 179))
            b = (rng.uniform(-80, 80), rng.uniform(-179, 179))
            d_ab = haversine_m(*a, *b)
            assert d_ab >= 0.0
            assert d_ab == pytest.approx(haversine_m(*b, *a), rel=1e-12)

    def test_triangle_inequality(self, rng):
        for _ in range(200):
            a, b, c = [(rng.uniform(-80, 80), rng.uniform(-179, 179)) for _ in range(3)]
            lhs = haversine_m(*a, *c)
            rhs = haversine_m(*a, *b) + haversine_m(*b, *c)
            assert lhs <= rhs * (1.0 + 1e-6)


class TestLocalPlane:
    def test_round_trip(self, rng):
        origin = (59.3, 18.1)
        for _ in range(50):
            n, e = rng.uniform(-800, 800, 2)
            n2, e2 = local_meters(*origin, *offset_geopos(*origin, n, e))
            assert n2 == pytest.approx(n, abs=1e-6)
            assert e2 == pytest.approx(e, abs=1e-6)

    def test_round_trip_on_arrays(self, rng):
        origin = (59.3, 18.1)
        n, e = rng.uniform(-800, 800, (2, 50))
        lat, lon = offset_geopos(*origin, n, e)
        assert lat.shape == lon.shape == (50,)
        n2, e2 = local_meters(*origin, lat, lon)
        np.testing.assert_allclose(n2, n, atol=1e-6)
        np.testing.assert_allclose(e2, e, atol=1e-6)

    def test_matches_haversine_at_small_range(self, rng):
        origin = (40.0, -3.0)
        for _ in range(50):
            n, e = rng.uniform(-500, 500, 2)
            p = offset_geopos(*origin, n, e)
            planar = math.hypot(*local_meters(*origin, *p))
            assert planar == pytest.approx(haversine_m(*origin, *p), rel=1e-4)
