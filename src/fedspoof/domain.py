"""Shared domain types and dataset persistence.

One record per timestamped observation of one mobile platform: true,
GNSS-provided and network-provided positions, speed, acceleration, attitude
rates, and per-constellation satellite signal statistics.  A trace holds its
records as one numpy column per field.  Datasets are stored as line-delimited
text with a single self-describing header so they diff and stream cleanly.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, fields
from functools import partial

import numpy as np

from . import shards

EARTH_RADIUS_M = 6_371_000.0
M_PER_DEG = EARTH_RADIUS_M * math.pi / 180.0

CONSTELLATIONS = ("gps_l1", "gal_e1")
PROPERTIES = ("agc_db", "cn0_ant_dbhz", "cn0_base_dbhz", "doppler_hz")
STATISTICS = ("mean", "median", "min", "max")

#: Fixed 32-slot layout of per-sample signal statistics:
#: constellation-major, then property, then statistic.
SIGNAL_SLOTS = tuple(
    f"{c}_{p}_{s}" for c in CONSTELLATIONS for p in PROPERTIES for s in STATISTICS
)
N_SIGNAL_SLOTS = len(SIGNAL_SLOTS)


def signal_slot(constellation: str, prop: str, stat: str) -> int:
    """Index of one (constellation, property, statistic) slot in SIGNAL_SLOTS."""
    return (
        CONSTELLATIONS.index(constellation) * len(PROPERTIES) * len(STATISTICS)
        + PROPERTIES.index(prop) * len(STATISTICS)
        + STATISTICS.index(stat)
    )


class DatasetFormatError(ValueError):
    """Raised when a dataset file cannot be parsed or violates ordering rules."""


#: Shape of one sample's entry in each Trace column.
COLUMN_SHAPES = {
    "t": (),
    "p_true": (2,),
    "p_gnss": (2,),
    "p_net": (2,),
    "v": (),
    "a": (3,),
    "omega": (3,),
    "signal": (N_SIGNAL_SLOTS,),
    "attacked": (),
}

#: Latitude and longitude limits of the three (lat, lon) position pairs.
_DEGREE_LIMITS = np.array([90.0, 180.0] * 3)


def frozen_column(values, dtype=np.float64) -> np.ndarray:
    """An owned, read-only array copy of values."""
    col = np.array(values, dtype=dtype)
    col.setflags(write=False)
    return col


def _first_bad_position(latlon: np.ndarray) -> tuple[int, str] | None:
    """Row and message of the first value outside the WGS-84 degree ranges in
    (n, 6) rows of (lat, lon) pairs, or None; NaN is out of range."""
    bad = np.flatnonzero(~(np.abs(latlon) <= _DEGREE_LIMITS))
    if bad.size == 0:
        return None
    row, col = divmod(int(bad[0]), latlon.shape[1])
    axis = "latitude" if col % 2 == 0 else "longitude"
    return row, f"{axis} out of range: {float(latlon[row, col])}"


@dataclass(frozen=True, eq=False)
class Trace:
    """Time-ordered samples of one platform over one recording, held as one
    read-only numpy column per field.

    Positions are (n, 2) columns of WGS-84 latitude and longitude in degrees.
    `p_true` and `attacked` are simulator ground truth carried for evaluation
    only; the feature and label pipelines must never read them.
    """

    trace_id: int
    platform_id: int
    t: np.ndarray  # (n,) seconds, strictly increasing
    p_true: np.ndarray  # (n, 2)
    p_gnss: np.ndarray  # (n, 2) GNSS-provided position
    p_net: np.ndarray  # (n, 2) network-provided position
    v: np.ndarray  # (n,) speed m/s
    a: np.ndarray  # (n, 3) (north, east, up) m/s^2
    omega: np.ndarray  # (n, 3) attitude rates rad/s
    signal: np.ndarray  # (n, 32) in SIGNAL_SLOTS order; NaN marks an invalid/missing value
    attacked: np.ndarray  # (n,) bool

    def __post_init__(self) -> None:
        for name, tail in COLUMN_SHAPES.items():
            col = frozen_column(getattr(self, name), bool if name == "attacked" else np.float64)
            if col.ndim != len(tail) + 1 or col.shape[1:] != tail:
                if name == "signal":
                    raise ValueError(
                        f"signal vector must have {N_SIGNAL_SLOTS} slots, got {col.shape[1:]}"
                    )
                if name in ("a", "omega"):
                    raise ValueError("acceleration and attitude-rate vectors must have 3 axes")
                raise ValueError(f"column {name} must have shape {('n', *tail)}, got {col.shape}")
            object.__setattr__(self, name, col)
        n = len(self.t)
        if n == 0:
            raise ValueError("trace must contain at least one sample")
        lengths = {name: len(getattr(self, name)) for name in COLUMN_SHAPES}
        if set(lengths.values()) != {n}:
            raise ValueError(f"column lengths differ in trace {self.trace_id}: {lengths}")
        fault = _first_bad_position(np.hstack([self.p_true, self.p_gnss, self.p_net]))
        if fault is not None:
            raise ValueError(fault[1])
        if not np.all(np.diff(self.t) > 0.0):
            raise ValueError(f"timestamps not strictly increasing in trace {self.trace_id}")

    def __len__(self) -> int:
        return len(self.t)

    def __reduce__(self):
        # rebuild through the constructor: default pickling skips
        # __post_init__, and a copy of a read-only array unpickles writable
        return Trace, tuple(getattr(self, f.name) for f in fields(self))


HEADER_COLUMNS = (
    "platform_id",
    "trace_id",
    "t_s",
    "lat_true_deg",
    "lon_true_deg",
    "lat_gnss_deg",
    "lon_gnss_deg",
    "lat_net_deg",
    "lon_net_deg",
    "speed_mps",
    "accel_n_mps2",
    "accel_e_mps2",
    "accel_u_mps2",
    "omega_x_rads",
    "omega_y_rads",
    "omega_z_rads",
    *SIGNAL_SLOTS,
    "attacked",
)

MISSING_TOKEN = "na"

#: Record columns between the ids and the signal block, in file order.
_NUMERIC_COLUMNS = ("t", "p_true", "p_gnss", "p_net", "v", "a", "omega")
_SIGNAL_START = HEADER_COLUMNS.index(SIGNAL_SLOTS[0])


def _rows(block: np.ndarray) -> list[str]:
    """Each row of a 2-D float block as its values' reprs joined by commas."""
    return [",".join(map(repr, row)) for row in block.tolist()]


def _format_block(trace: Trace) -> str:
    """The dataset lines of one trace."""
    ids = f"{trace.platform_id},{trace.trace_id},"
    numeric = _rows(np.column_stack([getattr(trace, c) for c in _NUMERIC_COLUMNS]))
    # repr round-trips doubles exactly under float(); in the signal block
    # only a NaN formats to a token holding "nan"
    signal = [row.replace("nan", MISSING_TOKEN) for row in _rows(trace.signal)]
    return "".join(
        ids + row + "," + sig + (",1\n" if hit else ",0\n")
        for row, sig, hit in zip(numeric, signal, trace.attacked.tolist())
    )


def write_dataset(traces: list[Trace], path: str) -> None:
    """Write traces as line-delimited records with one header line.

    Round-trips bit-exactly with read_dataset.  Trace i's lines are
    formatted in shard i mod W and written in trace order.  An empty trace
    list produces a file holding only the header.
    """
    jobs = [partial(_format_block, trace) for trace in traces]
    with shards._Shards(jobs, shards._shard_count(len(jobs))) as pool:
        blocks = pool.ask("__call__")
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(",".join(HEADER_COLUMNS) + "\n")
            fh.writelines(blocks)
    except OSError as exc:
        raise OSError(f"cannot write dataset {path!r}: {exc}") from exc


def read_dataset(path: str) -> list[Trace]:
    """Read a dataset file back into traces, one line at a time.

    Traces are grouped by (platform_id, trace_id) and ordered by t.  Malformed
    records, a non-finite time, position or motion value, an attacked flag
    other than 0/1 and an out-of-range position raise DatasetFormatError
    naming the line; a repeated timestamp within a trace raises naming the
    trace.
    """
    # (numeric values, signal values, attacked flags, line numbers) per trace
    groups: dict[tuple[int, int], tuple[array, array, bytearray, list[int]]] = {}
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().rstrip("\n")
        if header.split(",") != list(HEADER_COLUMNS):
            raise DatasetFormatError(f"line 1: unexpected header in {path!r}")
        for lineno, line in enumerate(fh, start=2):
            cols = line.rstrip("\n").split(",")
            if len(cols) != len(HEADER_COLUMNS):
                raise DatasetFormatError(
                    f"line {lineno}: expected {len(HEADER_COLUMNS)} fields, got {len(cols)}"
                )
            try:
                key = (int(cols[0]), int(cols[1]))
                numeric = [float(c) for c in cols[2:_SIGNAL_START]]
                signal = [
                    math.nan if c == MISSING_TOKEN else float(c) for c in cols[_SIGNAL_START:-1]
                ]
            except ValueError as exc:
                raise DatasetFormatError(f"line {lineno}: {exc}") from exc
            if not all(map(math.isfinite, numeric)):
                j = 2 + next(i for i, x in enumerate(numeric) if not math.isfinite(x))
                raise DatasetFormatError(
                    f"line {lineno}: {HEADER_COLUMNS[j]} is not finite: {cols[j]}"
                )
            if cols[-1] not in ("0", "1"):
                raise DatasetFormatError(
                    f"line {lineno}: attacked must be 0 or 1, got {cols[-1]!r}"
                )
            group = groups.get(key)
            if group is None:
                group = groups[key] = (array("d"), array("d"), bytearray(), [])
            group[0].extend(numeric)
            group[1].extend(signal)
            group[2].append(cols[-1] == "1")
            group[3].append(lineno)

    traces = []
    for pid, tid in sorted(groups):
        numeric_buf, signal_buf, attacked_buf, lines = groups.pop((pid, tid))
        num = np.frombuffer(numeric_buf).reshape(len(lines), -1)
        order = np.argsort(num[:, 0], kind="stable")
        num = num[order]
        fault = _first_bad_position(num[:, 1:7])
        if fault is not None:
            row, message = fault
            raise DatasetFormatError(f"line {lines[order[row]]}: {message}")
        if np.any(np.diff(num[:, 0]) <= 0.0):
            raise DatasetFormatError(f"non-monotone timestamps in trace {tid}")
        traces.append(Trace(
            trace_id=tid,
            platform_id=pid,
            t=num[:, 0],
            p_true=num[:, 1:3],
            p_gnss=num[:, 3:5],
            p_net=num[:, 5:7],
            v=num[:, 7],
            a=num[:, 8:11],
            omega=num[:, 11:14],
            signal=np.frombuffer(signal_buf).reshape(len(lines), N_SIGNAL_SLOTS)[order],
            attacked=np.frombuffer(attacked_buf, dtype=bool)[order],
        ))
    return traces


def local_meters(lat0, lon0, lat, lon) -> tuple[np.ndarray, np.ndarray]:
    """(north, east) meters from (lat0, lon0) to (lat, lon), equirectangular
    at the origin.

    Degrees in, scalars or arrays that broadcast.  Agrees with the
    great-circle distance to better than 1e-4 relative at sub-kilometer range
    and mid latitudes, ample for the residuals and local tangent planes this
    package works in.
    """
    north = (lat - lat0) * M_PER_DEG
    east = (lon - lon0) * M_PER_DEG * np.cos(np.radians(lat0))
    return north, east


def offset_geopos(lat0, lon0, north_m, east_m) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of local_meters: (lat, lon) degrees of the points north_m and
    east_m meters from (lat0, lon0)."""
    lat = lat0 + north_m / M_PER_DEG
    lon = lon0 + east_m / (M_PER_DEG * np.cos(np.radians(lat0)))
    return lat, lon
