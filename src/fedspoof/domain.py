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


#: The dataset record: each Trace column, in file order, with the names of
#: its file columns.  A column with one file column holds a scalar per sample.
RECORD = {
    "t": ("t_s",),
    "p_true": ("lat_true_deg", "lon_true_deg"),
    "p_gnss": ("lat_gnss_deg", "lon_gnss_deg"),
    "p_net": ("lat_net_deg", "lon_net_deg"),
    "v": ("speed_mps",),
    "a": ("accel_n_mps2", "accel_e_mps2", "accel_u_mps2"),
    "omega": ("omega_x_rads", "omega_y_rads", "omega_z_rads"),
    "signal": SIGNAL_SLOTS,
    "attacked": ("attacked",),
}

#: Shape of one sample's entry in each Trace column.
COLUMN_SHAPES = {name: () if len(cols) == 1 else (len(cols),) for name, cols in RECORD.items()}

HEADER_COLUMNS = ("platform_id", "trace_id", *(c for cols in RECORD.values() for c in cols))

MISSING_TOKEN = "na"

#: A record's values: every Trace column but the attacked flag, in file
#: order; the offsets that split a record's values into those columns; and
#: the signal's slice of the values.
_VALUES = tuple(RECORD)[:-1]
_SPLITS = np.cumsum([len(RECORD[c]) for c in _VALUES])[:-1]
_SIGNAL = slice(int(_SPLITS[-1]), None)

#: The (lat, lon) position columns, and their latitude and longitude limits.
_POSITIONS = ("p_true", "p_gnss", "p_net")
_DEGREE_LIMITS = np.array([90.0, 180.0] * len(_POSITIONS))


def frozen_column(values, dtype=np.float64) -> np.ndarray:
    """An owned, read-only array copy of values."""
    col = np.array(values, dtype=dtype)
    col.setflags(write=False)
    return col


def _first_bad_value(columns) -> tuple[int, str] | None:
    """Row and message of the first bad value, in file order, in the _VALUES
    of a name -> column mapping, or None: a value that is not finite (a NaN
    signal value marks a missing one and passes), else a position outside
    the WGS-84 degree ranges."""
    values = np.column_stack([columns[name] for name in _VALUES])
    bad = ~np.isfinite(values)
    bad[:, _SIGNAL] = np.isinf(values[:, _SIGNAL])
    if bad.any():
        row, col = divmod(int(np.argmax(bad)), values.shape[1])
        return row, f"{HEADER_COLUMNS[2 + col]} is not finite: {float(values[row, col])}"
    latlon = np.hstack([columns[name] for name in _POSITIONS])
    bad = np.flatnonzero(np.abs(latlon) > _DEGREE_LIMITS)
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
        fault = _first_bad_value(vars(self))
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


#: Samples that `_format_block` turns into text at a time.
_FORMAT_ROWS = 32


def _format_block(trace: Trace) -> np.ndarray:
    """The dataset lines of one trace, as a read-only uint8 array of their
    ASCII bytes, which a forked shard sends back out of band.  One chunk of
    _FORMAT_ROWS samples at a time lives as Python floats and text."""
    ids = f"{trace.platform_id},{trace.trace_id},"
    chunks = []
    for start in range(0, len(trace), _FORMAT_ROWS):
        part = slice(start, start + _FORMAT_ROWS)
        rows = np.column_stack([getattr(trace, c)[part] for c in _VALUES]).tolist()
        # repr round-trips doubles exactly under float(); of a Trace's values
        # only a missing signal value, NaN, formats to a token holding "nan"
        chunks.append("".join(
            ids + ",".join(map(repr, row)).replace("nan", MISSING_TOKEN)
            + (",1\n" if hit else ",0\n") for row, hit in zip(rows, trace.attacked[part].tolist())
        ).encode("ascii"))
        del rows  # before the next chunk's floats exist
    return np.frombuffer(b"".join(chunks), dtype=np.uint8)


def write_dataset(traces: list[Trace], path: str) -> None:
    """Write traces as line-delimited records with one header line.

    Round-trips bit-exactly with read_dataset.  Trace i's lines are
    formatted in shard i mod W and written in trace order.  An empty trace
    list produces a file holding only the header.
    """
    blocks = shards.run([partial(_format_block, trace) for trace in traces])
    try:
        with open(path, "wb") as fh:
            fh.write((",".join(HEADER_COLUMNS) + "\n").encode("ascii"))
            fh.writelines(blocks)
    except OSError as exc:
        raise OSError(f"cannot write dataset {path!r}: {exc}") from exc


def read_dataset(path: str) -> list[Trace]:
    """Read a dataset file back into traces, one line at a time.

    Traces are grouped by (platform_id, trace_id) and ordered by t.  A
    malformed record, an attacked flag other than 0/1 and a value that Trace
    rejects raise DatasetFormatError naming the line; a repeated timestamp
    within a trace raises naming the trace.  `na`, like `nan`, reads as NaN,
    which only a signal value may be.
    """
    # (values, attacked flags, line numbers) per trace
    groups: dict[tuple[int, int], tuple[array, bytearray, list[int]]] = {}
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
                values = [math.nan if c == MISSING_TOKEN else float(c) for c in cols[2:-1]]
            except ValueError as exc:
                raise DatasetFormatError(f"line {lineno}: {exc}") from exc
            if cols[-1] not in ("0", "1"):
                raise DatasetFormatError(
                    f"line {lineno}: attacked must be 0 or 1, got {cols[-1]!r}"
                )
            group = groups.get(key)
            if group is None:
                group = groups[key] = (array("d"), bytearray(), [])
            group[0].extend(values)
            group[1].append(cols[-1] == "1")
            group[2].append(lineno)

    traces = []
    for pid, tid in sorted(groups):
        values_buf, attacked_buf, lines = groups.pop((pid, tid))
        values = np.frombuffer(values_buf).reshape(len(lines), -1)
        order = np.argsort(values[:, 0], kind="stable")
        columns = {
            c: col.reshape(-1, *COLUMN_SHAPES[c])
            for c, col in zip(_VALUES, np.split(values[order], _SPLITS, axis=1))
        }
        try:
            traces.append(Trace(
                trace_id=tid,
                platform_id=pid,
                **columns,
                attacked=np.frombuffer(attacked_buf, dtype=bool)[order],
            ))
        except ValueError as exc:
            fault = _first_bad_value(columns)  # None for a repeated timestamp
            where = "" if fault is None else f"line {lines[order[fault[0]]]}: "
            raise DatasetFormatError(where + str(exc)) from exc
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
