"""Shared domain types and dataset persistence.

One record per timestamped observation of one mobile platform: true,
GNSS-provided and network-provided positions, speed, acceleration, attitude
rates, and per-constellation satellite signal statistics.  Datasets are stored
as line-delimited text with a single self-describing header so they diff and
stream cleanly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

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


@dataclass(frozen=True)
class GeoPos:
    """WGS-84 position in degrees."""

    lat: float
    lon: float

    def __post_init__(self) -> None:
        if not (-90.0 <= self.lat <= 90.0):
            raise ValueError(f"latitude out of range: {self.lat}")
        if not (-180.0 <= self.lon <= 180.0):
            raise ValueError(f"longitude out of range: {self.lon}")


@dataclass(frozen=True, eq=False)
class SignalProps:
    """32 satellite-signal statistics; NaN marks an invalid/missing value.

    Holds {mean, median, min, max} of AGC, antenna C/N0, baseband C/N0 and
    Doppler shift over the visible satellites of GPS L1 and Galileo E1, in
    SIGNAL_SLOTS order.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.array(self.values, dtype=np.float64)  # owned copy, frozen below
        if v.shape != (N_SIGNAL_SLOTS,):
            raise ValueError(f"signal vector must have {N_SIGNAL_SLOTS} slots, got {v.shape}")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


@dataclass(frozen=True, eq=False)
class PlatformSample:
    """One timestamped record for one platform.

    `p_true` and `attacked` are simulator ground truth carried for evaluation
    only; the feature and label pipelines must never read them.
    """

    platform_id: int
    trace_id: int
    t: float
    p_true: GeoPos
    p_gnss: GeoPos
    p_net: GeoPos
    v: float
    a: np.ndarray  # (north, east, up) m/s^2
    omega: np.ndarray  # attitude rates rad/s
    signal: SignalProps
    attacked: bool

    def __post_init__(self) -> None:
        a = np.array(self.a, dtype=np.float64)  # owned copies, frozen below
        w = np.array(self.omega, dtype=np.float64)
        if a.shape != (3,) or w.shape != (3,):
            raise ValueError("acceleration and attitude-rate vectors must have 3 axes")
        a.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "omega", w)


@dataclass
class Trace:
    """Time-ordered samples of one platform over one recording."""

    trace_id: int
    platform_id: int
    samples: list[PlatformSample] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.samples:
            raise ValueError("trace must contain at least one sample")
        for s in self.samples:
            if s.trace_id != self.trace_id or s.platform_id != self.platform_id:
                raise ValueError(
                    f"sample ids ({s.platform_id},{s.trace_id}) do not match "
                    f"trace ({self.platform_id},{self.trace_id})"
                )
        t = [s.t for s in self.samples]
        if any(b <= a for a, b in zip(t, t[1:])):
            raise ValueError(f"timestamps not strictly increasing in trace {self.trace_id}")

    def __len__(self) -> int:
        return len(self.samples)


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


def _fmt(x: float) -> str:
    # repr round-trips doubles exactly under float()
    return MISSING_TOKEN if math.isnan(x) else repr(float(x))


def write_dataset(traces: list[Trace], path: str) -> None:
    """Write traces as line-delimited records with one header line.

    Round-trips bit-exactly with read_dataset.  An empty trace list produces a
    file holding only the header.
    """
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(",".join(HEADER_COLUMNS) + "\n")
            for trace in traces:
                for s in trace.samples:
                    cols = [
                        str(s.platform_id),
                        str(s.trace_id),
                        repr(float(s.t)),
                        repr(float(s.p_true.lat)),
                        repr(float(s.p_true.lon)),
                        repr(float(s.p_gnss.lat)),
                        repr(float(s.p_gnss.lon)),
                        repr(float(s.p_net.lat)),
                        repr(float(s.p_net.lon)),
                        repr(float(s.v)),
                        *(repr(float(x)) for x in s.a),
                        *(repr(float(x)) for x in s.omega),
                        *(_fmt(x) for x in s.signal.values),
                        "1" if s.attacked else "0",
                    ]
                    fh.write(",".join(cols) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write dataset {path!r}: {exc}") from exc


def _parse_float(token: str) -> float:
    return math.nan if token == MISSING_TOKEN else float(token)


def read_dataset(path: str) -> list[Trace]:
    """Read a dataset file back into traces.

    Traces are grouped by (platform_id, trace_id) and ordered by t.  Malformed
    records raise DatasetFormatError naming the line; a repeated timestamp
    within a trace raises naming the trace.
    """
    groups: dict[tuple[int, int], list[PlatformSample]] = {}
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
                pid, tid = int(cols[0]), int(cols[1])
                sample = PlatformSample(
                    platform_id=pid,
                    trace_id=tid,
                    t=float(cols[2]),
                    p_true=GeoPos(float(cols[3]), float(cols[4])),
                    p_gnss=GeoPos(float(cols[5]), float(cols[6])),
                    p_net=GeoPos(float(cols[7]), float(cols[8])),
                    v=float(cols[9]),
                    a=np.array([float(c) for c in cols[10:13]]),
                    omega=np.array([float(c) for c in cols[13:16]]),
                    signal=SignalProps(np.array([_parse_float(c) for c in cols[16:48]])),
                    attacked=cols[48] == "1",
                )
            except (ValueError, IndexError) as exc:
                raise DatasetFormatError(f"line {lineno}: {exc}") from exc
            groups.setdefault((pid, tid), []).append(sample)

    traces = []
    for (pid, tid) in sorted(groups):
        samples = sorted(groups[(pid, tid)], key=lambda s: s.t)
        t = [s.t for s in samples]
        if any(b <= a for a, b in zip(t, t[1:])):
            raise DatasetFormatError(f"non-monotone timestamps in trace {tid}")
        traces.append(Trace(trace_id=tid, platform_id=pid, samples=samples))
    return traces


def local_meters(origin: GeoPos, p: GeoPos) -> tuple[float, float]:
    """(north, east) meters from origin to p, equirectangular at the origin.

    Agrees with the great-circle distance to better than 1e-4 relative at
    sub-kilometer range and mid latitudes, ample for the residuals and local
    tangent planes this package works in.
    """
    north = (p.lat - origin.lat) * M_PER_DEG
    east = (p.lon - origin.lon) * M_PER_DEG * math.cos(math.radians(origin.lat))
    return north, east


def offset_geopos(origin: GeoPos, north_m: float, east_m: float) -> GeoPos:
    """Inverse of local_meters."""
    lat = origin.lat + north_m / M_PER_DEG
    lon = origin.lon + east_m / (M_PER_DEG * math.cos(math.radians(origin.lat)))
    return GeoPos(float(lat), float(lon))
