"""Synthetic multi-device GNSS corpus: smooth driving traces, per-device
signal statistics, spoofing-attack injection, and IID / non-IID partitioning.

Vehicles follow corner-cut random-waypoint paths at bounded speed.  The
network position is the true position plus device-dependent noise; the GNSS
position is clean except during attack intervals, where it drifts away per a
ramp or step offset while the satellite statistics become artificially
similar across satellites and slightly stronger.  The attacked flag marks
exactly the attack intervals and is ground truth for evaluation only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import shards
from .domain import (CONSTELLATIONS, STATISTICS, DatasetFormatError, Trace, offset_geopos,
                     signal_slot)

MAX_SPEED_MPS = 24.0
MIN_SPEED_MPS = 3.0
N_SATELLITES = 8
CHAIKIN_ITERATIONS = 3
TEST_FRACTION = 0.1
#: Where every trajectory's local plane is anchored, degrees.
ANCHOR_LAT, ANCHOR_LON = 59.35, 18.07
#: GNSS position noise per axis (m), outside any attack.
GNSS_NOISE_M = 3.0
#: The share of all time that is attacked, the band an attack's deviation is
#: drawn from (m), the chance that its offset steps to that deviation at
#: once, and the seconds a ramp takes to reach it.
ATTACK_FRACTION = 0.2
ATTACK_DEV_MIN_M, ATTACK_DEV_MAX_M = 60.0, 250.0
ATTACK_STEP_PROB, ATTACK_RAMP_S = 0.15, 30.0
#: An attack raises the attacked satellites' C/N0 (dB), shifts their AGC (dB)
#: and scales each value's distance to the satellites' mean by a compression.
CN0_UPLIFT_DB, AGC_SHIFT_DB, SIGNAL_COMPRESSION = 6.0, -3.0, 0.25


@dataclass(frozen=True)
class DeviceProfile:
    """Hardware family: signal baselines, noise levels and data volume."""

    model_name: str
    agc_baseline_db: float
    agc_jitter_db: float
    cn0_baseline_dbhz: float
    cn0_jitter_db: float
    doppler_noise_hz: float
    net_pos_noise_m: float
    dataset_scale: float
    dropout_rate: float
    gal_dropout_rate: float


#: Three synthetic hardware families; the flagship/legacy volume ratio of
#: roughly 1.6:1 mirrors a real multi-phone campaign's data asymmetry.
DEFAULT_PROFILES = (
    DeviceProfile("alpha8", 45.0, 1.5, 38.0, 1.2, 15.0, 18.0, 1.58, 0.01, 0.01),
    DeviceProfile("bravo4x", 38.0, 2.5, 33.0, 2.0, 25.0, 25.0, 1.0, 0.03, 0.03),
    DeviceProfile("charlie9", 41.0, 2.0, 35.0, 1.6, 20.0, 22.0, 1.25, 0.02, 0.20),
)

#: Device slot -> profile index, repeating the paired-flagship pattern
#: (devices 1 and 4 share a family, 2 and 6 share one, 3 and 5 share one).
_PROFILE_PATTERN = (0, 1, 2, 0, 2, 1)


@dataclass(frozen=True)
class SimConfig:
    """Corpus generation settings."""

    n_devices: int = 6
    n_traces: int = 40
    duration_s: float = 150.0
    sample_rate_hz: float = 1.0
    rng_seed: int = 7
    partition_mode: str = "iid"
    n_clients: int = 6
    attack_trace_prob: float = 0.8

    def __post_init__(self) -> None:
        if not 0.0 <= self.attack_trace_prob <= 1.0:
            raise ValueError("attack_trace_prob must be in [0, 1]")
        if self.n_devices < 1 or self.n_traces < 1 or self.n_clients < 1:
            raise ValueError("need at least one device, one trace and one client")
        if self.sample_rate_hz <= 0 or round(self.duration_s * self.sample_rate_hz) < 2:
            raise ValueError("need sample_rate_hz > 0 and duration_s of at least two samples")
        if self.partition_mode not in ("iid", "non-iid-by-device", "non-iid-by-trace"):
            raise ValueError(f"unknown partition mode {self.partition_mode!r}")


def _profile(device_id: int) -> DeviceProfile:
    return DEFAULT_PROFILES[_PROFILE_PATTERN[(device_id - 1) % len(_PROFILE_PATTERN)]]


def device_profiles(cfg: SimConfig) -> dict[int, DeviceProfile]:
    """Profile of each device id (1-based)."""
    return {dev: _profile(dev) for dev in range(1, cfg.n_devices + 1)}


def device_model(device_id: int) -> str:
    """The hardware family that `generate` gives the device with this id."""
    return _profile(device_id).model_name


def _assign_traces(cfg: SimConfig) -> list[int]:
    """Device of each trace, with counts proportional to dataset_scale."""
    profiles = device_profiles(cfg)
    scales = np.array([profiles[d].dataset_scale for d in sorted(profiles)])
    quota = scales / scales.sum() * cfg.n_traces
    counts = np.floor(quota).astype(int)
    remainder = quota - counts
    for _ in range(cfg.n_traces - counts.sum()):
        i = int(np.argmax(remainder))
        counts[i] += 1
        remainder[i] = -1.0
    assignment = []
    for dev, count in zip(sorted(profiles), counts):
        assignment.extend([dev] * count)
    return assignment[: cfg.n_traces]


def _chaikin(points: np.ndarray) -> np.ndarray:
    """Corner-cutting smoothing; converges toward a quadratic B-spline."""
    for _ in range(CHAIKIN_ITERATIONS):
        p, q = points[:-1], points[1:]
        mids = np.empty((2 * len(p), 2))
        mids[0::2] = 0.75 * p + 0.25 * q
        mids[1::2] = 0.25 * p + 0.75 * q
        points = np.vstack([points[:1], mids, points[-1:]])
    return points


def _build_path(rng: np.random.Generator, min_length_m: float) -> tuple[np.ndarray, np.ndarray]:
    """Smooth waypoint path at least min_length_m long.

    Returns (vertices (k, 2) north/east meters, cumulative arc length (k,)).
    """
    box = 1500.0
    points = rng.uniform(-box, box, size=(4, 2))
    while True:
        smooth = _chaikin(points)
        seg = np.linalg.norm(np.diff(smooth, axis=0), axis=1)
        cum = np.concatenate([[0.0], np.cumsum(seg)])
        if cum[-1] >= min_length_m:
            return smooth, cum
        points = np.vstack([points, rng.uniform(-box, box, size=(1, 2))])


def _speed_profile(rng: np.random.Generator, n: int, dt: float) -> np.ndarray:
    """Smooth speed in [MIN_SPEED, MAX_SPEED]; goal redrawn every ~25 s."""
    v = np.empty(n)
    v[0] = rng.uniform(6.0, 18.0)
    goal = rng.uniform(5.0, 22.0)
    for k in range(1, n):
        if rng.random() < dt / 25.0:
            goal = rng.uniform(5.0, 22.0)
        v[k] = v[k - 1] + 0.08 * (goal - v[k - 1]) * dt + rng.normal(0.0, 0.15)
    return np.clip(v, MIN_SPEED_MPS, MAX_SPEED_MPS)


def _attack(
    rng: np.random.Generator, cfg: SimConfig, t: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One trace's attacked flags and north and east GNSS offsets (m).

    With probability attack_trace_prob, the trace is spoofed for
    ATTACK_FRACTION / attack_trace_prob of its duration (at most 80%): in one
    interval, or in two if that totals at least 60 s and they fit.  Every
    interval keeps 5 s from the trace's ends and 10 s from the other.  The
    offset, along one bearing, ramps to its deviation over ATTACK_RAMP_S or,
    with probability ATTACK_STEP_PROB, holds it from the start.
    """
    # ramp: the share of the deviation each sample's offset has reached
    attacked, ramp = np.zeros(t.shape, dtype=bool), np.zeros(t.shape)
    if rng.random() >= cfg.attack_trace_prob:
        return attacked, ramp, ramp
    margin, gap = 5.0, 10.0
    total = min(
        cfg.duration_s * ATTACK_FRACTION / cfg.attack_trace_prob,
        0.8 * cfg.duration_s,
        cfg.duration_s - 2.0 * margin,
    )
    if total <= 0.0:
        return attacked, ramp, ramp
    if total >= 60.0 and cfg.duration_s - total - 2 * margin - gap > 0:
        split = rng.uniform(0.35, 0.65)
        lengths = [total * split, total * (1.0 - split)]
    else:
        lengths = [total]
    cursor = margin
    slack = cfg.duration_s - margin - sum(lengths) - gap * (len(lengths) - 1) - cursor
    for length in lengths:
        start = cursor + rng.uniform(0.0, max(0.0, slack))
        active = (t >= start) & (t < start + length)
        attacked |= active
        ramp[active] = np.minimum(1.0, (t[active] - start) / ATTACK_RAMP_S)
        slack -= start - cursor
        cursor = start + length + gap
    if rng.random() < ATTACK_STEP_PROB:
        ramp = attacked.astype(np.float64)
    dev = rng.uniform(ATTACK_DEV_MIN_M, ATTACK_DEV_MAX_M) * ramp
    bearing = rng.uniform(0.0, 2.0 * math.pi)
    return attacked, dev * math.cos(bearing), dev * math.sin(bearing)


def _ar1(rng: np.random.Generator, shape: tuple[int, ...], rho: float, sigma: float) -> np.ndarray:
    noise = rng.normal(0.0, sigma, size=shape)
    out = np.empty(shape)
    out[0] = noise[0]
    for k in range(1, shape[0]):
        out[k] = rho * out[k - 1] + noise[k]
    return out


def _signal_matrix(
    rng: np.random.Generator,
    profile: DeviceProfile,
    n: int,
    speed: np.ndarray,
    attacked: np.ndarray,
) -> np.ndarray:
    """(n, 32) statistics matrix with NaN for dropped-out blocks."""
    out = np.empty((n, 32))
    t = np.arange(n, dtype=np.float64)
    for constellation in CONSTELLATIONS:
        is_gal = constellation == "gal_e1"
        cn0_base = profile.cn0_baseline_dbhz - (1.0 if is_gal else 0.0)

        sat_offset = rng.uniform(-5.0, 5.0, size=N_SATELLITES)
        wander = _ar1(rng, (n, N_SATELLITES), 0.95, 0.25 * max(profile.cn0_jitter_db, 0.1))
        ant = cn0_base + sat_offset + wander + rng.normal(0.0, 0.3, size=(n, N_SATELLITES))
        base = ant - 1.5 + rng.normal(0.0, 0.3, size=(n, N_SATELLITES))

        agc_common = _ar1(rng, (n,), 0.98, 0.1)
        agc = (
            profile.agc_baseline_db
            + agc_common[:, None]
            + rng.normal(0.0, profile.agc_jitter_db, size=(n, N_SATELLITES))
        )

        d0 = rng.uniform(-3500.0, 3500.0, size=N_SATELLITES)
        slope = rng.uniform(-0.5, 0.5, size=N_SATELLITES)
        motion = rng.uniform(-3.0, 3.0, size=N_SATELLITES)
        doppler = (
            d0
            + slope * t[:, None]
            + motion * speed[:, None]
            + rng.normal(0.0, profile.doppler_noise_hz, size=(n, N_SATELLITES))
        )

        per_property = {
            "agc_db": (agc, AGC_SHIFT_DB),
            "cn0_ant_dbhz": (ant, CN0_UPLIFT_DB),
            "cn0_base_dbhz": (base, CN0_UPLIFT_DB),
            "doppler_hz": (doppler, 0.0),
        }
        dropout = max(profile.dropout_rate, profile.gal_dropout_rate) if is_gal \
            else profile.dropout_rate
        for prop, (vals, shift) in per_property.items():
            vals = vals.copy()
            if attacked.any():
                # spoofed satellites look artificially alike and a bit stronger
                sub = vals[attacked]
                mean = sub.mean(axis=1, keepdims=True)
                vals[attacked] = mean + (sub - mean) * SIGNAL_COMPRESSION + shift
            stats = np.column_stack(
                [
                    vals.mean(axis=1),
                    np.median(vals, axis=1),
                    vals.min(axis=1),
                    vals.max(axis=1),
                ]
            )
            drop = rng.random(n) < dropout
            stats[drop] = np.nan
            base_slot = signal_slot(constellation, prop, STATISTICS[0])
            out[:, base_slot : base_slot + 4] = stats
    return out


def _generate_trace(
    trace_id: int,
    device: int,
    profile: DeviceProfile,
    cfg: SimConfig,
    rng: np.random.Generator,
) -> Trace:
    dt = 1.0 / cfg.sample_rate_hz
    n = int(round(cfg.duration_s * cfg.sample_rate_hz))
    t = np.arange(n) * dt

    speed = _speed_profile(rng, n, dt)
    dist = np.concatenate([[0.0], np.cumsum(speed[:-1] * dt)])
    vertices, cum = _build_path(rng, dist[-1] + 50.0)
    north = np.interp(dist, cum, vertices[:, 0])
    east = np.interp(dist, cum, vertices[:, 1])

    vel_n = np.gradient(north, dt)
    vel_e = np.gradient(east, dt)
    acc_n = np.gradient(vel_n, dt)
    acc_e = np.gradient(vel_e, dt)
    heading = np.unwrap(np.arctan2(vel_e, vel_n))
    yaw_rate = np.gradient(heading, dt)

    attacked, off_n, off_e = _attack(rng, cfg, t)

    net_n = north + rng.normal(0.0, profile.net_pos_noise_m, n)
    net_e = east + rng.normal(0.0, profile.net_pos_noise_m, n)
    gnss_n = north + off_n + rng.normal(0.0, GNSS_NOISE_M, n)
    gnss_e = east + off_e + rng.normal(0.0, GNSS_NOISE_M, n)

    signal = _signal_matrix(rng, profile, n, speed, attacked)

    def position(north_m: np.ndarray, east_m: np.ndarray) -> np.ndarray:
        return np.column_stack(offset_geopos(ANCHOR_LAT, ANCHOR_LON, north_m, east_m))

    # per sample: speed, acceleration (north, east, up), attitude rate (x, y, z)
    noise = rng.normal(0.0, [0.1, 0.05, 0.05, 0.05, 0.01, 0.01, 0.005], size=(n, 7))
    return Trace(
        trace_id=trace_id,
        platform_id=device,
        t=t,
        p_true=position(north, east),
        p_gnss=position(gnss_n, gnss_e),
        p_net=position(net_n, net_e),
        v=speed + noise[:, 0],
        a=np.column_stack([acc_n + noise[:, 1], acc_e + noise[:, 2], noise[:, 3]]),
        omega=np.column_stack([noise[:, 4], noise[:, 5], yaw_rate + noise[:, 6]]),
        signal=signal,
        attacked=attacked,
    )


def generate(cfg: SimConfig) -> list[Trace]:
    """Generate the full corpus; deterministic per cfg.rng_seed.

    Each trace gets its own child seed, so traces are independent of
    generation order: trace i is made in shard i mod W, and the corpus does
    not depend on W.
    """
    profiles = device_profiles(cfg)
    assignment = _assign_traces(cfg)
    seeds = np.random.SeedSequence(cfg.rng_seed).spawn(cfg.n_traces)
    return shards.run([
        partial(_generate_trace, i + 1, device, profiles[device], cfg, np.random.default_rng(seed))
        for i, (device, seed) in enumerate(zip(assignment, seeds))
    ])


@dataclass
class ClientSplit:
    """One client's traces: training set plus the traces it evaluates on."""

    train: list[Trace]
    test: list[Trace]


def partition(
    traces: list[Trace],
    mode: str,
    n_clients: int,
    seed: int,
    holdout: bool = False,
) -> dict[int, ClientSplit]:
    """Distribute traces over clients and fix the train/test regime; returns
    each client's split by client id.

    iid shuffles traces uniformly across clients and evaluates on the same
    traces used for training; non-iid-by-device makes one client per device.
    holdout, which non-iid-by-trace implies, holds out TEST_FRACTION of the
    traces (rounded half up) from all training as the test traces.
    Deterministic per seed.  Too few traces for the clients, devices for a
    device partition, or a hold-out that leaves a client no training trace
    raise DatasetFormatError; an unknown mode ValueError.
    """
    if not traces:
        raise DatasetFormatError("no traces to partition")
    rng = np.random.default_rng(seed)

    if mode == "non-iid-by-device":
        devices = sorted({t.platform_id for t in traces})
        if n_clients != len(devices):
            raise DatasetFormatError(
                f"device partition needs n_clients == n_devices ({len(devices)})"
            )
        owner = {i: t.platform_id for i, t in enumerate(traces)}
    elif mode in ("iid", "non-iid-by-trace"):
        if len(traces) < n_clients:
            raise DatasetFormatError("fewer traces than clients")
        order = rng.permutation(len(traces))
        owner = {int(ix): (pos % n_clients) + 1 for pos, ix in enumerate(order)}
    else:
        raise ValueError(f"unknown partition mode {mode!r}")

    holdout = holdout or mode == "non-iid-by-trace"
    held: set[int] = set()
    if holdout:
        n_test = int(math.floor(len(traces) * TEST_FRACTION + 0.5))  # round half up
        held = set(int(i) for i in rng.choice(len(traces), size=n_test, replace=False))

    clients: dict[int, ClientSplit] = {}
    for i, trace in enumerate(traces):
        split = clients.setdefault(owner[i], ClientSplit(train=[], test=[]))
        if i in held:
            split.test.append(trace)
        else:
            split.train.append(trace)
            if not holdout:
                split.test.append(trace)
    for client_id, split in sorted(clients.items()):
        if not split.train:
            raise DatasetFormatError(f"the trace hold-out leaves client {client_id} "
                                     "no training trace")
    return clients
