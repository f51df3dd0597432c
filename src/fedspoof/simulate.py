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
from .domain import CONSTELLATIONS, STATISTICS, Trace, offset_geopos, signal_slot

MAX_SPEED_MPS = 24.0
MIN_SPEED_MPS = 3.0
N_SATELLITES = 8


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
    dropout_rate: float = 0.02
    gal_dropout_rate: float = 0.02

    def __post_init__(self) -> None:
        if self.agc_jitter_db < 0 or self.cn0_jitter_db < 0:
            raise ValueError("jitters must be >= 0")
        if self.dataset_scale <= 0:
            raise ValueError("dataset_scale must be positive")


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
class AttackScenario:
    """Realized attack plan for one trace."""

    duration_s: float
    intervals: tuple[tuple[float, float], ...]
    offset_model: str  # "ramp" | "step"
    max_deviation_m: float
    ramp_s: float
    bearing_rad: float

    def __post_init__(self) -> None:
        if self.offset_model not in ("ramp", "step"):
            raise ValueError(f"unknown offset model {self.offset_model!r}")
        prev_end = -math.inf
        for start, end in self.intervals:
            if not (0.0 <= start < end <= self.duration_s):
                raise ValueError("attack interval outside trace duration")
            if start < prev_end:
                raise ValueError("attack intervals overlap")
            prev_end = end

    def deviation_at(self, t: np.ndarray) -> np.ndarray:
        """Offset magnitude in meters at each time."""
        dev = np.zeros_like(t)
        for start, end in self.intervals:
            mask = (t >= start) & (t < end)
            if self.offset_model == "step":
                dev[mask] = self.max_deviation_m
            else:
                dev[mask] = self.max_deviation_m * np.minimum(
                    1.0, (t[mask] - start) / self.ramp_s
                )
        return dev

    def active_at(self, t: np.ndarray) -> np.ndarray:
        mask = np.zeros(t.shape, dtype=bool)
        for start, end in self.intervals:
            mask |= (t >= start) & (t < end)
        return mask


@dataclass(frozen=True)
class SimConfig:
    """Corpus generation settings."""

    n_devices: int = 6
    n_traces: int = 40
    duration_s: float = 150.0
    sample_rate_hz: float = 1.0
    attack_fraction: float = 0.2
    rng_seed: int = 7
    partition_mode: str = "iid"
    n_clients: int = 6
    anchor_lat: float = 59.35
    anchor_lon: float = 18.07
    gnss_noise_m: float = 3.0
    attack_trace_prob: float = 0.8
    attack_ramp_s: float = 30.0
    attack_dev_min_m: float = 60.0
    attack_dev_max_m: float = 250.0
    attack_step_prob: float = 0.15
    cn0_uplift_db: float = 6.0
    signal_compression: float = 0.25
    agc_shift_db: float = -3.0
    profiles: tuple[DeviceProfile, ...] = ()

    def __post_init__(self) -> None:
        for name in ("attack_fraction", "attack_trace_prob", "attack_step_prob",
                     "signal_compression"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.n_devices < 1 or self.n_traces < 1 or self.n_clients < 1:
            raise ValueError("need at least one device, one trace and one client")
        if self.sample_rate_hz <= 0 or round(self.duration_s * self.sample_rate_hz) < 2:
            raise ValueError("need sample_rate_hz > 0 and duration_s of at least two samples")
        if self.gnss_noise_m < 0 or self.attack_ramp_s <= 0:
            raise ValueError("need gnss_noise_m >= 0 and attack_ramp_s > 0")
        if not 0.0 <= self.attack_dev_min_m <= self.attack_dev_max_m:
            raise ValueError("need 0 <= attack_dev_min_m <= attack_dev_max_m")
        if self.partition_mode not in ("iid", "non-iid-by-device", "non-iid-by-trace"):
            raise ValueError(f"unknown partition mode {self.partition_mode!r}")


def device_profiles(cfg: SimConfig) -> dict[int, DeviceProfile]:
    """Profile of each device id (1-based)."""
    pool = cfg.profiles or DEFAULT_PROFILES
    out = {}
    for dev in range(1, cfg.n_devices + 1):
        pattern_ix = _PROFILE_PATTERN[(dev - 1) % len(_PROFILE_PATTERN)]
        out[dev] = pool[pattern_ix % len(pool)]
    return out


def device_models(cfg: SimConfig) -> dict[int, str]:
    return {dev: prof.model_name for dev, prof in device_profiles(cfg).items()}


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


def _chaikin(points: np.ndarray, iterations: int = 3) -> np.ndarray:
    """Corner-cutting smoothing; converges toward a quadratic B-spline."""
    for _ in range(iterations):
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


def _plan_attack(rng: np.random.Generator, cfg: SimConfig) -> AttackScenario | None:
    if cfg.attack_fraction == 0.0:
        return None
    if rng.random() >= cfg.attack_trace_prob:
        return None
    margin, gap = 5.0, 10.0
    total = min(
        cfg.duration_s * cfg.attack_fraction / cfg.attack_trace_prob,
        0.8 * cfg.duration_s,
        cfg.duration_s - 2.0 * margin,
    )
    if total <= 0.0:
        return None
    if total >= 60.0 and cfg.duration_s - total - 2 * margin - gap > 0:
        split = rng.uniform(0.35, 0.65)
        lengths = [total * split, total * (1.0 - split)]
    else:
        lengths = [total]
    intervals = []
    cursor = margin
    slack = cfg.duration_s - margin - sum(lengths) - gap * (len(lengths) - 1) - cursor
    for length in lengths:
        start = cursor + rng.uniform(0.0, max(0.0, slack))
        intervals.append((start, start + length))
        slack -= start - cursor
        cursor = start + length + gap
    model = "step" if rng.random() < cfg.attack_step_prob else "ramp"
    return AttackScenario(
        duration_s=cfg.duration_s,
        intervals=tuple(intervals),
        offset_model=model,
        max_deviation_m=rng.uniform(cfg.attack_dev_min_m, cfg.attack_dev_max_m),
        ramp_s=cfg.attack_ramp_s,
        bearing_rad=rng.uniform(0.0, 2.0 * math.pi),
    )


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
    cfg: SimConfig,
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
            "agc_db": (agc, cfg.agc_shift_db),
            "cn0_ant_dbhz": (ant, cfg.cn0_uplift_db),
            "cn0_base_dbhz": (base, cfg.cn0_uplift_db),
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
                vals[attacked] = mean + (sub - mean) * cfg.signal_compression + shift
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

    scenario = _plan_attack(rng, cfg)
    if scenario is None:
        attacked = np.zeros(n, dtype=bool)
        off_n = off_e = np.zeros(n)
    else:
        attacked = scenario.active_at(t)
        dev = scenario.deviation_at(t)
        off_n = dev * math.cos(scenario.bearing_rad)
        off_e = dev * math.sin(scenario.bearing_rad)

    net_n = north + rng.normal(0.0, profile.net_pos_noise_m, n)
    net_e = east + rng.normal(0.0, profile.net_pos_noise_m, n)
    gnss_n = north + off_n + rng.normal(0.0, cfg.gnss_noise_m, n)
    gnss_e = east + off_e + rng.normal(0.0, cfg.gnss_noise_m, n)

    signal = _signal_matrix(rng, profile, n, speed, attacked, cfg)

    def position(north_m: np.ndarray, east_m: np.ndarray) -> np.ndarray:
        return np.column_stack(offset_geopos(cfg.anchor_lat, cfg.anchor_lon, north_m, east_m))

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
    jobs = [
        partial(_generate_trace, i + 1, device, profiles[device], cfg, np.random.default_rng(seed))
        for i, (device, seed) in enumerate(zip(assignment, seeds))
    ]
    with shards._Shards(jobs, shards._shard_count(len(jobs))) as pool:
        return pool.ask("__call__")


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
    test_fraction: float = 0.1,
    trace_holdout: bool | None = None,
) -> dict[int, ClientSplit]:
    """Distribute traces over clients and fix the train/test regime; returns
    each client's split by client id.

    iid shuffles traces uniformly across clients and evaluates on the same
    traces used for training; non-iid-by-device makes one client per device;
    non-iid-by-trace additionally holds out test_fraction of traces (rounded
    half up) from all training.  trace_holdout overrides the mode's default
    hold-out behavior, which lets device-pure partitions be trace-split too.
    Deterministic per seed.
    """
    if not traces:
        raise ValueError("no traces to partition")
    rng = np.random.default_rng(seed)

    if mode == "non-iid-by-device":
        devices = sorted({t.platform_id for t in traces})
        if n_clients != len(devices):
            raise ValueError(
                f"device partition needs n_clients == n_devices ({len(devices)})"
            )
        owner = {i: t.platform_id for i, t in enumerate(traces)}
    elif mode in ("iid", "non-iid-by-trace"):
        if len(traces) < n_clients:
            raise ValueError("fewer traces than clients")
        order = rng.permutation(len(traces))
        owner = {int(ix): (pos % n_clients) + 1 for pos, ix in enumerate(order)}
    else:
        raise ValueError(f"unknown partition mode {mode!r}")

    holdout = trace_holdout if trace_holdout is not None else mode == "non-iid-by-trace"
    held: set[int] = set()
    if holdout:
        n_test = int(math.floor(len(traces) * test_fraction + 0.5))  # round half up
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
    return clients
