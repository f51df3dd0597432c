"""Experiment configuration: plain-text sectioned key=value files, flag
overrides, and a stable hash for output manifests."""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass, fields, is_dataclass, replace

from .experiments import ALL_CELLS, ALL_SPLITS
from .features import FeatureConfig
from .federation import FederationConfig
from .fusion import FusionConfig
from .lstm import TrainConfig
from .simulate import SimConfig


class ConfigError(ValueError):
    """Raised for unreadable, unknown or ill-typed configuration values."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Aggregate of every sub-configuration plus run-level settings."""

    seed: int = 7
    out_dir: str = "out"
    dataset_file: str = "dataset.csv"
    cells: tuple[str, ...] = ALL_CELLS
    splits: tuple[str, ...] = ALL_SPLITS
    sim: SimConfig = SimConfig()
    fusion: FusionConfig = FusionConfig()
    features: FeatureConfig = FeatureConfig()
    train: TrainConfig = TrainConfig()
    federation: FederationConfig = FederationConfig()


#: the config file's sections besides [experiment]: the sub-configurations
_SECTIONS = tuple(f.name for f in fields(ExperimentConfig) if is_dataclass(f.default))


def _str_tuple(raw: str) -> tuple[str, ...]:
    return tuple(v.strip() for v in raw.split(",") if v.strip())


_FIELD_TYPES = {
    "int": int, "float": float, "bool": bool, "str": str, "tuple[str, ...]": _str_tuple,
}

# per-stage seeds that load_config derives from [experiment] seed
_DERIVED_SEEDS = {("sim", "rng_seed"), ("train", "rng_seed"), ("federation", "init_seed")}


def _coerce(raw: str, target_type, key: str):
    try:
        if target_type is not bool:
            value = target_type(raw)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(raw)
            return value
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ValueError(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r}") from exc


def _apply_section(obj, section: str, items: dict[str, str]):
    by_name = {f.name: f for f in fields(obj)}
    updates = {}
    for key, raw in items.items():
        if key not in by_name:
            raise ConfigError(f"unknown key [{section}] {key}")
        if (section, key) in _DERIVED_SEEDS:
            raise ConfigError(f"[{section}] {key} follows [experiment] seed; set that instead")
        # annotations are strings under `from __future__ import annotations`
        target = _FIELD_TYPES.get(by_name[key].type)
        if target is None:
            raise ConfigError(f"key [{section}] {key} cannot be set from a config file")
        updates[key] = _coerce(raw, target, f"[{section}] {key}")
    try:
        return replace(obj, **updates)
    except ValueError as exc:
        raise ConfigError(f"invalid [{section}] values: {exc}") from exc


def load_config(path: str | None, overrides: dict[str, object] | None = None) -> ExperimentConfig:
    """Build an ExperimentConfig from an optional INI-style file plus
    programmatic overrides (flags beat file values)."""
    cfg = ExperimentConfig()
    if path is not None:
        parser = configparser.ConfigParser()
        read = parser.read(path)
        if not read:
            raise ConfigError(f"cannot read config file {path!r}")
        for section in parser.sections():
            items = dict(parser.items(section))
            if section == "experiment":
                cfg = _apply_section(cfg, section, items)
            elif section in _SECTIONS:
                cfg = replace(cfg, **{section: _apply_section(getattr(cfg, section), section, items)})
            else:
                raise ConfigError(f"unknown config section [{section}]")
    if overrides:
        cfg = replace(cfg, **overrides)
    if cfg.seed < 0:  # numpy's seeding would fail later on with a bare message
        raise ConfigError(f"invalid [experiment] values: seed must be >= 0, got {cfg.seed}")
    # one master seed drives every stage; _apply_section rejects per-stage seeds
    cfg = replace(
        cfg,
        sim=replace(cfg.sim, rng_seed=cfg.seed),
        train=replace(cfg.train, rng_seed=cfg.seed),
        federation=replace(cfg.federation, init_seed=cfg.seed),
    )
    for key, known in (("cells", ALL_CELLS), ("splits", ALL_SPLITS)):
        names = getattr(cfg, key)
        if not names or not set(names) <= set(known):
            raise ConfigError(f"invalid [experiment] values: {key} must name one or more "
                              f"of {','.join(known)}, got {','.join(names)!r}")
    sim = cfg.sim
    if sim.partition_mode == "non-iid-by-device" and sim.n_clients != sim.n_devices:
        raise ConfigError(f"invalid [sim] values: non-iid-by-device needs n_clients == "
                          f"n_devices, got {sim.n_clients} and {sim.n_devices}")
    if sim.n_traces < sim.n_clients:
        raise ConfigError(f"invalid [sim] values: n_traces ({sim.n_traces}) < "
                          f"n_clients ({sim.n_clients})")
    if cfg.features.window_len > (samples := round(sim.duration_s * sim.sample_rate_hz)):
        raise ConfigError(f"invalid [features] values: window_len ({cfg.features.window_len}) "
                          f"> samples per trace ({samples})")
    return cfg


def config_hash(cfg: ExperimentConfig) -> str:
    """Stable digest of the fully resolved configuration."""
    lines = [f"seed={cfg.seed}", f"cells={','.join(cfg.cells)}", f"splits={','.join(cfg.splits)}"]
    for section in _SECTIONS:
        sub = getattr(cfg, section)
        for f in fields(sub):
            lines.append(f"{section}.{f.name}={getattr(sub, f.name)!r}")
    digest = hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()
    return digest[:16]
