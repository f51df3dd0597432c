"""Experiment configuration: plain-text sectioned key=value files, flag
overrides, and a stable hash for output manifests."""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass, fields, replace

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
    cells: tuple[str, ...] = ("clfl", "per_device", "per_model", "cross_model")
    splits: tuple[str, ...] = ("iid", "trace")
    sim: SimConfig = SimConfig()
    fusion: FusionConfig = FusionConfig()
    features: FeatureConfig = FeatureConfig()
    train: TrainConfig = TrainConfig()
    federation: FederationConfig = FederationConfig()


_SECTION_TYPES = {
    "sim": SimConfig,
    "fusion": FusionConfig,
    "features": FeatureConfig,
    "train": TrainConfig,
    "federation": FederationConfig,
}

_EXPERIMENT_KEYS = ("seed", "out_dir", "dataset_file", "cells", "splits")


def _coerce(raw: str, target_type, key: str):
    try:
        if target_type is bool:
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        if target_type is int:
            return int(raw)
        if target_type is float:
            return float(raw)
        if target_type is str:
            return raw
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r}") from exc
    raise ConfigError(f"key {key} cannot be set from a config file")


def _apply_section(obj, section: str, items: dict[str, str]):
    by_name = {f.name: f for f in fields(obj)}
    updates = {}
    for key, raw in items.items():
        if key not in by_name:
            raise ConfigError(f"unknown key [{section}] {key}")
        ftype = by_name[key].type
        target = {"int": int, "float": float, "bool": bool, "str": str}.get(
            str(ftype).replace("<class '", "").replace("'>", ""), None
        )
        if target is None:
            # fall back on the default value's runtime type
            target = type(getattr(obj, key))
            if target not in (int, float, bool, str):
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
                updates = {}
                for key, raw in items.items():
                    if key not in _EXPERIMENT_KEYS:
                        raise ConfigError(f"unknown key [experiment] {key}")
                    if key in ("cells", "splits"):
                        updates[key] = tuple(v.strip() for v in raw.split(",") if v.strip())
                    elif key == "seed":
                        updates[key] = _coerce(raw, int, "[experiment] seed")
                    else:
                        updates[key] = raw
                cfg = replace(cfg, **updates)
            elif section in _SECTION_TYPES:
                cfg = replace(cfg, **{section: _apply_section(getattr(cfg, section), section, items)})
            else:
                raise ConfigError(f"unknown config section [{section}]")
    if overrides:
        cfg = replace(cfg, **overrides)
    # one master seed drives every stage unless the file pinned them apart
    cfg = replace(
        cfg,
        sim=replace(cfg.sim, rng_seed=cfg.seed),
        train=replace(cfg.train, rng_seed=cfg.seed),
        federation=replace(cfg.federation, init_seed=cfg.seed),
    )
    for cell in cfg.cells:
        if cell not in ("clfl", "per_device", "per_model", "cross_model"):
            raise ConfigError(f"unknown experiment cell {cell!r}")
    for split in cfg.splits:
        if split not in ("iid", "trace"):
            raise ConfigError(f"unknown split {split!r}")
    return cfg


def config_hash(cfg: ExperimentConfig) -> str:
    """Stable digest of the fully resolved configuration."""
    lines = [f"seed={cfg.seed}", f"cells={','.join(cfg.cells)}", f"splits={','.join(cfg.splits)}"]
    for section, sub in (
        ("sim", cfg.sim),
        ("fusion", cfg.fusion),
        ("features", cfg.features),
        ("train", cfg.train),
        ("federation", cfg.federation),
    ):
        for f in fields(sub):
            lines.append(f"{section}.{f.name}={getattr(sub, f.name)!r}")
    digest = hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()
    return digest[:16]
