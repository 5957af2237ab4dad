"""Run configuration: a single YAML tree with a versioned, strict schema.

The parameter dataclasses are the only declaration of the configuration:
the default tree is built from their defaults, a user tree is checked
against it (unknown keys are rejected, and each value must have its
default's type), and the domain objects are built back from the merged
tree.  A bare run needs no file at all.  The configuration hash covers
the parts that define the physics and the agent interface (system + env),
so a checkpoint can be matched against the system it was trained for.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path
from typing import Any

import yaml

from .devices import ChpParams, FuelPrice, GasUnitParams, RoCogenParams
from .env import MODES, OBSERVATION_MODES, RewardParams
from .learner import TrainConfig
from .scenario import ScenarioSpec
from .system import ExchangeLimits, SystemConfig, default_system_config
from .thermal import PipelineParams

CONFIG_VERSION = 1

# YAML names that differ from their dataclass field names, mostly by a unit
# suffix; every other field is its own YAML name.
_YAML_NAMES: dict[type, dict[str, str]] = {
    SystemConfig: {"limits": "exchange"},
    ExchangeLimits: {"p_max": "p_max_kw", "h_max": "h_max_kw"},
    FuelPrice: {"gas_price": "gas_price_per_m3", "hhv": "hhv_kwh_per_m3", "dt": "dt_h"},
    ChpParams: {"p_min": "p_min_kw", "p_max": "p_max_kw"},
    RoCogenParams: {
        "p_tp_min": "p_tp_min_kw",
        "p_tp_max": "p_tp_max_kw",
        "salinity": "salinity_mol_per_l",
        "w_max": "w_max_m3",
    },
    GasUnitParams: {"out_min": "out_min_kw", "out_max": "out_max_kw"},
    PipelineParams: {
        "c_water": "c_water_kj_per_kg_k",
        "thermal_resistance": "thermal_resistance_mk_per_w",
        "length": "length_m",
        "t_env": "t_env_c",
        "t_supply": "t_supply_c",
        "t_return": "t_return_c",
    },
}


class ConfigError(ValueError):
    """A configuration tree violates the published schema."""


def _yaml_name(obj: Any, field: str) -> str:
    return _YAML_NAMES.get(type(obj), {}).get(field, field)


def _to_tree(obj: Any) -> Any:
    """A dataclass (nested, possibly in tuples) as its YAML tree."""
    if is_dataclass(obj):
        return {_yaml_name(obj, f.name): _to_tree(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, tuple):
        return [_to_tree(item) for item in obj]
    return obj


def _from_tree(default: Any, tree: Any, path: str) -> Any:
    """Rebuild an object shaped like ``default`` from a checked tree,
    casting each leaf to its default's type."""
    if is_dataclass(default):
        values = {}
        for f in fields(default):
            name = _yaml_name(default, f.name)
            values[f.name] = _from_tree(getattr(default, f.name), tree[name], f"{path}.{name}")
        try:
            return type(default)(**values)
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    if isinstance(default, tuple):
        return tuple(_from_tree(d, t, f"{path}[{i}]") for i, (d, t) in enumerate(zip(default, tree)))
    return type(default)(tree)


def default_config_tree() -> dict:
    return {
        "version": CONFIG_VERSION,
        "mode": MODES[0],
        "seed": 0,  # kept so existing files stay valid; the train seed is train.seed
        "system": _to_tree(default_system_config()),
        "env": {"observation": OBSERVATION_MODES[0], "reward": _to_tree(RewardParams())},
        "train": _to_tree(TrainConfig()),
        "scenario": {"path": None, "generator": _to_tree(ScenarioSpec())},
    }


def _check_leaf(default: Any, value: Any, path: str) -> None:
    """A leaf takes its default's type; a float also takes an int, and a
    null default (a path) takes a string.  A float must be finite."""
    if default is None:
        allowed: tuple[type, ...] = (str, type(None))
    elif type(default) is float:
        allowed = (float, int)
    else:
        allowed = (type(default),)
    if type(value) not in allowed:
        names = " or ".join("null" if t is type(None) else t.__name__ for t in allowed)
        raise ConfigError(f"{path}: expected {names}, got {type(value).__name__} {value!r}")
    if type(value) is float and not math.isfinite(value):
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")


def _merge(default: Any, layers: list, path: str) -> Any:
    """Lay each tree of ``layers`` over ``default`` in turn, checking every
    key and leaf against the default tree."""
    where = path or "config"
    if isinstance(default, dict):
        for layer in layers:
            if not isinstance(layer, dict):
                raise ConfigError(f"{where}: expected a mapping")
            unknown = set(layer) - set(default)
            if unknown:
                raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
        return {
            key: _merge(value, [layer[key] for layer in layers if key in layer], f"{path}.{key}" if path else key)
            for key, value in default.items()
        }
    if isinstance(default, list):
        for layer in layers:
            if not isinstance(layer, list) or len(layer) != len(default):
                raise ConfigError(f"{where}: expected a list of {len(default)} entries")
        return [_merge(d, [layer[i] for layer in layers], f"{path}[{i}]") for i, d in enumerate(default)]
    for value in layers:
        _check_leaf(default, value, path)
    return layers[-1] if layers else default


@dataclass
class RunConfig:
    """Validated configuration plus the built domain objects."""

    tree: dict
    mode: str
    system: SystemConfig
    reward: RewardParams
    observation: str
    train: TrainConfig
    scenario_path: str | None
    generator: ScenarioSpec


def load_config(path: str | Path | None = None, overrides: dict | None = None) -> RunConfig:
    """Build a validated RunConfig from defaults, an optional file, and
    command-line overrides (applied last)."""
    layers = []
    if path is not None:
        with Path(path).open("r", encoding="utf-8") as fh:
            try:
                # libyaml's parser under PyYAML's resolver and constructor: the
                # same trees as ``safe_load``, parsed in C when the wheel has it.
                user_tree = yaml.load(fh, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
            except yaml.YAMLError as exc:
                raise ConfigError(f"{path}: not valid YAML: {exc}") from None
            except UnicodeDecodeError as exc:
                raise ConfigError(f"{path}: not valid UTF-8: {exc}") from None
        if user_tree is None:
            user_tree = {}
        if not isinstance(user_tree, dict):
            raise ConfigError(f"{path}: top level must be a mapping")
        layers.append(user_tree)
    if overrides:
        layers.append(overrides)
    tree = _merge(default_config_tree(), layers, "")

    if tree["version"] != CONFIG_VERSION:
        raise ConfigError(f"unsupported config version {tree['version']}, expected {CONFIG_VERSION}")
    if tree["mode"] not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {tree['mode']!r}")
    env_tree = tree["env"]
    if env_tree["observation"] not in OBSERVATION_MODES:
        raise ConfigError(
            f"env.observation must be one of {OBSERVATION_MODES}, got {env_tree['observation']!r}"
        )
    return RunConfig(
        tree=tree,
        mode=tree["mode"],
        system=_from_tree(default_system_config(), tree["system"], "system"),
        reward=_from_tree(RewardParams(), env_tree["reward"], "env.reward"),
        observation=env_tree["observation"],
        train=_from_tree(TrainConfig(), tree["train"], "train"),
        scenario_path=tree["scenario"]["path"],
        generator=_from_tree(ScenarioSpec(), tree["scenario"]["generator"], "scenario.generator"),
    )


def config_hash(run_cfg: RunConfig) -> str:
    """Hash of the physics- and interface-defining configuration."""
    payload = {"system": run_cfg.tree["system"], "env": run_cfg.tree["env"]}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
