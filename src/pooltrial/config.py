"""YAML configuration parsing with paper-matched defaults.

Schema (every section optional, defaults shown; a section is a mapping, or
absent or null for all its defaults):

    trial:
      n_users: 100
      horizon_T: 50
      state_dim: 2
      master_seed: 0
    policy:
      kind: boltzmann          # boltzmann | mirror_descent | constant_uniform
      rho: 1.0
      pi_min: 0.1
      eta: null                # scalar or per-time list, mirror_descent only
    env:
      kappa0: 0.0
      kappa1: 1.0
      kappa2: 0.0
      gamma: 0.95
      error_corr_base: 0.5
    grid:                      # only consumed by the mc subcommand; each
      kappa1: [1.0, 5.0]       # axis a non-empty list of distinct values,
      rho: [0.5, 1.0, 5.0]     # one left out (or the whole section) is the
      n_users: [50, 100, 500]  # config's value; rho varies only for boltzmann

``load_config`` also resolves bundled preset names (currently
``paper_table1``) to their packaged files.
"""

from __future__ import annotations

import json
import os
from dataclasses import fields
from importlib import resources
from numbers import Integral

import yaml

from .core import EnvConfig, TrialConfig
from .errors import ConfigError, real_number
from .policies import PolicySpec

# The integer TrialConfig fields and their YAML defaults; policy and env
# sections hold the fields of PolicySpec and EnvConfig.
_TRIAL_DEFAULTS = {"n_users": 100, "horizon_T": 50, "state_dim": 2, "master_seed": 0}
_GRID_KEYS = {"kappa1", "rho", "n_users"}

PRESETS = ("paper_table1",)


def _field_names(cls) -> set:
    return {f.name for f in fields(cls)}


def _mapping(section, allowed: set, name: str) -> dict:
    """``section`` as a mapping of ``allowed`` keys; None (absent, null) is {}."""
    if section is None:
        return {}
    if not isinstance(section, dict):
        raise ConfigError(f"config {name} must be a mapping")
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in '{name}' section: {sorted(unknown)}")
    return section


def _integer(value, name: str) -> int:
    """An integral value (20 or 20.0) as an int; anything else is a ConfigError."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _grid_axis(grid: dict, key: str, default, convert) -> list:
    values = grid.get(key, [default])
    if not isinstance(values, list) or not values:
        raise ConfigError(f"grid {key} must be a non-empty list, got {values!r}")
    return [convert(v, f"grid {key}") for v in values]


def resolve_config_path(path_or_preset: str) -> str:
    if path_or_preset in PRESETS:
        ref = resources.files("pooltrial") / "presets" / f"{path_or_preset}.yaml"
        return str(ref)
    if not os.path.exists(path_or_preset):
        raise ConfigError(f"config file not found: {path_or_preset}")
    return path_or_preset


def parse_config(raw: dict):
    """Build (TrialConfig, grid) from a parsed YAML mapping."""
    _mapping(raw, {"trial", "policy", "env", "grid"}, "root")
    trial = _mapping(raw.get("trial"), set(_TRIAL_DEFAULTS), "trial")
    policy = _mapping(raw.get("policy"), _field_names(PolicySpec), "policy")
    env = _mapping(raw.get("env"), _field_names(EnvConfig), "env")

    try:
        spec = PolicySpec(**policy)
        env_cfg = EnvConfig(**env)
        config = TrialConfig(
            **{k: _integer(v, k) for k, v in {**_TRIAL_DEFAULTS, **trial}.items()},
            policy=spec,
            env=env_cfg,
        )
    except TypeError as err:
        raise ConfigError(str(err)) from err

    grid = _mapping(raw.get("grid"), _GRID_KEYS, "grid")
    grid = {
        "kappa1": _grid_axis(grid, "kappa1", config.env.kappa1, real_number),
        "rho": _grid_axis(grid, "rho", config.policy.rho, real_number),
        "n_users": _grid_axis(grid, "n_users", config.n_users, _integer),
    }
    for key, values in grid.items():
        if len(set(values)) < len(values):
            raise ConfigError(f"grid {key} repeats a value: {values!r}")
    if len(grid["rho"]) > 1 and config.policy.kind != "boltzmann":
        raise ConfigError(f"grid rho varies, but {config.policy.kind} has no rho")
    return config, grid


def load_config(path_or_preset: str):
    """Read and validate a config file; returns (TrialConfig, grid, raw dict)."""
    path = resolve_config_path(path_or_preset)
    try:
        with open(path) as f:
            raw = yaml.safe_load(f)
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    except yaml.YAMLError as err:
        raise ConfigError(f"malformed config {path}: {err}") from err
    if raw is None:  # an empty file
        raw = {}
    config, grid = parse_config(raw)
    return config, grid, raw


def manifest_config(directory: str) -> TrialConfig:
    """The config recorded in ``directory``'s manifest.json."""
    path = os.path.join(directory, "manifest.json")
    try:
        with open(path) as f:
            manifest = json.load(f)
    except (OSError, ValueError) as err:  # ValueError: not JSON, or not UTF-8
        raise ConfigError(f"cannot read manifest {path}: {err}") from err
    if not isinstance(manifest, dict) or "config" not in manifest:
        raise ConfigError(f"manifest {path} records no config")
    config, _ = parse_config(manifest["config"])
    return config


def config_to_raw(config: TrialConfig) -> dict:
    """Round-trippable mapping mirroring the file schema."""
    policy = {f.name: getattr(config.policy, f.name) for f in fields(PolicySpec)}
    if policy["eta"] is not None:
        policy["eta"] = list(policy["eta"])
    return {
        "trial": {name: getattr(config, name) for name in _TRIAL_DEFAULTS},
        "policy": policy,
        "env": {f.name: getattr(config.env, f.name) for f in fields(EnvConfig)},
    }
