"""Run configuration with file loading and dotted-key overrides.

Precedence: command-line flag > config file > default.
"""
from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any, Mapping, Optional

import yaml

from .io import SensorGeometry


@dataclass(frozen=True)
class RunConfig:
    width: int = 240
    height: int = 180
    # window cutting
    entropy_alpha: float = 2.5
    entropy_beta: float = 4.5
    entropy_grid: int = 8
    max_window_s: float = 0.1
    # hypothesis generation
    num_slices: int = 10
    max_pairs: int = 4096
    parallel_tol: float = 1e-3
    # fitting
    tau: float = 1.5  # inlier radius, px of the (u, v, t_norm) space
    min_inliers: int = 3
    # tracking / eval
    n_rep: int = 5

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError("geometry must be positive")
        if not 0 <= self.entropy_alpha <= self.entropy_beta:
            raise ValueError("need 0 <= alpha <= beta")
        if self.entropy_grid < 1:
            raise ValueError("entropy grid must be >= 1")
        if min(self.width, self.height) < self.entropy_grid:
            raise ValueError("geometry must be at least the entropy grid on each side")
        if not self.max_window_s > 0:
            raise ValueError("max_window_s must be positive")
        if self.num_slices < 2:
            raise ValueError("num_slices must be >= 2")
        if self.max_pairs < 1:
            raise ValueError("max_pairs must be >= 1")
        if not self.parallel_tol > 0:
            raise ValueError("parallel_tol must be positive")
        if not self.tau > 0:
            raise ValueError("tau must be positive")
        if self.min_inliers < 1:
            raise ValueError("min_inliers must be >= 1")
        if self.n_rep < 1:
            raise ValueError("n_rep must be >= 1")

    @property
    def geometry(self) -> SensorGeometry:
        return SensorGeometry(self.width, self.height)


# dotted external key -> dataclass field
KEY_MAP = {
    "geometry.width": "width",
    "geometry.height": "height",
    "entropy.alpha": "entropy_alpha",
    "entropy.beta": "entropy_beta",
    "entropy.grid": "entropy_grid",
    "entropy.max_window_s": "max_window_s",
    "hypo.num_slices": "num_slices",
    "hypo.max_pairs": "max_pairs",
    "hypo.parallel_tol": "parallel_tol",
    "fit.tau": "tau",
    "fit.min_inliers": "min_inliers",
    "eval.n_rep": "n_rep",
}

_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _coerce(key: str, name: str, value: Any) -> Any:
    """``value`` as field ``name``'s type. A bool is no number, and an integer
    field takes no non-integral number; neither is rounded."""
    kind = _FIELD_TYPES[name]
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ValueError(f"config key {key!r} needs a number, got {value!r}")
    if kind == "float":
        try:
            return float(value)
        except ValueError:
            raise ValueError(f"config key {key!r} needs a number, got {value!r}") from None
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"config key {key!r} needs an integer, got {value!r}")
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"config key {key!r} needs an integer, got {value!r}") from None


def _resolve_key(key: str) -> str:
    if key in KEY_MAP:
        return KEY_MAP[key]
    if key in _FIELD_TYPES:
        return key
    raise ValueError(f"unknown config key {key!r}")


def apply_overrides(config: RunConfig, overrides: Mapping[str, Any]) -> RunConfig:
    """Return a copy of ``config`` with dotted or field-name keys applied."""
    updates = {}
    for key, value in overrides.items():
        if value is None:
            continue
        name = _resolve_key(key)
        updates[name] = _coerce(key, name, value)
    return replace(config, **updates) if updates else config


def load_config(path: Optional[str] = None) -> RunConfig:
    """Defaults, then an optional YAML file; :func:`apply_overrides` puts flags on top."""
    if path is None:
        return RunConfig()
    with open(path, "r", encoding="utf-8") as fh:
        data = yaml.safe_load(fh) or {}
    if not isinstance(data, Mapping):
        raise ValueError("config file must hold a mapping")
    return apply_overrides(RunConfig(), data)
