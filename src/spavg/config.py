"""Flat key = value experiment configuration.

One assignment per line, # starts a comment, lists are comma separated.
Every key has a default, so an empty file (or no file) runs the reference
experiment: Burgers slow operator with a linear fast operator on 64 interior
nodes, horizon 1 at dt_macro = 1/512, 100 replicas. Unknown keys are
rejected rather than ignored so a typo cannot silently change an experiment.
"""

from __future__ import annotations

import dataclasses
import math

from .integrators import whole_steps
from .operators import FAST_KINDS, SLOW_KINDS


class ConfigError(Exception):
    """Bad configuration; the command line maps this to exit status 2."""


@dataclasses.dataclass
class ExperimentConfig:
    slow_kind: str = "burgers"
    viscosity: float = 1.0
    p: float = 3.0
    c: float = 1.0
    fast_kind: str = "linear"
    c_b: float = 1.0
    b: float = 0.0
    c_fx: float = 0.0
    c_fy: float = 1.0
    f0_amplitude: float = 0.0
    g1_amplitude: float = 0.5
    g1_modes: int = 8
    g2_amplitude: float = 0.5
    g2_modes: int = 8
    n_interior: int = 64
    epsilon_grid: tuple[float, ...] = (0.1, 0.05, 0.02, 0.01)
    replicas: int = 100
    T: float = 1.0
    dt_macro: float = 1.0 / 512.0
    dt_fast_target: float = 0.0
    newton_tol: float = 1e-10
    master_seed: int = 2026
    x0_amplitude: float = 0.5
    y0_amplitude: float = 0.0
    fbar_source: str = "oracle"
    fbar_replicas: int = 8
    condition_samples: int = 500
    diag_epsilon: float = 0.05
    output_dir: str = "out"

    def __post_init__(self) -> None:
        for name, kind in _FIELD_TYPES.items():
            if kind in ("float", "tuple[float, ...]"):
                value = getattr(self, name)
                if not all(map(math.isfinite, [value] if kind == "float" else value)):
                    raise ConfigError(f"{name} must be finite, got {value!r}")
        if self.slow_kind not in SLOW_KINDS:
            raise ConfigError(f"unknown slow_kind {self.slow_kind!r}")
        if self.fast_kind not in FAST_KINDS:
            raise ConfigError(f"unknown fast_kind {self.fast_kind!r}")
        if self.fbar_source not in ("oracle", "estimator"):
            raise ConfigError(
                f"fbar_source must be 'oracle' or 'estimator', got {self.fbar_source!r}"
            )
        if not self.epsilon_grid or any(e <= 0.0 for e in self.epsilon_grid):
            raise ConfigError("epsilon_grid must be a non-empty list of positive values")
        if any(a <= b for a, b in zip(self.epsilon_grid, self.epsilon_grid[1:])):
            raise ConfigError("epsilon_grid must be strictly decreasing")
        for name in ("T", "dt_macro", "newton_tol", "diag_epsilon"):
            if getattr(self, name) <= 0.0:
                raise ConfigError(f"{name} must be positive")
        try:
            whole_steps(self.T, self.dt_macro, "horizon T")
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        for name in ("n_interior", "g1_modes", "g2_modes"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1")
        if self.condition_samples < 2:
            raise ConfigError("condition_samples must be at least 2")
        for name in ("replicas", "fbar_replicas"):
            if getattr(self, name) < 2:
                raise ConfigError(f"{name} must be at least 2 for spread estimates")
        if self.master_seed < 0:
            raise ConfigError("master_seed must be non-negative")
        if self.dt_fast_target < 0.0:
            raise ConfigError("dt_fast_target must be >= 0 (0 means automatic)")


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}


def _parse_value(key: str, raw: str):
    kind = _FIELD_TYPES[key]
    try:
        if kind == "str":
            return raw
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "tuple[float, ...]":
            parts = [part.strip() for part in raw.split(",") if part.strip()]
            return tuple(float(part) for part in parts)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r} ({exc})") from exc
    raise ConfigError(f"unhandled config field type for {key}: {kind}")


def parse_config_text(text: str) -> ExperimentConfig:
    values: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value, got {line.strip()!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = _parse_value(key, raw)
    return ExperimentConfig(**values)


def load_config(path: str | None) -> ExperimentConfig:
    if path is None:
        return ExperimentConfig()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config_text(text)
