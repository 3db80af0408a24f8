"""Slow-fast stochastic PDE averaging on a 1d Dirichlet grid.

The package splits into grid primitives (grid), operator catalogs
(operators), time stepping with noise capture (integrators), block-frozen
auxiliary machinery (blocks), invariant-measure averaging (averaging),
structural condition checks (conditions), and experiment drivers behind the
spavg command line (experiments, cli).

The package root exports the entry points of the README's "Library use"
example; every other public name comes from its own module.
"""

from .averaging import OracleFbar
from .blocks import build_auxiliary
from .config import ExperimentConfig
from .integrators import (
    TrajectoryStats,
    epsilon_grid_errors,
    simulate_averaged,
    simulate_coupled,
    simulate_epsilon_grid,
    strong_error,
)
from .randomness import RngStream

__version__ = "0.1.0"

__all__ = [
    "ExperimentConfig",
    "OracleFbar",
    "RngStream",
    "TrajectoryStats",
    "build_auxiliary",
    "epsilon_grid_errors",
    "simulate_averaged",
    "simulate_coupled",
    "simulate_epsilon_grid",
    "strong_error",
    "__version__",
]
