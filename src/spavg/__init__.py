"""Slow-fast stochastic PDE averaging on a 1d Dirichlet grid.

The package splits into grid primitives (grid), operator catalogs
(operators), time stepping with noise capture (integrators), block-frozen
auxiliary machinery (blocks), invariant-measure averaging (averaging),
structural condition checks (conditions), and experiment drivers behind the
spavg command line (experiments, cli).

The package root exports the production entry points, the names the
README's "Library use" example imports from it; every other public name
comes from its own module.
"""

from .averaging import OracleFbar
from .config import ExperimentConfig
from .integrators import epsilon_grid_errors, simulate_coupled, simulate_epsilon_grid
from .randomness import RngStream

__version__ = "0.1.0"

__all__ = [
    "ExperimentConfig",
    "OracleFbar",
    "RngStream",
    "epsilon_grid_errors",
    "simulate_coupled",
    "simulate_epsilon_grid",
    "__version__",
]
