"""Slow-fast stochastic PDE averaging on a 1d Dirichlet grid.

The package splits into grid primitives (grid), operator catalogs
(operators), time stepping with noise capture (integrators), block-frozen
auxiliary machinery (blocks), invariant-measure averaging (averaging),
structural condition checks (conditions), and experiment drivers behind the
spavg command line (experiments, cli).
"""

from .averaging import (
    FbarEstimate,
    MemoizedFbar,
    OracleFbar,
    ergodicity_decay,
    estimate_fbar,
)
from .blocks import build_auxiliary, deviation_statistic
from .conditions import CONDITION_IDS, ConditionReport, check_condition, sample_field
from .config import ConfigError, ExperimentConfig, load_config, parse_config_text
from .grid import (
    H1_0,
    H_MINUS1,
    L2,
    Field,
    Grid1D,
    NormKind,
    lp_norm_kind,
    norm,
    norm_values,
    row_norms,
    sine_basis,
    sine_mode,
    smallest_eigenvalue,
    solve_neg_laplacian,
    zeros,
)
from .integrators import (
    ModelSpec,
    NewtonDivergence,
    NoisePath,
    NumericalBlowUp,
    SchemeParams,
    SlowTrajectory,
    Trajectory,
    TrajectoryStats,
    epsilon_grid_errors,
    simulate_averaged,
    simulate_coupled,
    simulate_epsilon_grid,
    strong_error,
)
from .operators import (
    CouplingSpec,
    FastOperatorSpec,
    SlowOperatorSpec,
    burgers_convection,
    coupling_f,
    dissipativity_margin,
    fast_drift,
    slow_drift,
)
from .randomness import RngStream

__version__ = "0.1.0"

__all__ = [
    "CONDITION_IDS",
    "ConditionReport",
    "ConfigError",
    "CouplingSpec",
    "ExperimentConfig",
    "FastOperatorSpec",
    "FbarEstimate",
    "Field",
    "Grid1D",
    "H1_0",
    "H_MINUS1",
    "L2",
    "MemoizedFbar",
    "ModelSpec",
    "NewtonDivergence",
    "NoisePath",
    "NumericalBlowUp",
    "NormKind",
    "OracleFbar",
    "RngStream",
    "SchemeParams",
    "SlowOperatorSpec",
    "SlowTrajectory",
    "Trajectory",
    "TrajectoryStats",
    "build_auxiliary",
    "burgers_convection",
    "check_condition",
    "coupling_f",
    "deviation_statistic",
    "dissipativity_margin",
    "epsilon_grid_errors",
    "ergodicity_decay",
    "estimate_fbar",
    "fast_drift",
    "load_config",
    "lp_norm_kind",
    "norm",
    "norm_values",
    "parse_config_text",
    "row_norms",
    "sample_field",
    "simulate_averaged",
    "simulate_coupled",
    "simulate_epsilon_grid",
    "sine_basis",
    "sine_mode",
    "slow_drift",
    "smallest_eigenvalue",
    "solve_neg_laplacian",
    "strong_error",
    "zeros",
    "__version__",
]
