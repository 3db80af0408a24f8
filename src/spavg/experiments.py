"""Experiment drivers behind the command line: the strong-convergence study,
the four diagnostics suites, the condition checks, and their CSV emitters.

All drivers are deterministic functions of (config, master_seed): replica r
always uses stream id r, suites consume streams in a fixed order, and the
CSV emitters format numbers with repr, so identical inputs produce identical
bytes except for the wall-clock column, which is explicitly excluded from
the reproducibility contract.
"""

from __future__ import annotations

import dataclasses
import math
import os
import time
from typing import Sequence

import numpy as np

from .averaging import (
    FrozenRunSpec,
    MemoizedFbar,
    OracleFbar,
    ergodicity_decay,
    estimate_fbar,
    oracle_fbar_ou,
)
from .blocks import BlockSchedule, build_auxiliary, deviation_statistic
from .conditions import CONDITION_IDS, ConditionReport, check_condition
from .config import ConfigError, ExperimentConfig
from .grid import Field, Grid1D, sine_mode, smallest_eigenvalue
from .integrators import (
    ModelSpec,
    NewtonDivergence,
    NumericalBlowUp,
    SchemeParams,
    simulate_averaged,
    simulate_coupled,
    strong_error,
)
from .operators import (
    CouplingSpec,
    FastOperatorSpec,
    SlowOperatorSpec,
    dissipativity_margin,
)
from .randomness import RngStream

__all__ = [
    "ConditionsResult",
    "ConvergenceResult",
    "ConvergenceRow",
    "DiagnosticsResult",
    "DiagnosticsRow",
    "FbarRunResult",
    "InsufficientPoints",
    "LogLogFit",
    "NonpositiveValue",
    "SuiteOutcome",
    "build_coupling",
    "build_fast",
    "build_grid",
    "build_model",
    "build_slow",
    "fit_loglog",
    "run_check_conditions",
    "run_convergence",
    "run_diagnostics",
    "run_fbar",
    "run_simulate",
    "scheme_params",
    "write_conditions_csv",
    "write_convergence_csv",
    "write_diagnostics_csv",
    "write_fbar_csv",
    "write_report",
    "write_suite_csvs",
    "write_trajectory_csv",
]


# ---------------------------------------------------------------- builders


def build_grid(config: ExperimentConfig) -> Grid1D:
    return Grid1D(config.n_interior)


def build_slow(config: ExperimentConfig) -> SlowOperatorSpec:
    try:
        return SlowOperatorSpec(
            config.slow_kind, p=config.p, c=config.c, viscosity=config.viscosity
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def build_fast(config: ExperimentConfig) -> FastOperatorSpec:
    try:
        b = config.b if config.fast_kind == "smooth_bounded" else 0.0
        return FastOperatorSpec(config.fast_kind, c_b=config.c_b, b=b)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _mode_field(grid: Grid1D, amplitude: float) -> Field:
    if amplitude == 0.0:
        return Field(grid, np.zeros(grid.n_interior))
    return sine_mode(grid, 1, amplitude)


def build_coupling(config: ExperimentConfig, grid: Grid1D) -> CouplingSpec:
    try:
        return CouplingSpec(
            f0=_mode_field(grid, config.f0_amplitude),
            c_fx=config.c_fx,
            c_fy=config.c_fy,
            g1_amplitude=config.g1_amplitude,
            g1_modes=config.g1_modes,
            g2_amplitude=config.g2_amplitude,
            g2_modes=config.g2_modes,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def build_model(config: ExperimentConfig, epsilon: float) -> ModelSpec:
    grid = build_grid(config)
    try:
        return ModelSpec(
            grid=grid,
            slow=build_slow(config),
            fast=build_fast(config),
            coupling=build_coupling(config, grid),
            epsilon=epsilon,
            x0=_mode_field(grid, config.x0_amplitude),
            y0=_mode_field(grid, config.y0_amplitude),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def scheme_params(config: ExperimentConfig) -> SchemeParams:
    target = config.dt_fast_target if config.dt_fast_target > 0.0 else None
    return SchemeParams(
        dt_macro=config.dt_macro, dt_fast_target=target, newton_tol=config.newton_tol
    )


def _fbar_provider(config: ExperimentConfig, model: ModelSpec):
    if config.fbar_source == "oracle":
        try:
            return OracleFbar(model.fast, model.coupling, model.grid)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    spec = FrozenRunSpec(n_replicas=config.fbar_replicas)
    # Stream ids far above the replica range keep estimator draws disjoint
    # from the trajectory noise.
    base = RngStream(config.master_seed, 1_000_000)
    return MemoizedFbar(model.fast, model.coupling, model.grid, spec, base)


# ---------------------------------------------------------------- fitting


class InsufficientPoints(ValueError):
    """Raised when a log-log fit gets fewer than three points."""


class NonpositiveValue(ValueError):
    """Raised when a log-log fit sees a value the log cannot take."""


@dataclasses.dataclass
class LogLogFit:
    slope: float
    intercept: float
    r_squared: float
    slope_stderr: float


def fit_loglog(xs: Sequence[float], ys: Sequence[float]) -> LogLogFit:
    """Least-squares line through (log x, log y); requires 3 positive points."""
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have the same length")
    if len(xs) < 3:
        raise InsufficientPoints(
            f"need at least 3 points for a log-log fit, got {len(xs)}"
        )
    if any(x <= 0.0 for x in xs) or any(y <= 0.0 for y in ys):
        raise NonpositiveValue("log-log fit requires strictly positive values")
    lx = np.log(np.asarray(xs, dtype=np.float64))
    ly = np.log(np.asarray(ys, dtype=np.float64))
    slope, intercept = np.polyfit(lx, ly, 1)
    fitted = slope * lx + intercept
    ss_res = float(np.sum((ly - fitted) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    dof = len(xs) - 2
    sx = float(np.sum((lx - lx.mean()) ** 2))
    slope_stderr = math.sqrt(ss_res / dof / sx) if dof > 0 and sx > 0 else 0.0
    return LogLogFit(float(slope), float(intercept), r_squared, slope_stderr)


def _mean_stderr(values: Sequence[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=np.float64)
    return float(arr.mean()), float(arr.std(ddof=1) / math.sqrt(arr.size))


# ---------------------------------------------------------------- convergence


@dataclasses.dataclass
class ConvergenceRow:
    epsilon: float
    delta: float
    error_mean: float
    error_stderr: float
    replicas: int
    wall_time_s: float
    failure: str | None = None

    @property
    def valid(self) -> bool:
        return self.failure is None


@dataclasses.dataclass
class ConvergenceResult:
    rows: list[ConvergenceRow]
    fit: LogLogFit | None
    degenerate: bool

    @property
    def any_failed(self) -> bool:
        return any(not row.valid for row in self.rows)

    @property
    def passed(self) -> bool:
        if self.any_failed:
            return False
        means = [row.error_mean for row in self.rows]
        if self.degenerate:
            return True
        decreasing = all(a > b for a, b in zip(means, means[1:]))
        if self.fit is None:
            # Grids too small to fit fall back to the trend check alone.
            return decreasing
        return decreasing and self.fit.slope > 0.15 and self.fit.r_squared >= 0.9

    def report_lines(self) -> list[str]:
        lines = []
        for row in self.rows:
            if not row.valid:
                lines.append(
                    f"epsilon={row.epsilon:g} INVALID after {row.replicas} replicas: "
                    f"{row.failure}"
                )
                continue
            lines.append(
                f"epsilon={row.epsilon:g} delta={row.delta:g} "
                f"error_mean={row.error_mean:.6e} stderr={row.error_stderr:.2e} "
                f"replicas={row.replicas}"
            )
        if self.degenerate:
            lines.append("fit skipped: degenerate (errors at solver precision)")
        elif self.fit is not None:
            lines.append(
                f"fit: slope={self.fit.slope:.4f} r_squared={self.fit.r_squared:.4f}"
            )
        else:
            lines.append("fit skipped: fewer than 3 valid rows")
        lines.append("overall: " + ("PASS" if self.passed else "FAIL"))
        return lines


def run_convergence(config: ExperimentConfig) -> ConvergenceResult:
    """Pathwise-coupled strong error of the averaged equation per epsilon.

    Epsilons are processed in descending order; replica r reuses stream id r
    across epsilons, which correlates rows and sharpens the monotonicity
    comparison without biasing any single row. A Newton breakdown or a
    blow-up at one epsilon invalidates that row but the remaining epsilons
    still run.
    """
    params = scheme_params(config)
    epsilons = sorted(config.epsilon_grid, reverse=True)
    rows: list[ConvergenceRow] = []
    for epsilon in epsilons:
        started = time.perf_counter()
        model = build_model(config, epsilon)
        provider = _fbar_provider(config, model)
        errors: list[float] = []
        failure = None
        for r in range(config.replicas):
            stream = RngStream(config.master_seed, r)
            try:
                trajectory, path, _ = simulate_coupled(model, config.T, params, stream)
                assert path is not None
                averaged = simulate_averaged(model, provider, config.T, params, path)
            except (NewtonDivergence, NumericalBlowUp) as exc:
                failure = str(exc)
                break
            errors.append(
                strong_error(trajectory, averaged, model.grid, model.state_norm)
            )
        if failure is not None:
            rows.append(
                ConvergenceRow(
                    epsilon=epsilon,
                    delta=config.delta_for(epsilon),
                    error_mean=float("nan"),
                    error_stderr=float("nan"),
                    replicas=len(errors),
                    wall_time_s=time.perf_counter() - started,
                    failure=failure,
                )
            )
            continue
        mean, stderr = _mean_stderr(errors)
        rows.append(
            ConvergenceRow(
                epsilon=epsilon,
                delta=config.delta_for(epsilon),
                error_mean=mean,
                error_stderr=stderr,
                replicas=config.replicas,
                wall_time_s=time.perf_counter() - started,
            )
        )
    valid = [row for row in rows if row.valid]
    means = [row.error_mean for row in valid]
    degenerate = bool(means) and (max(means) <= 1e-12 or min(means) <= 0.0)
    fit = None
    if not degenerate and len(valid) >= 3:
        fit = fit_loglog([row.epsilon for row in valid], means)
    return ConvergenceResult(rows, fit, degenerate)


# ---------------------------------------------------------------- diagnostics


@dataclasses.dataclass
class DiagnosticsRow:
    suite: str
    param: str
    value_mean: float
    value_stderr: float
    replicas: int


@dataclasses.dataclass
class SuiteOutcome:
    name: str
    passed: bool
    detail: str


@dataclasses.dataclass
class DiagnosticsResult:
    rows: list[DiagnosticsRow]
    outcomes: list[SuiteOutcome]

    @property
    def passed(self) -> bool:
        return all(outcome.passed for outcome in self.outcomes)

    def report_lines(self) -> list[str]:
        lines = [
            f"{o.name}: {o.detail} ({'PASS' if o.passed else 'FAIL'})"
            for o in self.outcomes
        ]
        lines.append("overall: " + ("PASS" if self.passed else "FAIL"))
        return lines


def _delta_grid(config: ExperimentConfig) -> list[float]:
    return [config.T * 2.0**-k for k in range(3, 8)]


def _delta_fixed(config: ExperimentConfig) -> float:
    return config.T * 2.0**-5


def run_diagnostics(config: ExperimentConfig) -> DiagnosticsResult:
    """Moment uniformity, increment scaling, auxiliary deviation, decay rates.

    The moment and fixed-block deviation statistics are collected for every
    epsilon in the grid; the delta-resolved scaling statistics run at
    diag_epsilon only, since block length is a post-processing parameter for
    the slow increments but requires one auxiliary replay per (delta,
    replica) for the deviations.
    """
    params = scheme_params(config)
    grid = build_grid(config)
    rows: list[DiagnosticsRow] = []
    outcomes: list[SuiteOutcome] = []
    delta_grid = _delta_grid(config)
    delta_fixed = _delta_fixed(config)
    try:
        fixed_schedule = BlockSchedule(delta_fixed, config.dt_macro)
        grid_schedules = [BlockSchedule(d, config.dt_macro) for d in delta_grid]
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if any(s.steps_per_block < 2 for s in grid_schedules):
        # One macro step per block replays the recorded path bit for bit and
        # the deviation statistic collapses to zero, which the log fit
        # cannot take.
        raise ConfigError(
            "dt_macro too coarse for the deviation suite: the finest block "
            f"length {min(delta_grid)!r} must cover at least 2 macro steps"
        )

    epsilons = sorted(set(config.epsilon_grid) | {config.diag_epsilon}, reverse=True)
    sup_by_eps: dict[float, tuple[float, float]] = {}
    dev_fixed_by_eps: dict[float, tuple[float, float]] = {}
    inc_by_delta: dict[float, tuple[float, float]] = {}
    dev_by_delta: dict[float, tuple[float, float]] = {}

    for epsilon in epsilons:
        model = build_model(config, epsilon)
        sup_list: list[float] = []
        dev_fixed: list[float] = []
        inc_lists: dict[float, list[float]] = {d: [] for d in delta_grid}
        dev_lists: dict[float, list[float]] = {d: [] for d in delta_grid}
        at_diag = epsilon == config.diag_epsilon
        in_grid = epsilon in config.epsilon_grid
        for r in range(config.replicas):
            stream = RngStream(config.master_seed, r)
            trajectory, path, stats = simulate_coupled(model, config.T, params, stream)
            assert path is not None
            if in_grid:
                sup_list.append(stats.sup_norm_x_sq)
                aux = build_auxiliary(model, trajectory, path, fixed_schedule, params)
                dev_fixed.append(deviation_statistic(trajectory, aux, grid))
            if at_diag:
                for delta, schedule in zip(delta_grid, grid_schedules):
                    inc_lists[delta].append(stats.increment_integral(delta))
                    aux = build_auxiliary(model, trajectory, path, schedule, params)
                    dev_lists[delta].append(deviation_statistic(trajectory, aux, grid))
        if in_grid:
            sup_by_eps[epsilon] = _mean_stderr(sup_list)
            dev_fixed_by_eps[epsilon] = _mean_stderr(dev_fixed)
        if at_diag:
            for delta in delta_grid:
                inc_by_delta[delta] = _mean_stderr(inc_lists[delta])
                dev_by_delta[delta] = _mean_stderr(dev_lists[delta])

    n_rep = config.replicas

    # Suite 1: uniform-in-epsilon second moments of the slow path supremum.
    for epsilon in sorted(sup_by_eps, reverse=True):
        mean, stderr = sup_by_eps[epsilon]
        rows.append(DiagnosticsRow("moment_uniformity", f"epsilon={epsilon!r}", mean, stderr, n_rep))
    sup_means = [sup_by_eps[e][0] for e in sup_by_eps]
    moment_ratio = max(sup_means) / min(sup_means)
    rows.append(DiagnosticsRow("moment_uniformity", "max_over_min", moment_ratio, 0.0, n_rep))
    outcomes.append(
        SuiteOutcome(
            "moment_uniformity",
            moment_ratio < 3.0,
            f"max/min of E sup ||X||^2 over epsilon = {moment_ratio:.3f} (threshold 3)",
        )
    )

    # Suite 2: block increments of the slow path, scaling in delta.
    for delta in delta_grid:
        mean, stderr = inc_by_delta[delta]
        rows.append(
            DiagnosticsRow(
                "increment_scaling",
                f"epsilon={config.diag_epsilon!r};delta={delta!r}",
                mean,
                stderr,
                n_rep,
            )
        )
    inc_fit = fit_loglog(delta_grid, [inc_by_delta[d][0] for d in delta_grid])
    rows.append(
        DiagnosticsRow("increment_scaling", "fit_slope", inc_fit.slope, inc_fit.slope_stderr, n_rep)
    )
    rows.append(DiagnosticsRow("increment_scaling", "fit_r_squared", inc_fit.r_squared, 0.0, n_rep))
    inc_pass = inc_fit.slope >= 0.5 - 2.0 * inc_fit.slope_stderr
    outcomes.append(
        SuiteOutcome(
            "increment_scaling",
            inc_pass,
            f"delta-slope of the increment integral = {inc_fit.slope:.3f} "
            f"+/- {inc_fit.slope_stderr:.3f} (threshold 0.5)",
        )
    )

    # Suite 3: deviation of the block-frozen auxiliary, scaling and uniformity.
    for delta in delta_grid:
        mean, stderr = dev_by_delta[delta]
        rows.append(
            DiagnosticsRow(
                "deviation_scaling",
                f"epsilon={config.diag_epsilon!r};delta={delta!r}",
                mean,
                stderr,
                n_rep,
            )
        )
    dev_fit = fit_loglog(delta_grid, [dev_by_delta[d][0] for d in delta_grid])
    rows.append(
        DiagnosticsRow("deviation_scaling", "fit_slope", dev_fit.slope, dev_fit.slope_stderr, n_rep)
    )
    rows.append(DiagnosticsRow("deviation_scaling", "fit_r_squared", dev_fit.r_squared, 0.0, n_rep))
    for epsilon in sorted(dev_fixed_by_eps, reverse=True):
        mean, stderr = dev_fixed_by_eps[epsilon]
        rows.append(
            DiagnosticsRow(
                "deviation_scaling",
                f"delta={delta_fixed!r};epsilon={epsilon!r}",
                mean,
                stderr,
                n_rep,
            )
        )
    dev_means = [dev_fixed_by_eps[e][0] for e in dev_fixed_by_eps]
    dev_ratio = max(dev_means) / min(dev_means)
    rows.append(DiagnosticsRow("deviation_scaling", "max_over_min", dev_ratio, 0.0, n_rep))
    dev_pass = dev_fit.slope >= 0.5 - 2.0 * dev_fit.slope_stderr and dev_ratio < 3.0
    outcomes.append(
        SuiteOutcome(
            "deviation_scaling",
            dev_pass,
            f"delta-slope of the auxiliary deviation = {dev_fit.slope:.3f} "
            f"+/- {dev_fit.slope_stderr:.3f} (threshold 0.5), "
            f"epsilon max/min at fixed delta = {dev_ratio:.3f} (threshold 3)",
        )
    )

    # Suite 4: pathwise contraction rate of every catalog fast operator with a
    # positive margin, against -0.9 * margin / 2.
    coupling = build_coupling(config, grid)
    fast_specs = [FastOperatorSpec("linear", c_b=config.c_b)]
    b_sb = config.b if config.b > 0.0 else 1.0
    fast_specs.append(FastOperatorSpec("smooth_bounded", c_b=config.c_b, b=b_sb))
    decay_pass = True
    details = []
    for index, fast in enumerate(fast_specs):
        margin = dissipativity_margin(fast, coupling, grid)
        if margin <= 0.0:
            details.append(f"{fast.kind}: skipped (margin {margin:.3f} <= 0)")
            continue
        fit = ergodicity_decay(
            fast,
            coupling,
            grid,
            x=_mode_field(grid, config.x0_amplitude),
            y0_a=_mode_field(grid, 0.0),
            y0_b=sine_mode(grid, 1, 1.0),
            horizon=50.0 / margin,
            dt_fast=0.02 / margin,
            stream=RngStream(config.master_seed, 500_000 + index),
        )
        rows.append(DiagnosticsRow("ergodicity_decay", f"{fast.kind}_slope", fit.slope, 0.0, 1))
        rows.append(
            DiagnosticsRow("ergodicity_decay", f"{fast.kind}_r_squared", fit.r_squared, 0.0, 1)
        )
        rows.append(
            DiagnosticsRow("ergodicity_decay", f"{fast.kind}_margin_half", margin / 2.0, 0.0, 1)
        )
        ok = fit.slope <= -0.9 * margin / 2.0 and fit.r_squared >= 0.98
        decay_pass = decay_pass and ok
        details.append(
            f"{fast.kind}: slope {fit.slope:.3f} vs -0.9*margin/2 = {-0.45 * margin:.3f}, "
            f"r^2 {fit.r_squared:.4f}"
        )
    outcomes.append(SuiteOutcome("ergodicity_decay", decay_pass, "; ".join(details)))

    return DiagnosticsResult(rows, outcomes)


# ---------------------------------------------------------------- conditions


@dataclasses.dataclass
class ConditionsResult:
    reports: list[ConditionReport]
    margin: float

    @property
    def passed(self) -> bool:
        return self.margin > 0.0 and all(r.violations == 0 for r in self.reports)


def run_check_conditions(config: ExperimentConfig) -> ConditionsResult:
    """All six structural checks plus the scalar margin for the configured model.

    Deliberately does not build a ModelSpec: a spec with a non-positive
    margin must be checkable (and reported as failing) rather than rejected
    up front.
    """
    grid = build_grid(config)
    slow = build_slow(config)
    fast = build_fast(config)
    coupling = build_coupling(config, grid)
    reports = []
    for index, condition in enumerate(CONDITION_IDS):
        stream = RngStream(config.master_seed, index)
        reports.append(
            check_condition(
                condition, slow, fast, coupling, grid, config.condition_samples, stream
            )
        )
    margin = dissipativity_margin(fast, coupling, grid)
    reports.append(
        ConditionReport(
            condition="dissipativity_margin",
            samples=1,
            violations=0 if margin > 0.0 else 1,
            worst_margin=margin,
            fitted_constants={
                "margin": margin,
                "lambda_1": smallest_eigenvalue(grid),
                "lipschitz_y": fast.lipschitz_y,
                "lipschitz_g2": coupling.lipschitz_g2,
            },
        )
    )
    return ConditionsResult(reports, margin)


# ---------------------------------------------------------------- fbar / simulate


@dataclasses.dataclass
class FbarRunResult:
    x: Field
    estimate_mean: Field
    estimate_stderr: Field
    oracle: Field | None
    n_replicas: int


def run_fbar(config: ExperimentConfig) -> FbarRunResult:
    grid = build_grid(config)
    fast = build_fast(config)
    coupling = build_coupling(config, grid)
    x = _mode_field(grid, config.x0_amplitude)
    spec = FrozenRunSpec(n_replicas=config.fbar_replicas)
    try:
        estimate = estimate_fbar(
            fast, coupling, grid, x, spec, RngStream(config.master_seed, 0)
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    oracle = (
        oracle_fbar_ou(fast, coupling, grid, x) if fast.kind == "linear" else None
    )
    return FbarRunResult(x, estimate.mean, estimate.stderr, oracle, estimate.n_replicas)


def run_simulate(config: ExperimentConfig, epsilon: float | None = None):
    eps = epsilon if epsilon is not None else config.epsilon_grid[0]
    if eps <= 0.0:
        raise ConfigError(f"epsilon must be positive, got {eps}")
    model = build_model(config, eps)
    trajectory, _, _ = simulate_coupled(
        model, config.T, scheme_params(config), RngStream(config.master_seed, 0)
    )
    return trajectory


# ---------------------------------------------------------------- CSV emitters


def _fmt(value: float | int) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def write_convergence_csv(result: ConvergenceResult, path: str) -> None:
    lines = ["epsilon,delta,error_mean,error_stderr,replicas,wall_time_s"]
    for row in result.rows:
        lines.append(
            ",".join(
                [
                    _fmt(row.epsilon),
                    _fmt(row.delta),
                    _fmt(row.error_mean),
                    _fmt(row.error_stderr),
                    str(row.replicas),
                    _fmt(row.wall_time_s),
                ]
            )
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _diagnostics_lines(rows: Sequence[DiagnosticsRow]) -> str:
    lines = ["suite,param,value_mean,value_stderr,replicas"]
    for row in rows:
        lines.append(
            ",".join(
                [row.suite, row.param, _fmt(row.value_mean), _fmt(row.value_stderr), str(row.replicas)]
            )
        )
    return "\n".join(lines) + "\n"


def write_diagnostics_csv(result: DiagnosticsResult, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_diagnostics_lines(result.rows))


def write_suite_csvs(result: DiagnosticsResult, out_dir: str) -> list[str]:
    """One CSV per diagnostics suite, named after the suite."""
    paths = []
    suites = []
    for row in result.rows:
        if row.suite not in suites:
            suites.append(row.suite)
    for suite in suites:
        path = os.path.join(out_dir, f"{suite}.csv")
        rows = [row for row in result.rows if row.suite == suite]
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(_diagnostics_lines(rows))
        paths.append(path)
    return paths


def write_report(lines: Sequence[str], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_conditions_csv(result: ConditionsResult, path: str) -> None:
    lines = ["condition,samples,violations,worst_margin,constants"]
    for report in result.reports:
        constants = ";".join(
            f"{name}={_fmt(value)}" for name, value in report.fitted_constants.items()
        )
        lines.append(
            ",".join(
                [
                    report.condition,
                    str(report.samples),
                    str(report.violations),
                    _fmt(report.worst_margin),
                    constants,
                ]
            )
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_fbar_csv(result: FbarRunResult, path: str) -> None:
    lines = ["node,x_value,fbar_mean,fbar_stderr,fbar_oracle"]
    oracle = result.oracle.values if result.oracle is not None else None
    for i in range(result.x.grid.n_interior):
        oracle_value = _fmt(oracle[i]) if oracle is not None else "nan"
        lines.append(
            ",".join(
                [
                    str(i + 1),
                    _fmt(result.x.values[i]),
                    _fmt(result.estimate_mean.values[i]),
                    _fmt(result.estimate_stderr.values[i]),
                    oracle_value,
                ]
            )
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_trajectory_csv(trajectory, path: str) -> None:
    n = trajectory.x.shape[1]
    header = (
        ["t"]
        + [f"x_{i}" for i in range(1, n + 1)]
        + [f"y_{i}" for i in range(1, n + 1)]
    )
    lines = [",".join(header)]
    for j, t in enumerate(trajectory.times):
        parts = [_fmt(t)]
        parts.extend(_fmt(v) for v in trajectory.x[j])
        parts.extend(_fmt(v) for v in trajectory.y[j])
        lines.append(",".join(parts))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
