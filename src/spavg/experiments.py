"""Experiment drivers behind the command line: the strong-convergence study,
the four diagnostics suites, the condition checks, and their CSV emitters.

All drivers are deterministic functions of (config, master_seed). Random
streams are keyed by stream id:

- converge and diagnose: replica r drives its coupled run with stream id r
  at every epsilon.
- converge with fbar_source = estimator: replica r's estimator starts at
  stream id ESTIMATOR_STREAMS * (r + 1) and takes fbar_replicas ids per
  refresh of replica r. A batch shares one MemoizedFbar, in which column r
  keeps replica r's streams, cache and refresh count; the refreshes due at
  one macro step run as one frozen run without changing any stream id.
  Replica r's strong error thus depends on (config, master_seed, r) only,
  not on which replicas ran before it or beside it. The ranges stay
  disjoint while replicas and refreshes * fbar_replicas both stay below
  ESTIMATOR_STREAMS.
- diagnose: the decay fit of catalog fast operator i uses 500_000 + i.
- check: condition i uses stream id i.
- fbar and simulate: stream id 0 (estimator replica j of fbar uses id j).

Every CSV cell is written by one rule (text as it is, integers with str,
floats with repr), so identical inputs produce identical bytes except for
the wall-clock column, which is explicitly excluded from the
reproducibility contract.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import os
import time
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

from .averaging import MemoizedFbar, OracleFbar, ergodicity_decay, estimate_fbar
from .blocks import build_auxiliary, deviation_statistic
from .conditions import CONDITION_IDS, ConditionReport, check_condition
from .config import ConfigError, ExperimentConfig
from .grid import Field, Grid1D, sine_mode, smallest_eigenvalue
from .integrators import (
    ModelSpec,
    NewtonDivergence,
    NumericalBlowUp,
    SchemeParams,
    TrajectoryStats,
    simulate_averaged,  # noqa: F401  (perfbench/tracing.py wraps it here by name)
    simulate_coupled,
    strong_error,
    whole_steps,
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
    "LineFit",
    "NonpositiveValue",
    "SuiteOutcome",
    "build_model",
    "build_specs",
    "fit_line",
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

# First estimator stream id of replica 0; replica r starts at (r + 1) times it.
ESTIMATOR_STREAMS = 1_000_000

# Most replicas converge and diagnose advance as the columns of one batch,
# which bounds the memory the recorded fast noise of a batch takes.
REPLICA_CHUNK = 16


# ---------------------------------------------------------------- builders


@contextlib.contextmanager
def _config_errors():
    """A ValueError from a spec built out of config values is a ConfigError."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def build_specs(
    config: ExperimentConfig,
) -> tuple[Grid1D, SlowOperatorSpec, FastOperatorSpec, CouplingSpec]:
    """Grid, slow and fast operators and coupling of a config.

    The sin amplitude b reaches the fast operator only for smooth_bounded.
    """
    b = config.b if config.fast_kind == "smooth_bounded" else 0.0
    with _config_errors():
        grid = Grid1D(config.n_interior)
        return (
            grid,
            SlowOperatorSpec(config.slow_kind, p=config.p, c=config.c, viscosity=config.viscosity),
            FastOperatorSpec(config.fast_kind, c_b=config.c_b, b=b),
            CouplingSpec(
                f0=sine_mode(grid, 1, config.f0_amplitude),
                c_fx=config.c_fx,
                c_fy=config.c_fy,
                g1_amplitude=config.g1_amplitude,
                g1_modes=config.g1_modes,
                g2_amplitude=config.g2_amplitude,
                g2_modes=config.g2_modes,
            ),
        )


def build_model(config: ExperimentConfig, epsilon: float) -> ModelSpec:
    grid, slow, fast, coupling = build_specs(config)
    with _config_errors():
        return ModelSpec(
            grid=grid,
            slow=slow,
            fast=fast,
            coupling=coupling,
            epsilon=epsilon,
            x0=sine_mode(grid, 1, config.x0_amplitude),
            y0=sine_mode(grid, 1, config.y0_amplitude),
        )


def scheme_params(config: ExperimentConfig) -> SchemeParams:
    return SchemeParams(
        dt_macro=config.dt_macro,
        dt_fast_target=config.dt_fast_target,
        newton_tol=config.newton_tol,
    )


# ---------------------------------------------------------------- fitting


class InsufficientPoints(ValueError):
    """Raised when a log-log fit gets fewer than three points."""


class NonpositiveValue(ValueError):
    """Raised when a log-log fit sees a value the log cannot take."""


@dataclasses.dataclass
class LineFit:
    slope: float
    intercept: float
    r_squared: float
    slope_stderr: float


def fit_line(xs: Sequence[float], ys: Sequence[float]) -> LineFit:
    """Least-squares line through (x, y), with its r^2 and slope standard error."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    dof = x.size - 2
    sx = float(np.sum((x - x.mean()) ** 2))
    slope_stderr = math.sqrt(ss_res / dof / sx) if dof > 0 and sx > 0 else 0.0
    return LineFit(float(slope), float(intercept), r_squared, slope_stderr)


def fit_loglog(xs: Sequence[float], ys: Sequence[float]) -> LineFit:
    """Least-squares line through (log x, log y); requires 3 positive points."""
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have the same length")
    if len(xs) < 3:
        raise InsufficientPoints(
            f"need at least 3 points for a log-log fit, got {len(xs)}"
        )
    if any(x <= 0.0 for x in xs) or any(y <= 0.0 for y in ys):
        raise NonpositiveValue("log-log fit requires strictly positive values")
    return fit_line(np.log(xs), np.log(ys))


def _mean_stderr(values: Sequence[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=np.float64)
    return float(arr.mean()), float(arr.std(ddof=1) / math.sqrt(arr.size))


_DEGENERATE = "degenerate (values at solver precision)"


def _degenerate(means: Sequence[float]) -> bool:
    """Means at solver precision (or zero), which no log fit or ratio can take.

    The one rule behind "degenerate" in converge and in every diagnostics
    suite: such a statistic is reported as degenerate and passes.
    """
    return bool(means) and (max(means) <= 1e-12 or min(means) <= 0.0)


_Result = TypeVar("_Result")


def _by_replica(
    replicas: Sequence[int], run: Callable[[Sequence[int]], list[_Result]]
) -> Iterator[_Result]:
    """Yield the result of each replica, running them in batches of at most REPLICA_CHUNK.

    run(batch) returns one result per replica of the batch, or raises
    NewtonDivergence or NumericalBlowUp. A batch that raises runs again one
    replica at a time: the results of the replicas below its lowest failing
    replica are yielded, then that replica's own error, the one it raises
    alone, propagates. A replica's bytes do not depend on its batch, so the
    rerun yields the results the batch would have.
    """
    for start in range(0, len(replicas), REPLICA_CHUNK):
        batch = replicas[start : start + REPLICA_CHUNK]
        try:
            results = run(batch)
        except (NewtonDivergence, NumericalBlowUp):
            results = (result for r in batch for result in run([r]))
        yield from results


# ---------------------------------------------------------------- convergence

# The delta column of convergence.csv is epsilon ** DELTA_EXPONENT, the block
# length scale of the averaging proof; it is reported for reference only.
DELTA_EXPONENT = 2.0 / 3.0


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
    fit: LineFit | None
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


def _chunk_errors(
    config: ExperimentConfig, model: ModelSpec, replicas: Sequence[int]
) -> tuple[list[float], str | None]:
    """Strong errors of the given replicas at model.epsilon, with the first failure.

    One run covers a batch: the averaged equation advances beside the
    coupled one on the same slow increments (simulate_coupled with fbar),
    so every Newton solve serves both. The averaged drift of a batch is the
    closed form or one estimator whose column r has replica r's own
    streams, trust-region cache and refresh count, so the result does not
    depend on which replicas ran before or beside it.
    The lowest failing replica, in the coupled run, the averaged run or its
    strong error, ends the list (see _by_replica): the errors of the
    replicas below it come back with its error, prefixed "replica r: ".
    A run fails at the earliest macro step at which either equation fails,
    the coupled one first at the same step (see integrators._slow_loop).
    """
    params = scheme_params(config)

    def batch_errors(batch: Sequence[int]) -> list[float]:
        with _config_errors():
            if config.fbar_source == "oracle":
                fbar = OracleFbar(model.fast, model.coupling, model.grid)
            else:
                fbar = MemoizedFbar(
                    model.fast,
                    model.coupling,
                    model.grid,
                    config.fbar_replicas,
                    [RngStream(config.master_seed, ESTIMATOR_STREAMS * (r + 1)) for r in batch],
                )
        streams = [RngStream(config.master_seed, r) for r in batch]
        coupled, _, averaged = simulate_coupled(model, config.T, params, streams, fbar)
        return [
            strong_error(coupled.replica(r), averaged.replica(r), model.grid, model.state_norm)
            for r in range(len(batch))
        ]

    errors: list[float] = []
    try:
        for error in _by_replica(replicas, batch_errors):
            errors.append(error)
    except (NewtonDivergence, NumericalBlowUp) as exc:
        return errors, f"replica {replicas[len(errors)]}: {exc}"
    return errors, None


def run_convergence(config: ExperimentConfig) -> ConvergenceResult:
    """Pathwise-coupled strong error of the averaged equation per epsilon.

    Epsilons are processed in descending order; replica r reuses stream id r
    across epsilons, which correlates rows and sharpens the monotonicity
    comparison without biasing any single row. Replicas run in batches of
    at most REPLICA_CHUNK. A Newton breakdown or a blow-up at one epsilon
    invalidates that row, reported for the lowest failing replica, but the
    remaining epsilons still run.
    """
    rows: list[ConvergenceRow] = []
    for epsilon in sorted(config.epsilon_grid, reverse=True):
        started = time.perf_counter()
        model = build_model(config, epsilon)
        errors, failure = _chunk_errors(config, model, range(config.replicas))
        mean, stderr = _mean_stderr(errors) if failure is None else (math.nan, math.nan)
        rows.append(
            ConvergenceRow(
                epsilon=epsilon,
                delta=epsilon**DELTA_EXPONENT,
                error_mean=mean,
                error_stderr=stderr,
                replicas=len(errors),
                wall_time_s=time.perf_counter() - started,
                failure=failure,
            )
        )
    valid = [row for row in rows if row.valid]
    means = [row.error_mean for row in valid]
    degenerate = _degenerate(means)
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


def _block_statistics(
    config: ExperimentConfig,
    model: ModelSpec,
    replicas: Sequence[int],
    deltas: Sequence[float],
    increments: bool,
) -> list[tuple[float, ...]]:
    """The statistics of one batch of replicas, one tuple per replica.

    A tuple holds sup ||x||^2, the auxiliary deviation of each delta and,
    if `increments`, the increment integral of each delta. One coupled run
    and one auxiliary replay cover the batch, whose arrays are freed on
    return, before the next batch or epsilon allocates its own.
    """
    streams = [RngStream(config.master_seed, r) for r in replicas]
    batch, path = simulate_coupled(model, config.T, scheme_params(config), streams)
    auxiliary = build_auxiliary(model, batch, path, deltas)
    statistics = []
    for r in range(len(streams)):
        trajectory = batch.replica(r)
        stats = TrajectoryStats(model.grid, model.state_norm, config.dt_macro, trajectory.x)
        deviations = [
            deviation_statistic(trajectory, auxiliary[:, d, r], model.grid)
            for d in range(len(deltas))
        ]
        integrals = [stats.increment_integral(delta) for delta in deltas] if increments else []
        statistics.append((stats.sup_norm_x_sq, *deviations, *integrals))
    return statistics


def run_diagnostics(config: ExperimentConfig) -> DiagnosticsResult:
    """Moment uniformity, increment scaling, auxiliary deviation, decay rates.

    The moment and fixed-block deviation statistics are collected for every
    epsilon in the grid; the delta-resolved scaling statistics run at
    diag_epsilon only, since block length is a post-processing parameter for
    the slow increments but requires an auxiliary replay per (delta,
    replica) for the deviations. Replicas run in batches of at most
    REPLICA_CHUNK, and one replay per batch covers each of its (replica,
    delta) pairs once: at diag_epsilon the fixed block length is one of the
    delta grid. The lowest failing replica raises its own error (see
    _by_replica).
    A ratio or fit whose means are degenerate (see _degenerate) is skipped,
    and its suite reports it as degenerate and passes.
    """
    grid, _, _, coupling = build_specs(config)
    delta_grid = [config.T * 2.0**-k for k in range(3, 8)]
    delta_fixed = delta_grid[2]
    with _config_errors():
        finest = min(whole_steps(delta, config.dt_macro, "delta") for delta in delta_grid)
    if finest < 2:
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
    for epsilon in epsilons:
        model = build_model(config, epsilon)
        at_diag = epsilon == config.diag_epsilon
        deltas = delta_grid if at_diag else [delta_fixed]
        statistics = _by_replica(
            range(config.replicas),
            lambda batch: _block_statistics(config, model, batch, deltas, at_diag),
        )
        sup, *columns = zip(*statistics)
        deviations = dict(zip(deltas, columns))
        integrals = dict(zip(deltas, columns[len(deltas) :]))
        if epsilon in config.epsilon_grid:
            sup_by_eps[epsilon] = _mean_stderr(sup)
            dev_fixed_by_eps[epsilon] = _mean_stderr(deviations[delta_fixed])
        if at_diag:
            inc_by_delta = {d: _mean_stderr(integrals[d]) for d in delta_grid}
            dev_by_delta = {d: _mean_stderr(deviations[d]) for d in delta_grid}

    rows: list[DiagnosticsRow] = []
    outcomes: list[SuiteOutcome] = []

    def row(suite: str, param: str, mean: float, stderr: float = 0.0, n: int = config.replicas):
        rows.append(DiagnosticsRow(suite, param, mean, stderr, n))

    def uniformity(
        suite: str, prefix: str, by_eps: dict[float, tuple[float, float]]
    ) -> tuple[bool, str]:
        """Rows per epsilon (descending), then the max/min ratio of their means."""
        for epsilon, (mean, stderr) in by_eps.items():
            row(suite, f"{prefix}epsilon={epsilon!r}", mean, stderr)
        means = [mean for mean, _ in by_eps.values()]
        if _degenerate(means):
            return True, _DEGENERATE
        ratio = max(means) / min(means)
        row(suite, "max_over_min", ratio)
        return ratio < 3.0, f"{ratio:.3f} (threshold 3)"

    def scaling_fit(suite: str, by_delta: dict[float, tuple[float, float]]) -> tuple[bool, str]:
        """Rows per delta at diag_epsilon, then the log-log fit against delta."""
        for delta in delta_grid:
            row(suite, f"epsilon={config.diag_epsilon!r};delta={delta!r}", *by_delta[delta])
        means = [by_delta[d][0] for d in delta_grid]
        if _degenerate(means):
            return True, _DEGENERATE
        fit = fit_loglog(delta_grid, means)
        row(suite, "fit_slope", fit.slope, fit.slope_stderr)
        row(suite, "fit_r_squared", fit.r_squared)
        passed = fit.slope >= 0.5 - 2.0 * fit.slope_stderr
        return passed, f"{fit.slope:.3f} +/- {fit.slope_stderr:.3f} (threshold 0.5)"

    # Suite 1: uniform-in-epsilon second moments of the slow path supremum.
    moment_pass, moment_detail = uniformity("moment_uniformity", "", sup_by_eps)
    outcomes.append(
        SuiteOutcome(
            "moment_uniformity",
            moment_pass,
            f"max/min of E sup ||X||^2 over epsilon = {moment_detail}",
        )
    )

    # Suite 2: block increments of the slow path, scaling in delta.
    inc_pass, inc_fit = scaling_fit("increment_scaling", inc_by_delta)
    outcomes.append(
        SuiteOutcome(
            "increment_scaling", inc_pass, f"delta-slope of the increment integral = {inc_fit}"
        )
    )

    # Suite 3: deviation of the block-frozen auxiliary, scaling and uniformity.
    dev_pass, dev_fit = scaling_fit("deviation_scaling", dev_by_delta)
    uniform_pass, uniform_detail = uniformity(
        "deviation_scaling", f"delta={delta_fixed!r};", dev_fixed_by_eps
    )
    outcomes.append(
        SuiteOutcome(
            "deviation_scaling",
            dev_pass and uniform_pass,
            f"delta-slope of the auxiliary deviation = {dev_fit}, "
            f"epsilon max/min at fixed delta = {uniform_detail}",
        )
    )

    # Suite 4: pathwise contraction rate of every catalog fast operator with a
    # positive margin, against -0.9 * margin / 2.
    fast_specs = [
        FastOperatorSpec("linear", c_b=config.c_b),
        FastOperatorSpec("smooth_bounded", c_b=config.c_b, b=config.b if config.b > 0.0 else 1.0),
    ]
    x = sine_mode(grid, 1, config.x0_amplitude)
    decay_pass = True
    details = []
    for index, fast in enumerate(fast_specs):
        margin = dissipativity_margin(fast, coupling, grid)
        if margin <= 0.0:
            details.append(f"{fast.kind}: skipped (margin {margin:.3f} <= 0)")
            continue
        stream = RngStream(config.master_seed, 500_000 + index)
        fit = fit_line(*ergodicity_decay(fast, coupling, grid, x, stream))
        row("ergodicity_decay", f"{fast.kind}_slope", fit.slope, n=1)
        row("ergodicity_decay", f"{fast.kind}_r_squared", fit.r_squared, n=1)
        row("ergodicity_decay", f"{fast.kind}_margin_half", margin / 2.0, n=1)
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

    @property
    def passed(self) -> bool:
        return all(r.violations == 0 for r in self.reports)


def run_check_conditions(config: ExperimentConfig) -> ConditionsResult:
    """All six structural checks plus the scalar margin for the configured model.

    Deliberately does not build a ModelSpec: a spec with a non-positive
    margin must be checkable (and reported as failing) rather than rejected
    up front.
    """
    grid, slow, fast, coupling = build_specs(config)
    samples = config.condition_samples
    reports = [
        check_condition(c, slow, fast, grid, samples, RngStream(config.master_seed, i))
        for i, c in enumerate(CONDITION_IDS)
    ]
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
    return ConditionsResult(reports)


# ---------------------------------------------------------------- fbar / simulate


@dataclasses.dataclass
class FbarRunResult:
    x: Field
    estimate_mean: Field
    estimate_stderr: Field
    oracle: Field | None
    n_replicas: int


def run_fbar(config: ExperimentConfig) -> FbarRunResult:
    grid, _, fast, coupling = build_specs(config)
    with _config_errors():
        x = sine_mode(grid, 1, config.x0_amplitude)
        estimate = estimate_fbar(
            fast, coupling, grid, x, config.fbar_replicas, RngStream(config.master_seed, 0)
        )
    oracle = None
    if fast.kind == "linear":
        oracle = Field(grid, OracleFbar(fast, coupling, grid)(x.values))
    return FbarRunResult(x, estimate.mean, estimate.stderr, oracle, config.fbar_replicas)


def run_simulate(config: ExperimentConfig, epsilon: float | None = None):
    eps = epsilon if epsilon is not None else config.epsilon_grid[0]
    model = build_model(config, eps)
    trajectory, _ = simulate_coupled(
        model, config.T, scheme_params(config), RngStream(config.master_seed, 0)
    )
    return trajectory


# ---------------------------------------------------------------- CSV emitters


def _cell(value: str | float | int) -> str:
    """Text as it is, integers with str, floats with repr (so nan stays nan)."""
    if isinstance(value, (str, int, np.integer)):
        return str(value)
    return repr(float(value))


def _write_table(path: str, header: str, rows: Iterable[Iterable]) -> None:
    write_report([header] + [",".join(map(_cell, row)) for row in rows], path)


def write_report(lines: Sequence[str], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_convergence_csv(result: ConvergenceResult, path: str) -> None:
    _write_table(
        path,
        "epsilon,delta,error_mean,error_stderr,replicas,wall_time_s",
        [
            (r.epsilon, r.delta, r.error_mean, r.error_stderr, r.replicas, r.wall_time_s)
            for r in result.rows
        ],
    )


def write_diagnostics_csv(result: DiagnosticsResult, path: str) -> None:
    _write_table(
        path,
        "suite,param,value_mean,value_stderr,replicas",
        [(r.suite, r.param, r.value_mean, r.value_stderr, r.replicas) for r in result.rows],
    )


def write_suite_csvs(result: DiagnosticsResult, out_dir: str) -> list[str]:
    """One CSV per diagnostics suite, named after the suite."""
    paths = []
    for suite in dict.fromkeys(row.suite for row in result.rows):
        path = os.path.join(out_dir, f"{suite}.csv")
        rows = [row for row in result.rows if row.suite == suite]
        write_diagnostics_csv(dataclasses.replace(result, rows=rows), path)
        paths.append(path)
    return paths


def write_conditions_csv(result: ConditionsResult, path: str) -> None:
    _write_table(
        path,
        "condition,samples,violations,worst_margin,constants",
        [
            (
                report.condition,
                report.samples,
                report.violations,
                report.worst_margin,
                ";".join(f"{k}={_cell(v)}" for k, v in report.fitted_constants.items()),
            )
            for report in result.reports
        ],
    )


def write_fbar_csv(result: FbarRunResult, path: str) -> None:
    n = result.x.grid.n_interior
    oracle = result.oracle.values if result.oracle is not None else np.full(n, math.nan)
    _write_table(
        path,
        "node,x_value,fbar_mean,fbar_stderr,fbar_oracle",
        zip(
            range(1, n + 1),
            result.x.values,
            result.estimate_mean.values,
            result.estimate_stderr.values,
            oracle,
        ),
    )


def write_trajectory_csv(trajectory, path: str) -> None:
    n = trajectory.x.shape[1]
    names = ["t"] + [f"x_{i}" for i in range(1, n + 1)] + [f"y_{i}" for i in range(1, n + 1)]
    states = np.column_stack([trajectory.times, trajectory.x, trajectory.y])
    _write_table(path, ",".join(names), states)
