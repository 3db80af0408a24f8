"""Experiment drivers behind the command line: the strong-convergence study,
the four diagnostics suites, the condition checks, and the two inspection
runs (fbar, simulate).

All drivers are deterministic functions of (config, master_seed). Random
streams are keyed by stream id:

- converge and diagnose: replica r drives its coupled run with stream id r
  at every epsilon. Both run a batch of replicas at every epsilon at once;
  replica r's slow rows are the same at each, so they are drawn once.
- converge with fbar_source = estimator: the averaged equation has no
  epsilon, so replica r has one averaged run and one estimator column,
  whatever the epsilons of its batch. That column starts at stream id
  ESTIMATOR_STREAMS * (r + 1) and takes fbar_replicas ids per refresh. A
  batch shares one MemoizedFbar, in which column r keeps replica r's
  streams and its own cache and refresh count; the refreshes due at one
  macro step run as one frozen run without changing any stream id.
  Replica r's strong error at an epsilon thus depends on (config,
  master_seed, epsilon, r) only, not on which replicas or epsilons ran
  before it or beside it. The ranges stay disjoint while replicas and
  refreshes * fbar_replicas both stay below ESTIMATOR_STREAMS.
- diagnose: the decay fit of catalog fast operator i uses 500_000 + i.
- check: condition i uses stream id i.
- fbar and simulate: stream id 0 (estimator replica j of fbar uses id j).

Every result gives the CSV files it writes as tables (file name -> header
line and rows) and its printed lines as report_lines(). write_tables writes
every cell by one rule (text as it is, integers with str, floats with repr),
so identical inputs produce identical bytes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import os
import pickle
import signal
from typing import Callable, Iterable, Sequence

import numpy as np

from .averaging import MemoizedFbar, OracleFbar, ergodicity_decay, estimate_fbar
# perfbench/tracing.py wraps these two here by name.
from .blocks import build_auxiliary, deviation_statistic  # noqa: F401
from .conditions import CONDITION_IDS, ConditionReport, check_condition
from .config import ConfigError, ExperimentConfig
from .grid import Field, Grid1D, row_norms, sine_mode, smallest_eigenvalue
from .integrators import (
    NOISE_BLOCK,
    ModelSpec,
    NewtonDivergence,
    NumericalBlowUp,
    SchemeParams,
    Trajectory,
    _epsilon_grid,
    _fast_coordinates,
    block_anchors,
    epsilon_grid_errors,
    simulate_averaged,  # noqa: F401  (perfbench/tracing.py wraps it here by name)
    simulate_coupled,
    strong_error,  # noqa: F401  (perfbench/tracing.py wraps it here by name)
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
    "LineFit",
    "SimulateResult",
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
    "write_report",
    "write_tables",
]

# First estimator stream id of replica 0; replica r starts at (r + 1) times it.
ESTIMATOR_STREAMS = 1_000_000

# Most replicas that advance as the columns of one batch in _by_replica, the
# batch driver of converge and diagnose, each batch at every epsilon at once:
# it bounds the memory of a batch's recorded noise, states and statistics.
REPLICA_CHUNK = 16

# The CSV files of a result: file name -> (header line, rows of cells).
Tables = dict[str, tuple[str, Iterable[Iterable]]]


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
        raise ValueError(f"need at least 3 points for a log-log fit, got {len(xs)}")
    if any(x <= 0.0 for x in xs) or any(y <= 0.0 for y in ys):
        raise ValueError("log-log fit requires strictly positive values")
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


@dataclasses.dataclass
class _Replicas:
    """One epsilon's per-replica values, its failure and the failing replica."""

    values: list = dataclasses.field(default_factory=list)
    error: NewtonDivergence | NumericalBlowUp | None = None
    replica: int | None = None


def _by_replica(
    epsilons: Sequence[float],
    replicas: Sequence[int],
    run: Callable[[list[float], Sequence[int]], list[list]],
) -> dict[float, _Replicas]:
    """The values of the given replicas at each epsilon, with each one's first failure.

    run(live, batch) returns one list of per-replica values for each epsilon
    of live, or raises NewtonDivergence or NumericalBlowUp. Replicas run in
    batches of at most REPLICA_CHUNK, each batch at every epsilon without a
    failure so far in one call. A call over several epsilons that raises
    for a coupled run runs again one epsilon at a time; a one-epsilon call,
    or one whose averaged run failed, runs again over several replicas one
    replica at a time. The averaged run has no epsilon and fails alike at
    every epsilon, so when a lone replica's averaged run fails, its error
    ends the list of every epsilon of the call; when a lone replica's run
    at a lone epsilon fails, its error ends that epsilon's list. Later calls
    leave an ended epsilon out. A replica's bytes do not depend on its batch
    or on the other epsilons of its call, so each list holds the values of
    the replicas below the lowest failing one as their runs alone give them.
    """
    records = {epsilon: _Replicas() for epsilon in epsilons}

    def attempt(epsilons: Sequence[float], batch: Sequence[int]) -> None:
        live = [epsilon for epsilon in epsilons if records[epsilon].error is None]
        if not live:
            return
        try:
            values = run(live, batch)
        except (NewtonDivergence, NumericalBlowUp) as exc:
            by_replica = exc.averaged or len(live) == 1
            if by_replica and len(batch) == 1:
                for epsilon in live:
                    records[epsilon].error, records[epsilon].replica = exc, batch[0]
            elif by_replica:
                for r in batch:
                    attempt(live, [r])
            else:
                for epsilon in live:
                    attempt([epsilon], batch)
            return
        for epsilon, values_at in zip(live, values):
            records[epsilon].values += values_at

    for start in range(0, len(replicas), REPLICA_CHUNK):
        attempt(epsilons, replicas[start : start + REPLICA_CHUNK])
    return records


# ---------------------------------------------------------------- convergence

# The delta column of convergence.csv is epsilon ** DELTA_EXPONENT, the block
# length scale of the averaging proof; it is reported for reference only.
DELTA_EXPONENT = 2.0 / 3.0


@dataclasses.dataclass
class ConvergenceRow:
    """One epsilon's strong error over its replicas."""

    epsilon: float
    delta: float
    error_mean: float
    error_stderr: float
    replicas: int
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

    def tables(self) -> Tables:
        rows = [(r.epsilon, r.delta, r.error_mean, r.error_stderr, r.replicas) for r in self.rows]
        return {"convergence.csv": ("epsilon,delta,error_mean,error_stderr,replicas", rows)}

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


def _batch_errors(
    config: ExperimentConfig, epsilons: Sequence[float], batch: Sequence[int]
) -> list[list[float]]:
    """Strong errors of one batch of replicas at each epsilon, one list per epsilon.

    One epsilon_grid_errors run against the closed-form drift or one
    estimator with a column per replica (see the module docstring); this
    is converge's run for _by_replica, which reruns a call that raises.
    """
    model = build_model(config, epsilons[0])
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
    params = scheme_params(config)
    return epsilon_grid_errors(model, epsilons, config.T, params, streams, fbar).tolist()


def run_convergence(config: ExperimentConfig) -> ConvergenceResult:
    """Pathwise-coupled strong error of the averaged equation per epsilon.

    Rows come in descending epsilon. Replica r reuses stream id r across
    epsilons, which correlates rows and sharpens the monotonicity
    comparison without biasing any single row. Batches run through
    _by_replica and _batch_errors. A failure at one epsilon invalidates
    that row, reported as "replica r: <error>" for the lowest failing
    replica r, but the remaining epsilons still run.
    """
    epsilons = sorted(config.epsilon_grid, reverse=True)
    records = _by_replica(
        epsilons, range(config.replicas), lambda live, batch: _batch_errors(config, live, batch)
    )
    rows: list[ConvergenceRow] = []
    for epsilon in epsilons:
        record = records[epsilon]
        valid = record.error is None
        mean, stderr = _mean_stderr(record.values) if valid else (math.nan, math.nan)
        rows.append(
            ConvergenceRow(
                epsilon=epsilon,
                delta=epsilon**DELTA_EXPONENT,
                error_mean=mean,
                error_stderr=stderr,
                replicas=len(record.values),
                failure=None if valid else f"replica {record.replica}: {record.error}",
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

    def tables(self) -> Tables:
        """diagnostics.csv with every row, then one CSV per suite, named after it."""
        header = "suite,param,value_mean,value_stderr,replicas"
        rows = [(r.suite, r.param, r.value_mean, r.value_stderr, r.replicas) for r in self.rows]
        tables = {"diagnostics.csv": (header, rows)}
        for suite in dict.fromkeys(row[0] for row in rows):
            tables[f"{suite}.csv"] = (header, [row for row in rows if row[0] == suite])
        return tables

    def report_lines(self) -> list[str]:
        lines = [
            f"{o.name}: {o.detail} ({'PASS' if o.passed else 'FAIL'})"
            for o in self.outcomes
        ]
        lines.append("overall: " + ("PASS" if self.passed else "FAIL"))
        return lines


def _batch_statistics(
    config: ExperimentConfig,
    epsilons: Sequence[float],
    batch: Sequence[int],
    deltas: dict[float, list[float]],
) -> list[list[tuple[float, ...]]]:
    """Diagnose's statistics of a batch of replicas, one list of per-replica tuples per epsilon.

    A tuple holds sup ||x||^2, the auxiliary deviation of each of the
    epsilon's deltas and, at diag_epsilon, their increment integrals. One
    _epsilon_grid loop without a drift runs every epsilon with a replay
    column per (epsilon, delta, replica) in its fast state, x^ frozen at the
    column's latest block start; the diag_epsilon columns keep the nodal x
    of that start too, the anchor of their increments. Each column keeps its
    per-step norms alone (over NOISE_BLOCK steps at a time) and reduces them
    as TrajectoryStats and deviation_statistic do.
    """
    model = build_model(config, epsilons[0])
    grid, n, dt = model.grid, model.grid.n_interior, config.dt_macro
    streams = [RngStream(config.master_seed, r) for r in batch]
    params = scheme_params(config)
    replays = [(g, whole_steps(d, dt, "delta")) for g, e in enumerate(epsilons) for d in deltas[e]]
    paths, states, source = _epsilon_grid(model, epsilons, config.T, params, streams, None, replays)
    m, replicas, coupled = paths[0].n_macro, len(batch), len(epsilons) * len(batch)
    source = source[coupled:]  # the coupled column under each replay column
    at_diag = np.repeat([epsilons[g] == config.diag_epsilon for g, _ in replays], replicas)
    diag, diag_steps = source[at_diag], np.repeat([q for _, q in replays], replicas)[at_diag]
    frozen = np.tile(model.x0.values, (diag.size, 1))
    # A macro time's rows: for the state norm x of every coupled column,
    # then the increments of the diag_epsilon columns (zero at time 0); for
    # L2 the deviation of every replay column, in sine modes if linear.
    size = min(NOISE_BLOCK, m + 1)
    x_rows = np.empty((size, coupled + diag.size, n))
    y_rows = np.empty((size, source.size, n))
    x_norms, y_norms = np.empty((x_rows.shape[1], m + 1)), np.empty((source.size, m + 1))
    tables = (
        (x_rows, x_norms, lambda v: row_norms(grid, v, model.state_norm)),
        (y_rows, y_norms, _fast_coordinates(model.fast, grid)[2]),
    )
    with np.errstate(over="ignore", invalid="ignore"):
        for j, (x, y) in enumerate(states):
            i = j % size
            x_rows[i, :coupled] = x.T
            np.subtract(x.T[diag], frozen, out=x_rows[i, coupled:])
            np.subtract(y.T[source], y.T[coupled:], out=y_rows[i])
            due = block_anchors(j, diag_steps) == j
            frozen[due] = x.T[diag[due]]
            if i == size - 1 or j == m:
                for rows, norms, row_norm in tables:
                    values = row_norm(rows[: i + 1].reshape(-1, n))
                    norms[:, j - i : j + 1] = values.reshape(i + 1, -1).T
    sup = [float(np.max(v**2)) for v in x_norms[:coupled]]
    increments = [dt * float(np.sum(v[1:] ** 2)) for v in x_norms[coupled:]]
    deviations = [float(np.trapezoid(v**2, dx=dt)) for v in y_norms]
    statistics, start = [], 0
    for g, epsilon in enumerate(epsilons):
        stop = start + len(deltas[epsilon]) * replicas
        own = [deviations[start + r : stop : replicas] for r in range(replicas)]
        if epsilon == config.diag_epsilon:
            own = [values + increments[r::replicas] for r, values in enumerate(own)]
        statistics.append([(sup[g * replicas + r], *own[r]) for r in range(replicas)])
        start = stop
    return statistics


@contextlib.contextmanager
def _forked(fn: Callable, *args):
    """Run fn(*args) in a forked child while the with body runs; yield result().

    result() waits for the child, then returns fn's value or raises its
    exception, as the call in place would. A child that dies before it
    answers makes result() raise a RuntimeError with its exit status.
    Leaving the body before result() has reaped the child kills and reaps
    it, and lets the body's exception pass unchanged. Where os.fork does
    not exist, result() calls fn itself.
    """
    if not hasattr(os, "fork"):
        yield lambda: fn(*args)
        return
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # The child answers once and leaves without the parent's clean-up.
        status = 1
        try:
            try:
                answer = (True, fn(*args))
            except Exception as exc:
                answer = (False, exc)
            with open(write, "wb") as pipe:
                pipe.write(pickle.dumps(answer))
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    pipe, reaped = open(read, "rb"), False

    def result():
        nonlocal reaped
        with pipe:
            answer = pipe.read()
        _, status = os.waitpid(pid, 0)
        reaped = True
        if not answer:
            raise RuntimeError(
                f"{fn.__name__} died in its forked child before it answered "
                f"(exit status {os.waitstatus_to_exitcode(status)})"
            )
        ok, value = pickle.loads(answer)
        if not ok:
            raise value
        return value

    try:
        yield result
    finally:
        pipe.close()
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _ergodicity_decay_suite(
    config: ExperimentConfig, grid: Grid1D, coupling: CouplingSpec
) -> list[tuple[str, float, LineFit | None]]:
    """Diagnose's suite 4 fits: (kind, margin, fit) per catalog fast operator.

    fit is the line through ergodicity_decay's log gaps, or None for an
    operator without a positive margin, which the suite skips.
    """
    fast_specs = [
        FastOperatorSpec("linear", c_b=config.c_b),
        FastOperatorSpec("smooth_bounded", c_b=config.c_b, b=config.b if config.b > 0.0 else 1.0),
    ]
    x = sine_mode(grid, 1, config.x0_amplitude)
    fits = []
    for index, fast in enumerate(fast_specs):
        margin = dissipativity_margin(fast, grid)
        fit = None
        if margin > 0.0:
            stream = RngStream(config.master_seed, 500_000 + index)
            fit = fit_line(*ergodicity_decay(fast, coupling, grid, x, stream))
        fits.append((fast.kind, margin, fit))
    return fits


def run_diagnostics(config: ExperimentConfig) -> DiagnosticsResult:
    """Moment uniformity, increment scaling, auxiliary deviation, decay rates.

    The moment and fixed-block deviation statistics are collected for every
    epsilon in the grid; the delta-resolved scaling statistics run at
    diag_epsilon only, since block length is a post-processing parameter for
    the slow increments but requires an auxiliary replay per (delta,
    replica) for the deviations. One _by_replica call, the driver converge
    uses, runs every epsilon of the grid and diag_epsilon in batches of at
    most REPLICA_CHUNK replicas, each batch one _batch_statistics run: at
    diag_epsilon the fixed block length is one of the delta grid. The
    first epsilon, in descending order, whose record holds an error raises
    it: the error its lowest failing replica raises alone.
    A ratio or fit whose means are degenerate (see _degenerate) is skipped,
    and its suite reports it as degenerate and passes.
    The decay fits of suite 4 share nothing with the batches, so where the
    platform can fork they run in a forked child meanwhile (see _forked);
    their rows, outcome and errors are those of the fits run in place, and
    an error of the batches still comes first.
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
    deltas = {e: delta_grid if e == config.diag_epsilon else [delta_fixed] for e in epsilons}
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

    with _forked(_ergodicity_decay_suite, config, grid, coupling) as decay_fits:
        records = _by_replica(
            epsilons,
            range(config.replicas),
            lambda live, batch: _batch_statistics(config, live, batch, deltas),
        )
        sup_by_eps: dict[float, tuple[float, float]] = {}
        dev_fixed_by_eps: dict[float, tuple[float, float]] = {}
        for epsilon in epsilons:
            record = records[epsilon]
            if record.error is not None:
                raise record.error
            sup, *columns = zip(*record.values)
            deviations = dict(zip(deltas[epsilon], columns))
            integrals = dict(zip(deltas[epsilon], columns[len(deltas[epsilon]) :]))
            if epsilon in config.epsilon_grid:
                sup_by_eps[epsilon] = _mean_stderr(sup)
                dev_fixed_by_eps[epsilon] = _mean_stderr(deviations[delta_fixed])
            if epsilon == config.diag_epsilon:
                inc_by_delta = {d: _mean_stderr(integrals[d]) for d in delta_grid}
                dev_by_delta = {d: _mean_stderr(deviations[d]) for d in delta_grid}

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
        fits = decay_fits()

    # Suite 4: pathwise contraction rate of every catalog fast operator with a
    # positive margin, against -0.9 * margin / 2.
    decay_pass = True
    details = []
    for kind, margin, fit in fits:
        if fit is None:
            details.append(f"{kind}: skipped (margin {margin:.3f} <= 0)")
            continue
        row("ergodicity_decay", f"{kind}_slope", fit.slope, n=1)
        row("ergodicity_decay", f"{kind}_r_squared", fit.r_squared, n=1)
        row("ergodicity_decay", f"{kind}_margin_half", margin / 2.0, n=1)
        ok = fit.slope <= -0.9 * margin / 2.0 and fit.r_squared >= 0.98
        decay_pass = decay_pass and ok
        details.append(
            f"{kind}: slope {fit.slope:.3f} vs -0.9*margin/2 = {-0.45 * margin:.3f}, "
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

    def tables(self) -> Tables:
        rows = [
            (
                report.condition,
                report.samples,
                report.violations,
                report.worst_margin,
                ";".join(f"{k}={_cell(v)}" for k, v in report.fitted_constants.items()),
            )
            for report in self.reports
        ]
        return {"conditions.csv": ("condition,samples,violations,worst_margin,constants", rows)}

    def report_lines(self) -> list[str]:
        return [
            f"{report.condition}: samples={report.samples} "
            f"violations={report.violations} worst_margin={report.worst_margin:.6g} "
            f"({'PASS' if report.violations == 0 else 'FAIL'})"
            for report in self.reports
        ]


def run_check_conditions(config: ExperimentConfig) -> ConditionsResult:
    """All six structural checks plus the scalar margin for the configured model.

    Deliberately does not build a ModelSpec: a spec with a non-positive
    margin must be checkable (and reported as failing) rather than rejected
    up front.
    """
    grid, slow, fast, _ = build_specs(config)
    samples = config.condition_samples
    reports = [
        check_condition(c, slow, fast, grid, samples, RngStream(config.master_seed, i))
        for i, c in enumerate(CONDITION_IDS)
    ]
    margin = dissipativity_margin(fast, grid)
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
    n_replicas: int

    passed = True  # an inspection run has no threshold

    def tables(self) -> Tables:
        n = self.x.grid.n_interior
        rows = zip(
            range(1, n + 1), self.x.values, self.estimate_mean.values, self.estimate_stderr.values
        )
        return {"fbar.csv": ("node,x_value,fbar_mean,fbar_stderr", rows)}

    def report_lines(self) -> list[str]:
        return [f"fbar: {self.n_replicas} replicas, {self.x.grid.n_interior} nodes"]


def run_fbar(config: ExperimentConfig) -> FbarRunResult:
    """The averaged drift at x0; for the linear fast kind the closed form, stderr 0."""
    grid, _, fast, coupling = build_specs(config)
    with _config_errors():
        x = sine_mode(grid, 1, config.x0_amplitude)
        point = x.values[:, None]
        estimate = estimate_fbar(
            fast, coupling, grid, point, config.fbar_replicas, [RngStream(config.master_seed, 0)]
        )
    mean, stderr = (Field(grid, values[:, 0]) for values in estimate)
    return FbarRunResult(x, mean, stderr, config.fbar_replicas)


@dataclasses.dataclass
class SimulateResult:
    trajectory: Trajectory

    passed = True  # an inspection run has no threshold

    def tables(self) -> Tables:
        t = self.trajectory
        n = t.x.shape[1]
        names = ["t"] + [f"x_{i}" for i in range(1, n + 1)] + [f"y_{i}" for i in range(1, n + 1)]
        return {"trajectory.csv": (",".join(names), np.column_stack([t.times, t.x, t.y]))}

    def report_lines(self) -> list[str]:
        return [f"simulate: {len(self.trajectory.times)} states written"]


def run_simulate(config: ExperimentConfig, epsilon: float | None = None) -> SimulateResult:
    eps = epsilon if epsilon is not None else config.epsilon_grid[0]
    model = build_model(config, eps)
    batch, _ = simulate_coupled(
        model, config.T, scheme_params(config), [RngStream(config.master_seed, 0)]
    )
    return SimulateResult(batch.replica(0))


# ---------------------------------------------------------------- CSV emitters


def _cell(value: str | float | int) -> str:
    """Text as it is, integers with str, floats with repr (so nan stays nan)."""
    if isinstance(value, (str, int, np.integer)):
        return str(value)
    return repr(float(value))


def write_tables(tables: Tables, out_dir: str) -> None:
    """Each table to out_dir/<name>: its header line, then one line of cells per row."""
    for name, (header, rows) in tables.items():
        lines = [header] + [",".join(map(_cell, row)) for row in rows]
        write_report(lines, os.path.join(out_dir, name))


def write_report(lines: Sequence[str], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
