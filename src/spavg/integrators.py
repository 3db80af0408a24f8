"""Coupled and averaged time stepping with recordable, replayable noise.

Scheme. The slow state advances with a drift-implicit, noise-explicit Euler
step over dt_macro: the monotone operator A is treated implicitly (a damped
Newton iteration for porous medium and p-Laplace, each direction one LAPACK
gtsv solve with the tridiagonal Jacobian; a prefactored tridiagonal pttrs
solve for the Burgers Laplacian with explicit convection), while a forcing
and the Wiener increment enter explicitly. The coupled and the averaged
equation share this one macro-step loop and differ only in the forcing, as
in the macro solver of a heterogeneous multiscale method: F(x, y) at the
left endpoint in the coupled run, fbar(x) in the averaged one. The averaged
run has two forms: alone on a recorded path, with histories
(simulate_averaged), and beside a grid run in converge's fold
(epsilon_grid_errors), as more columns of the same state on the same slow
increments: one column per replica, since the averaged equation has no
epsilon. The fast state advances inside each macro step through n_sub
implicit Euler micro steps of size dt_macro / n_sub with the slow input
frozen at the left endpoint; n_sub is the smallest integer keeping
dt_micro / epsilon below dt_fast_target, so the fast equation is resolved
on its own clock no matter how small epsilon gets. With
a = dt_micro / epsilon a micro step solves

    (I + a L) y' = y + a B2(x, y) + xi.

For the linear fast operator I + a L is diagonal in the sine eigenbasis the
noise is drawn in, with entries 1 / d_k = 1 + a lambda_k, so the n_sub micro
steps of a macro step collapse to one exact update of the mode coefficients,

    y^ <- d^M y^ + (sum_{j=1..M} d^j) a c_b x^ + sum_m d^(M-m) xi^_m,

the same scheme up to rounding. The linear kind keeps its fast state in
these coefficients, frozen runs included, and _fast_coordinates is the one
place that transforms it: a coupled macro step transforms x for the drive
and synthesizes the nodal y only for F(x, y), a history of y goes to nodes
in one transform at its end, and a frozen micro step is
y^ <- d (y^ + a c_b x^ + xi^), with no transform. The smooth_bounded
operator needs sin(y) in physical space: its state is nodal, and it takes
its micro steps one by one through a prefactored pttrs solve.

Noise. Each Wiener increment is synthesized from sine-mode coefficients
(amplitude / k**2) * sqrt(dt) * xi_k. A coupled run draws its whole horizon
up front into a NoisePath with dt_macro and n_sub: the raw slow rows, and
the fast noise as _block_replay reads it: the raw micro-step rows (without
the 1/sqrt(epsilon) weight) for smooth_bounded; for the linear kind one row
per macro step of the per-mode sum epsilon^(-1/2) sum_m d^(M-m) xi^_m of
the exact update. _record, the one producer of the fast noise, serves a
whole epsilon grid from one draw: a coarser n_sub's unscaled rows are a
prefix of a finer one's, so each replica's rows are drawn once, up to the
largest n_sub, a block of micro steps at a time after the last n_sub - 1
rows of the block before, and every epsilon scales (and the linear kind
sums) the whole macro steps that end in the block. The linear kind's sums
do not grow with n_sub, but smooth_bounded keeps every raw row, so its
path grows with n_sub, that is with 1/epsilon. The path alone fixes a
replay's step grid and replays the same realization into the averaged
equation or the block-frozen auxiliary construction (same epsilon and
n_sub, so the same gains), bit for bit.

Batches. The replicas of one epsilon advance together as the columns of
one state, shape (n, R), in the same macro-step loop that runs a single
replica as a batch of one; a grid run adds a group of R coupled columns
per epsilon, column g R + r for replica r at epsilon g, and in
epsilon_grid_errors one averaged group of R columns after them all.
Replica r draws the same slow rows at every epsilon (lane 0 of its stream
does not depend on epsilon), so one set of slow increments drives every
group. Each group has its own fast stepper and fast noise, but the fast
states of all groups are one state, which one coupling_f call reads and
one _block_replay update moves through a macro step; diagnose's
block-frozen replay columns follow the coupled ones in it
(_epsilon_grid). The linear kind's epsilons differ only
in per-mode gains, so one exact update advances every column, and the
replay columns add no transform: two per macro step in all (x^ and B y^).
smooth_bounded steps all columns of a group through one micro-step loop.
The loop keeps no history: simulate_epsilon_grid and simulate_averaged
write every state into trajectories, time first, (n_steps + 1, R, n);
epsilon_grid_errors and diagnose fold each state into statistics. Each
silences numpy's overflow and invalid warnings once around the loop, which
classifies non-finite states itself; an errstate inside the generator
would leak into its caller at each yield. Recorded noise puts the replica
first, (R, n_macro, ...), each replica's rows contiguous. There is no other
layout: states are (n, C) and noise (R, ...), a lone replica is a batch of
one that its caller builds ([stream], x[:, None]), and statistics take one
replica out with Trajectory.replica. Every (n, C) array a macro step makes
is column-major, each column contiguous: the layout pttrs, gtsv and
_matvec take without a copy, so no elementwise operation mixes a row-major
operand with column-major ones. A replica's bytes do not depend on its
batch or on the other epsilons of its grid, because every operation on a
batch is one of:

- elementwise;
- column by column: the prefactored pttrs solve with many right-hand sides,
  the Burgers convection, and the porous-medium and p-Laplace Newton solve.
  There each column keeps its own residual norm, step length and iteration
  count and is frozen once it converges, while one gtsv call per iteration
  solves for the directions of all columns still iterating: their
  tridiagonal Jacobians lie end to end in one system with zero couplings
  between the blocks. Such a coupling is never a pivot and gives a zero
  elimination factor, so the blocks do not mix and each column gets the
  bytes of its own gtsv solve (_newton_direction says when it falls back to
  one solve per column);
- a product with a fixed matrix (the sine transforms, the noise synthesis,
  the closed-form averaged drift), taken by _matvec through np.matmul with
  the columns on the stacked axis: one BLAS gemv call per column. One gemm
  over all columns would round each column differently depending on the
  batch width;
- the noise sums of the linear kind, one einsum over a block of macro steps
  whose every row sums as the one-step einsum does.

A run either finishes every replica of its batch or raises
NewtonDivergence or NumericalBlowUp; there are no partial results. A
column fails at the first macro step whose solve fails or whose x or y is
not finite, and the run raises there for the lowest failing group:
NewtonDivergence if its solve failed, else NumericalBlowUp; either says
whether that group is the averaged run, which has no epsilon. Since a
replica's bytes do not depend on its batch or grid, running a failed grid
one epsilon at a time (one replica at a time when the averaged run failed)
and a failed one-epsilon batch one replica at a time finds the lowest
failing one and its own error: the one rerun rule of converge and diagnose
(experiments._by_replica).
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Callable, Iterator, Sequence

import numpy as np
from scipy.linalg.lapack import dgtsv

from .grid import L2, Array, Field, Grid1D, NormKind, ShiftedLaplacian, row_norms, sine_basis
from .operators import (
    CouplingSpec,
    FastOperatorSpec,
    SlowOperatorSpec,
    burgers_convection,
    contraction_margin,
    coupling_f,
    face_gradients,
    mode_scales,
    slow_drift,
)
from .randomness import RngStream, stream_batch

__all__ = [
    "DT_FAST",
    "ModelSpec",
    "NewtonDivergence",
    "NoisePath",
    "NumericalBlowUp",
    "SchemeParams",
    "SlowTrajectory",
    "Trajectory",
    "TrajectoryStats",
    "epsilon_grid_errors",
    "simulate_averaged",
    "simulate_coupled",
    "simulate_epsilon_grid",
    "strong_error",
]


# Fast step in relaxation times 1 / margin: the automatic dt_fast_target of
# the coupled scheme and the step of the averaging module's estimator.
DT_FAST = 0.1


class NewtonDivergence(RuntimeError):
    """The implicit solve failed to converge; reported as a numerical failure.

    column is the failing column of a solve over many columns; averaged is
    True when the failing run of a slow loop is the averaged one.
    """

    def __init__(self, message: str, column: int = 0, averaged: bool = False) -> None:
        super().__init__(message)
        self.column = column
        self.averaged = averaged


class NumericalBlowUp(ArithmeticError):
    """A simulated state left the floating-point range (NaN or Inf).

    averaged is True when the failing run of a slow loop is the averaged one.
    """

    def __init__(self, message: str, averaged: bool = False) -> None:
        super().__init__(message)
        self.averaged = averaged


@dataclasses.dataclass(frozen=True)
class SchemeParams:
    """Step sizes and the implicit-solve tolerance.

    dt_fast_target caps dt_micro / epsilon (fast-clock units); 0.0 picks
    DT_FAST / margin, i.e. about a tenth of the fast relaxation time.
    """

    dt_macro: float
    dt_fast_target: float = 0.0
    newton_tol: float = 1e-10

    def __post_init__(self) -> None:
        # Written as "not ... > 0" so that NaN fails too.
        if not self.dt_macro > 0.0:
            raise ValueError(f"dt_macro must be positive, got {self.dt_macro}")
        if not self.dt_fast_target >= 0.0:
            raise ValueError(
                f"dt_fast_target must be >= 0 (0 means automatic), got {self.dt_fast_target}"
            )
        if not self.newton_tol > 0.0:
            raise ValueError(f"newton_tol must be positive, got {self.newton_tol}")


@dataclasses.dataclass(frozen=True)
class ModelSpec:
    """A complete coupled system: operators, coupling, scale separation, data."""

    grid: Grid1D
    slow: SlowOperatorSpec
    fast: FastOperatorSpec
    coupling: CouplingSpec
    epsilon: float
    x0: Field
    y0: Field

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        for name in ("x0", "y0"):
            if getattr(self, name).grid != self.grid:
                raise ValueError(f"{name} lives on a different grid")
        if self.coupling.f0.grid != self.grid:
            raise ValueError("coupling f0 lives on a different grid")
        contraction_margin(self.fast, self.grid)

    @property
    def state_norm(self) -> NormKind:
        return self.slow.state_norm


class NoisePath:
    """Recorded noise of both Wiener processes for a batch of R replicas.

    slow has shape (R, n_macro, g1_modes): raw Wiener-increment coefficients
    over dt_macro. fast holds, per macro step, what _block_replay reads at
    this epsilon and n_sub (_record, which draws the fast rows of a grid's
    epsilons once and gives each its prefix): the gain-weighted noise
    sums, (R, n_macro, g2_modes), for the linear kind, and the raw
    coefficient rows over dt_macro / n_sub, (R, n_macro, n_sub, g2_modes),
    for smooth_bounded. Which of the two layouts fits is the fast kind's
    business; _block_replay checks it where a path is replayed.
    """

    def __init__(
        self, dt_macro: float, n_sub: int, epsilon: float, slow: Array, fast: Array
    ) -> None:
        slow = np.ascontiguousarray(slow, dtype=np.float64)
        fast = np.ascontiguousarray(fast, dtype=np.float64)
        if slow.ndim != 3 or fast.ndim not in (3, 4):
            raise ValueError(
                "slow must be (replicas, steps, modes), fast (replicas, steps, [sub,] modes)"
            )
        if fast.shape[:2] != slow.shape[:2]:
            raise ValueError("fast and slow noise disagree on the replica or step count")
        # Written as "not ... > 0" so that NaN fails too.
        if not dt_macro > 0.0:
            raise ValueError(f"dt_macro must be positive, got {dt_macro}")
        if not (n_sub >= 1 and float(n_sub).is_integer()):
            raise ValueError(f"n_sub must be a whole number >= 1, got {n_sub}")
        if not 0.0 < epsilon < math.inf:
            raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
        self.dt_macro = float(dt_macro)
        self.n_sub = int(n_sub)
        self.epsilon = float(epsilon)
        self.slow = slow
        self.fast = fast

    @property
    def n_macro(self) -> int:
        return self.slow.shape[1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NoisePath):
            return NotImplemented
        return (
            self.dt_macro == other.dt_macro
            and self.n_sub == other.n_sub
            and self.epsilon == other.epsilon
            and np.array_equal(self.slow, other.slow)
            and np.array_equal(self.fast, other.fast)
        )


@dataclasses.dataclass
class Trajectory:
    """Coupled states of a batch at macro times; x and y are (n_steps + 1, R, n).

    Every replica runs to the horizon: a run that fails raises instead.
    replica(r) is replica r alone, (n_steps + 1, n), as statistics take it.
    """

    times: Array
    x: Array
    y: Array

    def replica(self, r: int) -> "Trajectory":
        return Trajectory(self.times, self.x[:, r], self.y[:, r])


@dataclasses.dataclass
class SlowTrajectory:
    """Slow states of a batch at macro times, x as in Trajectory."""

    times: Array
    x: Array

    def replica(self, r: int) -> "SlowTrajectory":
        return SlowTrajectory(self.times, self.x[:, r])


class TrajectoryStats:
    """Statistics of a slow path x of shape (n_steps + 1, n) at macro times.

    sup_norm_x_sq is sup over macro times of the squared slow-state norm.
    increment_integral(delta) integrates the squared distance of the
    slow state to its value at the latest block boundary below t, using the
    upper Riemann sum that respects the jump of the block anchor: the term
    for [t_j, t_j + dt) is dt * ||x(t_{j+1}) - x(block_start(j))||^2. With
    delta = dt_macro this reduces exactly to the summed one-step increments.
    """

    def __init__(self, grid: Grid1D, kind: NormKind, dt_macro: float, x: Array) -> None:
        self._grid = grid
        self._kind = kind
        self._dt = dt_macro
        self._x = x
        self.sup_norm_x_sq = float(np.max(row_norms(grid, x, kind) ** 2))

    def increment_integral(self, delta: float) -> float:
        n_steps = self._x.shape[0] - 1
        q = whole_steps(delta, self._dt, "delta")
        if q > n_steps:
            raise ValueError(f"delta = {delta} exceeds the horizon of {n_steps} macro steps")
        x = self._x
        gaps = x[1:] - x[block_anchors(np.arange(n_steps), q)]
        return self._dt * float(np.sum(row_norms(self._grid, gaps, self._kind) ** 2))


def whole_steps(length: float, dt_macro: float, name: str) -> int:
    """Macro steps in `length`; the one rule behind every horizon and block length.

    Raises ValueError, calling the length `name`, unless it is a positive
    whole multiple of dt_macro.
    """
    ratio = length / dt_macro if dt_macro > 0.0 else 0.0
    q = round(ratio) if math.isfinite(ratio) else 0
    if q < 1 or abs(q * dt_macro - length) > 1e-9 * length:
        raise ValueError(
            f"{name} = {length} is not a positive multiple of dt_macro = {dt_macro}"
        )
    return q


def block_anchors(step: Array | int, q: Array | int) -> Array | int:
    """The macro step that starts the block of q macro steps holding `step`.

    The one block-anchor rule, elementwise in step and block length with
    numpy broadcasting, ints to an int: step j starts a block when its anchor is j.
    """
    return step // q * q


class _SlowStepper:
    """One macro step of the drift-implicit slow update, dt fixed at setup."""

    def __init__(self, slow: SlowOperatorSpec, grid: Grid1D, dt: float, params: SchemeParams):
        self.slow = slow
        self.grid = grid
        self.dt = dt
        self.params = params
        if slow.kind == "burgers":
            self._solver = ShiftedLaplacian(grid, 1.0, dt * slow.viscosity)

    def step(self, x: Array, forcing: Array, noise: Array) -> Array:
        """The next state of every column of x, shape (n, C); a single run is C = 1.

        noise has the shape of x, or (n, R) for C = G * R: then it drives
        each of the G groups of R columns (see _plus_noise).
        """
        dt = self.dt
        if self.slow.kind == "burgers":
            rhs = x + dt * (burgers_convection(self.grid, x) + forcing)
            return self._solver.solve(_plus_noise(rhs, noise))
        b = _plus_noise(x + dt * forcing, noise)
        return _newton_monotone_solve(self.slow, self.grid, b, dt, self.params)

    def residual(self, x_new: Array, x: Array, forcing: Array, noise: Array) -> Array:
        """x_new - dt * A_implicit(x_new) - explicit terms; zero for an exact step."""
        dt = self.dt
        if self.slow.kind == "burgers":
            implicit = -self.slow.viscosity * self.grid.apply_neg_laplacian(x_new)
            explicit = burgers_convection(self.grid, x) + forcing
            return x_new - dt * implicit - _plus_noise(x + dt * explicit, noise)
        return x_new - dt * slow_drift(self.slow, self.grid, x_new) - _plus_noise(
            x + dt * forcing, noise
        )


def _plus_noise(b: Array, noise: Array) -> Array:
    """b + noise, written into b: each group of R columns of b gets noise (n, R).

    One add through a (G, R, n) view of b; a b that has no such view raises
    rather than taking the noise into a copy.
    """
    n, replicas = noise.shape
    groups = b.T.reshape(-1, replicas, n, copy=False)
    groups += noise.T
    return b


# Newton iterations per implicit slow step, and step halvings per iteration.
NEWTON_MAX_ITER = 50
NEWTON_MAX_HALVINGS = 30


def _column_max(a: Array) -> Array:
    """max |a| of each column; the ufunc reduce without ndarray.max's wrapper."""
    return np.maximum.reduce(np.abs(a), axis=0)


def _columns(mask: Array, *arrays: Array) -> list[Array]:
    """The columns where mask is True of each array (last axis); each stays contiguous."""
    return [a[..., mask] for a in arrays]


def _newton_monotone_solve(
    slow: SlowOperatorSpec, grid: Grid1D, b: Array, dt: float, params: SchemeParams
) -> Array:
    """Solve u - dt * A(u) = b by Newton with step halving on the residual.

    b is (n, C), one solve being C = 1, solved column by column: each keeps
    its own residual norm, step length and iteration count, and leaves the
    iteration once it converges, so it follows exactly the iterates of its
    solve alone, while one gtsv call serves the directions of all columns
    still iterating (see _newton_direction). The powers |v| ** (p - 2)
    an iterate's residual takes (see slow_drift) also give the Jacobian of
    the next direction. A column that fails is dropped; once every column has
    finished, NewtonDivergence is raised for the lowest failing one, with the
    message of its solve alone and its position in `column`.
    """

    def residual_at(u: Array, rhs: Array) -> tuple[Array, Array]:
        g = face_gradients(grid, u) if slow.kind == "p_laplace" else None
        powers = np.abs(u if g is None else g) ** (slow.p - 2.0)
        return u - dt * slow_drift(slow, grid, u, g, powers) - rhs, powers

    # Column-major throughout, so that _newton_direction solves in place.
    rhs = np.asfortranarray(b)
    width = rhs.shape[1]
    u = rhs.copy(order="F")
    residual, powers = residual_at(u, rhs)
    norm = _column_max(residual)
    tol = params.newton_tol * np.fmax(1.0, _column_max(rhs))
    # index holds the places in b of the columns still iterating; rhs, tol,
    # u, residual, powers and norm hold theirs alone. np.count_nonzero is
    # the cheap any / all of a small mask.
    index = np.arange(width)
    solution = None
    failures: dict[int, str] = {}

    def fail(failed: Array, message: str) -> list[Array]:
        for column, column_norm in zip(index[failed], norm[failed]):
            failures[int(column)] = f"implicit {slow.kind} solve " + message.format(column_norm)
        return _columns(~failed, index, rhs, tol, u, residual, powers, norm)

    finite = np.isfinite(norm)
    if np.count_nonzero(finite) < width:
        index, rhs, tol, u, residual, powers, norm = fail(~finite, "met a non-finite residual")
    for iteration in range(NEWTON_MAX_ITER + 1):
        done = norm <= tol
        finished = np.count_nonzero(done)
        if finished == width:
            return u
        if finished:
            if solution is None:
                solution = np.empty((b.shape[0], width), order="F")
            solution[:, index[done]] = u[:, done]
            index, rhs, tol, u, residual, powers, norm = _columns(
                ~done, index, rhs, tol, u, residual, powers, norm
            )
        if not index.size:
            break
        if iteration == NEWTON_MAX_ITER:
            fail(np.full(index.size, True), "did not reach tolerance, residual {:.3e}")
            break
        direction, singular = _newton_direction(slow, grid, u, dt, residual, powers)
        if singular is not None:
            index, rhs, tol, u, residual, powers, norm = fail(singular, "met a singular Jacobian")
            direction = direction[:, ~singular]
        # u + direction has the bytes of u + 1.0 * direction.
        candidate = u + direction
        cand_residual, cand_powers = residual_at(candidate, rhs)
        cand_norm = _column_max(cand_residual)
        better = cand_norm < norm
        if np.count_nonzero(better) < better.size:
            pending = np.flatnonzero(~better)
            step = 1.0
            for _ in range(NEWTON_MAX_HALVINGS):
                step *= 0.5
                trial = u[:, pending] + step * direction[:, pending]
                trial_residual, trial_powers = residual_at(trial, rhs[:, pending])
                trial_norm = _column_max(trial_residual)
                better = trial_norm < norm[pending]
                accepted = pending[better]
                candidate[:, accepted] = trial[:, better]
                cand_residual[:, accepted] = trial_residual[:, better]
                cand_norm[accepted] = trial_norm[better]
                cand_powers[:, accepted] = trial_powers[:, better]
                pending = pending[~better]
                if not pending.size:
                    break
            else:
                # Dropped with the residual norm of their last iterate.
                stalled = np.full(index.size, False)
                stalled[pending] = True
                index, rhs, tol, u, residual, powers, norm = fail(
                    stalled, "stalled at residual {:.3e}"
                )
                candidate, cand_residual, cand_powers, cand_norm = _columns(
                    ~stalled, candidate, cand_residual, cand_powers, cand_norm
                )
        u, residual, powers, norm = candidate, cand_residual, cand_powers, cand_norm
    if failures:
        column = min(failures)
        raise NewtonDivergence(failures[column], column)
    return solution


def _newton_direction(
    slow: SlowOperatorSpec,
    grid: Grid1D,
    u: Array,
    dt: float,
    residual: Array,
    powers: Array,
) -> tuple[Array, Array | None]:
    """Solve J(u) d = -residual for every column of u (n, C) with one LAPACK gtsv call.

    gtsv is the tridiagonal LU with partial pivoting that solve_banded uses
    for (1, 1) bands, without its validation. It copies the diagonals, so
    sub and super may share memory, and writes d over its right-hand side.
    The C Jacobians lie end to end in one system (_monotone_jacobian_bands).
    Returns the directions and None, or with a boolean mask of the columns
    whose Jacobian is singular, whose directions are then meaningless.

    A zero coupling below the last row of a block is never a pivot and
    makes a zero elimination factor, so the blocks do not mix: every
    nonzero entry has the bytes of the column's own gtsv solve, and an
    entry that is exactly zero may at most change its sign, which no later
    nonzero value depends on. Two cases break this: a zero pivot stops
    gtsv at its block, and a non-finite entry reaches the block before it
    through a zero coupling (0 * inf). Then every column is solved on its
    own, as a single column always is.
    """
    sub, diag, sup = _monotone_jacobian_bands(slow, grid, u, dt, powers)
    n, columns = u.shape
    if n == 1:  # the gtsv wrapper rejects empty off-diagonals
        return -residual / diag, None
    # gtsv writes the directions over rhs when its column-major view is no copy.
    rhs = -residual
    *_, direction, info = dgtsv(sub, diag, sup, rhs.ravel(order="F"), overwrite_b=True)
    if not info and direction.base is rhs and (columns == 1 or np.isfinite(direction).all()):
        return rhs, None
    singular = np.zeros(columns, dtype=bool)
    for c in range(columns):
        band = slice(c * n, c * n + n - 1)
        *_, rhs[:, c], info = dgtsv(
            sub[band], diag[c * n : (c + 1) * n], sup[band], -residual[:, c], overwrite_b=True
        )
        singular[c] = info != 0
    return rhs, singular if singular.any() else None


def _monotone_jacobian_bands(
    slow: SlowOperatorSpec, grid: Grid1D, u: Array, dt: float, powers: Array
) -> tuple[Array, Array, Array]:
    """Jacobians of u - dt * A(u) for the columns of u (n, C), laid end to end.

    Returns the (sub, diag, super) diagonals of one tridiagonal system of
    size C n, the three arrays LAPACK gtsv takes: column c's Jacobian is the
    block on rows c n to c n + n - 1, and the two off-diagonal entries
    between one block and the next are zero (with C = 1 they fall outside
    the bands). The porous-medium Jacobian I + dt L diag(psi'(u)) is not
    symmetric, so its two off-diagonals differ. powers is |v| ** (p - 2)
    as slow_drift takes it.
    """
    h2 = grid.h**2
    n = u.shape[0]
    if slow.kind == "porous_medium":
        dpsi = slow.c * (slow.p - 1.0) * powers
        off = (-dt * dpsi / h2).ravel(order="F")
        sub = off[:-1].copy()
        sub[n - 1 :: n] = 0.0
        off[n::n] = 0.0
        return sub, (1.0 + 2.0 * dt * dpsi / h2).ravel(order="F"), off[1:]
    # p_laplace: face weights phi'(g) = (p-1) |g|^(p-2); row n - 1 of off
    # would couple a block to the next one.
    w = (slow.p - 1.0) * powers
    off = -dt * w[1:] / h2
    off[-1] = 0.0
    off = off.ravel(order="F")[:-1]
    return off, (1.0 + dt * (w[:-1] + w[1:]) / h2).ravel(order="F"), off


# Micro steps whose noise _FastStepper.path synthesizes at once.
NOISE_BLOCK = 64
# Micro steps per replica whose raw fast rows _record draws at once for a
# whole epsilon grid, after the last max(n_sub) - 1 rows drawn, beside a
# scaled copy: 2 (R, 2048 + 38, modes), 0.8 MB at R = 3, n_sub = 39, 8 modes.
RECORD_BLOCK = 2048


class _FastStepper:
    """Implicit Euler micro steps of the fast equation with the slow input frozen.

    A step of size dt_micro solves (I + a L) y' = y + a B2(x, y) + xi with
    a = dt_micro / epsilon and xi the fast Wiener increment weighted by
    1 / sqrt(epsilon); epsilon = 1 is the frozen equation of the averaging
    module. One layout: the state y is (n, C), a single run being C = 1; the
    frozen x is (n, C) or one column (n, 1) under every state column, both
    in the coordinates _fast_coordinates keeps the kind's state in; noise
    is replica first, (R, steps, modes), and column c takes replica c mod R
    (see _by_column). path takes the micro steps one by one; a coupled or
    auxiliary macro step is _block_replay's, from the noise _record keeps.
    """

    def __init__(
        self,
        fast: FastOperatorSpec,
        coupling: CouplingSpec,
        grid: Grid1D,
        epsilon: float,
        dt_micro: float,
        n_sub: int = 1,
    ):
        self.fast = fast
        self.epsilon = epsilon
        self.n_sub = n_sub
        self.a = dt_micro / epsilon
        self._modes = coupling.g2_modes
        self._scales = mode_scales(coupling.g2_amplitude, coupling.g2_modes) * math.sqrt(dt_micro)
        self._noise_weight = 1.0 / math.sqrt(epsilon)
        if fast.kind == "linear":
            self._d = 1.0 / (1.0 + self.a * grid.eigenvalues)
        else:
            self._noise_basis = sine_basis(grid, coupling.g2_modes)
            self._solver = ShiftedLaplacian(grid, 1.0, self.a)

    @classmethod
    def for_model(cls, model: "ModelSpec", dt_macro: float, params: SchemeParams) -> "_FastStepper":
        """The micro stepping of the coupled scheme: n_sub steps per macro step."""
        target = params.dt_fast_target or DT_FAST / contraction_margin(model.fast, model.grid)
        n_sub = max(1, math.ceil(dt_macro / (model.epsilon * target) - 1e-12))
        return cls(
            model.fast, model.coupling, model.grid, model.epsilon, dt_macro / n_sub, n_sub
        )

    def draw(self, streams: Sequence[RngStream], steps: int) -> Array:
        """Raw noise coefficients of `steps` micro steps, shape (R, steps, modes).

        Row r is drawn from lane 1 of streams[r].
        """
        generators = [stream.generator(1) for stream in streams]
        return _draw(generators, (steps, self._modes), self._scales)

    @functools.cached_property
    def _block_gains(self) -> tuple[Array, Array, Array]:
        # Row m of powers is d^(n_sub - m): the decay the noise of micro step
        # m sees by the end of the block. Decay and drive are (n, 1) columns,
        # the gains of the exact macro step in _block_replay.
        powers = self._d ** np.arange(self.n_sub, 0, -1)[:, None]
        drive = self.a * self.fast.c_b * powers.sum(axis=0)
        return powers[0][:, None], drive[:, None], self._noise_weight * powers[:, : self._modes]

    def path(self, x_frozen: Array, y: Array, coefficients: Array) -> Iterator[Array]:
        """Yield the state after each micro step, one per coefficient step.

        x_frozen, y and the states yielded are in the coordinates
        _fast_coordinates keeps the kind's state in. The noise of NOISE_BLOCK
        steps at a time is weighted (for smooth_bounded, synthesized at the
        nodes) and laid out against the columns of y before their steps run,
        so memory does not grow with the step count.
        """
        a = self.a
        if self.fast.kind == "linear":
            # In mode coefficients a micro step is y^ <- d (y^ + a c_b x^ + xi^).
            d = self._d[:, None]
            forcing = a * self.fast.c_b * x_frozen
            modes = self._modes

            def step(y_hat: Array, xi: Array) -> Array:
                rhs = y_hat + forcing
                rhs[:modes] += xi
                return d * rhs

        else:
            cx = self.fast.c_b * x_frozen
            b = self.fast.b

            def step(y: Array, xi: Array) -> Array:
                return self._solver.solve(y + a * (cx + b * np.sin(y)) + xi)

        state = y
        for start in range(0, coefficients.shape[1], NOISE_BLOCK):
            noise = coefficients[:, start : start + NOISE_BLOCK] * self._noise_weight
            if self.fast.kind != "linear":
                # The physical noise of each step: one gemv per (replica, step).
                noise = np.matmul(self._noise_basis, noise[..., None])[..., 0]
            for xi in _by_column(noise, y):
                state = step(state, xi)
                yield state


def _matvec(matrix: Array, v: Array) -> Array:
    """matrix @ v for each column of a batch v (n, C); a single vector is C = 1.

    The columns go on np.matmul's stacked axis: one gemv per column, so a
    column's bytes do not depend on the batch. matrix @ v would be one gemm.
    """
    return np.matmul(matrix, v.T[:, :, None])[:, :, 0].T


def _fast_coordinates(fast: FastOperatorSpec, grid: Grid1D) -> tuple[Callable, ...]:
    """(to_state, to_nodes, l2_norms): nodal columns (n, C) into the coordinates a fast
    state is kept in and back, and the grid L2 norm of rows (..., n) in them: for the
    linear kind sine modes y^ = h B^T y, y = B y^, and their Euclidean norm (Parseval)."""
    if fast.kind != "linear":
        return (lambda v: v), (lambda v: v), (lambda v: row_norms(grid, v, L2))
    basis = sine_basis(grid, grid.n_interior)
    analysis = np.ascontiguousarray(grid.h * basis.T)
    euclidean = lambda v: np.sqrt(np.sum(v * v, axis=-1))  # noqa: E731
    return (lambda v: _matvec(analysis, v)), (lambda v: _matvec(basis, v)), euclidean


def _by_column(v: Array, y: Array) -> Array:
    """Noise v (R, ...) laid out against the columns of a state y (n, C).

    The replica axis moves last and column c takes replica c mod R, so a
    single replica (R = 1) broadcasts to every column.
    """
    replicas, columns = v.shape[0], y.shape[1]
    if columns % replicas:
        raise ValueError(f"{replicas} noise replicas cannot drive a state of shape {y.shape}")
    v = v.transpose(*range(1, v.ndim), 0)
    return v if replicas in (1, columns) else np.tile(v, columns // replicas)


def _draw(
    generators: Sequence[np.random.Generator], shape: tuple[int, ...], scales: Array
) -> Array:
    """Scaled standard normals, shape (R, *shape); row r from generators[r].

    Each replica fills its own contiguous row of one preallocated array,
    with the numbers it would draw alone; drawing on from the same
    generators gives the numbers that follow in one longer draw.
    """
    rows = np.empty((len(generators), *shape))
    for row, generator in zip(rows, generators):
        generator.standard_normal(out=row)
    rows *= scales
    return rows


def _record(
    steppers: Sequence[_FastStepper], streams: Sequence[RngStream], n_macro: int
) -> list[Array]:
    """The fast noise of n_macro macro steps at each stepper's n_sub, as _block_replay reads it.

    Stepper s gets, for row r, the numbers s.draw(streams, n_macro * n_sub)
    gives from lane 1 of streams[r], one set per macro step: smooth_bounded
    the raw rows, (R, n_macro, n_sub, modes), and the linear kind their sums
    over micro steps m of noise_gain[m] times the row, per mode, (R,
    n_macro, modes), every stepper's a view of one (E R, n_macro, modes)
    stack. A coarser n_sub's unscaled rows are a prefix of a finer one's, so
    each stream's rows are drawn once, up to the largest n_sub, RECORD_BLOCK
    micro steps at a time, its generator carrying on from block to block,
    after the last max(n_sub) - 1 rows already drawn: the start of any macro
    step that straddles the block boundary. So each stepper takes the macro
    steps that end in the block whole from one slice and scales them (and
    the linear kind sums them in one einsum), each as it would alone; the
    linear sums do not grow with n_sub, smooth_bounded's raw rows do.
    """
    generators = [stream.generator(1) for stream in streams]
    replicas, modes = len(streams), steppers[0]._modes
    keep = max(stepper.n_sub for stepper in steppers) - 1
    total = n_macro * (keep + 1)
    block = min(RECORD_BLOCK, total)
    # Row j of raw is micro step start - keep + j. The linear kind scales its
    # rows into scaled: as a fresh product or a second allocation it stayed
    # in glibc's heap, and perfbench's diagnose-burgers peaked 0.4 MB higher.
    raw, scaled = np.empty((2, replicas, keep + block, modes))
    linear = steppers[0].fast.kind == "linear"
    if linear:
        records = np.split(np.empty((len(steppers) * replicas, n_macro, modes)), len(steppers))
    else:
        records = [np.empty((replicas, n_macro, s.n_sub, modes)) for s in steppers]
    for start in range(0, total, RECORD_BLOCK):
        count = min(RECORD_BLOCK, total - start)
        raw[:, :keep] = raw[:, block:]
        for row, generator in zip(raw, generators):
            generator.standard_normal(out=row[keep : keep + count])
        for stepper, record in zip(steppers, records):
            # The macro steps that end in this block; none once all n_macro are done.
            n_sub = stepper.n_sub
            first, last = (min(n_macro, end // n_sub) for end in (start, start + count))
            rows = raw[:, keep + first * n_sub - start : keep + last * n_sub - start]
            rows = rows.reshape(replicas, last - first, n_sub, modes)
            if linear:
                out = scaled.reshape(-1)[: rows.size].reshape(rows.shape)
                np.multiply(rows, stepper._scales, out=out)
                record[:, first:last] = np.einsum("mk,...mk->...k", stepper._block_gains[2], out)
            else:
                np.multiply(rows, stepper._scales, out=record[:, first:last])
    return records


def simulate_coupled(
    model: ModelSpec, T: float, params: SchemeParams, streams: Sequence[RngStream]
) -> tuple[Trajectory, NoisePath]:
    """Advance the coupled pair of a batch over [0, T] and record the noise that drove it.

    streams holds one RngStream per replica; a lone replica is [stream].
    The whole horizon is drawn up front and recorded as a NoisePath (see
    Noise above), which drives the averaged equation and the block-frozen
    auxiliary construction with this very realization. This is the
    one-epsilon case of simulate_epsilon_grid.
    """
    return simulate_epsilon_grid(model, [model.epsilon], T, params, streams)[0]


def simulate_epsilon_grid(
    model: ModelSpec,
    epsilons: Sequence[float],
    T: float,
    params: SchemeParams,
    streams: Sequence[RngStream],
) -> list[tuple[Trajectory, NoisePath]]:
    """simulate_coupled for a batch at each epsilon of a grid, in one slow loop.

    Returns, for each epsilon in order, what simulate_coupled returns for
    the batch of `streams` on model with that epsilon, with the same bytes.
    Every state of the run goes into one x and one y history, of which
    each Trajectory is a view.
    """
    paths, states, _ = _epsilon_grid(model, epsilons, T, params, streams, None)
    times, x_hist, y_hist = _histories(states, paths[0])
    to_nodes = _fast_coordinates(model.fast, model.grid)[1]  # one transform of all y
    y_hist = to_nodes(y_hist.reshape(-1, y_hist.shape[-1]).T).T.reshape(y_hist.shape)
    xs, ys = (np.split(h, len(paths), axis=1) for h in (x_hist, y_hist))
    return [(Trajectory(times, x, y), path) for x, y, path in zip(xs, ys, paths)]


def epsilon_grid_errors(
    model: ModelSpec,
    epsilons: Sequence[float],
    T: float,
    params: SchemeParams,
    streams: Sequence[RngStream],
    fbar: Callable[[Array], Array],
) -> Array:
    """strong_error of each replica at each epsilon against its averaged run, (E, R).

    simulate_epsilon_grid's run with the averaged equation beside it (see
    Batches above), without histories. fbar takes the averaged columns once
    per macro step, (n, R). Each coupled column's squared gap to its
    replica's averaged column goes into a running sup, NOISE_BLOCK macro
    times at a time through row_norms, with the bytes and the overflow error
    (the first by epsilon, then replica) strong_error gives on the histories
    of simulate_coupled at each epsilon and simulate_averaged on its path.
    """
    paths, states, _ = _epsilon_grid(model, epsilons, T, params, streams, fbar)
    n, groups, replicas = model.grid.n_interior, len(paths) + 1, paths[0].slow.shape[0]
    sup = np.zeros((groups - 1, replicas))
    size = min(NOISE_BLOCK, paths[0].n_macro + 1)
    block = np.empty((size, groups, replicas, n))
    with np.errstate(over="ignore", invalid="ignore"):
        for j, (x, _) in enumerate(states):
            block.reshape(size, -1, n)[j % size] = x.T
            steps = j % size + 1
            if steps == size or j == paths[0].n_macro:
                gaps = (block[:steps, :-1] - block[:steps, -1:]).reshape(-1, n)
                norms = row_norms(model.grid, gaps, model.state_norm) ** 2
                np.maximum(sup, norms.reshape(steps, *sup.shape).max(axis=0), out=sup)
    if not np.isfinite(sup).all():
        raise NumericalBlowUp(f"strong error overflowed: {float(sup[~np.isfinite(sup)][0])!r}")
    return sup


def _histories(states: Iterator[tuple[Array, Array]], path: NoisePath) -> tuple[Array, ...]:
    """The macro times of a _slow_loop on path, and every x and y it yields, time first."""
    with np.errstate(over="ignore", invalid="ignore"):
        x, y = next(states)
        x_hist, y_hist = (np.empty((path.n_macro + 1, *state.T.shape)) for state in (x, y))
        x_hist[0], y_hist[0] = x.T, y.T
        for j, (x, y) in enumerate(states, 1):
            x_hist[j], y_hist[j] = x.T, y.T
    return np.arange(path.n_macro + 1) * path.dt_macro, x_hist, y_hist


def _epsilon_grid(
    model: ModelSpec,
    epsilons: Sequence[float],
    T: float,
    params: SchemeParams,
    streams: Sequence[RngStream],
    fbar: Callable[[Array], Array] | None,
    replays: Sequence[tuple[int, int]] = (),
) -> tuple[list[NoisePath], Iterator[tuple[Array, Array]], Array]:
    """The paths of a grid run (one per epsilon), its _slow_loop (see Batches above) and source,
    the coupled column whose noise and x^ drive each fast column. Each (g, q) of replays adds R
    columns after the coupled ones: group g's noise, x^ frozen at multiples of q macro steps."""
    streams = stream_batch(streams)
    if not len(epsilons):
        raise ValueError("epsilons must hold at least one epsilon")
    replicas = len(streams)
    dt = params.dt_macro
    m = whole_steps(T, dt, "horizon T")
    coupling = model.coupling
    slow_scales = mode_scales(coupling.g1_amplitude, coupling.g1_modes) * math.sqrt(dt)
    slow_rows = _draw([s.generator(0) for s in streams], (m, coupling.g1_modes), slow_scales)
    steppers = [
        _FastStepper.for_model(dataclasses.replace(model, epsilon=epsilon), dt, params)
        for epsilon in epsilons
    ]
    width = len(steppers) * replicas
    paths = [
        NoisePath(dt, stepper.n_sub, epsilon, slow_rows, noise)
        for stepper, epsilon, noise in zip(steppers, epsilons, _record(steppers, streams, m))
    ]
    source, advance = _block_replay(model, paths, [*range(len(paths)), *(g for g, _ in replays)])
    block_steps = np.repeat([q for _, q in replays], replicas)
    anchored = [(q, width + np.flatnonzero(block_steps == q)) for q in set(block_steps.tolist())]
    to_state, to_nodes, _ = _fast_coordinates(model.fast, model.grid)
    y = to_state(np.tile(model.y0.values, (source.size, 1)).T)
    x_fast = np.empty((model.grid.n_interior, source.size), order="F")

    def forcing(j: int, x: Array, y: Array) -> tuple[Array, Array]:
        """F at the left endpoint; the fast states then run one block with x frozen."""
        f = np.empty_like(x)
        f[:, :width] = coupling_f(coupling, x[:, :width], to_nodes(y[:, :width]))
        x_fast[:, :width] = to_state(x[:, :width])
        for q, own in anchored:  # one check per distinct q
            if block_anchors(j, q) == j:
                x_fast[:, own] = x_fast[:, source[own]]
        y = advance(j, x_fast, y)
        if fbar is not None:
            f[:, width:] = fbar(x[:, width:])
        return f, y

    run_epsilons = [path.epsilon for path in paths] + [None] * (fbar is not None)
    return paths, _slow_loop(model, params, paths[0], run_epsilons, forcing, y), source


def _block_replay(
    model: ModelSpec, paths: Sequence[NoisePath], sets: Sequence[int]
) -> tuple[Array, Callable[[int, Array, Array], Array]]:
    """The one fast-block rule: macro step j of every fast column of a grid run.

    Path g is the R-replica path of coupled group g of one grid run; set k
    of R columns replays path sets[k], coupled or block-frozen. Returns
    source, where source[c] = g R + r is the coupled column whose noise
    drives column c, and step(j, x_frozen, y), called for j = 0, 1, ... in
    turn, which moves the fast states y (n, W) through macro step j with
    the slow input x_frozen (n, W), both as _fast_coordinates keeps them.
    For the linear kind that is one exact update in sine modes, y^ <- decay
    y^ + drive x^ + noise, with each column's own gains and the noise sums
    of its source gathered NOISE_BLOCK steps at a time; smooth_bounded runs
    all of each path's columns through its n_sub raw rows in one path run.
    """
    replicas = paths[0].fast.shape[0]
    fast, coupling, grid = model.fast, model.coupling, model.grid
    steppers = [
        _FastStepper(fast, coupling, grid, p.epsilon, p.dt_macro / p.n_sub, p.n_sub) for p in paths
    ]
    # The linear kind records one sum per macro step and mode, smooth_bounded the raw rows.
    sub = [() if fast.kind == "linear" else (p.n_sub,) for p in paths]
    if any(p.fast.shape[2:] != (*s, coupling.g2_modes) for p, s in zip(paths, sub)):
        raise ValueError(f"recorded fast noise does not fit the {fast.kind} fast operator")
    group = np.repeat(sets, replicas)
    source = group * replicas + np.arange(group.size) % replicas
    if fast.kind == "linear":
        gains = [stepper._block_gains for stepper in steppers]
        decay, drive = (
            np.asfortranarray(np.hstack([g[i] for g in gains])[:, group]) for i in (0, 1)
        )
        noise = None

        def step(j: int, x_frozen: Array, y: Array) -> Array:
            nonlocal noise
            if j % NOISE_BLOCK == 0:
                noise = np.concatenate([p.fast[:, j : j + NOISE_BLOCK] for p in paths])[source]
            y_next = decay * y
            y_next += drive * x_frozen
            y_next[: coupling.g2_modes] += noise[:, j % NOISE_BLOCK].T
            return y_next

        return source, step
    columns = [group == g for g in range(len(paths))]

    def step(j: int, x_frozen: Array, y: Array) -> Array:
        y_next = np.empty_like(y)
        for stepper, own, path in zip(steppers, columns, paths):
            for state in stepper.path(x_frozen[:, own], y[:, own], path.fast[:, j]):
                pass
            y_next[:, own] = state
        return y_next

    return source, step


def simulate_averaged(
    model: ModelSpec,
    fbar: Callable[[Array], Array],
    params: SchemeParams,
    noise: NoisePath,
) -> SlowTrajectory:
    """Advance the averaged slow equation on the grid and slow noise of a recorded path.

    fbar maps the slow nodal values of every replica at once, (n, R), to
    the averaged coupling drift, as OracleFbar and MemoizedFbar take them;
    params supplies only the Newton tolerance.
    Against the path of simulate_coupled the run shares that realization
    exactly. Failures raise as in simulate_coupled.
    """
    no_fast = np.empty((model.grid.n_interior, 0))
    states = _slow_loop(model, params, noise, [None], lambda j, x, y: (fbar(x), y), no_fast)
    times, x_hist, _ = _histories(states, noise)
    return SlowTrajectory(times, x_hist)


def _slow_loop(
    model: ModelSpec,
    params: SchemeParams,
    noise: NoisePath,
    epsilons: Sequence[float | None],
    forcing: Callable[[int, Array, Array], tuple[Array, Array]],
    y: Array,
) -> Iterator[tuple[Array, Array]]:
    """The one macro-step loop of the slow equation; yields (x, y) at every macro time.

    x holds a group of R columns for each of `epsilons`, a coupled run's
    epsilon or None for the averaged run, all on the slow increments of
    noise.slow, synthesized NOISE_BLOCK steps at a time; y, (n, W), is the
    fast state (_fast_coordinates), the coupled groups' columns first, then
    any replay columns. forcing(j, x, y) returns macro step j's drift at its
    left endpoint and y at its right one. Nothing is kept. A step makes one
    all-finite test of x and the coupled columns of y, and looks for the
    failing group (see the module docstring) only on failure.
    """
    grid = model.grid
    stepper = _SlowStepper(model.slow, grid, noise.dt_macro, params)
    basis_t = np.ascontiguousarray(sine_basis(grid, noise.slow.shape[-1]).T)
    slow = noise.slow.transpose(1, 0, 2)[:, :, None, :]
    n_macro, replicas = slow.shape[:2]
    x = np.tile(model.x0.values, (len(epsilons) * replicas, 1)).T
    coupled = sum(epsilon is not None for epsilon in epsilons) * replicas
    failed = None
    for j in range(n_macro + 1):
        if failed is not None or not (np.isfinite(x).all() and np.isfinite(y[:, :coupled]).all()):
            lost = ~np.isfinite(x).all(axis=0)
            lost[:coupled] |= ~np.isfinite(y[:, :coupled]).all(axis=0)
            g = int(np.argmax(lost)) // replicas if lost.any() else len(epsilons)
            newton = failed is not None and failed.column // replicas <= g
            epsilon = epsilons[failed.column // replicas if newton else g]
            averaged = epsilon is None
            equation = "averaged" if averaged else "coupled"
            at = "" if averaged else f" at epsilon={epsilon:g}"
            if newton:
                message = f"{equation} run{at} failed at macro step {j}: {failed}"
                raise NewtonDivergence(message, averaged=averaged) from failed
            message = f"{equation} run blew up{at}: non-finite state at macro step {j}"
            raise NumericalBlowUp(message, averaged)
        yield x, y
        if j == n_macro:
            return
        if j % NOISE_BLOCK == 0:
            # increments[i, r] is the Wiener increment of replica r over macro step j + i.
            increments = np.matmul(slow[j : j + NOISE_BLOCK], basis_t)[:, :, 0]
        f, y = forcing(j, x, y)
        try:
            x = stepper.step(x, f, increments[j % NOISE_BLOCK].T)
        except NewtonDivergence as exc:
            failed = exc


def strong_error(
    coupled: Trajectory | SlowTrajectory, averaged: SlowTrajectory, grid: Grid1D, kind: NormKind
) -> float:
    """sup over macro times of the squared norm of the slow-state mismatch.

    Finite states can still square past the floating-point range; such an
    error raises NumericalBlowUp rather than being returned as inf.
    """
    if coupled.x.shape != averaged.x.shape:
        raise ValueError("trajectories have different shapes")
    with np.errstate(over="ignore"):
        error = float(np.max(row_norms(grid, coupled.x - averaged.x, kind) ** 2))
    if not math.isfinite(error):
        raise NumericalBlowUp(f"strong error overflowed: {error!r}")
    return error
