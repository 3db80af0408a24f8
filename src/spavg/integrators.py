"""Coupled and averaged time stepping with recordable, replayable noise.

Scheme. The slow state advances with a drift-implicit, noise-explicit Euler
step over dt_macro: the monotone operator A is treated implicitly (a damped
Newton iteration for porous medium and p-Laplace, each direction one LAPACK
gtsv solve with the tridiagonal Jacobian; a prefactored tridiagonal pttrs
solve for the Burgers Laplacian with explicit convection), while a forcing
and the Wiener increment enter explicitly. The coupled and the averaged
equation share this one macro-step loop and differ only in the forcing, as
in the macro solver of a heterogeneous multiscale method: F(x, y) at the
left endpoint in the coupled run, fbar(x) in the averaged one. Given fbar,
simulate_epsilon_grid advances both in one loop, the averaged run as more
columns of the same state on the same slow increments: one column per
replica, since the averaged equation has no epsilon. The fast state
advances inside each macro step through n_sub implicit Euler micro
steps of size dt_macro / n_sub with the slow input frozen at the left
endpoint; n_sub is the smallest integer keeping dt_micro / epsilon below
dt_fast_target, so the fast equation is resolved on its own clock no matter
how small epsilon gets. With a = dt_micro / epsilon a micro step solves

    (I + a L) y' = y + a B2(x, y) + xi.

For the linear fast operator I + a L is diagonal in the sine eigenbasis the
noise is drawn in, with entries 1 / d_k = 1 + a lambda_k, so the n_sub micro
steps of a macro step collapse to one exact update of the mode coefficients,

    y^ <- d^M y^ + (sum_{j=1..M} d^j) a c_b x^ + sum_m d^(M-m) xi^_m,

the same scheme up to rounding. The smooth_bounded operator needs sin(y) in
physical space and takes its micro steps one by one through a prefactored
pttrs solve.

Noise. Each Wiener increment is synthesized from sine-mode coefficients
(amplitude / k**2) * sqrt(dt) * xi_k. A coupled run draws its whole horizon
before the first step and keeps it as a NoisePath, together with dt_macro
and n_sub: the raw slow coefficient rows, and the fast noise in the form the
fast stepper consumes it. For smooth_bounded these are the raw micro-step
rows (without the 1/sqrt(epsilon) weight). For the linear kind a macro step
reads its n_sub rows only through the per-mode sum
sum_m noise_gain[m] xi^_m = epsilon^(-1/2) sum_m d^(M-m) xi^_m of the exact
update above, so the path stores that sum, one row per macro step: the raw
rows are drawn and summed a block of macro steps at a time, each stream's
generator carrying on from block to block, and memory does not grow with
n_sub. The path is the only source of a replay's step grid, and it is
exactly enough to replay the same realization into the averaged equation or
into the block-frozen auxiliary construction (same epsilon and n_sub, so the
same gains), bit for bit.

Batches. The replicas of one epsilon advance together as the columns of
one state, shape (n, R), in the same macro-step loop that runs a single
replica as a batch of one; simulate_epsilon_grid adds a group of R coupled
columns per epsilon of a grid, and at most one averaged group of R columns
for them all. Replica r draws the same slow rows at every epsilon
(lane 0 of its stream does not depend on epsilon), so one set of slow
increments drives every group. Each group has its own fast stepper and fast
noise, but the fast states of all groups are one state. The linear kind's
epsilons differ only in per-mode gains, so one exact update per macro step
advances every group; smooth_bounded, whose n_sub differs per epsilon,
steps each group on its own. Replica r draws its whole horizon from its own
stream into row r of one preallocated array, so recorded noise puts the
replica first, (R, n_macro, ...), and each replica's rows are contiguous;
trajectories are time first, (n_steps + 1, R, n), so that each macro step
writes one contiguous block. There is no other layout, in private code or
at the public entry points: states are (n, C) and noise (R, ...), a lone
replica is a batch of one that its caller builds ([stream], x[:, None]),
and statistics take one replica out with Trajectory.replica. A replica's
bytes do not depend on its batch or on the other epsilons of its grid,
because every operation on a batch is one of:

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
NewtonDivergence or NumericalBlowUp; there are no partial results. It
raises at the earliest macro step at which any column fails, a coupled
column before an averaged one at the same step. Since a replica's bytes do
not depend on its batch or on the other epsilons of its grid, running a
failed grid one epsilon at a time and the replicas of a failed one-epsilon
batch one at a time finds the lowest failing one and its own error. That
is the one rerun rule of converge and diagnose (experiments._by_replica):
converge runs a batch at every epsilon at once, diagnose at one.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Callable, Iterator, Sequence

import numpy as np
from scipy.linalg.lapack import dgtsv

from .grid import Array, Field, Grid1D, NormKind, ShiftedLaplacian, row_norms, sine_basis
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

    column is the failing column of a solve over many columns.
    """

    def __init__(self, message: str, column: int = 0) -> None:
        super().__init__(message)
        self.column = column


class NumericalBlowUp(ArithmeticError):
    """A simulated state left the floating-point range (NaN or Inf)."""


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
        contraction_margin(self.fast, self.coupling, self.grid)

    @property
    def state_norm(self) -> NormKind:
        return self.slow.state_norm


class NoisePath:
    """Recorded noise of both Wiener processes for a batch of R replicas.

    slow has shape (R, n_macro, g1_modes): raw Wiener-increment coefficients
    over dt_macro. fast holds, per macro step, what the fast stepper of this
    epsilon and n_sub consumes (_FastStepper.record): the gain-weighted
    noise sums, (R, n_macro, g2_modes), for the linear kind, and the raw
    coefficient rows over dt_macro / n_sub, (R, n_macro, n_sub, g2_modes),
    for smooth_bounded. Which of the two layouts fits is the fast kind's
    business; the stepper checks it where a path is replayed.
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
        if fast.shape[:2] != slow.shape[:2] or (fast.ndim == 4 and fast.shape[2] != n_sub):
            raise ValueError("fast noise shape disagrees with n_sub / step count")
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
        gaps = x[1:] - x[block_anchors(n_steps, q)]
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


def block_anchors(n_steps: int, q: int) -> Array:
    """For each macro step j < n_steps, the step that starts its block of q steps."""
    return (np.arange(n_steps) // q) * q


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
    powers: Array | None = None,
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
    slow: SlowOperatorSpec, grid: Grid1D, u: Array, dt: float, powers: Array | None = None
) -> tuple[Array, Array, Array]:
    """Jacobians of u - dt * A(u) for the columns of u (n, C), laid end to end.

    Returns the (sub, diag, super) diagonals of one tridiagonal system of
    size C n, the three arrays LAPACK gtsv takes: column c's Jacobian is the
    block on rows c n to c n + n - 1, and the two off-diagonal entries
    between one block and the next are zero (with C = 1 they fall outside
    the bands). The porous-medium Jacobian I + dt L diag(psi'(u)) is not
    symmetric, so its two off-diagonals differ. powers may pass
    |v| ** (p - 2) as slow_drift takes it.
    """
    h2 = grid.h**2
    n = u.shape[0]
    if powers is None:
        v = u if slow.kind == "porous_medium" else face_gradients(grid, u)
        powers = np.abs(v) ** (slow.p - 2.0)
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
# Micro steps per replica whose raw rows _FastStepper.record draws and sums at once.
RECORD_BLOCK = 4096


class _FastStepper:
    """Implicit Euler micro steps of the fast equation with the slow input frozen.

    A step of size dt_micro solves (I + a L) y' = y + a B2(x, y) + xi with
    a = dt_micro / epsilon and xi the fast Wiener increment weighted by
    1 / sqrt(epsilon); epsilon = 1 is the frozen equation of the averaging
    module. One layout: the state y is (n, C), a single run being C = 1; the
    frozen x is (n, C) or one column (n, 1) under every state column; noise
    is replica first, (R, steps, modes) for path and (R, *noise_shape) for
    run_block, and column c takes replica c mod R (see _by_column).
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
        self.n_sub = n_sub
        self.a = dt_micro / epsilon
        self._modes = coupling.g2_modes
        self._scales = mode_scales(coupling.g2_amplitude, coupling.g2_modes) * math.sqrt(dt_micro)
        self._noise_weight = 1.0 / math.sqrt(epsilon)
        if fast.kind == "linear":
            self._basis = sine_basis(grid, grid.n_interior)
            self._analysis = np.ascontiguousarray(grid.h * self._basis.T)
            self._d = 1.0 / (1.0 + self.a * grid.eigenvalues)
        else:
            self._noise_basis = sine_basis(grid, coupling.g2_modes)
            self._solver = ShiftedLaplacian(grid, 1.0, self.a)

    @classmethod
    def for_model(cls, model: "ModelSpec", dt_macro: float, params: SchemeParams) -> "_FastStepper":
        """The micro stepping of the coupled scheme: n_sub steps per macro step."""
        target = params.dt_fast_target or DT_FAST / contraction_margin(
            model.fast, model.coupling, model.grid
        )
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

    @property
    def noise_shape(self) -> tuple[int, ...]:
        """The shape of the noise run_block takes for one macro step and one replica."""
        if self.fast.kind == "linear":
            return (self._modes,)
        return (self.n_sub, self._modes)

    def record(self, streams: Sequence[RngStream], n_macro: int) -> Array:
        """The fast noise of n_macro macro steps as run_block takes it, (R, n_macro, ...).

        Row r comes from lane 1 of streams[r], the numbers draw(streams,
        n_macro * n_sub) gives, reduced one macro step at a time (see
        reduce). The linear kind draws RECORD_BLOCK micro steps' rows at a
        time, each stream's generator carrying on from block to block, and
        reduces them before drawing the next, so its memory does not grow
        with n_sub.
        """
        generators = [stream.generator(1) for stream in streams]
        if self.fast.kind != "linear":
            return _draw(generators, (n_macro, self.n_sub, self._modes), self._scales)
        per_block = max(1, RECORD_BLOCK // self.n_sub)
        sums = np.empty((len(streams), n_macro, self._modes))
        for start in range(0, n_macro, per_block):
            steps = min(per_block, n_macro - start)
            rows = _draw(generators, (steps, self.n_sub, self._modes), self._scales)
            sums[:, start : start + steps] = self.reduce(rows)
        return sums

    def reduce(self, rows: Array) -> Array:
        """What run_block reads of raw rows (..., n_sub, modes), one set per macro step.

        The linear kind reads the sum over micro steps m of noise_gain[m]
        times the row, per mode, shape (..., modes); smooth_bounded reads
        the rows themselves. One einsum over any number of leading axes sums
        each row as it would alone.
        """
        if self.fast.kind != "linear":
            return rows
        return np.einsum("mk,...mk->...k", self._block_gains[2], rows)

    @functools.cached_property
    def _block_gains(self) -> tuple[Array, Array, Array]:
        # Row m of powers is d^(n_sub - m): the decay the noise of micro step
        # m sees by the end of the block. Decay and drive are (n, 1) columns,
        # the gains linear_block takes for every state column.
        powers = self._d ** np.arange(self.n_sub, 0, -1)[:, None]
        drive = self.a * self.fast.c_b * powers.sum(axis=0)
        return powers[0][:, None], drive[:, None], self._noise_weight * powers[:, : self._modes]

    def run_block(self, x_frozen: Array, y: Array, noise: Array) -> Array:
        """Advance y through one macro step driven by noise (R, *noise_shape).

        reduce makes the noise from raw rows (see the class docstring).
        """
        if self.fast.kind != "linear":
            for y in self.path(x_frozen, y, noise):
                pass
            return y
        decay, drive, _ = self._block_gains
        return self.linear_block(decay, drive, x_frozen, y, _by_column(noise, y))

    def linear_block(
        self, decay: Array, drive: Array, x_frozen: Array, y: Array, noise: Array
    ) -> Array:
        """The exact macro step of the linear kind: y^ <- decay y^ + drive x^ + noise.

        decay and drive are (n, 1), or (n, C) with each state column's own
        gains, and noise is (modes, C). Only the sine transforms, which
        every epsilon shares, come from this stepper, so one call can
        advance the columns of every epsilon of a grid.
        """
        y_hat = decay * _matvec(self._analysis, y)
        y_hat += drive * _matvec(self._analysis, x_frozen)
        y_hat[: self._modes] += noise
        return _matvec(self._basis, y_hat)

    def path(self, x_frozen: Array, y: Array, coefficients: Array) -> Iterator[Array]:
        """Yield the state after each micro step, one per coefficient step.

        The noise of NOISE_BLOCK steps at a time is weighted, synthesized and
        laid out against the columns of y before their steps run, so memory
        does not grow with the step count.
        """
        a = self.a
        if self.fast.kind == "linear":
            # In mode coefficients a micro step is y^ <- d (y^ + a c_b x^ + xi^).
            d = self._d[:, None]
            forcing = a * self.fast.c_b * _matvec(self._analysis, x_frozen)
            modes = self._modes

            def step(y_hat: Array, xi: Array) -> Array:
                rhs = y_hat + forcing
                rhs[:modes] += xi
                return d * rhs

            state, basis = _matvec(self._analysis, y), self._basis
            noise_basis = None
        else:
            cx = self.fast.c_b * x_frozen
            b = self.fast.b

            def step(y: Array, xi: Array) -> Array:
                return self._solver.solve(y + a * (cx + b * np.sin(y)) + xi)

            state, basis = y, None
            noise_basis = self._noise_basis
        for start in range(0, coefficients.shape[1], NOISE_BLOCK):
            noise = coefficients[:, start : start + NOISE_BLOCK] * self._noise_weight
            if noise_basis is not None:
                # The physical noise of each step: one gemv per (replica, step).
                noise = np.matmul(noise_basis, noise[..., None])[..., 0]
            for xi in _by_column(noise, y):
                state = step(state, xi)
                yield state if basis is None else _matvec(basis, state)


def _matvec(matrix: Array, v: Array) -> Array:
    """matrix @ v for each column of a batch v (n, C); a single vector is C = 1.

    The columns go on np.matmul's stacked axis: one gemv per column, so a
    column's bytes do not depend on the batch. matrix @ v would be one gemm.
    """
    return np.matmul(matrix, v.T[:, :, None])[:, :, 0].T


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


def simulate_coupled(
    model: ModelSpec, T: float, params: SchemeParams, streams: Sequence[RngStream]
) -> tuple[Trajectory, NoisePath]:
    """Advance the coupled pair of a batch over [0, T] and record the noise that drove it.

    streams holds one RngStream per replica; a lone replica is [stream].
    The whole horizon is drawn up front (slow rows on lane 0, fast rows on
    lane 1 of each stream), the same numbers as drawing step by step, and
    recorded as a NoisePath, whose fast noise is what the fast stepper
    consumes (noise sums for the linear kind). That path drives the
    averaged equation and the block-frozen auxiliary construction with this
    very realization. This is the one-epsilon case of simulate_epsilon_grid,
    which can also step the averaged equation beside the coupled one.
    """
    return simulate_epsilon_grid(model, [model.epsilon], T, params, streams)[0]


def simulate_epsilon_grid(
    model: ModelSpec,
    epsilons: Sequence[float],
    T: float,
    params: SchemeParams,
    streams: Sequence[RngStream],
    fbar: Callable[[Array], Array] | None = None,
) -> list[tuple[Trajectory, NoisePath] | tuple[Trajectory, NoisePath, SlowTrajectory]]:
    """simulate_coupled for a batch at each epsilon of a grid, in one slow loop.

    Returns, for each epsilon in order, what simulate_coupled returns for
    the batch of `streams` on model with that epsilon, with the same bytes,
    and given fbar the averaged SlowTrajectory third: the bytes of
    simulate_averaged(model, fbar, params, path) for any of the paths.
    Each epsilon is a group of R coupled columns with its own fast stepper
    and noise; the slow rows are drawn once and drive every group, since a
    replica draws the same ones at every epsilon. The fast states of all
    groups are one (n, E R) state with one history, each Trajectory.y a
    view of its group. For the linear kind one linear_block call per macro
    step advances them all, each column with its group's gains, and each
    path's fast noise is a view of one (E R, n_macro, modes) array;
    smooth_bounded runs each group's run_block in turn. Given fbar, a drift
    on columns, the averaged equation advances too. It has no epsilon, so
    it is one more group of R columns, one per replica, after the coupled
    ones: fbar is called once per macro step on that (n, R) group, and
    every epsilon's result holds the same averaged SlowTrajectory. Each
    macro step makes one slow solve for every column. A failure of any
    column raises, naming its equation and, for a coupled run, its epsilon
    (see _slow_loop).
    """
    streams = stream_batch(streams)
    replicas = len(streams)
    dt = params.dt_macro
    m = whole_steps(T, dt, "horizon T")
    coupling = model.coupling
    slow_scales = mode_scales(coupling.g1_amplitude, coupling.g1_modes) * math.sqrt(dt)
    generators = [stream.generator(0) for stream in streams]
    slow_rows = _draw(generators, (m, coupling.g1_modes), slow_scales)
    steppers = [
        _FastStepper.for_model(dataclasses.replace(model, epsilon=epsilon), dt, params)
        for epsilon in epsilons
    ]
    groups = [slice(g * replicas, (g + 1) * replicas) for g in range(len(steppers))]
    width = len(groups) * replicas
    # The fast states of every group, column g R + r for replica r at epsilon g.
    y_hist = np.empty((m + 1, width, model.grid.n_interior))
    y_hist[0] = model.y0.values
    if model.fast.kind == "linear":
        # One update for every group: the noise sums of all groups in one
        # stack, each group's path a view of it, and each group's gains
        # repeated over its R columns.
        fast = np.empty((width, m, coupling.g2_modes))
        for stepper, columns in zip(steppers, groups):
            fast[columns] = stepper.record(streams, m)
        noises = [fast[columns] for columns in groups]
        gains = [stepper._block_gains for stepper in steppers]
        decay = np.repeat(np.hstack([g[0] for g in gains]), replicas, axis=1)
        drive = np.repeat(np.hstack([g[1] for g in gains]), replicas, axis=1)

        def advance(j: int, x: Array, y: Array) -> None:
            y_hist[j + 1] = steppers[0].linear_block(decay, drive, x, y, fast[:, j].T).T

    else:
        # smooth_bounded takes each group's n_sub micro steps on its own.
        noises = [stepper.record(streams, m) for stepper in steppers]

        def advance(j: int, x: Array, y: Array) -> None:
            for stepper, columns, noise in zip(steppers, groups, noises):
                y_hist[j + 1, columns] = stepper.run_block(
                    x[:, columns], y[:, columns], noise[:, j]
                ).T

    paths = [
        NoisePath(dt, stepper.n_sub, epsilon, slow_rows, noise)
        for stepper, epsilon, noise in zip(steppers, epsilons, noises)
    ]

    def forcing(j: int, x: Array) -> Array:
        """F at the left endpoint; the fast states then run one block with x frozen."""
        coupled, y = x[:, :width], y_hist[j].T
        f = np.empty_like(x)
        f[:, :width] = coupling_f(coupling, coupled, y)
        advance(j, coupled, y)
        if fbar is not None:
            f[:, width:] = fbar(x[:, width:])
        return f

    runs = [
        ("coupled", path.epsilon, (y_hist[:, columns],)) for path, columns in zip(paths, groups)
    ]
    if fbar is not None:
        runs.append(("averaged", None, ()))
    slow = _slow_loop(model, params, paths[0], forcing, runs)
    results = [
        (Trajectory(slow.times, slow.x[:, columns], y_hist[:, columns]), path)
        for path, columns in zip(paths, groups)
    ]
    if fbar is None:
        return results
    averaged = SlowTrajectory(slow.times, slow.x[:, width:])
    return [result + (averaged,) for result in results]


def simulate_averaged(
    model: ModelSpec,
    fbar: Callable[[Array], Array],
    params: SchemeParams,
    noise: NoisePath,
) -> SlowTrajectory:
    """Advance the averaged slow equation on the grid and slow noise of a recorded path.

    fbar maps the slow nodal values of every replica at once, (n, R), to
    the averaged coupling drift, as OracleFbar and MemoizedFbar take them.
    Against the path of simulate_coupled the run shares that realization
    exactly. Failures raise as in simulate_coupled.
    """
    return _slow_loop(model, params, noise, lambda j, x: fbar(x), [("averaged", None, ())])


def _slow_loop(
    model: ModelSpec,
    params: SchemeParams,
    noise: NoisePath,
    forcing: Callable[[int, Array], Array],
    runs: Sequence[tuple[str, float | None, tuple[Array, ...]]],
) -> SlowTrajectory:
    """The one macro-step loop of the slow equation, on the grid of `noise`.

    The state holds one group of R columns, one per replica, for each
    (equation, epsilon, histories) entry of `runs`, in order, and every
    group takes the same slow increments of noise.slow: the coupled run at
    one epsilon or at each of a grid, the averaged run, whose epsilon is
    None since its equation has none, or both side by side. forcing(j, x)
    is the explicit drift of macro step j at its left endpoint x, all
    columns at once. The Wiener increments of every step and replica are
    synthesized before the loop, one gemv per row.

    Every column runs to the horizon, or the loop raises for the earliest
    macro step at which a column fails, an earlier group first at one step,
    naming the group's equation, its epsilon if it has one, and the step.
    A column fails where its run alone would: at the step whose Newton
    solve fails (NewtonDivergence, for the lowest failing column), or else
    at its first macro step with a non-finite state in x or in the
    histories (shape (n_steps + 1, R, n)) its group's forcing fills
    (NumericalBlowUp, checked after the loop). A non-finite state fails the
    next Newton solve, so for porous medium and p-Laplace a blow-up before
    the last step is a NewtonDivergence one step later.
    """
    grid = model.grid
    stepper = _SlowStepper(model.slow, grid, noise.dt_macro, params)
    basis_t = np.ascontiguousarray(sine_basis(grid, noise.slow.shape[-1]).T)
    # increments[j, r] is the Wiener increment of replica r over macro step j.
    increments = np.matmul(noise.slow.transpose(1, 0, 2)[:, :, None, :], basis_t)[:, :, 0]
    n_macro, replicas = increments.shape[:2]
    x_hist = np.empty((n_macro + 1, len(runs) * replicas, grid.n_interior))
    x_hist[0] = model.x0.values
    x = x_hist[0].T

    def at(epsilon: float | None) -> str:
        return "" if epsilon is None else f" at epsilon={epsilon:g}"

    def blow_up(step: int, equation: str, epsilon: float | None) -> NumericalBlowUp:
        return NumericalBlowUp(
            f"{equation} run blew up{at(epsilon)}: non-finite state at macro step {step}"
        )

    for j in range(n_macro):
        f = forcing(j, x)
        try:
            x = stepper.step(x, f, increments[j].T)
        except NewtonDivergence as exc:
            group = exc.column // replicas
            if j + 1 == n_macro:
                # A non-finite last state of an earlier group's histories
                # has no later solve to fail: it fails at this step too.
                for equation, epsilon, histories in runs[:group]:
                    if not all(np.isfinite(h[-1]).all() for h in histories):
                        raise blow_up(n_macro, equation, epsilon) from exc
            # Named like a blow-up: by the state the step computes.
            equation, epsilon, _ = runs[group]
            raise NewtonDivergence(
                f"{equation} run{at(epsilon)} failed at macro step {j + 1}: {exc}"
            ) from exc
        x_hist[j + 1] = x.T
    blow_ups = []
    for g, (_, _, histories) in enumerate(runs):
        states = (x_hist[:, g * replicas : (g + 1) * replicas], *histories)
        finite = np.logical_and.reduce([np.isfinite(h).all(axis=(1, 2)) for h in states])
        if not finite.all():
            blow_ups.append((int(np.argmin(finite)), g))
    if blow_ups:
        step, g = min(blow_ups)
        raise blow_up(step, *runs[g][:2])
    return SlowTrajectory(np.arange(n_macro + 1) * noise.dt_macro, x_hist)


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
