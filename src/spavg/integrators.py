"""Coupled and averaged time stepping with recordable, replayable noise.

Scheme. The slow state advances with a drift-implicit, noise-explicit Euler
step over dt_macro: the monotone operator A is treated implicitly (a damped
Newton iteration for porous medium and p-Laplace, each direction one LAPACK
gtsv solve with the tridiagonal Jacobian; a prefactored tridiagonal pttrs
solve for the Burgers Laplacian with explicit convection), while a forcing
and the Wiener increment enter explicitly. The coupled and the averaged
equation share this one macro-step loop and differ only in the forcing, as
in the macro solver of a heterogeneous multiscale method: F(x, y) at the
left endpoint in the coupled run, fbar(x) in the averaged one. The fast
state advances inside each macro step through n_sub implicit Euler micro
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
before the first step and keeps it as a NoisePath: the raw coefficient rows
(without the 1/sqrt(epsilon) weight on the fast channel) together with
dt_macro and n_sub. The path is the only source of a replay's step grid, and
it is exactly enough to replay the same realization into the averaged
equation or into the block-frozen auxiliary construction, bit for bit.

Batches. The replicas of one epsilon advance together as the columns of
one state, shape (n, R), in the same macro-step loop that runs a single
replica as a batch of one. Replica r draws its whole horizon from its own
stream into row r of one preallocated array, so recorded noise puts the
replica first, (R, n_macro, ...), and each replica's rows are contiguous;
trajectories are time first, (n_steps + 1, R, n), so that each macro step
writes one contiguous block. A replica's bytes do not
depend on its batch, because every batched operation is one of:

- elementwise;
- column by column: the prefactored pttrs solve with many right-hand sides,
  the Burgers convection, and the porous-medium and p-Laplace Newton solve,
  which runs one column at a time;
- a product with a fixed matrix (the sine transforms, the noise synthesis,
  the closed-form averaged drift), taken by _matvec through np.matmul with
  the columns on the stacked axis. That makes the one BLAS gemv call per
  column a single vector gets. One gemm over all columns would round each
  column differently depending on the batch width.

A run, single or batched, either finishes every replica or raises
NewtonDivergence or NumericalBlowUp; there are no partial results. Since a
replica's bytes do not depend on its batch, running the replicas of a
failed batch one at a time finds the lowest failing one and its own error,
which is what the experiment drivers do.
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
from .randomness import RngStream

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
    "strong_error",
]


# Fast step in relaxation times 1 / margin: the automatic dt_fast_target of
# the coupled scheme and the step of the averaging module's estimator.
DT_FAST = 0.1


class NewtonDivergence(RuntimeError):
    """The implicit solve failed to converge; reported as a numerical failure."""


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
    """Recorded mode coefficients of both Wiener processes, one replica or a batch.

    For one replica slow has shape (n_macro, g1_modes) and fast (n_macro,
    n_sub, g2_modes); a batch of R replicas adds a leading replica axis to
    both. Rows are raw Wiener-increment coefficients over dt_macro and
    dt_macro / n_sub respectively.
    """

    def __init__(
        self, dt_macro: float, n_sub: int, epsilon: float, slow: Array, fast: Array
    ) -> None:
        slow = np.ascontiguousarray(slow, dtype=np.float64)
        fast = np.ascontiguousarray(fast, dtype=np.float64)
        if slow.ndim not in (2, 3) or fast.ndim != slow.ndim + 1:
            raise ValueError(
                "slow must be ([replicas,] steps, modes), fast ([replicas,] steps, sub, modes)"
            )
        if fast.shape[:-2] != slow.shape[:-1] or fast.shape[-2] != n_sub:
            raise ValueError("fast coefficient shape disagrees with n_sub / step count")
        self.dt_macro = float(dt_macro)
        self.n_sub = int(n_sub)
        self.epsilon = float(epsilon)
        self.slow = slow
        self.fast = fast

    @property
    def n_macro(self) -> int:
        return self.slow.shape[-2]

    @property
    def batched(self) -> bool:
        return self.slow.ndim == 3

    def replica(self, r: int) -> "NoisePath":
        """The path of replica r of a batch."""
        return NoisePath(self.dt_macro, self.n_sub, self.epsilon, self.slow[r], self.fast[r])

    def _as_batch(self) -> "NoisePath":
        if self.batched:
            return self
        return NoisePath(self.dt_macro, self.n_sub, self.epsilon, self.slow[None], self.fast[None])

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
    """Coupled states at macro times; x and y have shape (n_steps + 1, n).

    A batch of R replicas has x and y of shape (n_steps + 1, R, n), every
    replica run to the horizon: a run that fails raises instead.
    """

    times: Array
    x: Array
    y: Array

    def replica(self, r: int) -> "Trajectory":
        return Trajectory(self.times, self.x[:, r], self.y[:, r])


@dataclasses.dataclass
class SlowTrajectory:
    """Slow states at macro times, single or batched as in Trajectory."""

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
        """The next state, for x of shape (n,) or for every column of (n, R)."""
        dt = self.dt
        if self.slow.kind == "burgers":
            rhs = x + dt * (burgers_convection(self.grid, x) + forcing) + noise
            return self._solver.solve(rhs)
        b = x + dt * forcing + noise
        if b.ndim == 1:
            return _newton_monotone_solve(self.slow, self.grid, b, dt, self.params)
        x_new = np.empty_like(b)
        for r in range(b.shape[1]):
            x_new[:, r] = _newton_monotone_solve(self.slow, self.grid, b[:, r], dt, self.params)
        return x_new

    def residual(self, x_new: Array, x: Array, forcing: Array, noise: Array) -> Array:
        """x_new - dt * A_implicit(x_new) - explicit terms; zero for an exact step."""
        dt = self.dt
        if self.slow.kind == "burgers":
            implicit = -self.slow.viscosity * self.grid.apply_neg_laplacian(x_new)
            explicit = burgers_convection(self.grid, x) + forcing
            return x_new - dt * implicit - (x + dt * explicit + noise)
        return x_new - dt * slow_drift(self.slow, self.grid, x_new) - (x + dt * forcing + noise)


# Newton iterations per implicit slow step, and step halvings per iteration.
NEWTON_MAX_ITER = 50
NEWTON_MAX_HALVINGS = 30


def _newton_monotone_solve(
    slow: SlowOperatorSpec, grid: Grid1D, b: Array, dt: float, params: SchemeParams
) -> Array:
    """Solve u - dt * A(u) = b by Newton with step halving on the residual.

    For p_laplace the face gradients of an iterate serve both its residual
    and the Jacobian of the next direction.
    """

    def residual_at(u: Array) -> tuple[Array, Array | None]:
        g = face_gradients(grid, u) if slow.kind == "p_laplace" else None
        return u - dt * slow_drift(slow, grid, u, g) - b, g

    u = b.copy()
    scale = max(1.0, float(np.abs(b).max()))
    residual, gradients = residual_at(u)
    res_norm = float(np.abs(residual).max())
    if not math.isfinite(res_norm):
        raise NewtonDivergence(f"implicit {slow.kind} solve met a non-finite residual")
    for _ in range(NEWTON_MAX_ITER):
        if res_norm <= params.newton_tol * scale:
            return u
        direction = _newton_direction(slow, grid, u, dt, residual, gradients)
        step = 1.0
        for _ in range(NEWTON_MAX_HALVINGS + 1):
            candidate = u + step * direction
            cand_residual, cand_gradients = residual_at(candidate)
            cand_norm = float(np.abs(cand_residual).max())
            if cand_norm < res_norm:
                break
            step *= 0.5
        else:
            raise NewtonDivergence(
                f"implicit {slow.kind} solve stalled at residual {res_norm:.3e}"
            )
        u, residual, res_norm, gradients = candidate, cand_residual, cand_norm, cand_gradients
    if res_norm <= params.newton_tol * scale:
        return u
    raise NewtonDivergence(
        f"implicit {slow.kind} solve did not reach tolerance, residual {res_norm:.3e}"
    )


def _newton_direction(
    slow: SlowOperatorSpec,
    grid: Grid1D,
    u: Array,
    dt: float,
    residual: Array,
    gradients: Array | None = None,
) -> Array:
    """Solve J(u) d = -residual with one LAPACK gtsv call.

    gtsv is the tridiagonal LU with partial pivoting that solve_banded uses
    for (1, 1) bands, without its validation. It copies the diagonals, so
    sub and super may share memory, and writes d over its right-hand side.
    """
    sub, diag, sup = _monotone_jacobian_bands(slow, grid, u, dt, gradients)
    if diag.shape[0] == 1:  # the gtsv wrapper rejects empty off-diagonals
        return -residual / diag
    *_, direction, info = dgtsv(sub, diag, sup, -residual, overwrite_b=True)
    if info:
        raise NewtonDivergence(f"implicit {slow.kind} solve met a singular Jacobian")
    return direction


def _monotone_jacobian_bands(
    slow: SlowOperatorSpec, grid: Grid1D, u: Array, dt: float, gradients: Array | None = None
) -> tuple[Array, Array, Array]:
    """Jacobian of u - dt * A(u) as its (sub, diag, super) diagonals.

    These are the three arrays LAPACK gtsv takes, with no (3, n) banded
    layout in between. The porous-medium Jacobian I + dt L diag(psi'(u)) is
    not symmetric, so its two off-diagonals differ. For p_laplace,
    gradients may pass face_gradients(grid, u) in.
    """
    h2 = grid.h**2
    if slow.kind == "porous_medium":
        dpsi = slow.c * (slow.p - 1.0) * np.abs(u) ** (slow.p - 2.0)
        off = -dt * dpsi / h2
        return off[:-1], 1.0 + 2.0 * dt * dpsi / h2, off[1:]
    # p_laplace: face weights phi'(g) = (p-1) |g|^(p-2)
    g = face_gradients(grid, u) if gradients is None else gradients
    w = (slow.p - 1.0) * np.abs(g) ** (slow.p - 2.0)
    off = -dt * w[1:-1] / h2
    return off, 1.0 + dt * (w[:-1] + w[1:]) / h2, off


# Micro steps whose noise _FastStepper.path synthesizes at once.
NOISE_BLOCK = 64


class _FastStepper:
    """Implicit Euler micro steps of the fast equation with the slow input frozen.

    A step of size dt_micro solves (I + a L) y' = y + a B2(x, y) + xi with
    a = dt_micro / epsilon and xi the fast Wiener increment weighted by
    1 / sqrt(epsilon); epsilon = 1 is the frozen equation of the averaging
    module. The state y is one vector (n,) or a batch of C columns (n, C),
    and the frozen x is (n,) or one column per state column. Noise
    coefficients come as rows of shape (steps, modes), shared by every
    column, or as (R, steps, modes), one set per replica, where column c
    takes set c mod R: an auxiliary replay runs each replica under several
    block lengths at once.
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
        return _draw(streams, 1, (steps, self._modes), self._scales)

    @functools.cached_property
    def _block_gains(self) -> tuple[Array, Array, Array]:
        # Row m of powers is d^(n_sub - m): the decay the noise of micro step
        # m sees by the end of the block.
        powers = self._d ** np.arange(self.n_sub, 0, -1)[:, None]
        drive = self.a * self.fast.c_b * powers.sum(axis=0)
        return powers[0], drive, self._noise_weight * powers[:, : self._modes]

    def run_block(self, x_frozen: Array, y: Array, coefficients: Array) -> Array:
        """Advance y through one macro step; coefficients have n_sub steps."""
        if self.fast.kind != "linear":
            for y in self.path(x_frozen, y, coefficients):
                pass
            return y
        decay, drive, noise_gain = self._block_gains
        y_hat = _column(decay, y) * _matvec(self._analysis, y)
        forced = _column(drive, x_frozen) * _matvec(self._analysis, x_frozen)
        y_hat += _column(forced, y)
        noise = np.einsum("mk,...mk->...k", noise_gain, coefficients)
        y_hat[: self._modes] += _by_column(noise, y, coefficients.ndim == 3)
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
            d = _column(self._d, y)
            forcing = _column(a * self.fast.c_b * _matvec(self._analysis, x_frozen), y)
            modes = self._modes

            def step(y_hat: Array, xi: Array) -> Array:
                rhs = y_hat + forcing
                rhs[:modes] += xi
                return d * rhs

            state, basis = _matvec(self._analysis, y), self._basis
            noise_basis = None
        else:
            cx = _column(self.fast.c_b * x_frozen, y)
            b = self.fast.b

            def step(y: Array, xi: Array) -> Array:
                return self._solver.solve(y + a * (cx + b * np.sin(y)) + xi)

            state, basis = y, None
            noise_basis = self._noise_basis
        per_replica = coefficients.ndim == 3
        for start in range(0, coefficients.shape[-2], NOISE_BLOCK):
            noise = coefficients[..., start : start + NOISE_BLOCK, :] * self._noise_weight
            if noise_basis is not None:
                # The physical noise of each step: one gemv per (replica, step).
                noise = np.matmul(noise_basis, noise[..., None])[..., 0]
            for xi in _by_column(noise, y, per_replica):
                state = step(state, xi)
                yield state if basis is None else _matvec(basis, state)


def _matvec(matrix: Array, v: Array) -> Array:
    """matrix @ v for a vector (n,), or for each column of a batch (n, C).

    A batch goes through np.matmul with its columns on the stacked axis:
    one gemv per column, the call a single vector gets, so a column's bytes
    do not depend on the batch. matrix @ v would be one gemm.
    """
    if v.ndim == 1:
        return matrix @ v
    return np.matmul(matrix, v.T[:, :, None])[:, :, 0].T


def _column(v: Array, like: Array) -> Array:
    """A vector v (n,) shaped to broadcast against a state (n,) or (n, C)."""
    return v[:, None] if like.ndim == 2 and v.ndim == 1 else v


def _by_column(v: Array, y: Array, per_replica: bool) -> Array:
    """Noise v laid out against the columns of a state y, (n,) or (n, C).

    Rows shared by every column gain a trailing column axis when y has
    columns. Per-replica rows (R, ...) move the replica axis last, and
    column c takes replica c mod R.
    """
    if not per_replica:
        return v[..., None] if y.ndim == 2 else v
    repeats, rest = divmod(y.shape[1], v.shape[0]) if y.ndim == 2 else (0, 1)
    if rest or not repeats:
        raise ValueError(f"{v.shape[0]} noise replicas cannot drive a state of shape {y.shape}")
    v = v.transpose(*range(1, v.ndim), 0)
    return v if repeats == 1 else np.tile(v, repeats)


def _draw(streams: Sequence[RngStream], lane: int, shape: tuple[int, ...], scales: Array) -> Array:
    """Scaled standard normals, shape (R, *shape); row r from lane `lane` of stream r.

    Each replica fills its own contiguous row of one preallocated array,
    with the numbers it would draw alone.
    """
    rows = np.empty((len(streams), *shape))
    for row, stream in zip(rows, streams):
        stream.generator(lane).standard_normal(out=row)
    rows *= scales
    return rows


def simulate_coupled(
    model: ModelSpec,
    T: float,
    params: SchemeParams,
    stream: RngStream | Sequence[RngStream],
) -> tuple[Trajectory, NoisePath]:
    """Advance the coupled pair over [0, T] and record the noise that drove it.

    stream is one RngStream for a single run, or one per replica for a
    batch (see the module docstring). The whole horizon is drawn up front
    (slow rows on lane 0, fast rows on lane 1 of each stream), the same
    numbers as drawing step by step. The returned NoisePath drives the
    averaged equation and the block-frozen auxiliary construction with this
    very realization. A failure of any replica raises (see _slow_loop).
    """
    single = isinstance(stream, RngStream)
    streams = [stream] if single else list(stream)
    dt = params.dt_macro
    m = whole_steps(T, dt, "horizon T")
    coupling = model.coupling
    fast_stepper = _FastStepper.for_model(model, dt, params)
    n_sub = fast_stepper.n_sub
    slow_scales = mode_scales(coupling.g1_amplitude, coupling.g1_modes) * math.sqrt(dt)
    slow_rows = _draw(streams, 0, (m, coupling.g1_modes), slow_scales)
    fast_rows = fast_stepper.draw(streams, m * n_sub).reshape(len(streams), m, n_sub, -1)
    path = NoisePath(dt, n_sub, model.epsilon, slow_rows, fast_rows)
    y_hist = np.empty((m + 1, len(streams), model.grid.n_interior))
    y_hist[0] = model.y0.values

    def forcing(j: int, x: Array) -> Array:
        """F at the left endpoint; the fast state then runs one block with x frozen."""
        y = y_hist[j].T
        y_hist[j + 1] = fast_stepper.run_block(x, y, fast_rows[:, j]).T
        return coupling_f(coupling, x, y)

    slow = _slow_loop(model, params, path, forcing, "coupled", y_hist)
    trajectory = Trajectory(slow.times, slow.x, y_hist)
    if single:
        return trajectory.replica(0), path.replica(0)
    return trajectory, path


def simulate_averaged(
    model: ModelSpec,
    fbar: Callable[[Array], Array],
    params: SchemeParams,
    noise: NoisePath,
) -> SlowTrajectory:
    """Advance the averaged slow equation on the grid and slow noise of a recorded path.

    fbar maps slow nodal values to the averaged coupling drift: (n,) on a
    single path, and every column at once, (n, R), on a batched one, as
    OracleFbar and MemoizedFbar take them. Against the path of
    simulate_coupled the run shares that realization exactly. Failures
    raise as in simulate_coupled.
    """
    if noise.batched:
        forcing = lambda j, x: fbar(x)  # noqa: E731
    else:
        forcing = lambda j, x: fbar(x[:, 0])[:, None]  # noqa: E731
    slow = _slow_loop(model, params, noise._as_batch(), forcing, "averaged")
    return slow if noise.batched else slow.replica(0)


def _slow_loop(
    model: ModelSpec,
    params: SchemeParams,
    noise: NoisePath,
    forcing: Callable[[int, Array], Array],
    equation: str,
    *histories: Array,
) -> SlowTrajectory:
    """The one macro-step loop of the slow equation, on the grid of a batched `noise`.

    The state holds one column per replica. forcing(j, x) is the explicit
    drift of macro step j at its left endpoint x. The Wiener increments of
    every step and replica are synthesized before the loop, one gemv per
    row. Every column runs to the horizon or the loop raises, naming
    `equation`, epsilon and the step: NewtonDivergence at the step whose
    solve fails, NumericalBlowUp at the first macro step with a non-finite
    state in x or in `histories` (shape (n_steps + 1, R, n)) the forcing
    fills.
    """
    grid, epsilon = model.grid, model.epsilon
    stepper = _SlowStepper(model.slow, grid, noise.dt_macro, params)
    basis_t = np.ascontiguousarray(sine_basis(grid, noise.slow.shape[-1]).T)
    # increments[j, r] is the Wiener increment of replica r over macro step j.
    increments = np.matmul(noise.slow.transpose(1, 0, 2)[:, :, None, :], basis_t)[:, :, 0]
    n_macro, replicas = increments.shape[:2]
    x_hist = np.empty((n_macro + 1, replicas, grid.n_interior))
    x_hist[0] = model.x0.values
    x = x_hist[0].T
    for j in range(n_macro):
        f = forcing(j, x)
        try:
            x = stepper.step(x, f, increments[j].T)
        except NewtonDivergence as exc:
            # Named like a blow-up: by the state the step computes.
            raise NewtonDivergence(
                f"{equation} run at epsilon={epsilon:g} failed at macro step {j + 1}: {exc}"
            ) from exc
        x_hist[j + 1] = x.T
    finite = np.logical_and.reduce([np.isfinite(h).all(axis=(1, 2)) for h in (x_hist, *histories)])
    if not finite.all():
        raise NumericalBlowUp(
            f"{equation} run blew up at epsilon={epsilon:g}: "
            f"non-finite state at macro step {int(np.argmin(finite))}"
        )
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
