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
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Callable, Iterator

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
        if self.dt_macro <= 0.0:
            raise ValueError(f"dt_macro must be positive, got {self.dt_macro}")
        if self.dt_fast_target < 0.0:
            raise ValueError("dt_fast_target must be >= 0 (0 means automatic)")
        if self.newton_tol <= 0.0:
            raise ValueError("newton_tol must be positive")


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
    """Recorded mode coefficients of both Wiener processes for one replica.

    slow has shape (n_macro, g1_modes); fast has shape (n_macro, n_sub,
    g2_modes). Rows are raw Wiener-increment coefficients over dt_macro and
    dt_macro / n_sub respectively.
    """

    def __init__(
        self, dt_macro: float, n_sub: int, epsilon: float, slow: Array, fast: Array
    ) -> None:
        slow = np.ascontiguousarray(slow, dtype=np.float64)
        fast = np.ascontiguousarray(fast, dtype=np.float64)
        if slow.ndim != 2 or fast.ndim != 3:
            raise ValueError("slow must be 2d (steps, modes), fast 3d (steps, sub, modes)")
        if fast.shape[0] != slow.shape[0] or fast.shape[1] != n_sub:
            raise ValueError("fast coefficient shape disagrees with n_sub / step count")
        self.dt_macro = float(dt_macro)
        self.n_sub = int(n_sub)
        self.epsilon = float(epsilon)
        self.slow = slow
        self.fast = fast

    @property
    def n_macro(self) -> int:
        return self.slow.shape[0]

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
    """Coupled states at macro times; x and y have shape (n_steps + 1, n)."""

    times: Array
    x: Array
    y: Array


@dataclasses.dataclass
class SlowTrajectory:
    times: Array
    x: Array


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
        dt = self.dt
        if self.slow.kind == "burgers":
            rhs = x + dt * (burgers_convection(self.grid, x) + forcing) + noise
            return self._solver.solve(rhs)
        b = x + dt * forcing + noise
        return _newton_monotone_solve(self.slow, self.grid, b, dt, self.params)

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
    """Solve u - dt * A(u) = b by Newton with step halving on the residual."""
    u = b.copy()
    scale = max(1.0, float(np.abs(b).max()))
    residual = u - dt * slow_drift(slow, grid, u) - b
    res_norm = float(np.abs(residual).max())
    if not math.isfinite(res_norm):
        raise NewtonDivergence(f"implicit {slow.kind} solve met a non-finite residual")
    for _ in range(NEWTON_MAX_ITER):
        if res_norm <= params.newton_tol * scale:
            return u
        direction = _newton_direction(slow, grid, u, dt, residual)
        step = 1.0
        for _ in range(NEWTON_MAX_HALVINGS + 1):
            candidate = u + step * direction
            cand_residual = candidate - dt * slow_drift(slow, grid, candidate) - b
            cand_norm = float(np.abs(cand_residual).max())
            if cand_norm < res_norm:
                break
            step *= 0.5
        else:
            raise NewtonDivergence(
                f"implicit {slow.kind} solve stalled at residual {res_norm:.3e}"
            )
        u, residual, res_norm = candidate, cand_residual, cand_norm
    if res_norm <= params.newton_tol * scale:
        return u
    raise NewtonDivergence(
        f"implicit {slow.kind} solve did not reach tolerance, residual {res_norm:.3e}"
    )


def _newton_direction(
    slow: SlowOperatorSpec, grid: Grid1D, u: Array, dt: float, residual: Array
) -> Array:
    """Solve J(u) d = -residual with one LAPACK gtsv call.

    gtsv is the tridiagonal LU with partial pivoting that solve_banded uses
    for (1, 1) bands, without its validation. It copies the diagonals, so
    sub and super may share memory, and writes d over its right-hand side.
    """
    sub, diag, sup = _monotone_jacobian_bands(slow, grid, u, dt)
    if diag.shape[0] == 1:  # the gtsv wrapper rejects empty off-diagonals
        return -residual / diag
    *_, direction, info = dgtsv(sub, diag, sup, -residual, overwrite_b=True)
    if info:
        raise NewtonDivergence(f"implicit {slow.kind} solve met a singular Jacobian")
    return direction


def _monotone_jacobian_bands(
    slow: SlowOperatorSpec, grid: Grid1D, u: Array, dt: float
) -> tuple[Array, Array, Array]:
    """Jacobian of u - dt * A(u) as its (sub, diag, super) diagonals.

    These are the three arrays LAPACK gtsv takes, with no (3, n) banded
    layout in between. The porous-medium Jacobian I + dt L diag(psi'(u)) is
    not symmetric, so its two off-diagonals differ.
    """
    h2 = grid.h**2
    if slow.kind == "porous_medium":
        dpsi = slow.c * (slow.p - 1.0) * np.abs(u) ** (slow.p - 2.0)
        off = -dt * dpsi / h2
        return off[:-1], 1.0 + 2.0 * dt * dpsi / h2, off[1:]
    # p_laplace: face weights phi'(g) = (p-1) |g|^(p-2)
    g = face_gradients(grid, u)
    w = (slow.p - 1.0) * np.abs(g) ** (slow.p - 2.0)
    off = -dt * w[1:-1] / h2
    return off, 1.0 + dt * (w[:-1] + w[1:]) / h2, off


class _FastStepper:
    """Implicit Euler micro steps of the fast equation with the slow input frozen.

    A step of size dt_micro solves (I + a L) y' = y + a B2(x, y) + xi with
    a = dt_micro / epsilon and xi the fast Wiener increment weighted by
    1 / sqrt(epsilon); epsilon = 1 is the frozen equation of the averaging
    module. The state y is one vector (n,) or R of them as columns (n, R).
    Noise coefficients come as rows of shape (steps, modes), shared by every
    column, or (steps, modes, R), one column per state.
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

    def draw(self, gen: np.random.Generator, steps: int) -> Array:
        """Raw noise coefficients of `steps` micro steps, shape (steps, modes)."""
        rows = gen.standard_normal((steps, self._modes))
        rows *= self._scales
        return rows

    @functools.cached_property
    def _block_gains(self) -> tuple[Array, Array, Array]:
        # Row m of powers is d^(n_sub - m): the decay the noise of micro step
        # m sees by the end of the block.
        powers = self._d ** np.arange(self.n_sub, 0, -1)[:, None]
        drive = self.a * self.fast.c_b * powers.sum(axis=0)
        return powers[0], drive, self._noise_weight * powers[:, : self._modes]

    def run_block(self, x_frozen: Array, y: Array, coefficients: Array) -> Array:
        """Advance y through one macro step; coefficients has n_sub rows."""
        if self.fast.kind != "linear":
            for y in self.path(x_frozen, y, coefficients):
                pass
            return y
        coefficients = _per_column(coefficients, y)
        decay, drive, noise_gain = self._block_gains
        y_hat = _column(decay, y) * (self._analysis @ y)
        y_hat += _column(drive * (self._analysis @ x_frozen), y)
        y_hat[: self._modes] += np.einsum("mk,mk...->k...", noise_gain, coefficients)
        return self._basis @ y_hat

    def path(self, x_frozen: Array, y: Array, coefficients: Array) -> Iterator[Array]:
        """Yield the state after each micro step, one per coefficient row."""
        coefficients = _per_column(coefficients, y) * self._noise_weight
        a = self.a
        if self.fast.kind == "linear":
            # In mode coefficients a micro step is y^ <- d (y^ + a c_b x^ + xi^).
            d = _column(self._d, y)
            forcing = _column(a * self.fast.c_b * (self._analysis @ x_frozen), y)
            modes = self._modes

            def step(y_hat: Array, xi: Array) -> Array:
                rhs = y_hat + forcing
                rhs[:modes] += xi
                return d * rhs

            state, basis = self._analysis @ y, self._basis
        else:
            cx = _column(self.fast.c_b * x_frozen, y)
            b = self.fast.b

            def step(y: Array, xi: Array) -> Array:
                return self._solver.solve(y + a * (cx + b * np.sin(y)) + self._noise_basis @ xi)

            state, basis = y, None
        for xi in coefficients:
            state = step(state, xi)
            yield state if basis is None else basis @ state


def _column(v: Array, like: Array) -> Array:
    """v (n,) shaped to broadcast against a state of shape (n,) or (n, R)."""
    return v if like.ndim == 1 else v[:, None]


def _per_column(coefficients: Array, y: Array) -> Array:
    """Rows shared by every column of a batched state get a broadcast axis."""
    return coefficients[:, :, None] if y.ndim == 2 and coefficients.ndim == 2 else coefficients


def simulate_coupled(
    model: ModelSpec,
    T: float,
    params: SchemeParams,
    stream: RngStream,
) -> tuple[Trajectory, NoisePath]:
    """Advance the coupled pair over [0, T] and record the noise that drove it.

    The whole horizon is drawn up front (slow rows on lane 0, fast rows on
    lane 1 of the stream), the same numbers as drawing step by step. The
    returned NoisePath drives the averaged equation and the block-frozen
    auxiliary construction with this very realization.
    """
    dt = params.dt_macro
    m = whole_steps(T, dt, "horizon T")
    coupling = model.coupling
    fast_stepper = _FastStepper.for_model(model, dt, params)
    n_sub = fast_stepper.n_sub
    slow_rows = stream.generator(0).standard_normal((m, coupling.g1_modes))
    slow_rows *= mode_scales(coupling.g1_amplitude, coupling.g1_modes) * math.sqrt(dt)
    fast_rows = fast_stepper.draw(stream.generator(1), m * n_sub).reshape(m, n_sub, -1)
    path = NoisePath(dt, n_sub, model.epsilon, slow_rows, fast_rows)
    y_hist = np.empty((m + 1, model.grid.n_interior))
    y_hist[0] = model.y0.values

    def forcing(j: int, x: Array) -> Array:
        """F at the left endpoint; the fast state then runs one block with x frozen."""
        y = y_hist[j]
        y_hist[j + 1] = fast_stepper.run_block(x, y, path.fast[j])
        return coupling_f(coupling, x, y)

    slow = _slow_loop(model, params, path, forcing, "coupled", y_hist)
    return Trajectory(slow.times, slow.x, y_hist), path


def simulate_averaged(
    model: ModelSpec,
    fbar: Callable[[Array], Array],
    params: SchemeParams,
    noise: NoisePath,
) -> SlowTrajectory:
    """Advance the averaged slow equation on the grid and slow noise of a recorded path.

    fbar maps slow nodal values to the averaged coupling drift. Against the
    path of simulate_coupled the run shares that realization exactly.
    """
    return _slow_loop(model, params, noise, lambda j, x: fbar(x), "averaged")


def _slow_loop(
    model: ModelSpec,
    params: SchemeParams,
    noise: NoisePath,
    forcing: Callable[[int, Array], Array],
    equation: str,
    *histories: Array,
) -> SlowTrajectory:
    """The one macro-step loop of the slow equation, on the grid of `noise`.

    forcing(j, x) is the explicit drift of macro step j at its left endpoint
    x. Each Wiener increment is synthesized from its own row: one product
    over all rows rounds differently. Failures name `equation`, epsilon and
    the step, also for a non-finite state in `histories` the forcing fills.
    """
    grid, epsilon = model.grid, model.epsilon
    stepper = _SlowStepper(model.slow, grid, noise.dt_macro, params)
    basis_t = np.ascontiguousarray(sine_basis(grid, noise.slow.shape[1]).T)
    x_hist = np.empty((noise.n_macro + 1, grid.n_interior))
    x = model.x0.values.copy()
    x_hist[0] = x
    for j in range(noise.n_macro):
        try:
            x = stepper.step(x, forcing(j, x), noise.slow[j] @ basis_t)
        except NewtonDivergence as exc:
            # Named like a blow-up: by the state the step computes.
            raise NewtonDivergence(
                f"{equation} run at epsilon={epsilon:g} failed at macro step {j + 1}: {exc}"
            ) from exc
        x_hist[j + 1] = x
    finite = np.logical_and.reduce([np.isfinite(h).all(axis=1) for h in (x_hist, *histories)])
    if not finite.all():
        raise NumericalBlowUp(
            f"{equation} run blew up at epsilon={epsilon:g}: "
            f"non-finite state at macro step {int(np.argmin(finite))}"
        )
    return SlowTrajectory(np.arange(noise.n_macro + 1) * noise.dt_macro, x_hist)


def strong_error(
    coupled: Trajectory, averaged: SlowTrajectory, grid: Grid1D, kind: NormKind
) -> float:
    """sup over macro times of the squared norm of the slow-state mismatch.

    Finite states can still square past the floating-point range; such an
    error raises NumericalBlowUp rather than being returned as inf.
    """
    if coupled.x.shape != averaged.x.shape:
        raise ValueError("trajectories have different shapes")
    error = float(np.max(row_norms(grid, coupled.x - averaged.x, kind) ** 2))
    if not math.isfinite(error):
        raise NumericalBlowUp(f"strong error overflowed: {error!r}")
    return error
