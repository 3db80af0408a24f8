"""Coupled and averaged time stepping with recordable, replayable noise.

Scheme. The slow state advances with a drift-implicit, noise-explicit Euler
step over dt_macro: the monotone operator A is treated implicitly (a damped
Newton iteration for porous medium and p-Laplace, a prefactored tridiagonal
pttrs solve for the Burgers Laplacian with explicit convection), while the
coupling term F(x, y) and the Wiener increment enter explicitly. The fast
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
(amplitude / k**2) * sqrt(dt) * xi_k. A NoisePath records the raw coefficient
rows (without the 1/sqrt(epsilon) weight on the fast channel), which is
exactly enough to replay the same realization into the averaged equation or
into the block-frozen auxiliary construction, bit for bit.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import struct
from typing import BinaryIO, Callable, Iterator

import numpy as np
from scipy.linalg import solve_banded

from .grid import Array, Field, Grid1D, NormKind, ShiftedLaplacian, row_norms, sine_basis
from .operators import (
    CouplingSpec,
    FastOperatorSpec,
    SlowOperatorSpec,
    burgers_convection,
    coupling_f,
    dissipativity_margin,
    face_gradients,
    mode_scales,
    slow_drift,
)
from .randomness import RngStream

__all__ = [
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
    "step_fast_block",
    "step_slow",
    "strong_error",
]


class NewtonDivergence(RuntimeError):
    """The implicit solve failed to converge; reported as a numerical failure."""


class NumericalBlowUp(ArithmeticError):
    """A simulated state left the floating-point range (NaN or Inf)."""


@dataclasses.dataclass(frozen=True)
class SchemeParams:
    """Step sizes and implicit-solve controls.

    dt_fast_target caps dt_micro / epsilon (fast-clock units); None picks
    0.1 / margin, i.e. about a tenth of the fast relaxation time.
    """

    dt_macro: float
    dt_fast_target: float | None = None
    newton_tol: float = 1e-10
    newton_max_iter: int = 50
    newton_max_halvings: int = 30

    def __post_init__(self) -> None:
        if self.dt_macro <= 0.0:
            raise ValueError(f"dt_macro must be positive, got {self.dt_macro}")
        if self.dt_fast_target is not None and self.dt_fast_target <= 0.0:
            raise ValueError("dt_fast_target must be positive when given")
        if self.newton_tol <= 0.0:
            raise ValueError("newton_tol must be positive")
        if self.newton_max_iter < 1 or self.newton_max_halvings < 0:
            raise ValueError("newton iteration limits out of range")


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
        if self.epsilon <= 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        for name in ("x0", "y0"):
            if getattr(self, name).grid != self.grid:
                raise ValueError(f"{name} lives on a different grid")
        if self.coupling.f0.grid != self.grid:
            raise ValueError("coupling f0 lives on a different grid")
        margin = dissipativity_margin(self.fast, self.coupling, self.grid)
        if margin <= 0.0:
            raise ValueError(
                f"dissipativity margin must be positive, got {margin:.6g}; "
                "the fast equation would not contract"
            )

    @property
    def margin(self) -> float:
        return dissipativity_margin(self.fast, self.coupling, self.grid)

    @property
    def state_norm(self) -> NormKind:
        return self.slow.state_norm


class NoisePath:
    """Recorded mode coefficients of both Wiener processes for one replica.

    slow has shape (n_macro, g1_modes); fast has shape (n_macro, n_sub,
    g2_modes). Rows are raw Wiener-increment coefficients over dt_macro and
    dt_macro / n_sub respectively.
    """

    MAGIC = b"SPNP"
    VERSION = 1

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

    def save(self, path_or_file: str | BinaryIO) -> None:
        """Flat little-endian layout: header, then slow and fast float64 blocks."""
        header = self.MAGIC + struct.pack(
            "<IIIIIdd",
            self.VERSION,
            self.n_macro,
            self.n_sub,
            self.slow.shape[1],
            self.fast.shape[2],
            self.dt_macro,
            self.epsilon,
        )
        body = self.slow.astype("<f8").tobytes() + self.fast.astype("<f8").tobytes()
        if isinstance(path_or_file, str):
            with open(path_or_file, "wb") as fh:
                fh.write(header + body)
        else:
            path_or_file.write(header + body)

    @classmethod
    def load(cls, path_or_file: str | BinaryIO) -> "NoisePath":
        if isinstance(path_or_file, str):
            with open(path_or_file, "rb") as fh:
                raw = fh.read()
        else:
            raw = path_or_file.read()
        if raw[:4] != cls.MAGIC:
            raise ValueError("not a noise path file")
        version, n_macro, n_sub, m1, m2, dt_macro, epsilon = struct.unpack(
            "<IIIIIdd", raw[4 : 4 + 36]
        )
        if version != cls.VERSION:
            raise ValueError(f"unsupported noise path version {version}")
        offset = 4 + 36
        n_slow = n_macro * m1
        slow = np.frombuffer(raw, dtype="<f8", count=n_slow, offset=offset)
        offset += n_slow * 8
        fast = np.frombuffer(raw, dtype="<f8", count=n_macro * n_sub * m2, offset=offset)
        return cls(
            dt_macro,
            n_sub,
            epsilon,
            slow.reshape(n_macro, m1).copy(),
            fast.reshape(n_macro, n_sub, m2).copy(),
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
    """Path statistics collected from one coupled run.

    sup_norm_x_sq is sup over macro times of the squared slow-state norm,
    mean_norm_y_sq the arithmetic mean over macro times of the squared fast
    L2 norm. increment_integral(delta) integrates the squared distance of the
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
        self.mean_norm_y_sq = math.nan  # filled by the simulation loop

    def increment_integral(self, delta: float) -> float:
        q = _steps_per_block(delta, self._dt, self._x.shape[0] - 1)
        return block_increment_integral(self._grid, self._kind, self._dt, self._x, q)


def block_increment_integral(
    grid: Grid1D, kind: NormKind, dt_macro: float, x: Array, q: int
) -> float:
    """dt * sum_j ||x[j + 1] - x[anchor(j)]||^2 with blocks of q macro steps."""
    anchors = (np.arange(x.shape[0] - 1) // q) * q
    return dt_macro * float(np.sum(row_norms(grid, x[1:] - x[anchors], kind) ** 2))


def _steps_per_block(delta: float, dt_macro: float, n_steps: int) -> int:
    q = int(round(delta / dt_macro))
    if q < 1 or abs(q * dt_macro - delta) > 1e-9 * max(delta, 1.0):
        raise ValueError(f"delta = {delta} is not a positive multiple of dt_macro = {dt_macro}")
    if q > n_steps:
        raise ValueError(f"delta = {delta} exceeds the horizon of {n_steps} macro steps")
    return q


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


def _newton_monotone_solve(
    slow: SlowOperatorSpec, grid: Grid1D, b: Array, dt: float, params: SchemeParams
) -> Array:
    """Solve u - dt * A(u) = b by Newton with step halving on the residual."""
    u = b.copy()
    scale = max(1.0, float(np.max(np.abs(b))))
    residual = u - dt * slow_drift(slow, grid, u) - b
    res_norm = float(np.max(np.abs(residual)))
    for _ in range(params.newton_max_iter):
        if res_norm <= params.newton_tol * scale:
            return u
        bands = _monotone_jacobian_bands(slow, grid, u, dt)
        direction = solve_banded((1, 1), bands, -residual)
        step = 1.0
        for _ in range(params.newton_max_halvings + 1):
            candidate = u + step * direction
            cand_residual = candidate - dt * slow_drift(slow, grid, candidate) - b
            cand_norm = float(np.max(np.abs(cand_residual)))
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


def _monotone_jacobian_bands(
    slow: SlowOperatorSpec, grid: Grid1D, u: Array, dt: float
) -> Array:
    """Banded Jacobian of u - dt * A(u) in solve_banded (1, 1) layout."""
    n = grid.n_interior
    h2 = grid.h**2
    ab = np.zeros((3, n))
    if slow.kind == "porous_medium":
        dpsi = slow.c * (slow.p - 1.0) * np.abs(u) ** (slow.p - 2.0)
        ab[0, 1:] = -dt * dpsi[1:] / h2
        ab[1, :] = 1.0 + 2.0 * dt * dpsi / h2
        ab[2, :-1] = -dt * dpsi[:-1] / h2
        return ab
    # p_laplace: face weights phi'(g) = (p-1) |g|^(p-2)
    g = face_gradients(grid, u)
    w = (slow.p - 1.0) * np.abs(g) ** (slow.p - 2.0)
    ab[0, 1:] = -dt * w[1:-1] / h2
    ab[1, :] = 1.0 + dt * (w[:-1] + w[1:]) / h2
    ab[2, :-1] = -dt * w[1:-1] / h2
    return ab


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
        margin = dissipativity_margin(model.fast, model.coupling, model.grid)
        target = params.dt_fast_target if params.dt_fast_target is not None else 0.1 / margin
        n_sub = max(1, math.ceil(dt_macro / (model.epsilon * target) - 1e-12))
        return cls(
            model.fast, model.coupling, model.grid, model.epsilon, dt_macro / n_sub, n_sub
        )

    def draw(self, gen: np.random.Generator, steps: int) -> Array:
        """Raw noise coefficients of `steps` micro steps, shape (steps, modes)."""
        return gen.standard_normal((steps, self._modes)) * self._scales

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


def _macro_step_count(T: float, dt_macro: float) -> int:
    m = int(round(T / dt_macro))
    if m < 1 or abs(m * dt_macro - T) > 1e-9 * max(T, 1.0):
        raise ValueError(f"horizon T = {T} is not a positive multiple of dt_macro = {dt_macro}")
    return m


def simulate_coupled(
    model: ModelSpec,
    T: float,
    params: SchemeParams,
    stream: RngStream,
    record: bool = True,
) -> tuple[Trajectory, NoisePath | None, TrajectoryStats]:
    """Advance the coupled pair over [0, T] and collect path statistics.

    The same stream always reproduces the same trajectory bit for bit; with
    record=True the returned NoisePath allows the averaged equation and the
    block-frozen auxiliary construction to be driven by this very realization.
    """
    grid = model.grid
    m = _macro_step_count(T, params.dt_macro)
    dt = params.dt_macro
    slow_stepper = _SlowStepper(model.slow, grid, dt, params)
    fast_stepper = _FastStepper.for_model(model, dt, params)
    gen_slow = stream.generator(0)
    gen_fast = stream.generator(1)
    g1_scales = mode_scales(model.coupling.g1_amplitude, model.coupling.g1_modes) * math.sqrt(dt)
    basis_slow_t = np.ascontiguousarray(sine_basis(grid, model.coupling.g1_modes).T)

    n = grid.n_interior
    x_hist = np.empty((m + 1, n))
    y_hist = np.empty((m + 1, n))
    x = model.x0.values.copy()
    y = model.y0.values.copy()
    x_hist[0] = x
    y_hist[0] = y
    slow_rows = np.empty((m, model.coupling.g1_modes)) if record else None
    fast_rows = (
        np.empty((m, fast_stepper.n_sub, model.coupling.g2_modes)) if record else None
    )

    for j in range(m):
        forcing = coupling_f(model.coupling, x, y)
        block = fast_stepper.draw(gen_fast, fast_stepper.n_sub)
        y = fast_stepper.run_block(x, y, block)
        slow_coeffs = g1_scales * gen_slow.standard_normal(model.coupling.g1_modes)
        noise = slow_coeffs @ basis_slow_t
        x = slow_stepper.step(x, forcing, noise)
        x_hist[j + 1] = x
        y_hist[j + 1] = y
        if record:
            slow_rows[j] = slow_coeffs
            fast_rows[j] = block

    _raise_on_blow_up("coupled", model.epsilon, x_hist, y_hist)
    times = np.arange(m + 1) * dt
    trajectory = Trajectory(times, x_hist, y_hist)
    stats = TrajectoryStats(grid, model.state_norm, dt, x_hist)
    stats.mean_norm_y_sq = grid.h * float(np.sum(y_hist * y_hist)) / (m + 1)
    path = (
        NoisePath(dt, fast_stepper.n_sub, model.epsilon, slow_rows, fast_rows)
        if record
        else None
    )
    return trajectory, path, stats


def simulate_averaged(
    model: ModelSpec,
    fbar: Callable[[Array], Array],
    T: float,
    params: SchemeParams,
    noise: NoisePath,
) -> SlowTrajectory:
    """Advance the averaged slow equation driven by a recorded slow noise path.

    fbar maps slow nodal values to the averaged coupling drift. The Wiener
    increments are resynthesized from the recorded mode coefficients, so a
    run against the path of simulate_coupled shares its realization exactly.
    """
    grid = model.grid
    m = _macro_step_count(T, params.dt_macro)
    if noise.dt_macro != params.dt_macro:
        raise ValueError("noise path was recorded with a different dt_macro")
    if noise.n_macro < m:
        raise ValueError(f"noise path has {noise.n_macro} steps, need {m}")
    dt = params.dt_macro
    slow_stepper = _SlowStepper(model.slow, grid, dt, params)
    basis_slow_t = np.ascontiguousarray(sine_basis(grid, noise.slow.shape[1]).T)

    x_hist = np.empty((m + 1, grid.n_interior))
    x = model.x0.values.copy()
    x_hist[0] = x
    for j in range(m):
        forcing = fbar(x)
        noise_field = noise.slow[j] @ basis_slow_t
        x = slow_stepper.step(x, forcing, noise_field)
        x_hist[j + 1] = x
    _raise_on_blow_up("averaged", model.epsilon, x_hist)
    return SlowTrajectory(np.arange(m + 1) * dt, x_hist)


def _raise_on_blow_up(equation: str, epsilon: float, *histories: Array) -> None:
    """Raise NumericalBlowUp naming the first macro time with a non-finite state."""
    finite = np.logical_and.reduce([np.isfinite(h).all(axis=1) for h in histories])
    if not finite.all():
        step = int(np.argmin(finite))
        raise NumericalBlowUp(
            f"{equation} run blew up at epsilon={epsilon:g}: "
            f"non-finite state at macro step {step}"
        )


def step_slow(model: ModelSpec, x: Field, y: Field, dt: float, increment: Field) -> Field:
    """One public macro step; increment is the slow Wiener increment field."""
    params = SchemeParams(dt_macro=dt)
    stepper = _SlowStepper(model.slow, model.grid, dt, params)
    forcing = coupling_f(model.coupling, x.values, y.values)
    return Field(model.grid, stepper.step(x.values, forcing, increment.values))


def step_fast_block(
    model: ModelSpec, x: Field, y: Field, dt_macro: float, params: SchemeParams, stream: RngStream
) -> Field:
    """Advance the fast state through one macro step with x frozen."""
    stepper = _FastStepper.for_model(model, dt_macro, params)
    block = stepper.draw(stream.generator(1), stepper.n_sub)
    return Field(model.grid, stepper.run_block(x.values, y.values, block))


def strong_error(
    coupled: Trajectory, averaged: SlowTrajectory, grid: Grid1D, kind: NormKind
) -> float:
    """sup over macro times of the squared norm of the slow-state mismatch."""
    if coupled.x.shape != averaged.x.shape:
        raise ValueError("trajectories have different shapes")
    return float(np.max(row_norms(grid, coupled.x - averaged.x, kind) ** 2))
