"""Frozen-input fast dynamics, the time-average drift, and its closed form.

With the slow input frozen at x, the fast equation runs on its own clock
(epsilon = 1 here, scales are irrelevant once frozen):

    dY = (-L Y + B2(x, Y)) dt + G2 dW.

A positive dissipativity margin makes this contract pathwise, so it has a
unique invariant measure and time averages of F(x, Y_t) converge to the
averaged coupling drift. estimate_fbar runs a few independent replicas,
discards a burn-in, and averages the rest; because F is affine in y the time
average of F(x, Y) equals F(x, time average of Y), which is what the code
accumulates. Both frozen runs step through the fast stepper of the
integrators module at epsilon = 1; estimate_fbar advances its replicas side
by side as the columns of one state, ergodicity_decay its two paths.

For the linear fast operator the invariant measure is Gaussian with mean
L^-1 (c_b x), giving the closed form used as an oracle:

    fbar(x) = f0 + c_fx * x + c_fy * c_b * L^-1 x.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .grid import L2, Array, Field, Grid1D, norm_values, solve_neg_laplacian
from .integrators import _FastStepper
from .operators import CouplingSpec, FastOperatorSpec, dissipativity_margin
from .randomness import RngStream

__all__ = [
    "DecayFit",
    "FbarEstimate",
    "FrozenRunSpec",
    "MemoizedFbar",
    "OracleFbar",
    "ergodicity_decay",
    "estimate_fbar",
]


@dataclasses.dataclass(frozen=True)
class FrozenRunSpec:
    """Burn-in, averaging window, replica count and micro step of the estimator.

    None entries default to multiples of the relaxation time 1/margin:
    t_burn = 8 / margin, t_avg = 50 / margin, dt_fast = 0.1 / margin.
    """

    t_burn: float | None = None
    t_avg: float | None = None
    n_replicas: int = 8
    dt_fast: float | None = None

    def __post_init__(self) -> None:
        for name in ("t_burn", "t_avg", "dt_fast"):
            value = getattr(self, name)
            if value is not None and value <= 0.0:
                raise ValueError(f"{name} must be positive when given")
        if self.n_replicas < 2:
            raise ValueError("need at least 2 replicas for a spread estimate")

    def resolved(self, margin: float) -> tuple[float, float, float]:
        t_burn = self.t_burn if self.t_burn is not None else 8.0 / margin
        t_avg = self.t_avg if self.t_avg is not None else 50.0 / margin
        dt_fast = self.dt_fast if self.dt_fast is not None else 0.1 / margin
        return t_burn, t_avg, dt_fast


@dataclasses.dataclass
class FbarEstimate:
    mean: Field
    stderr: Field
    n_replicas: int
    t_avg: float


def _frozen_margin(fast: FastOperatorSpec, coupling: CouplingSpec, grid: Grid1D) -> float:
    margin = dissipativity_margin(fast, coupling, grid)
    if margin <= 0.0:
        raise ValueError(f"dissipativity margin must be positive, got {margin:.6g}")
    return margin


def estimate_fbar(
    fast: FastOperatorSpec,
    coupling: CouplingSpec,
    grid: Grid1D,
    x: Field,
    spec: FrozenRunSpec,
    stream: RngStream,
) -> FbarEstimate:
    """Monte Carlo time-average estimate of the averaged coupling drift at x.

    Replica r draws from stream id stream.stream_id + r, so estimates with
    the same base stream are reproducible and replicas are independent. The
    per-node standard error comes from the spread of the replica means.
    """
    margin = _frozen_margin(fast, coupling, grid)
    t_burn, t_avg, dt_fast = spec.resolved(margin)
    n_steps = max(2, math.ceil((t_burn + t_avg) / dt_fast - 1e-12))
    dt = (t_burn + t_avg) / n_steps
    burn_steps = min(n_steps - 1, int(round(t_burn / dt)))

    stepper = _FastStepper(fast, coupling, grid, 1.0, dt)
    # Replica r draws its own stream and steps as column r of the state.
    coefficients = np.stack(
        [
            stepper.draw(RngStream(stream.master_seed, stream.stream_id + r).generator(1), n_steps)
            for r in range(spec.n_replicas)
        ],
        axis=-1,
    )
    xv = x.values
    y_sum = np.zeros((grid.n_interior, spec.n_replicas))
    path = stepper.path(xv, np.zeros_like(y_sum), coefficients)
    for m, y in enumerate(path):
        if m >= burn_steps:
            y_sum += y
    y_mean = (y_sum / (n_steps - burn_steps)).T
    replica_means = coupling.f0.values + coupling.c_fx * xv + coupling.c_fy * y_mean

    mean = replica_means.mean(axis=0)
    stderr = replica_means.std(axis=0, ddof=1) / math.sqrt(spec.n_replicas)
    return FbarEstimate(Field(grid, mean), Field(grid, stderr), spec.n_replicas, t_avg)


@dataclasses.dataclass
class DecayFit:
    slope: float
    r_squared: float
    n_points: int


def ergodicity_decay(
    fast: FastOperatorSpec,
    coupling: CouplingSpec,
    grid: Grid1D,
    x: Field,
    y0_a: Field,
    y0_b: Field,
    horizon: float,
    dt_fast: float,
    stream: RngStream,
) -> DecayFit:
    """Least-squares decay rate of log ||Y_a - Y_b|| under shared noise.

    Both runs see the same Wiener increments, so with additive noise the
    difference evolves deterministically and its L2 norm should fall like
    exp(-margin/2 * t). Sampling stops once the gap is within a factor 1e-10
    of its initial size to keep rounding noise out of the fit.
    """
    _frozen_margin(fast, coupling, grid)
    if np.array_equal(y0_a.values, y0_b.values):
        raise ValueError("initial fast states must differ")
    n_steps = max(1, math.ceil(horizon / dt_fast - 1e-12))
    dt = horizon / n_steps
    stepper = _FastStepper(fast, coupling, grid, 1.0, dt)
    coefficients = stepper.draw(stream.generator(1), n_steps)

    gap0 = norm_values(grid, y0_a.values - y0_b.values, L2)
    times = [0.0]
    log_gaps = [math.log(gap0)]
    pair = np.stack([y0_a.values, y0_b.values], axis=1)
    for m, y in enumerate(stepper.path(x.values, pair, coefficients)):
        gap = norm_values(grid, y[:, 0] - y[:, 1], L2)
        if gap <= 1e-10 * gap0:
            break
        times.append((m + 1) * dt)
        log_gaps.append(math.log(gap))

    if len(times) < 3:
        raise ValueError("horizon too short for a decay fit; need at least 3 samples")
    t = np.asarray(times)
    g = np.asarray(log_gaps)
    slope, intercept = np.polyfit(t, g, 1)
    fitted = slope * t + intercept
    ss_res = float(np.sum((g - fitted) ** 2))
    ss_tot = float(np.sum((g - g.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return DecayFit(float(slope), r_squared, len(times))


class OracleFbar:
    """Averaged-drift provider backed by the linear closed form.

    The map is affine, fbar(x) = f0 + M x with M = c_fx I + c_fy c_b L^-1;
    M is formed once, so each call is one matrix-vector product.
    """

    def __init__(self, fast: FastOperatorSpec, coupling: CouplingSpec, grid: Grid1D):
        if fast.kind != "linear":
            raise ValueError("the closed form requires the linear fast operator")
        identity = np.eye(grid.n_interior)
        inverse = solve_neg_laplacian(grid, identity)
        self._offset = coupling.f0.values
        self._matrix = coupling.c_fx * identity + (coupling.c_fy * fast.c_b) * inverse

    def __call__(self, x: Array) -> Array:
        return self._offset + self._matrix @ x


class MemoizedFbar:
    """Averaged-drift provider backed by the Monte Carlo estimator.

    The estimate is refreshed only when x leaves a trust region around the
    cached input (TRUST_RELATIVE times its L2 norm plus TRUST_ABSOLUTE),
    since re-running the frozen equation at every macro step would dominate
    the run time.
    Each refresh uses a fresh block of stream ids, so a given call sequence
    is reproducible.
    """

    TRUST_RELATIVE = 0.05
    TRUST_ABSOLUTE = 1e-3

    def __init__(
        self,
        fast: FastOperatorSpec,
        coupling: CouplingSpec,
        grid: Grid1D,
        spec: FrozenRunSpec,
        stream: RngStream,
    ):
        self.fast = fast
        self.coupling = coupling
        self.grid = grid
        self.spec = spec
        self.stream = stream
        self.refresh_count = 0
        self._cached_x: Array | None = None
        self._cached_value: Array | None = None

    def __call__(self, x: Array) -> Array:
        if self._cached_x is not None:
            radius = self.TRUST_RELATIVE * norm_values(self.grid, self._cached_x, L2)
            radius += self.TRUST_ABSOLUTE
            if norm_values(self.grid, x - self._cached_x, L2) <= radius:
                assert self._cached_value is not None
                return self._cached_value
        base = RngStream(
            self.stream.master_seed,
            self.stream.stream_id + self.refresh_count * self.spec.n_replicas,
        )
        estimate = estimate_fbar(
            self.fast, self.coupling, self.grid, Field(self.grid, x), self.spec, base
        )
        self.refresh_count += 1
        self._cached_x = x.copy()
        self._cached_value = estimate.mean.values
        return self._cached_value
