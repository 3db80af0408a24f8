"""Frozen-input fast dynamics, the time-average drift, and its closed form.

With the slow input frozen at x, the fast equation runs on its own clock
(epsilon = 1 here, scales are irrelevant once frozen):

    dY = (-L Y + B2(x, Y)) dt + G2 dW.

A positive dissipativity margin makes this contract pathwise, so it has a
unique invariant measure and time averages of F(x, Y_t) converge to the
averaged coupling drift. Both frozen runs are set in relaxation times
1 / margin and step through the fast stepper of the integrators module at
epsilon = 1:

- estimate_fbar starts its replicas at zero, discards BURN_IN = 8
  relaxation times, averages over the next WINDOW = 50 (or t_avg) and steps
  by about DT_FAST = 0.1. Because F is affine in y the time average of
  F(x, Y) equals F(x, time average of Y), which is what the code
  accumulates. The replicas advance side by side as the columns of one
  state.
- ergodicity_decay runs zero and the first sine mode under shared noise
  for 50 relaxation times in steps of 0.02, as the two columns of one state.

For the linear fast operator the invariant measure is Gaussian with mean
L^-1 (c_b x), giving the closed form used as an oracle:

    fbar(x) = f0 + c_fx * x + c_fy * c_b * L^-1 x.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .grid import L2, Array, Field, Grid1D, norm_values, sine_mode, solve_neg_laplacian
from .integrators import DT_FAST, _FastStepper
from .operators import CouplingSpec, FastOperatorSpec, contraction_margin
from .randomness import RngStream

__all__ = [
    "BURN_IN",
    "FbarEstimate",
    "MemoizedFbar",
    "OracleFbar",
    "WINDOW",
    "ergodicity_decay",
    "estimate_fbar",
]

# Burn-in and averaging window of estimate_fbar, in relaxation times 1 / margin.
BURN_IN = 8
WINDOW = 50


@dataclasses.dataclass
class FbarEstimate:
    mean: Field
    stderr: Field


def estimate_fbar(
    fast: FastOperatorSpec,
    coupling: CouplingSpec,
    grid: Grid1D,
    x: Field,
    n_replicas: int,
    stream: RngStream,
    t_avg: float | None = None,
) -> FbarEstimate:
    """Monte Carlo time-average estimate of the averaged coupling drift at x.

    t_avg is the averaging window, WINDOW / margin when None. Replica r
    draws from stream id stream.stream_id + r, so estimates with the same
    base stream are reproducible and replicas are independent. The per-node
    standard error comes from the spread of the replica means.
    """
    if n_replicas < 2:
        raise ValueError("need at least 2 replicas for a spread estimate")
    if t_avg is not None and t_avg <= 0.0:
        raise ValueError("t_avg must be positive when given")
    margin = contraction_margin(fast, coupling, grid)
    t_burn = BURN_IN / margin
    if t_avg is None:
        t_avg = WINDOW / margin
    n_steps = max(2, math.ceil((t_burn + t_avg) / (DT_FAST / margin) - 1e-12))
    dt = (t_burn + t_avg) / n_steps
    burn_steps = min(n_steps - 1, int(round(t_burn / dt)))

    stepper = _FastStepper(fast, coupling, grid, 1.0, dt)
    # Replica r draws its own stream and steps as column r of the state.
    coefficients = np.stack(
        [
            stepper.draw(RngStream(stream.master_seed, stream.stream_id + r).generator(1), n_steps)
            for r in range(n_replicas)
        ],
        axis=-1,
    )
    xv = x.values
    y_sum = np.zeros((grid.n_interior, n_replicas))
    path = stepper.path(xv, np.zeros_like(y_sum), coefficients)
    for m, y in enumerate(path):
        if m >= burn_steps:
            y_sum += y
    y_mean = (y_sum / (n_steps - burn_steps)).T
    replica_means = coupling.f0.values + coupling.c_fx * xv + coupling.c_fy * y_mean

    mean = replica_means.mean(axis=0)
    stderr = replica_means.std(axis=0, ddof=1) / math.sqrt(n_replicas)
    return FbarEstimate(Field(grid, mean), Field(grid, stderr))


def ergodicity_decay(
    fast: FastOperatorSpec,
    coupling: CouplingSpec,
    grid: Grid1D,
    x: Field,
    stream: RngStream,
) -> tuple[Array, Array]:
    """Sampled (times, log ||Y_a - Y_b||) of two frozen runs under shared noise.

    Y_a starts at zero and Y_b at the first sine mode. Both see the same
    Wiener increments, so with additive noise the difference evolves
    deterministically and its L2 norm should fall like exp(-margin/2 * t).
    Sampling stops once the gap is within a factor 1e-10 of its initial
    size to keep rounding noise out of a fit.
    """
    margin = contraction_margin(fast, coupling, grid)
    horizon = 50.0 / margin
    n_steps = max(1, math.ceil(horizon / (0.02 / margin) - 1e-12))
    dt = horizon / n_steps
    stepper = _FastStepper(fast, coupling, grid, 1.0, dt)
    coefficients = stepper.draw(stream.generator(1), n_steps)

    y0_b = sine_mode(grid, 1, 1.0).values
    pair = np.stack([np.zeros_like(y0_b), y0_b], axis=1)
    gap0 = norm_values(grid, y0_b, L2)
    times = [0.0]
    log_gaps = [math.log(gap0)]
    for m, y in enumerate(stepper.path(x.values, pair, coefficients)):
        gap = norm_values(grid, y[:, 0] - y[:, 1], L2)
        if gap <= 1e-10 * gap0:
            break
        times.append((m + 1) * dt)
        log_gaps.append(math.log(gap))
    return np.asarray(times), np.asarray(log_gaps)


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
        n_replicas: int,
        stream: RngStream,
    ):
        self.fast = fast
        self.coupling = coupling
        self.grid = grid
        self.n_replicas = n_replicas
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
            self.stream.stream_id + self.refresh_count * self.n_replicas,
        )
        estimate = estimate_fbar(
            self.fast, self.coupling, self.grid, Field(self.grid, x), self.n_replicas, base
        )
        self.refresh_count += 1
        self._cached_x = x.copy()
        self._cached_value = estimate.mean.values
        return self._cached_value
