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
  state. Points stack the same way: it takes an (n, S) array of points with
  one base stream each, a lone point being S = 1, and all S * n_replicas
  replicas run as the columns of one frozen run, each with its own point
  frozen and on its own stream. It returns (mean, stderr), two (n, S)
  arrays whose column s has the bytes of point s's own call. MemoizedFbar
  uses that to refresh, in one run, every column of a batch whose input
  left its trust region at the same macro step.
- ergodicity_decay runs zero and the first sine mode under shared noise
  for 50 relaxation times in steps of 0.02, as the two columns of one state,
  and takes the norms of their gaps a block of steps at a time.

For the linear fast operator the invariant measure is Gaussian with mean
L^-1 (c_b x), giving the closed form used as an oracle:

    fbar(x) = f0 + c_fx * x + c_fy * c_b * L^-1 x.

The two drift providers, OracleFbar and MemoizedFbar, map slow states of a
batch, (n, R), to their drifts column by column, as simulate_averaged and
epsilon_grid_errors call them; a lone state is one column, x[:, None].
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .grid import (
    L2,
    Array,
    Field,
    Grid1D,
    norm_values,
    row_norms,
    sine_mode,
    solve_neg_laplacian,
)
from .integrators import DT_FAST, NOISE_BLOCK, NumericalBlowUp, _FastStepper, _matvec
from .operators import CouplingSpec, FastOperatorSpec, contraction_margin
from .randomness import RngStream, stream_batch

__all__ = [
    "BURN_IN",
    "MemoizedFbar",
    "OracleFbar",
    "WINDOW",
    "ergodicity_decay",
    "estimate_fbar",
]

# Burn-in and averaging window of estimate_fbar, in relaxation times 1 / margin.
BURN_IN = 8
WINDOW = 50


def estimate_fbar(
    fast: FastOperatorSpec,
    coupling: CouplingSpec,
    grid: Grid1D,
    x: Array,
    n_replicas: int,
    streams: Sequence[RngStream],
    t_avg: float | None = None,
) -> tuple[Array, Array]:
    """Monte Carlo time-average estimates of the averaged coupling drift at points x.

    x is an (n, S) array of points and streams their S base streams; a lone
    point is x[:, None] with [stream]. Returns (mean, stderr), each (n, S),
    column s with the bytes of point s's own call, from one frozen run of
    S * n_replicas columns. t_avg is the averaging window, WINDOW / margin
    when None.
    Replica r of a point draws from stream id base.stream_id + r, so
    estimates with the same base stream are reproducible and replicas are
    independent. The per-node standard error comes from the spread of the
    replica means. An estimate that is not finite raises NumericalBlowUp.
    """
    streams = stream_batch(streams, "point")
    if n_replicas < 2:
        raise ValueError("need at least 2 replicas for a spread estimate")
    if t_avg is not None and not 0.0 < t_avg < math.inf:
        raise ValueError(f"t_avg must be positive and finite when given, got {t_avg}")
    points = np.asarray(x, dtype=np.float64)
    if points.shape != (grid.n_interior, len(streams)):
        raise ValueError(
            f"{len(streams)} base streams cannot go with points of {points.shape}: "
            "S streams take an (n, S) array"
        )
    margin = contraction_margin(fast, coupling, grid)
    t_burn = BURN_IN / margin
    if t_avg is None:
        t_avg = WINDOW / margin
    n_steps = max(2, math.ceil((t_burn + t_avg) / (DT_FAST / margin) - 1e-12))
    dt = (t_burn + t_avg) / n_steps
    burn_steps = min(n_steps - 1, int(round(t_burn / dt)))

    stepper = _FastStepper(fast, coupling, grid, 1.0, dt)
    # Column s * n_replicas + r is replica r of point s: it draws its own
    # stream and steps with that point frozen.
    columns = [
        RngStream(b.master_seed, b.stream_id + r) for b in streams for r in range(n_replicas)
    ]
    coefficients = stepper.draw(columns, n_steps)
    y_sum = np.zeros((grid.n_interior, len(columns)))
    path = stepper.path(np.repeat(points, n_replicas, axis=1), np.zeros_like(y_sum), coefficients)
    # The finiteness test below classifies an overflow of the frozen runs.
    with np.errstate(over="ignore", invalid="ignore"):
        for m, y in enumerate(path):
            if m >= burn_steps:
                y_sum += y
        # (replica, point, node): every point's replicas reduce along axis 0
        # one after another, as a lone point's (replica, node) block does.
        y_mean = (y_sum / (n_steps - burn_steps)).T.reshape(len(streams), n_replicas, -1)
        y_mean = y_mean.transpose(1, 0, 2)
        replica_means = coupling.f0.values + coupling.c_fx * points.T + coupling.c_fy * y_mean
        means = replica_means.mean(axis=0)
        stderrs = replica_means.std(axis=0, ddof=1) / math.sqrt(n_replicas)
    if not (np.isfinite(means).all() and np.isfinite(stderrs).all()):
        raise NumericalBlowUp("fbar estimate is not finite: the frozen runs overflowed")
    return means.T, stderrs.T


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
    Sampling stops before the first step whose gap is within a factor 1e-10
    of its initial size, to keep rounding noise out of a fit, or else at
    the horizon. The differences of NOISE_BLOCK steps at a time go into one
    buffer and take their norms in one row_norms call, each row with the
    bytes of its own; the steps of a block past the stop are discarded.
    """
    margin = contraction_margin(fast, coupling, grid)
    horizon = 50.0 / margin
    n_steps = max(1, math.ceil(horizon / (0.02 / margin) - 1e-12))
    dt = horizon / n_steps
    stepper = _FastStepper(fast, coupling, grid, 1.0, dt)
    coefficients = stepper.draw([stream], n_steps)

    y0_b = sine_mode(grid, 1, 1.0).values
    pair = np.stack([np.zeros_like(y0_b), y0_b], axis=1)
    gap0 = norm_values(grid, y0_b, L2)
    log_gaps = [math.log(gap0)]
    states = stepper.path(x.values[:, None], pair, coefficients)
    differences = np.empty((NOISE_BLOCK, grid.n_interior))
    for start in range(0, n_steps, NOISE_BLOCK):
        block = differences[: n_steps - start]
        for row, y in zip(block, states):
            np.subtract(y[:, 0], y[:, 1], out=row)
        gaps = row_norms(grid, block, L2)
        stop = np.flatnonzero(gaps <= 1e-10 * gap0)
        log_gaps.extend(math.log(gap) for gap in gaps[: stop[0] if stop.size else len(gaps)])
        if stop.size:
            break
    return np.arange(len(log_gaps)) * dt, np.asarray(log_gaps)


class OracleFbar:
    """Averaged-drift provider backed by the linear closed form.

    The map is affine, fbar(x) = f0 + M x with M = c_fx I + c_fy c_b L^-1;
    M is formed once, so each call is one matrix-vector product per column
    of x, (n, R).
    """

    def __init__(self, fast: FastOperatorSpec, coupling: CouplingSpec, grid: Grid1D):
        if fast.kind != "linear":
            raise ValueError("the closed form requires the linear fast operator")
        identity = np.eye(grid.n_interior)
        inverse = solve_neg_laplacian(grid, identity)
        self._offset = coupling.f0.values
        self._matrix = coupling.c_fx * identity + (coupling.c_fy * fast.c_b) * inverse

    def __call__(self, x: Array) -> Array:
        return self._offset[:, None] + _matvec(self._matrix, x)


class MemoizedFbar:
    """Averaged-drift provider backed by the Monte Carlo estimator, per column.

    Column r of the input, a replica of a batch, has its own base stream
    streams[r], cached input and cached estimate. A column's estimate is
    refreshed only when its x leaves a trust region around its cached input
    (TRUST_RELATIVE times its L2 norm plus TRUST_ABSOLUTE), since re-running
    the frozen equation at every macro step would dominate the run time.
    Refresh k of column r uses the stream ids from streams[r].stream_id +
    k * n_replicas on, so a given call sequence is reproducible. The columns
    due at one call refresh in one estimate_fbar call, each with the bytes
    it would get alone: a column's values and refresh_counts[r] do not
    depend on the other columns. When that estimate is not finite, every
    column it refreshed reads NaN, so the slow step that takes the drift
    fails. x is (n, R).
    """

    TRUST_RELATIVE = 0.05
    TRUST_ABSOLUTE = 1e-3

    def __init__(
        self,
        fast: FastOperatorSpec,
        coupling: CouplingSpec,
        grid: Grid1D,
        n_replicas: int,
        streams: Sequence[RngStream],
    ):
        self.fast = fast
        self.coupling = coupling
        self.grid = grid
        self.n_replicas = n_replicas
        self.streams = stream_batch(streams)
        self.refresh_counts = np.zeros(len(self.streams), dtype=np.int64)
        # Row r caches column r's input; NaN radii put every column outside
        # its trust region until its first refresh.
        self._x = np.zeros((len(self.streams), grid.n_interior))
        self._radius = np.full(len(self.streams), math.nan)
        self._values = np.zeros((grid.n_interior, len(self.streams)))

    def __call__(self, x: Array) -> Array:
        if x.shape != (self.grid.n_interior, len(self.streams)):
            raise ValueError(f"{len(self.streams)} streams cannot go with x of shape {x.shape}")
        # Row by row in C order, each norm as a lone vector's. An x too large
        # to square refreshes, and the slow step classifies its NaN drift.
        with np.errstate(over="ignore", invalid="ignore"):
            gaps, sizes = row_norms(self.grid, np.stack([x.T - self._x, x.T]), L2)
        stale = np.flatnonzero(~(gaps <= self._radius))
        if stale.size:
            bases = [
                RngStream(
                    self.streams[r].master_seed,
                    self.streams[r].stream_id + int(self.refresh_counts[r]) * self.n_replicas,
                )
                for r in stale
            ]
            try:
                means, _ = estimate_fbar(
                    self.fast, self.coupling, self.grid, x[:, stale], self.n_replicas, bases
                )
            except NumericalBlowUp:
                # A NaN drift goes on to the slow step, whose run then fails
                # as any non-finite state does.
                means = np.full((self.grid.n_interior, stale.size), math.nan)
            self.refresh_counts[stale] += 1
            self._x[stale] = x.T[stale]
            self._radius[stale] = self.TRUST_RELATIVE * sizes[stale] + self.TRUST_ABSOLUTE
            # A new array, so a value returned earlier never changes.
            self._values = self._values.copy()
            self._values[:, stale] = means
        return self._values
