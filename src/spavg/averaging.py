"""Frozen-input fast dynamics, the time-average drift, and its closed form.

With the slow input frozen at x, the fast equation runs on its own clock
(epsilon = 1 here, scales are irrelevant once frozen):

    dY = (-L Y + B2(x, Y)) dt + G2 dW.

A positive dissipativity margin makes this contract pathwise, so it has a
unique invariant measure and time averages of F(x, Y_t) converge to the
averaged coupling drift. Both frozen runs are set in relaxation times
1 / margin and step through the fast stepper of the integrators module at
epsilon = 1:

- estimate_fbar is a control variate on the time average. F is affine in
  y, so fbar(x) needs only the invariant mean of Y. Each replica pairs the
  frozen chain with its OU twin, the linear kind with b = 0, both started
  at zero and driven by the same raw noise rows. The twin's
  implicit-Euler stationary mean is exactly L^-1 (c_b x), so

      fbar(x) = oracle(x) + c_fy * mean_r(avg Y_r - avg Y_OU_r),

  with oracle the closed form below of the twin, is unbiased for the same
  fbar. The noise cancels from Y - Y_OU up to what the sin term of
  smooth_bounded makes of it, so each replica discards BURN_IN = 8
  relaxation times and averages over only the next WINDOW = 5 (or t_avg),
  stepping by about DT_FAST = 0.1: at 64 nodes, b = 0.5 and 2 replicas
  its seed-to-seed spread is about a tenth of the plain time average's
  over 50. The stderr is the spread of the replicas' gaps. A linear chain
  is its own twin: its gaps are 0, nothing steps, and the estimate is the
  closed form with a stderr of 0. The chain keeps nodal states, the twin
  sine modes: one transform of the points in and one of the twin's time
  sum out. The replicas advance side by side as the columns of one
  state. Points stack the same way: it takes an (n, S) array of points with
  one base stream each, a lone point being S = 1, and all S * n_replicas
  replicas run as the columns of one frozen run, each with its own point
  frozen and on its own stream. It returns (mean, stderr), two (n, S)
  arrays whose column s has the bytes of point s's own call. The part
  beside the closed form, the correction, is computed apart
  (_fbar_correction), for MemoizedFbar to cache alone.
- ergodicity_decay follows the gap of runs from zero and the first sine
  mode under shared noise for 50 relaxation times in steps of 0.02: the gap
  alone in sine modes for the linear kind, else the pair as two columns.

For the linear fast operator the invariant measure is Gaussian with mean
L^-1 (c_b x), giving the closed form used as an oracle and as the base of
the control variate:

    fbar(x) = f0 + c_fx * x + c_fy * c_b * L^-1 x.

The two drift providers, OracleFbar and MemoizedFbar, map slow states of a
batch, (n, R), to their drifts column by column, as simulate_averaged and
epsilon_grid_errors call them; a lone state is one column, x[:, None].
MemoizedFbar evaluates the twin's closed form at every call and caches only
the correction, which moves b / (lambda_1 - b) times as fast with x, so its
trust radius is that much wider; the columns whose inputs leave it at the
same call refresh in one frozen run. At b = 0 or c_fy = 0 it is the closed
form.
"""

from __future__ import annotations

import math
from itertools import islice
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
from .integrators import _fast_coordinates
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
WINDOW = 5


def estimate_fbar(
    fast: FastOperatorSpec,
    coupling: CouplingSpec,
    grid: Grid1D,
    x: Array,
    n_replicas: int,
    streams: Sequence[RngStream],
    t_avg: float | None = None,
) -> tuple[Array, Array]:
    """Control-variate time-average estimates of the averaged coupling drift at points x.

    x is an (n, S) array of points and streams their S base streams; a lone
    point is x[:, None] with [stream]. Returns (mean, stderr), each (n, S),
    column s with the bytes of point s's own call, from one frozen run of
    S * n_replicas columns. t_avg is the averaging window, WINDOW / margin
    when None. The mean is the closed form of the b = 0 twin plus c_fy
    times the replica mean of avg Y - avg Y_OU (see the module docstring);
    each time sum goes back to nodes once. Replica r of a point draws from
    stream id base.stream_id + r, so estimates with the same base stream
    are reproducible and replicas are independent. The per-node standard
    error comes from the spread of the replicas' gaps. An estimate that is
    not finite raises NumericalBlowUp.
    """
    corrections, stderrs = _fbar_correction(fast, coupling, grid, x, n_replicas, streams, t_avg)
    twin = FastOperatorSpec("linear", c_b=fast.c_b)
    with np.errstate(over="ignore", invalid="ignore"):
        means = OracleFbar(twin, coupling, grid)(np.asarray(x, dtype=np.float64)) + corrections
    if not (np.isfinite(means).all() and np.isfinite(stderrs).all()):
        raise NumericalBlowUp("fbar estimate is not finite: the frozen runs or drift overflowed")
    return means, stderrs


def _fbar_correction(
    fast: FastOperatorSpec,
    coupling: CouplingSpec,
    grid: Grid1D,
    x: Array,
    n_replicas: int,
    streams: Sequence[RngStream],
    t_avg: float | None,
) -> tuple[Array, Array]:
    """(c_fy * mean_r(avg Y_r - avg Y_OU_r), its stderr) at points x, each (n, S).

    The part of estimate_fbar beside the twin's closed form, under its
    arguments and stream layout; the values may be non-finite, and its
    callers judge them together with the closed form.
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
    margin = contraction_margin(fast, grid)
    t_burn = BURN_IN / margin
    if t_avg is None:
        t_avg = WINDOW / margin
    n_steps = max(2, math.ceil((t_burn + t_avg) / (DT_FAST / margin) - 1e-12))
    dt = (t_burn + t_avg) / n_steps
    burn_steps = min(n_steps - 1, int(round(t_burn / dt)))

    twin = FastOperatorSpec("linear", c_b=fast.c_b)
    # Column s * n_replicas + r is replica r of point s: it draws its own
    # stream and steps with that point frozen.
    columns = [
        RngStream(b.master_seed, b.stream_id + r) for b in streams for r in range(n_replicas)
    ]
    gap_sum = np.zeros((grid.n_interior, len(columns)))
    # The callers' finiteness test classifies an overflow of the frozen runs.
    with np.errstate(over="ignore", invalid="ignore"):
        if fast != twin:  # else the chain is its own twin and every gap is 0
            stepper = _FastStepper(fast, coupling, grid, 1.0, dt)
            coefficients = stepper.draw(columns, n_steps)
            to_modes, to_nodes, _ = _fast_coordinates(twin, grid)
            # The chain keeps nodal states and its twin sine modes; both
            # start at zero and step on the same raw noise rows.
            frozen = np.repeat(points, n_replicas, axis=1)
            chain = stepper.path(frozen, np.zeros_like(gap_sum), coefficients)
            frozen = np.repeat(to_modes(points), n_replicas, axis=1)
            ou = _FastStepper(twin, coupling, grid, 1.0, dt)
            ou_chain = ou.path(frozen, np.zeros_like(gap_sum), coefficients)
            y_sum, ou_sum = np.zeros_like(gap_sum), np.zeros_like(gap_sum)
            for m, (y, y_ou) in enumerate(zip(chain, ou_chain)):
                if m >= burn_steps:
                    y_sum += y
                    ou_sum += y_ou
            gap_sum = y_sum - to_nodes(ou_sum)
        # (replica, point, node): every point's replicas reduce along axis 0
        # one after another, as a lone point's (replica, node) block does.
        gaps = (gap_sum / (n_steps - burn_steps)).T.reshape(len(streams), n_replicas, -1)
        gaps = gaps.transpose(1, 0, 2)
        corrections = coupling.c_fy * gaps.mean(axis=0).T
        stderrs = abs(coupling.c_fy) * gaps.std(axis=0, ddof=1).T / math.sqrt(n_replicas)
    return corrections, stderrs


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
    the horizon. With a linear drift the noise cancels from the gap, which
    steps alone, g^ <- d g^ per sine mode, NOISE_BLOCK steps per cumprod;
    smooth_bounded steps the pair. A block's gaps take their norms at once.
    """
    margin = contraction_margin(fast, grid)
    horizon = 50.0 / margin
    n_steps = max(1, math.ceil(horizon / (0.02 / margin) - 1e-12))
    dt = horizon / n_steps
    stepper = _FastStepper(fast, coupling, grid, 1.0, dt)
    y0_b = sine_mode(grid, 1, 1.0).values
    gap0 = norm_values(grid, y0_b, L2)
    to_state, _, l2_norms = _fast_coordinates(fast, grid)
    if fast.kind == "linear":
        gap = to_state(y0_b[:, None]).T
    else:
        pair = np.stack([np.zeros_like(y0_b), y0_b], axis=1)
        states = stepper.path(x.values[:, None], pair, stepper.draw([stream], n_steps))
        block = np.empty((NOISE_BLOCK, 2, grid.n_interior))
    log_gaps = [math.log(gap0)]
    for start in range(0, n_steps, NOISE_BLOCK):
        steps = min(NOISE_BLOCK, n_steps - start)
        if fast.kind == "linear":
            gap = np.cumprod(np.vstack([gap[-1:], np.tile(stepper._d, (steps, 1))]), axis=0)[1:]
        else:
            for i, y in enumerate(islice(states, steps)):
                block[i] = y.T
            gap = block[:steps, 0] - block[:steps, 1]
        gaps = l2_norms(gap)
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

    The drift is oracle(x) + c(x): oracle is the closed form of the b = 0
    twin, built once and evaluated at the current x on every call, and c is
    estimate_fbar's correction c_fy * mean_r(avg Y_r - avg Y_OU_r), the only
    part cached. Column r of the input, a replica of a batch, has its own
    base stream streams[r], cached input and cached correction. A column's
    correction is refreshed only when its x leaves a trust region around
    its cached input, since re-running the frozen equation at every macro
    step would dominate the run time.

    The trust radius keeps the budget of a cached full estimate and widens
    by the ratio of the two parts' Lipschitz bounds:

    - A full estimate cached at distance r from x is off by at most
      ||M|| r, M the oracle's matrix, with ||M|| <= |c_fy| c_b / lambda_1
      when c_fx = 0; the budget is r <= TRUST_RELATIVE ||x|| +
      TRUST_ABSOLUTE.
    - c is c_fy E[Y - Y_OU] and d(Y - Y_OU) = (-L (Y - Y_OU) + b sin Y) dt,
      so Y - Y_OU ~ L^-1 b sin Y. The frozen chain contracts at rate
      lambda_1 - b, so ||dY/dx|| <= c_b / (lambda_1 - b) and
      Lip(c) <= |c_fy| b c_b / (lambda_1 (lambda_1 - b)).
    - The same budget then allows

          radius = (TRUST_RELATIVE ||x|| + TRUST_ABSOLUTE) (lambda_1 - b) / b,

      the factor being margin / (2 b) with margin = contraction_margin:
      18.7 at 64 nodes and b = 0.5.
    - When b = 0 (the linear kind) or c_fy = 0, c is exactly 0: the radius
      is infinite, the frozen equation never runs, refresh_counts stay 0
      and every call returns the closed form's bytes.

    Refresh k of column r uses the stream ids from streams[r].stream_id +
    k * n_replicas on, so a given call sequence is reproducible. The columns
    due at one call refresh in one frozen run, each with the bytes it would
    get alone: a column's values and refresh_counts[r] do not depend on the
    other columns, and at its refresh a column reads estimate_fbar's mean.
    When that estimate is not finite, every column it refreshed reads NaN,
    so the slow step that takes the drift fails. x is (n, R).
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
        self._oracle = OracleFbar(FastOperatorSpec("linear", c_b=fast.c_b), coupling, grid)
        self._widening = (
            math.inf
            if fast.b == 0.0 or coupling.c_fy == 0.0
            else contraction_margin(fast, grid) / (2.0 * fast.b)
        )
        # Row r caches column r's input; NaN radii put every column outside
        # its trust region until its first refresh.
        self._x = np.zeros((len(self.streams), grid.n_interior))
        self._radius = np.full(len(self.streams), math.nan)
        self._corrections = np.zeros((grid.n_interior, len(self.streams)))

    def __call__(self, x: Array) -> Array:
        if x.shape != (self.grid.n_interior, len(self.streams)):
            raise ValueError(f"{len(self.streams)} streams cannot go with x of shape {x.shape}")
        # An x too large for the closed form or to square gives a non-finite
        # drift, which the slow step classifies.
        with np.errstate(over="ignore", invalid="ignore"):
            drift = self._oracle(x)
            if self._widening == math.inf:
                return drift
            # Row by row in C order, each norm as a lone vector's.
            gaps, sizes = row_norms(self.grid, np.stack([x.T - self._x, x.T]), L2)
            stale = np.flatnonzero(~(gaps <= self._radius))
            if stale.size:
                self._refresh(x, drift, stale, sizes)
            return drift + self._corrections

    def _refresh(self, x: Array, drift: Array, stale: Array, sizes: Array) -> None:
        """Re-estimate the corrections of columns stale at x, whose closed form is drift."""
        bases = [
            RngStream(
                self.streams[r].master_seed,
                self.streams[r].stream_id + int(self.refresh_counts[r]) * self.n_replicas,
            )
            for r in stale
        ]
        corrections, stderrs = _fbar_correction(
            self.fast, self.coupling, self.grid, x[:, stale], self.n_replicas, bases, None
        )
        if not (np.isfinite(drift[:, stale] + corrections).all() and np.isfinite(stderrs).all()):
            # As estimate_fbar would raise: a NaN drift goes on to the slow
            # step, whose run then fails as any non-finite state does.
            corrections = np.full_like(corrections, math.nan)
        self.refresh_counts[stale] += 1
        self._x[stale] = x.T[stale]
        budget = self.TRUST_RELATIVE * sizes[stale] + self.TRUST_ABSOLUTE
        self._radius[stale] = budget * self._widening
        self._corrections[:, stale] = corrections
