"""Block-frozen auxiliary construction and the deviation statistic.

The auxiliary fast process re-runs the recorded fast noise with the slow
input frozen at block boundaries: on [k*delta, (k+1)*delta) it sees the slow
state from time k*delta instead of the current macro step. It runs on the
step grid the NoisePath recorded (dt_macro and n_sub micro steps per macro
step) and reads its fast noise as recorded, so a replay needs no scheme
parameters and cannot disagree with the recording run. Its one step rule,
integrators._block_replay, also advances the coupled fast states (blocks of
one macro step); build_auxiliary writes its history, while diagnose steps
it inside its coupled run and keeps none. Comparing it with the true fast
trajectory isolates how much the fast equation feels the slow motion inside
one block, the quantity whose delta-scaling the diagnostics suites measure.

Statistics conventions. deviation_statistic integrates ||y(t) - y_hat(t)||^2
with the trapezoid rule; the integrand is continuous, and a constant offset c
integrates to exactly T * ||c||^2. The slow-increment counterpart on the same
blocks is TrajectoryStats.increment_integral in the integrators module.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .grid import L2, Array, Grid1D, row_norms
from .integrators import (
    ModelSpec,
    NoisePath,
    Trajectory,
    _block_replay,
    block_anchors,
    whole_steps,
)

__all__ = [
    "build_auxiliary",
    "deviation_statistic",
]


def build_auxiliary(
    model: ModelSpec,
    trajectory: Trajectory,
    noise: NoisePath,
    deltas: Sequence[float],
) -> Array:
    """Replay the fast noise of a batch with the slow input frozen at block boundaries.

    deltas are block lengths, each a positive whole multiple of the
    recorded dt_macro; one block length is [delta]. Returns the auxiliary
    fast states at macro times, shape (n_steps + 1, D, R, n) for D deltas
    and the R replicas of the trajectory and path: every (delta, replica)
    pair runs as one column of a single replay, the history-writing caller
    of _block_replay. With delta = dt_macro the anchor is the current macro
    step, which is exactly what the coupled integrator used, so the result
    reproduces the recorded fast trajectory bit for bit.
    """
    if np.ndim(deltas) == 0:
        raise TypeError("deltas must be a sequence of block lengths; one block length is [delta]")
    if not len(deltas):
        raise ValueError("deltas must hold at least one block length")
    if noise.epsilon != model.epsilon:
        raise ValueError("noise path was recorded at a different epsilon")
    m, n = noise.n_macro, model.grid.n_interior
    x = trajectory.x
    if x.shape[0] != m + 1:
        raise ValueError("trajectory and noise path disagree on the step count")
    replicas = noise.fast.shape[0]
    if x.shape[1:] != (replicas, n):
        raise ValueError("trajectory and noise path disagree on the replica count")
    block_steps = [whole_steps(float(d), noise.dt_macro, "delta") for d in deltas]
    anchors = block_anchors(np.arange(m), np.array(block_steps)[:, None])
    _, replay = _block_replay(model, [noise], [len(anchors)])
    # Column d * replicas + r replays replica r under block length deltas[d].
    y_hat = np.empty((m + 1, len(anchors) * replicas, n))
    y_hat[0] = model.y0.values
    y = y_hat[0].T
    for j in range(m):
        y = replay(j, x[anchors[:, j]].reshape(-1, n).T, y)
        y_hat[j + 1] = y.T
    return y_hat.reshape(m + 1, len(anchors), replicas, n)


def deviation_statistic(trajectory: Trajectory, auxiliary: Array, grid: Grid1D) -> float:
    """Trapezoid integral over [0, T] of ||y(t) - y_hat(t)||_L2^2 at macro times."""
    if auxiliary.shape != trajectory.y.shape:
        raise ValueError("auxiliary states have the wrong shape")
    norms_sq = row_norms(grid, trajectory.y - auxiliary, L2) ** 2
    dt = trajectory.times[1] - trajectory.times[0]
    return float(np.trapezoid(norms_sq, dx=dt))
