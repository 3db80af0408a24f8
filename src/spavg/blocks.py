"""Block-frozen auxiliary construction and the two time-block statistics.

The auxiliary fast process re-runs the recorded fast noise with the slow
input frozen at block boundaries: on [k*delta, (k+1)*delta) it sees the slow
state from time k*delta instead of the current macro step. Comparing it with
the true fast trajectory isolates how much the fast equation feels the slow
motion inside one block, which is the quantity whose delta-scaling the
diagnostics suites measure.

Statistics conventions. increment_statistic integrates
||x(t) - x(block_start(t))||^2 with the upper Riemann sum that respects the
jump of the block anchor (the term for [t_j, t_j + dt) evaluates the state at
t_{j+1} against the anchor of t_j), so with delta = dt_macro it reduces
exactly to the summed one-step increments. deviation_statistic integrates
||y(t) - y_hat(t)||^2 with the trapezoid rule; the integrand is continuous,
and a constant offset c integrates to exactly T * ||c||^2.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .grid import L2, Array, Grid1D, NormKind, row_norms
from .integrators import (
    ModelSpec,
    NoisePath,
    SchemeParams,
    Trajectory,
    _FastStepper,
    block_increment_integral,
)

__all__ = [
    "BlockSchedule",
    "build_auxiliary",
    "deviation_statistic",
    "increment_statistic",
]


@dataclasses.dataclass(frozen=True)
class BlockSchedule:
    """Blocks [k*delta, (k+1)*delta) with delta a positive multiple of dt_macro."""

    delta: float
    dt_macro: float

    def __post_init__(self) -> None:
        if self.delta <= 0.0 or self.dt_macro <= 0.0:
            raise ValueError("delta and dt_macro must be positive")
        q = int(round(self.delta / self.dt_macro))
        if q < 1 or abs(q * self.dt_macro - self.delta) > 1e-9 * self.delta:
            raise ValueError(
                f"delta = {self.delta} is not a positive multiple of dt_macro = {self.dt_macro}"
            )

    @property
    def steps_per_block(self) -> int:
        return int(round(self.delta / self.dt_macro))

    def anchor_step(self, j: int) -> int:
        """Macro-step index of the block boundary at or below step j."""
        q = self.steps_per_block
        return (j // q) * q


def build_auxiliary(
    model: ModelSpec,
    trajectory: Trajectory,
    noise: NoisePath,
    schedule: BlockSchedule,
    params: SchemeParams,
) -> Array:
    """Replay the fast noise with the slow input frozen at block boundaries.

    Returns the auxiliary fast states at macro times, shape (n_steps + 1, n).
    With delta = dt_macro the anchor is the current macro step, which is
    exactly what the coupled integrator used, so the result reproduces the
    recorded fast trajectory bit for bit.
    """
    if schedule.dt_macro != noise.dt_macro:
        raise ValueError("schedule and noise path disagree on dt_macro")
    if noise.epsilon != model.epsilon:
        raise ValueError("noise path was recorded at a different epsilon")
    m = noise.n_macro
    if trajectory.x.shape[0] != m + 1:
        raise ValueError("trajectory and noise path disagree on the step count")
    stepper = _FastStepper.for_model(model, noise.dt_macro, params)
    if stepper.n_sub != noise.n_sub:
        raise ValueError(
            f"scheme gives {stepper.n_sub} micro steps but the path recorded {noise.n_sub}; "
            "use the same SchemeParams as the recording run"
        )
    y_hat = np.empty((m + 1, model.grid.n_interior))
    y = model.y0.values.copy()
    y_hat[0] = y
    for j in range(m):
        x_frozen = trajectory.x[schedule.anchor_step(j)]
        y = stepper.run_block(x_frozen, y, noise.fast[j])
        y_hat[j + 1] = y
    return y_hat


def deviation_statistic(trajectory: Trajectory, auxiliary: Array, grid: Grid1D) -> float:
    """Trapezoid integral over [0, T] of ||y(t) - y_hat(t)||_L2^2 at macro times."""
    if auxiliary.shape != trajectory.y.shape:
        raise ValueError("auxiliary states have the wrong shape")
    norms_sq = row_norms(grid, trajectory.y - auxiliary, L2) ** 2
    dt = trajectory.times[1] - trajectory.times[0]
    return float(np.trapezoid(norms_sq, dx=dt))


def increment_statistic(
    trajectory: Trajectory | Array,
    schedule: BlockSchedule,
    grid: Grid1D,
    kind: NormKind,
) -> float:
    """Block-anchored integral of the squared slow increments; see module doc."""
    x = trajectory.x if isinstance(trajectory, Trajectory) else trajectory
    if schedule.steps_per_block > x.shape[0] - 1:
        raise ValueError("delta exceeds the trajectory horizon")
    return block_increment_integral(grid, kind, schedule.dt_macro, x, schedule.steps_per_block)
