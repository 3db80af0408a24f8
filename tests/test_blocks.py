"""Auxiliary replay, the block-length rule and the two block statistics."""

import numpy as np
import pytest

from spavg.blocks import build_auxiliary, deviation_statistic
from spavg.grid import L2, Grid1D
from spavg.integrators import (
    SchemeParams,
    Trajectory,
    TrajectoryStats,
    block_anchors,
    simulate_coupled,
    whole_steps,
)
from spavg.randomness import RngStream

from test_integrators import make_model


def test_block_schedule_validation():
    # One rule decides every block length and horizon: a positive whole
    # number of macro steps, to a relative 1e-9.
    for length, dt in [(0.0, 0.01), (-0.04, 0.01), (0.04, 0.0)]:
        with pytest.raises(ValueError):
            whole_steps(length, dt, "delta")
    with pytest.raises(ValueError, match=r"delta = 0\.015 is not"):
        whole_steps(0.015, 0.01, "delta")  # one and a half steps
    with pytest.raises(ValueError):
        whole_steps(0.005, 0.01, "delta")  # shorter than a step
    with pytest.raises(ValueError):
        whole_steps(0.04 * (1.0 + 1e-8), 0.01, "delta")
    assert whole_steps(0.04 * (1.0 + 1e-10), 0.01, "delta") == 4
    assert whole_steps(0.04, 0.01, "delta") == 4
    assert block_anchors(9, 4).tolist() == [0, 0, 0, 0, 4, 4, 4, 4, 8]


def test_auxiliary_with_delta_equal_dt_is_exact_replay():
    model = make_model()
    params = SchemeParams(dt_macro=1 / 64)
    batch, path = simulate_coupled(model, 0.25, params, [RngStream(40, 0)])
    auxiliary = build_auxiliary(model, batch, path, [params.dt_macro])[:, 0]
    np.testing.assert_array_equal(auxiliary, batch.y)
    assert deviation_statistic(batch.replica(0), auxiliary[:, 0], model.grid) == 0.0


def test_auxiliary_deviates_for_coarser_blocks():
    model = make_model()
    params = SchemeParams(dt_macro=1 / 64)
    batch, path = simulate_coupled(model, 0.25, params, [RngStream(40, 0)])
    trajectory = batch.replica(0)
    auxiliary = build_auxiliary(model, batch, path, [8 / 64])[:, 0, 0]
    assert auxiliary[0] == pytest.approx(trajectory.y[0])
    assert deviation_statistic(trajectory, auxiliary, model.grid) > 0.0
    # Block boundaries re-anchor the slow input but the auxiliary state
    # itself is continuous: it never jumps back onto the true path.
    gaps = np.abs(auxiliary - trajectory.y).max(axis=1)
    assert gaps[8] > 0.0


@pytest.mark.parametrize("fast_kind", ["linear", "smooth_bounded"])
def test_batched_auxiliary_equals_one_replay_per_replica_and_delta(fast_kind):
    # One replay runs every (delta, replica) pair as a column; each gives
    # the bytes of its own replay.
    model = make_model(fast_kind=fast_kind)
    params = SchemeParams(dt_macro=1 / 64)
    streams = [RngStream(42, r) for r in range(3)]
    deltas = [1 / 64, 4 / 64, 8 / 64]
    batch, path = simulate_coupled(model, 0.25, params, streams)
    auxiliary = build_auxiliary(model, batch, path, deltas)
    assert auxiliary.shape == (17, 3, 3, model.grid.n_interior)
    for r, stream in enumerate(streams):
        trajectory, alone = simulate_coupled(model, 0.25, params, [stream])
        for d, delta in enumerate(deltas):
            single = build_auxiliary(model, trajectory, alone, [delta])
            assert single.shape == (17, 1, 1, model.grid.n_interior)
            assert auxiliary[:, d, r].tobytes() == single.tobytes()
        assert auxiliary[:, 0, r].tobytes() == batch.replica(r).y.tobytes()


def test_auxiliary_validates_consistency():
    model = make_model()
    params = SchemeParams(dt_macro=1 / 64)
    trajectory, path = simulate_coupled(model, 0.25, params, [RngStream(41, 0)])
    with pytest.raises(ValueError):
        build_auxiliary(model, trajectory, path, [1.5 / 64])  # not whole steps
    other = make_model(epsilon=0.1)
    with pytest.raises(ValueError):
        build_auxiliary(other, trajectory, path, [1 / 32])
    shorter = Trajectory(trajectory.times[:-1], trajectory.x[:-1], trajectory.y[:-1])
    with pytest.raises(ValueError, match="step count"):
        build_auxiliary(model, shorter, path, [1 / 32])
    batch, _ = simulate_coupled(model, 0.25, params, [RngStream(41, 0), RngStream(41, 1)])
    with pytest.raises(ValueError, match="replica count"):
        build_auxiliary(model, batch, path, [1 / 32])


def test_auxiliary_refuses_a_lone_delta_naming_the_batch_form():
    model = make_model()
    params = SchemeParams(dt_macro=1 / 64)
    trajectory, path = simulate_coupled(model, 0.25, params, [RngStream(41, 0)])
    with pytest.raises(TypeError, match=r"one block length is \[delta\]"):
        build_auxiliary(model, trajectory, path, 4 / 64)


def test_deviation_statistic_constant_offset():
    # Constant integrand: the trapezoid rule integrates it exactly to
    # T * ||c||^2.
    grid = Grid1D(4)
    m, dt = 10, 0.05
    times = np.arange(m + 1) * dt
    y = np.zeros((m + 1, 4))
    c = np.array([1.0, -2.0, 0.5, 0.0])
    trajectory = Trajectory(times, np.zeros((m + 1, 4)), y)
    auxiliary = y + c
    expected = (m * dt) * (grid.h * float(c @ c))
    assert deviation_statistic(trajectory, auxiliary, grid) == pytest.approx(
        expected, rel=1e-14
    )


def test_increment_statistic_hand_value():
    # Linear growth x_j = j * dt * v with two steps per block: the gaps to
    # the anchors are (1, 2, 1, 2) * dt * v, so the integral is
    # dt^3 * ||v||^2 * (1 + 4 + 1 + 4).
    grid = Grid1D(3)
    dt = 0.25
    v = np.array([1.0, 0.0, -1.0])
    x = np.array([j * dt * v for j in range(5)])
    norm_v_sq = grid.h * float(v @ v)
    expected = dt**3 * norm_v_sq * 10.0
    stats = TrajectoryStats(grid, L2, dt, x)
    assert stats.increment_integral(2 * dt) == pytest.approx(expected, rel=1e-13)


def test_increment_statistic_constant_path_is_zero():
    grid = Grid1D(3)
    x = np.ones((9, 3))
    assert TrajectoryStats(grid, L2, 0.1, x).increment_integral(0.2) == 0.0


def test_increment_statistic_rejects_long_delta():
    grid = Grid1D(3)
    stats = TrajectoryStats(grid, L2, 0.1, np.zeros((5, 3)))
    with pytest.raises(ValueError, match="exceeds the horizon"):
        stats.increment_integral(0.8)
    with pytest.raises(ValueError):
        stats.increment_integral(0.15)
