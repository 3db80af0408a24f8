"""Frozen dynamics, invariant-measure averaging and the closed-form oracle."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spavg.averaging
from spavg.averaging import (
    BURN_IN,
    MemoizedFbar,
    OracleFbar,
    ergodicity_decay,
    estimate_fbar,
)
from spavg.experiments import fit_line
from spavg.grid import (
    L2,
    Grid1D,
    norm_values,
    sine_mode,
    smallest_eigenvalue,
    solve_neg_laplacian,
    zeros,
)
from spavg.integrators import (
    DT_FAST,
    ModelSpec,
    NumericalBlowUp,
    SchemeParams,
    _block_replay,
    _fast_coordinates,
    _FastStepper,
)
from spavg.operators import CouplingSpec, FastOperatorSpec, SlowOperatorSpec, dissipativity_margin
from spavg.randomness import RngStream

from test_fast_stepper import nodal_path, nodal_step, recorded_path


def test_estimate_fbar_validates_replicas_and_window():
    grid = Grid1D(4)
    fast = FastOperatorSpec("linear")
    coup = CouplingSpec(f0=zeros(grid), g1_modes=4, g2_modes=4)
    point, streams = np.zeros((4, 1)), [RngStream(0, 0)]
    with pytest.raises(ValueError, match="at least 2 replicas"):
        estimate_fbar(fast, coup, grid, point, 1, streams)
    for t_avg in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="t_avg must be positive and finite"):
            estimate_fbar(fast, coup, grid, point, 2, streams, t_avg=t_avg)
    with pytest.raises(ValueError, match="1 base streams"):
        estimate_fbar(fast, coup, grid, np.zeros((4, 2)), 2, [RngStream(0, 0)])


def test_estimate_fbar_refuses_a_lone_stream_naming_the_batch_form():
    grid = Grid1D(4)
    fast = FastOperatorSpec("linear")
    coup = CouplingSpec(f0=zeros(grid), g1_modes=4, g2_modes=4)
    with pytest.raises(TypeError, match=r"one point is \[stream\]"):
        estimate_fbar(fast, coup, grid, np.zeros((4, 1)), 2, RngStream(0, 0))


def test_memoized_fbar_refuses_a_lone_stream_naming_the_batch_form():
    grid = Grid1D(4)
    fast = FastOperatorSpec("linear")
    coup = CouplingSpec(f0=zeros(grid), g1_modes=4, g2_modes=4)
    with pytest.raises(TypeError, match=r"one replica is \[stream\]"):
        MemoizedFbar(fast, coup, grid, 2, RngStream(0, 0))


def frozen_path(fast, coupling, grid, x, y0, n_steps, dt, stream):
    """Every micro state of a frozen run, nodal: the fast stepper at epsilon = 1, one column."""
    stepper = _FastStepper(fast, coupling, grid, 1.0, dt)
    coefficients = stepper.draw([stream], n_steps)
    return nodal_path(stepper, grid, x.values[:, None], y0.values[:, None], coefficients)[:, :, 0]


def test_simulate_frozen_shapes_and_reproducibility():
    grid = Grid1D(6)
    fast = FastOperatorSpec("linear", c_b=1.0)
    coup = CouplingSpec(f0=zeros(grid), g1_modes=6, g2_modes=6)
    x = sine_mode(grid, 1, 0.5)
    states = frozen_path(fast, coup, grid, x, zeros(grid), 100, 0.01, RngStream(5, 0))
    assert states.shape == (100, 6)
    again = frozen_path(fast, coup, grid, x, zeros(grid), 100, 0.01, RngStream(5, 0))
    np.testing.assert_array_equal(states, again)


def test_frozen_scalar_ou_stationary_variance():
    # One interior node: the fast equation is a scalar OU process and the
    # implicit Euler chain has the exact stationary variance
    #   amp^2 / lambda / (1 + dt * lambda / 2),
    # derived from V = (V + w^2) / (1 + dt lambda)^2 with nodal noise
    # variance w^2 = 2 amp^2 dt. A long time average must land on the
    # discrete value, not the continuum amp^2 / lambda.
    grid = Grid1D(1)
    lam = smallest_eigenvalue(grid)  # 8 exactly at h = 1/2
    assert lam == pytest.approx(8.0)
    fast = FastOperatorSpec("linear", c_b=0.0)
    coup = CouplingSpec(f0=zeros(grid), g2_amplitude=1.0, g1_modes=1, g2_modes=1)
    dt = 0.01
    v_discrete = 1.0 / lam / (1.0 + dt * lam / 2.0)
    states = frozen_path(fast, coup, grid, zeros(grid), zeros(grid), 400_000, dt, RngStream(77, 0))
    samples = states[4999:, 0]  # drop the transient
    v_hat = float(np.mean(samples**2))
    assert v_hat == pytest.approx(v_discrete, rel=0.025)


def test_frozen_matches_fast_block_distribution():
    # Rescaling identity: one macro block at scale epsilon equals a frozen
    # run over dt_macro / epsilon fast-time units, as distributions. The
    # discrete chains are identical here, so terminal moments must agree to
    # Monte Carlo accuracy.
    grid = Grid1D(6)
    epsilon, dt_macro = 0.05, 0.1
    model = ModelSpec(
        grid=grid,
        slow=SlowOperatorSpec("burgers"),
        fast=FastOperatorSpec("linear", c_b=1.0),
        coupling=CouplingSpec(f0=zeros(grid), g1_modes=6, g2_modes=6),
        epsilon=epsilon,
        x0=zeros(grid),
        y0=zeros(grid),
    )
    params = SchemeParams(dt_macro=dt_macro, dt_fast_target=0.04)
    x = sine_mode(grid, 1, 1.0)
    y0 = zeros(grid)
    n_rep = 300
    # All replicas take the one macro step of _block_replay as the columns of one state.
    stepper = _FastStepper.for_model(model, dt_macro, params)
    rows = stepper.draw([RngStream(1000, r) for r in range(n_rep)], stepper.n_sub)[:, None]
    _, step = _block_replay(model, [recorded_path(model, epsilon, dt_macro, rows)], [0])
    x_frozen, y_start = (np.tile(v.values, (n_rep, 1)).T for v in (x, y0))
    y_end = nodal_step(model, step, 0, x_frozen, y_start)
    block_terminal = y_end.T
    horizon = dt_macro / epsilon
    n_frozen = math.ceil(horizon / 0.04 - 1e-12)
    frozen_terminal = np.empty((n_rep, 6))
    for r in range(n_rep):
        states = frozen_path(
            model.fast, model.coupling, grid, x, y0, n_frozen, horizon / n_frozen, RngStream(2000, r)
        )
        frozen_terminal[r] = states[-1]
    for moment in (block_terminal, frozen_terminal):
        assert moment.shape == (n_rep, 6)
    mean_gap = block_terminal.mean(axis=0) - frozen_terminal.mean(axis=0)
    mean_se = np.sqrt(
        block_terminal.var(ddof=1, axis=0) / n_rep
        + frozen_terminal.var(ddof=1, axis=0) / n_rep
    )
    assert np.all(np.abs(mean_gap) <= 3.0 * mean_se)
    sq_gap = (block_terminal**2).mean(axis=0) - (frozen_terminal**2).mean(axis=0)
    sq_se = np.sqrt(
        (block_terminal**2).var(ddof=1, axis=0) / n_rep
        + (frozen_terminal**2).var(ddof=1, axis=0) / n_rep
    )
    assert np.all(np.abs(sq_gap) <= 3.0 * sq_se)


def test_estimate_fbar_matches_ou_oracle():
    # At b = 0 the chain is its own OU twin, so every gap is exactly 0: the
    # estimate has OracleFbar's bytes and a stderr of exactly 0.0, at any
    # points, streams, replica count and window.
    grid = Grid1D(6)
    fast = FastOperatorSpec("linear", c_b=1.2)
    coup = CouplingSpec(
        f0=sine_mode(grid, 2, 0.3), c_fx=0.5, c_fy=-2.0, g1_modes=6, g2_modes=6
    )
    x = sine_mode(grid, 1, 0.8).values
    points = np.stack([x, np.random.default_rng(3).standard_normal(6), -0.5 * x], axis=1)
    oracle = OracleFbar(fast, coup, grid)(points)
    for n_replicas, t_avg in ((8, None), (2, 0.3)):
        bases = [RngStream(11, 1000 * s) for s in range(3)]
        mean, stderr = estimate_fbar(fast, coup, grid, points, n_replicas, bases, t_avg)
        assert mean.tobytes() == oracle.tobytes()
        assert stderr.tobytes() == np.zeros_like(points).tobytes()
    # The oracle itself: f0 + c_fx x + c_fy c_b L^{-1} x.
    expected = coup.f0.values + 0.5 * x - 2.0 * 1.2 * solve_neg_laplacian(grid, x)
    np.testing.assert_allclose(oracle[:, 0], expected, rtol=1e-12)


def test_estimate_fbar_stderr_shrinks_with_longer_window():
    # smooth_bounded, whose chain leaves its twin: stderr * sqrt(window) is
    # level from about 20 relaxation times on (measured on 4, 16 and 64
    # nodes), so 60 -> 120 lies inside the 1 / sqrt(T) regime and the
    # stderr shrinks by about sqrt(2).
    grid = Grid1D(4)
    fast = FastOperatorSpec("smooth_bounded", c_b=1.0, b=0.5)
    coup = CouplingSpec(f0=zeros(grid), g1_modes=4, g2_modes=4)
    x = sine_mode(grid, 1, 0.5).values[:, None]
    margin = dissipativity_margin(fast, grid)
    base_window = 60.0 / margin
    _, short = estimate_fbar(fast, coup, grid, x, 12, [RngStream(31, 0)], t_avg=base_window)
    _, long = estimate_fbar(
        fast, coup, grid, x, 12, [RngStream(31, 100)], t_avg=2.0 * base_window
    )
    ratio = np.linalg.norm(short) / np.linalg.norm(long)
    # Theory says sqrt(2); leave room for the replica-level fluctuation.
    assert ratio >= 1.1


def plain_time_average(fast, coup, grid, x, n_replicas, stream, window):
    """The plain time-average estimator, the reference for the control variate.

    Replica r runs the frozen chain alone on stream id stream.stream_id + r
    from zero, discards BURN_IN relaxation times and averages F(x, Y) over
    the next `window`, in steps of about DT_FAST, as estimate_fbar schedules
    its runs. Returns the replica mean and its standard error per node.
    """
    margin = dissipativity_margin(fast, grid)
    t_burn, t_avg = BURN_IN / margin, window / margin
    n_steps = math.ceil((t_burn + t_avg) / (DT_FAST / margin) - 1e-12)
    dt = (t_burn + t_avg) / n_steps
    burn = int(round(t_burn / dt))
    stepper = _FastStepper(fast, coup, grid, 1.0, dt)
    columns = [RngStream(stream.master_seed, stream.stream_id + r) for r in range(n_replicas)]
    to_state, to_nodes, _ = _fast_coordinates(fast, grid)
    frozen = to_state(np.repeat(x[:, None], n_replicas, axis=1))
    y_sum = np.zeros_like(frozen)
    path = stepper.path(frozen, np.zeros_like(frozen), stepper.draw(columns, n_steps))
    for m, y in enumerate(path):
        if m >= burn:
            y_sum += y
    y_mean = to_nodes(y_sum / (n_steps - burn)).T
    replica_means = coup.f0.values + coup.c_fx * x + coup.c_fy * y_mean
    return replica_means.mean(axis=0), replica_means.std(axis=0, ddof=1) / math.sqrt(n_replicas)


def test_control_variate_matches_a_long_plain_time_average():
    # smooth_bounded at b = 0.5: the control-variate estimate (WINDOW, 32
    # replicas) against the plain time average over 400 relaxation times
    # (64 replicas) must agree at every node within k = 4.5 combined
    # standard errors. Each z is about t-distributed with at least 31
    # degrees of freedom, P(|t_30| > 4.5) = 9.5e-5, so over 16 nodes the
    # false-failure rate is below 2e-3. The combined stderr is about 3.5e-3,
    # mostly the reference's, so the check resolves a bias of about 0.016.
    grid = Grid1D(16)
    fast = FastOperatorSpec("smooth_bounded", c_b=1.0, b=0.5)
    coup = CouplingSpec(f0=sine_mode(grid, 2, 0.2), c_fx=0.3, c_fy=1.5, g1_modes=8, g2_modes=8)
    x = sine_mode(grid, 1, 0.5).values + sine_mode(grid, 2, -0.3).values
    mean, stderr = estimate_fbar(fast, coup, grid, x[:, None], 32, [RngStream(41, 0)])
    reference, reference_stderr = plain_time_average(
        fast, coup, grid, x, 64, RngStream(41, 10_000), 400
    )
    z = np.abs(mean[:, 0] - reference) / np.hypot(stderr[:, 0], reference_stderr)
    assert float(z.max()) <= 4.5

    # The rule that set WINDOW = 5: its spread is no larger than the plain
    # estimator's at the old window of 50 relaxation times, at the same
    # replica count (about a tenth of it here).
    _, plain_stderr = plain_time_average(fast, coup, grid, x, 32, RngStream(41, 20_000), 50)
    assert float(stderr.max()) <= float(plain_stderr.max())


def test_oracle_requires_linear_kind():
    grid = Grid1D(4)
    coup = CouplingSpec(f0=zeros(grid), g1_modes=4, g2_modes=4)
    with pytest.raises(ValueError):
        OracleFbar(FastOperatorSpec("smooth_bounded", b=1.0), coup, grid)


def test_oracle_provider_matches_function():
    grid = Grid1D(5)
    fast = FastOperatorSpec("linear", c_b=0.7)
    coup = CouplingSpec(f0=sine_mode(grid, 1, 0.1), c_fx=0.2, g1_modes=5, g2_modes=5)
    provider = OracleFbar(fast, coup, grid)
    x = sine_mode(grid, 2, 0.4).values
    # The closed form f0 + c_fx x + c_fy c_b L^{-1} x.
    expected = coup.f0.values + 0.2 * x + 1.0 * 0.7 * solve_neg_laplacian(grid, x)
    np.testing.assert_allclose(provider(x[:, None])[:, 0], expected, rtol=1e-12)


def test_one_point_is_a_batch_of_one():
    # One point is an (n, 1) array with one base stream and gives an (n, 1)
    # mean and stderr; every other pairing of points and streams is
    # refused, naming the accepted shape.
    grid = Grid1D(6)
    fast = FastOperatorSpec("linear", c_b=1.2)
    coup = CouplingSpec(f0=sine_mode(grid, 2, 0.3), c_fx=0.5, c_fy=2.0, g1_modes=6, g2_modes=6)
    x = sine_mode(grid, 1, 0.8)
    stream = RngStream(1, 0)
    mean, stderr = estimate_fbar(fast, coup, grid, x.values[:, None], 2, [stream])
    assert mean.shape == stderr.shape == (6, 1)
    accepted = r"S streams take an \(n, S\) array"
    for bad_x in (x.values, np.zeros((5, 1)), np.zeros((6, 2))):
        with pytest.raises(ValueError, match=accepted):
            estimate_fbar(fast, coup, grid, bad_x, 2, [stream])

    # The oracle on one column (n, 1) has the bytes of that column as column
    # r of (n, R).
    for n in (1, 7, 64):
        grid = Grid1D(n)
        coup = CouplingSpec(f0=sine_mode(grid, 1, 0.1), c_fx=0.2, g1_modes=1, g2_modes=1)
        oracle = OracleFbar(fast, coup, grid)
        batch = np.random.default_rng(n).standard_normal((n, 5))
        for r in range(5):
            lone = oracle(batch[:, r].copy()[:, None])
            assert lone.shape == (n, 1)
            assert lone.tobytes() == oracle(batch)[:, r].tobytes()


def test_ergodicity_decay_linear_rate(monkeypatch):
    grid = Grid1D(8)
    fast = FastOperatorSpec("linear", c_b=1.0)
    coup = CouplingSpec(f0=zeros(grid))
    margin = dissipativity_margin(fast, grid)
    lam = smallest_eigenvalue(grid)
    # The noise cancels from the linear gap, so the fit draws none.
    monkeypatch.setattr(_FastStepper, "draw", lambda *args: pytest.fail("noise drawn"))
    times, log_gaps = ergodicity_decay(fast, coup, grid, zeros(grid), RngStream(8, 0))
    fit = fit_line(times, log_gaps)
    # Pure mode-1 difference decays like a single exponential at rate
    # ln(1 + dt lambda_1) / dt, just below lambda_1 = margin / 2: the linear
    # gap steps without noise, so the fit gives that rate to rounding.
    assert fit.slope <= -0.9 * margin / 2.0
    assert fit.slope >= -1.05 * lam
    dt = times[1]
    assert fit.slope == pytest.approx(-math.log1p(dt * grid.eigenvalues[0]) / dt, rel=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def per_step_decay(fast, coupling, grid, x, stream):
    """ergodicity_decay as a loop taking one norm per micro step."""
    margin = spavg.averaging.contraction_margin(fast, grid)
    horizon = 50.0 / margin
    n_steps = max(1, math.ceil(horizon / (0.02 / margin) - 1e-12))
    dt = horizon / n_steps
    stepper = _FastStepper(fast, coupling, grid, 1.0, dt)
    coefficients = stepper.draw([stream], n_steps)
    y0_b = sine_mode(grid, 1, 1.0).values
    pair = np.stack([np.zeros_like(y0_b), y0_b], axis=1)
    gap0 = norm_values(grid, y0_b, L2)
    times, log_gaps = [0.0], [math.log(gap0)]
    for m, y in enumerate(nodal_path(stepper, grid, x.values[:, None], pair, coefficients)):
        gap = norm_values(grid, y[:, 0] - y[:, 1], L2)
        if gap <= 1e-10 * gap0:
            break
        times.append((m + 1) * dt)
        log_gaps.append(math.log(gap))
    return np.asarray(times), np.asarray(log_gaps)


DECAY_KINDS = [
    FastOperatorSpec("linear", c_b=1.0),
    FastOperatorSpec("smooth_bounded", c_b=1.0, b=0.5),
]


def decay_case(fast, seed):
    grid = Grid1D(16)
    coupling = CouplingSpec(f0=zeros(grid), g1_modes=8, g2_modes=8)
    return fast, coupling, grid, sine_mode(grid, 1, 0.5), RngStream(seed, 0)


def noisy_state_size(fast, coupling, grid, x, stream):
    """The largest |Y| of the shared-noise pair per_step_decay steps."""
    margin = spavg.averaging.contraction_margin(fast, grid)
    horizon = 50.0 / margin
    n_steps = max(1, math.ceil(horizon / (0.02 / margin) - 1e-12))
    stepper = _FastStepper(fast, coupling, grid, 1.0, horizon / n_steps)
    y0_b = sine_mode(grid, 1, 1.0).values
    pair = np.stack([np.zeros_like(y0_b), y0_b], axis=1)
    states = nodal_path(stepper, grid, x.values[:, None], pair, stepper.draw([stream], n_steps))
    return float(np.max(np.abs(states)))


def assert_same_decay(got, expected, case):
    """smooth_bounded: the bytes of the per-step loop. linear: its numbers to its rounding.

    The linear gap steps without noise, while the per-step loop subtracts
    two noisy states of size S, each rounded at every step: that loop's gap
    carries an absolute error of a few eps S (at most 4 eps S measured on
    these cases), so each log gap must agree within 64 eps S / gap. Its
    slope moves by up to 3e-9 relative through that rounding (measured on
    these cases), and must agree to 1e-8.
    """
    if case[0].kind != "linear":
        assert [a.tobytes() for a in got] == [a.tobytes() for a in expected]
        return
    (times, log_gaps), (want_times, want_log_gaps) = got, expected
    assert times.tobytes() == want_times.tobytes()
    size = noisy_state_size(*case)
    tolerance = 64 * np.finfo(float).eps * size / np.exp(log_gaps)
    assert np.all(np.abs(log_gaps - want_log_gaps) <= tolerance)
    slope, want_slope = fit_line(times, log_gaps).slope, fit_line(times, want_log_gaps).slope
    assert slope == pytest.approx(want_slope, rel=1e-8)


@pytest.mark.parametrize("seed", [1, 7, 2026])
@pytest.mark.parametrize("fast", DECAY_KINDS, ids=lambda fast: fast.kind)
def test_ergodicity_decay_equals_the_per_step_loop(fast, seed):
    case = decay_case(fast, seed)
    assert_same_decay(ergodicity_decay(*case), per_step_decay(*case), case)


@pytest.mark.parametrize("fast", DECAY_KINDS, ids=lambda fast: fast.kind)
def test_ergodicity_decay_stops_on_a_block_boundary(monkeypatch, fast):
    # The series stops before the step at index len - 1; blocks of that
    # many steps put it on the first row of the second block, one more on
    # the last row of the first.
    case = decay_case(fast, 3)
    expected = per_step_decay(*case)
    stop = len(expected[1]) - 1
    assert stop > spavg.averaging.NOISE_BLOCK
    for block in (stop, stop + 1):
        monkeypatch.setattr(spavg.averaging, "NOISE_BLOCK", block)
        assert_same_decay(ergodicity_decay(*case), expected, case)


@pytest.mark.parametrize("fast", DECAY_KINDS, ids=lambda fast: fast.kind)
def test_ergodicity_decay_without_a_stop_runs_to_the_horizon(monkeypatch, fast):
    # A margin taken four times too large cuts the horizon to 12.5
    # relaxation times, too short for the gap to reach the threshold: every
    # step is sampled, the last block a partial one.
    margin = spavg.averaging.contraction_margin
    monkeypatch.setattr(
        spavg.averaging, "contraction_margin", lambda *args: 4.0 * margin(*args)
    )
    case = decay_case(fast, 5)
    expected = per_step_decay(*case)
    n_steps = len(expected[1]) - 1
    assert n_steps == 2500 and n_steps % spavg.averaging.NOISE_BLOCK
    assert_same_decay(ergodicity_decay(*case), expected, case)


def test_ergodicity_decay_validation():
    grid = Grid1D(6)
    coup = CouplingSpec(f0=zeros(grid), g1_modes=6, g2_modes=6)
    lam = smallest_eigenvalue(grid)
    unstable = FastOperatorSpec("smooth_bounded", b=lam + 1.0)
    with pytest.raises(ValueError, match="the fast equation would not contract"):
        ergodicity_decay(unstable, coup, grid, zeros(grid), RngStream(1, 0))


def widening(fast, grid):
    """(lambda_1 - b) / b, the factor MemoizedFbar's trust radius widens by."""
    return dissipativity_margin(fast, grid) / (2.0 * fast.b)


def test_memoized_fbar_trust_region():
    # smooth_bounded at b = 0.5 on 4 nodes: the radius is (5 % of ||x|| +
    # 1e-3) times (lambda_1 - b) / b, about 18. Inside it the closed form
    # follows x and only the correction stays cached.
    grid = Grid1D(4)
    fast = FastOperatorSpec("smooth_bounded", c_b=1.0, b=0.5)
    coup = CouplingSpec(f0=zeros(grid), g1_modes=4, g2_modes=4)
    oracle = OracleFbar(FastOperatorSpec("linear", c_b=1.0), coup, grid)
    streams = [RngStream(200, 0), RngStream(200, 100)]
    provider = MemoizedFbar(fast, coup, grid, 4, streams)
    x = sine_mode(grid, 1, 1.0).values
    points = np.stack([x, -x], axis=1)
    first = provider(points)
    assert provider.refresh_counts.tolist() == [1, 1]
    # A refreshed column reads estimate_fbar's mean at its input.
    estimate, _ = estimate_fbar(fast, coup, grid, points, 4, streams)
    assert first.tobytes() == estimate.tobytes()
    radius = (0.05 * norm_values(grid, x, L2) + 1e-3) * widening(fast, grid)
    assert 17.0 < widening(fast, grid) < 19.0
    # Moves of 0.99 radius stay, far outside the unwidened radius; the
    # drift is the closed form at the new x plus the cached correction.
    nearby = points + 0.99 * radius * np.stack([x, -x], axis=1) / norm_values(grid, x, L2)
    drift = provider(nearby)
    assert provider.refresh_counts.tolist() == [1, 1]
    np.testing.assert_allclose(drift - oracle(nearby), first - oracle(points), atol=1e-15)
    assert not np.allclose(drift, first)
    # Only the column that leaves its trust region (by 1.01 radius) refreshes.
    away = points.copy()
    away[:, 0] += 1.01 * radius * x / norm_values(grid, x, L2)
    second = provider(away)
    assert provider.refresh_counts.tolist() == [2, 1]
    moved = estimate_fbar(fast, coup, grid, away[:, :1], 4, [RngStream(200, 4)])[0]
    assert second[:, 0].tobytes() == moved[:, 0].tobytes()
    np.testing.assert_allclose(second[:, 1] - oracle(away)[:, 1], (first - oracle(points))[:, 1])
    # Same construction, same stream: the whole call sequence replays, here
    # for a batch of one column.
    twin = MemoizedFbar(fast, coup, grid, 4, streams[:1])
    assert twin(points[:, :1])[:, 0].tobytes() == first[:, 0].tobytes()
    assert twin(nearby[:, :1])[:, 0].tobytes() == drift[:, 0].tobytes()
    assert twin(away[:, :1])[:, 0].tobytes() == second[:, 0].tobytes()
    assert twin.refresh_counts.tolist() == [2]
    with pytest.raises(ValueError, match="2 streams"):
        provider(x)


@pytest.mark.parametrize(
    "fast, c_fy",
    [
        (FastOperatorSpec("linear", c_b=1.3), -1.5),
        (FastOperatorSpec("smooth_bounded", c_b=1.3, b=0.0), -1.5),
        (FastOperatorSpec("smooth_bounded", c_b=1.3, b=0.5), 0.0),
    ],
    ids=["linear", "b=0", "c_fy=0"],
)
def test_memoized_fbar_is_the_closed_form_when_the_correction_is_zero(fast, c_fy):
    # At b = 0 or c_fy = 0 the correction is exactly 0: the trust radius is
    # infinite, the frozen equation never runs, and every call, however far
    # x moves, returns OracleFbar's bytes.
    grid = Grid1D(6)
    coup = CouplingSpec(
        f0=sine_mode(grid, 2, 0.3), c_fx=0.5, c_fy=c_fy, g1_modes=6, g2_modes=6
    )
    oracle = OracleFbar(FastOperatorSpec("linear", c_b=1.3), coup, grid)
    provider = MemoizedFbar(fast, coup, grid, 2, [RngStream(3, 0), RngStream(3, 100)])
    x = np.random.default_rng(3).standard_normal((6, 2))
    with mock.patch(
        "spavg.averaging._fbar_correction", wraps=spavg.averaging._fbar_correction
    ) as spy:
        for scale in (1.0, 1.001, 50.0, -1e-3, 0.0):
            assert provider(scale * x).tobytes() == oracle(scale * x).tobytes()
    assert spy.call_count == 0
    assert provider.refresh_counts.tolist() == [0, 0]


def test_correction_sensitivity_stays_under_the_trust_rule_bound():
    # The trust radius rests on Lip(correction) <= |c_fy| b c_b /
    # (lambda_1 (lambda_1 - b)). Measure ||c(x + dx) - c(x)|| / ||dx|| along
    # the first sine mode, the direction L^-1 amplifies most, with common
    # random numbers: K = 16 base streams, each used at x and at x + dx, so
    # the K differences are independent and their mean has a stderr. The
    # measured sensitivity sits at 0.71 to 0.95 of the bound (16 nodes, four
    # (c_b, b, c_fy) cases, moves 0.05 to 2) with a stderr below 1 % of it;
    # allow 4 stderr above the bound.
    grid = Grid1D(16)
    lam = smallest_eigenvalue(grid)
    K = 16
    streams = [RngStream(5, 100 * k) for k in range(K)] * 2
    x = sine_mode(grid, 1, 0.5).values + sine_mode(grid, 3, 0.2).values
    for c_b, b, c_fy in ((1.0, 0.5, 1.0), (1.3, 0.8, -1.5)):
        fast = FastOperatorSpec("smooth_bounded", c_b=c_b, b=b)
        coup = CouplingSpec(
            f0=sine_mode(grid, 2, 0.2), c_fx=0.3, c_fy=c_fy, g1_modes=8, g2_modes=8
        )
        oracle = OracleFbar(FastOperatorSpec("linear", c_b=c_b), coup, grid)
        bound = abs(c_fy) * b * c_b / (lam * (lam - b))
        # The closed form's own sensitivity is about (lambda_1 - b) / b
        # times larger: what the wider radius trades on.
        assert abs(c_fy) * c_b / lam == pytest.approx(bound * widening(fast, grid))
        for size in (0.05, 0.5, 2.0):
            dx = sine_mode(grid, 1, size).values
            points = np.concatenate(
                [np.repeat(x[:, None], K, axis=1), np.repeat((x + dx)[:, None], K, axis=1)],
                axis=1,
            )
            means, _ = estimate_fbar(fast, coup, grid, points, 2, streams)
            corrections = means - oracle(points)
            moves = corrections[:, K:] - corrections[:, :K]
            sensitivity = norm_values(grid, moves.mean(axis=1), L2) / norm_values(grid, dx, L2)
            stderr = norm_values(grid, moves.std(axis=1, ddof=1), L2) / math.sqrt(K)
            stderr /= norm_values(grid, dx, L2)
            assert stderr < 0.01 * bound
            assert 0.5 * bound < sensitivity <= bound + 4.0 * stderr


def test_overflowing_estimate_is_a_numerical_failure():
    # At a huge point with c_fy = 1e4 the averaged drift leaves the
    # floating-point range. estimate_fbar raises a numerical failure, not
    # the ValueError of a non-finite Field, and MemoizedFbar hands a NaN
    # drift on for every column of that refresh, so that the slow step
    # fails on it. With c_fy = 1000 the drift, about 1.4e308, is finite,
    # and the control variate gives it: only rounding-sized gaps stand
    # beside the closed form.
    grid = Grid1D(8)
    fast = FastOperatorSpec("smooth_bounded", c_b=1.0, b=0.5)
    huge, x = sine_mode(grid, 1, 1e306).values, sine_mode(grid, 1, 0.5).values
    streams = [RngStream(7, 0), RngStream(7, 100)]
    coup = CouplingSpec(f0=zeros(grid), c_fy=1000.0, g1_modes=4, g2_modes=4)
    mean, _ = estimate_fbar(fast, coup, grid, huge[:, None], 2, streams[:1])
    oracle = OracleFbar(FastOperatorSpec("linear", c_b=1.0), coup, grid)(huge[:, None])
    np.testing.assert_allclose(mean, oracle, rtol=1e-13)
    coup = CouplingSpec(f0=zeros(grid), c_fy=1e4, g1_modes=4, g2_modes=4)
    with pytest.raises(NumericalBlowUp, match="fbar estimate is not finite"):
        estimate_fbar(fast, coup, grid, huge[:, None], 2, streams[:1])
    provider = MemoizedFbar(fast, coup, grid, 2, streams)
    drift = provider(np.stack([huge, x], axis=1))
    assert np.isnan(drift).all()
    assert provider.refresh_counts.tolist() == [1, 1]


@settings(max_examples=12, deadline=None)
@given(
    kind=st.sampled_from(["linear", "smooth_bounded"]),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_chunk_provider_equals_one_column_providers(kind, seed, data):
    # A script of calls in which every column either stays inside its trust
    # region (a 0.1 % nudge) or leaves it (scaled by 2 + the widening of
    # the radius, so its move exceeds the widened 5 %). The chunk provider
    # runs one frozen run per call with stale columns and must give every
    # column the values and refresh count of a provider of its own. A
    # linear column is the closed form and never refreshes.
    replicas = data.draw(st.integers(1, 4), label="replicas")
    script = data.draw(
        st.lists(
            st.lists(st.booleans(), min_size=replicas, max_size=replicas),
            min_size=1,
            max_size=3,
        ),
        label="moves",
    )
    grid = Grid1D(6)
    fast = FastOperatorSpec(kind, c_b=1.1, b=0.5 if kind == "smooth_bounded" else 0.0)
    coup = CouplingSpec(f0=sine_mode(grid, 2, 0.2), c_fx=0.3, g1_modes=3, g2_modes=4)
    streams = [RngStream(seed, 1000 * (r + 1)) for r in range(replicas)]
    chunk = MemoizedFbar(fast, coup, grid, 2, streams)
    alone = [MemoizedFbar(fast, coup, grid, 2, [stream]) for stream in streams]
    leave = 2.0 + (widening(fast, grid) if kind == "smooth_bounded" else 1.0)
    estimates = kind == "smooth_bounded"
    x = np.random.default_rng(seed).standard_normal((6, replicas)) + 1.0
    for call, moves in enumerate([[True] * replicas] + script):
        if call:
            x = x * np.where(moves, leave, 1.001)
        with mock.patch(
            "spavg.averaging._fbar_correction", wraps=spavg.averaging._fbar_correction
        ) as spy:
            values = chunk(x)
        assert spy.call_count == int(estimates and any(moves))
        for r, provider in enumerate(alone):
            assert values[:, r].tobytes() == provider(x[:, r : r + 1])[:, 0].tobytes()
    expected = estimates * (1 + np.sum(script, axis=0, dtype=int))
    assert chunk.refresh_counts.tolist() == expected.tolist()
    assert [p.refresh_counts[0] for p in alone] == expected.tolist()


def test_estimate_fbar_refuses_nonpositive_margin():
    grid = Grid1D(4)
    coup = CouplingSpec(f0=zeros(grid), g1_modes=4, g2_modes=4)
    lam = smallest_eigenvalue(grid)
    unstable = FastOperatorSpec("smooth_bounded", b=lam)
    with pytest.raises(ValueError):
        estimate_fbar(unstable, coup, grid, np.zeros((4, 1)), 8, [RngStream(0, 0)])
