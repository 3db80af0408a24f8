"""Frozen dynamics, invariant-measure averaging and the closed-form oracle."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spavg.averaging
from spavg.averaging import MemoizedFbar, OracleFbar, ergodicity_decay, estimate_fbar
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
from spavg.integrators import ModelSpec, NumericalBlowUp, SchemeParams, _block_replay, _FastStepper
from spavg.operators import CouplingSpec, FastOperatorSpec, SlowOperatorSpec, dissipativity_margin
from spavg.randomness import RngStream

from test_fast_stepper import recorded_path


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
    """Every micro state of a frozen run: the fast stepper at epsilon = 1, one column."""
    stepper = _FastStepper(fast, coupling, grid, 1.0, dt)
    coefficients = stepper.draw([stream], n_steps)
    path = stepper.path(x.values[:, None], y0.values[:, None], coefficients)
    return np.array([y[:, 0] for y in path])


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
    _, step = _block_replay(model, [recorded_path(model, epsilon, dt_macro, rows)], [1])
    y_end = step(0, np.tile(x.values, (n_rep, 1)).T, np.tile(y0.values, (n_rep, 1)).T)
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
    grid = Grid1D(6)
    fast = FastOperatorSpec("linear", c_b=1.2)
    coup = CouplingSpec(
        f0=sine_mode(grid, 2, 0.3), c_fx=0.5, c_fy=2.0, g1_modes=6, g2_modes=6
    )
    x = sine_mode(grid, 1, 0.8)
    mean, stderr = estimate_fbar(fast, coup, grid, x.values[:, None], 8, [RngStream(11, 0)])
    oracle = OracleFbar(fast, coup, grid)(x.values[:, None])[:, 0]
    gap = np.abs(mean[:, 0] - oracle)
    assert np.all(gap <= 3.0 * stderr[:, 0] + 1e-12)
    # The oracle itself: f0 + c_fx x + c_fy c_b L^{-1} x.
    expected = (
        coup.f0.values + 0.5 * x.values + 2.0 * 1.2 * solve_neg_laplacian(grid, x.values)
    )
    np.testing.assert_allclose(oracle, expected, rtol=1e-12)


def test_estimate_fbar_stderr_shrinks_with_longer_window():
    grid = Grid1D(4)
    fast = FastOperatorSpec("linear", c_b=1.0)
    coup = CouplingSpec(f0=zeros(grid), g1_modes=4, g2_modes=4)
    x = sine_mode(grid, 1, 0.5).values[:, None]
    margin = dissipativity_margin(fast, coup, grid)
    base_window = 60.0 / margin
    _, short = estimate_fbar(fast, coup, grid, x, 12, [RngStream(31, 0)], t_avg=base_window)
    _, long = estimate_fbar(
        fast, coup, grid, x, 12, [RngStream(31, 100)], t_avg=2.0 * base_window
    )
    ratio = np.linalg.norm(short) / np.linalg.norm(long)
    # Theory says sqrt(2); leave room for the replica-level fluctuation.
    assert ratio >= 1.1


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


def test_ergodicity_decay_linear_rate():
    grid = Grid1D(8)
    fast = FastOperatorSpec("linear", c_b=1.0)
    coup = CouplingSpec(f0=zeros(grid))
    margin = dissipativity_margin(fast, coup, grid)
    lam = smallest_eigenvalue(grid)
    fit = fit_line(*ergodicity_decay(fast, coup, grid, zeros(grid), RngStream(8, 0)))
    # Pure mode-1 difference decays like a single exponential at rate
    # ln(1 + dt lambda_1) / dt, just below lambda_1 = margin / 2.
    assert fit.slope <= -0.9 * margin / 2.0
    assert fit.slope >= -1.05 * lam
    assert fit.r_squared >= 0.99


def per_step_decay(fast, coupling, grid, x, stream):
    """ergodicity_decay as a loop taking one norm per micro step."""
    margin = spavg.averaging.contraction_margin(fast, coupling, grid)
    horizon = 50.0 / margin
    n_steps = max(1, math.ceil(horizon / (0.02 / margin) - 1e-12))
    dt = horizon / n_steps
    stepper = _FastStepper(fast, coupling, grid, 1.0, dt)
    coefficients = stepper.draw([stream], n_steps)
    y0_b = sine_mode(grid, 1, 1.0).values
    pair = np.stack([np.zeros_like(y0_b), y0_b], axis=1)
    gap0 = norm_values(grid, y0_b, L2)
    times, log_gaps = [0.0], [math.log(gap0)]
    for m, y in enumerate(stepper.path(x.values[:, None], pair, coefficients)):
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


def assert_same_decay(got, expected):
    assert [a.tobytes() for a in got] == [a.tobytes() for a in expected]


@pytest.mark.parametrize("seed", [1, 7, 2026])
@pytest.mark.parametrize("fast", DECAY_KINDS, ids=lambda fast: fast.kind)
def test_ergodicity_decay_equals_the_per_step_loop(fast, seed):
    case = decay_case(fast, seed)
    assert_same_decay(ergodicity_decay(*case), per_step_decay(*case))


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
        assert_same_decay(ergodicity_decay(*case), expected)


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
    assert_same_decay(ergodicity_decay(*case), expected)


def test_ergodicity_decay_validation():
    grid = Grid1D(6)
    coup = CouplingSpec(f0=zeros(grid), g1_modes=6, g2_modes=6)
    lam = smallest_eigenvalue(grid)
    unstable = FastOperatorSpec("smooth_bounded", b=lam + 1.0)
    with pytest.raises(ValueError, match="the fast equation would not contract"):
        ergodicity_decay(unstable, coup, grid, zeros(grid), RngStream(1, 0))


def test_memoized_fbar_trust_region():
    grid = Grid1D(4)
    fast = FastOperatorSpec("linear", c_b=1.0)
    coup = CouplingSpec(f0=zeros(grid), g1_modes=4, g2_modes=4)
    streams = [RngStream(200, 0), RngStream(200, 100)]
    provider = MemoizedFbar(fast, coup, grid, 4, streams)
    x = sine_mode(grid, 1, 1.0).values
    first = provider(np.stack([x, -x], axis=1))
    assert provider.refresh_counts.tolist() == [1, 1]
    nearby = np.stack([x, -x], axis=1) * 1.01  # inside the 5% trust radius
    np.testing.assert_array_equal(provider(nearby), first)
    assert provider.refresh_counts.tolist() == [1, 1]
    # Only the column that leaves its trust region refreshes.
    second = provider(np.stack([2.0 * x, -x], axis=1))
    assert provider.refresh_counts.tolist() == [2, 1]
    assert not np.array_equal(first[:, 0], second[:, 0])
    np.testing.assert_array_equal(second[:, 1], first[:, 1])
    # Same construction, same stream: the whole call sequence replays, here
    # for a batch of one column.
    twin = MemoizedFbar(fast, coup, grid, 4, streams[:1])
    np.testing.assert_array_equal(twin(x[:, None])[:, 0], first[:, 0])
    np.testing.assert_array_equal(twin(2.0 * x[:, None])[:, 0], second[:, 0])
    assert twin.refresh_counts.tolist() == [2]
    with pytest.raises(ValueError, match="2 streams"):
        provider(x)


def test_overflowing_estimate_is_a_numerical_failure():
    # At a huge point the frozen runs overflow. estimate_fbar raises a
    # numerical failure, not the ValueError of a non-finite Field, and
    # MemoizedFbar hands a NaN drift on for every column of that refresh,
    # so that the slow step fails on it.
    grid = Grid1D(8)
    fast = FastOperatorSpec("smooth_bounded", c_b=1.0, b=0.5)
    coup = CouplingSpec(f0=zeros(grid), c_fy=1000.0, g1_modes=4, g2_modes=4)
    huge, x = sine_mode(grid, 1, 1e306).values, sine_mode(grid, 1, 0.5).values
    streams = [RngStream(7, 0), RngStream(7, 100)]
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
    # region (a 0.1 % nudge) or leaves it (doubled). The chunk provider runs
    # one estimate_fbar per call with stale columns and must give every
    # column the values and refresh count of a provider of its own.
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
    x = np.random.default_rng(seed).standard_normal((6, replicas)) + 1.0
    for call, moves in enumerate([[True] * replicas] + script):
        if call:
            x = x * np.where(moves, 2.0, 1.001)
        with mock.patch("spavg.averaging.estimate_fbar", wraps=estimate_fbar) as spy:
            values = chunk(x)
        assert spy.call_count == int(any(moves))
        for r, provider in enumerate(alone):
            assert values[:, r].tobytes() == provider(x[:, r : r + 1])[:, 0].tobytes()
    expected = 1 + np.sum(script, axis=0, dtype=int)
    assert chunk.refresh_counts.tolist() == expected.tolist()
    assert [p.refresh_counts[0] for p in alone] == expected.tolist()


def test_estimate_fbar_refuses_nonpositive_margin():
    grid = Grid1D(4)
    coup = CouplingSpec(f0=zeros(grid), g1_modes=4, g2_modes=4)
    lam = smallest_eigenvalue(grid)
    unstable = FastOperatorSpec("smooth_bounded", b=lam)
    with pytest.raises(ValueError):
        estimate_fbar(unstable, coup, grid, np.zeros((4, 1)), 8, [RngStream(0, 0)])
