"""Frozen dynamics, invariant-measure averaging and the closed-form oracle."""

import math

import numpy as np
import pytest

from spavg.averaging import MemoizedFbar, OracleFbar, ergodicity_decay, estimate_fbar
from spavg.experiments import fit_line
from spavg.grid import Grid1D, sine_mode, smallest_eigenvalue, solve_neg_laplacian, zeros
from spavg.integrators import ModelSpec, SchemeParams, _FastStepper
from spavg.operators import CouplingSpec, FastOperatorSpec, SlowOperatorSpec, dissipativity_margin
from spavg.randomness import RngStream


def test_estimate_fbar_validates_replicas_and_window():
    grid = Grid1D(4)
    fast = FastOperatorSpec("linear")
    coup = CouplingSpec(f0=zeros(grid), g1_modes=4, g2_modes=4)
    with pytest.raises(ValueError, match="at least 2 replicas"):
        estimate_fbar(fast, coup, grid, zeros(grid), 1, RngStream(0, 0))
    with pytest.raises(ValueError, match="t_avg must be positive"):
        estimate_fbar(fast, coup, grid, zeros(grid), 2, RngStream(0, 0), t_avg=-1.0)


def frozen_path(fast, coupling, grid, x, y0, n_steps, dt, stream):
    """Every micro state of a frozen run: the fast stepper at epsilon = 1."""
    stepper = _FastStepper(fast, coupling, grid, 1.0, dt)
    coefficients = stepper.draw(stream.generator(1), n_steps)
    return np.array(list(stepper.path(x.values, y0.values, coefficients)))


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
    block = _FastStepper.for_model(model, dt_macro, params)
    horizon = dt_macro / epsilon
    n_frozen = math.ceil(horizon / 0.04 - 1e-12)
    block_terminal = np.empty((n_rep, 6))
    frozen_terminal = np.empty((n_rep, 6))
    for r in range(n_rep):
        coefficients = block.draw(RngStream(1000, r).generator(1), block.n_sub)
        block_terminal[r] = block.run_block(x.values, y0.values, coefficients)
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
    estimate = estimate_fbar(fast, coup, grid, x, 8, RngStream(11, 0))
    oracle = OracleFbar(fast, coup, grid)(x.values)
    gap = np.abs(estimate.mean.values - oracle)
    assert np.all(gap <= 3.0 * estimate.stderr.values + 1e-12)
    # The oracle itself: f0 + c_fx x + c_fy c_b L^{-1} x.
    expected = (
        coup.f0.values + 0.5 * x.values + 2.0 * 1.2 * solve_neg_laplacian(grid, x.values)
    )
    np.testing.assert_allclose(oracle, expected, rtol=1e-12)


def test_estimate_fbar_stderr_shrinks_with_longer_window():
    grid = Grid1D(4)
    fast = FastOperatorSpec("linear", c_b=1.0)
    coup = CouplingSpec(f0=zeros(grid), g1_modes=4, g2_modes=4)
    x = sine_mode(grid, 1, 0.5)
    margin = dissipativity_margin(fast, coup, grid)
    base_window = 60.0 / margin
    short = estimate_fbar(fast, coup, grid, x, 12, RngStream(31, 0), t_avg=base_window)
    long = estimate_fbar(fast, coup, grid, x, 12, RngStream(31, 100), t_avg=2.0 * base_window)
    ratio = np.linalg.norm(short.stderr.values) / np.linalg.norm(long.stderr.values)
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
    np.testing.assert_allclose(provider(x), expected, rtol=1e-12)


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
    provider = MemoizedFbar(fast, coup, grid, 4, RngStream(200, 0))
    x = sine_mode(grid, 1, 1.0).values
    first = provider(x)
    assert provider.refresh_count == 1
    nearby = x * 1.01  # inside the 5% trust radius
    np.testing.assert_array_equal(provider(nearby), first)
    assert provider.refresh_count == 1
    far = x * 2.0
    second = provider(far)
    assert provider.refresh_count == 2
    assert not np.array_equal(first, second)
    # Same construction, same stream: the whole call sequence replays.
    twin = MemoizedFbar(fast, coup, grid, 4, RngStream(200, 0))
    np.testing.assert_array_equal(twin(x), first)
    np.testing.assert_array_equal(twin(far), second)


def test_estimate_fbar_refuses_nonpositive_margin():
    grid = Grid1D(4)
    coup = CouplingSpec(f0=zeros(grid), g1_modes=4, g2_modes=4)
    lam = smallest_eigenvalue(grid)
    unstable = FastOperatorSpec("smooth_bounded", b=lam)
    with pytest.raises(ValueError):
        estimate_fbar(unstable, coup, grid, zeros(grid), 8, RngStream(0, 0))
