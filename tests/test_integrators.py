"""Time stepping: replay exactness, implicit-solve contracts, contraction."""

import io
import math

import numpy as np
import pytest

from spavg.grid import Field, Grid1D, L2, norm_values, sine_mode, smallest_eigenvalue, zeros
from spavg.integrators import (
    ModelSpec,
    NewtonDivergence,
    NoisePath,
    NumericalBlowUp,
    SchemeParams,
    _SlowStepper,
    simulate_averaged,
    simulate_coupled,
    step_fast_block,
    step_slow,
    strong_error,
)
from spavg.operators import CouplingSpec, FastOperatorSpec, SlowOperatorSpec
from spavg.randomness import RngStream


def make_model(n=8, epsilon=0.05, slow_kind="burgers", c_fy=1.0, x0_amp=0.5, **coup_kw):
    grid = Grid1D(n)
    slow = (
        SlowOperatorSpec(slow_kind, p=3.0)
        if slow_kind != "burgers"
        else SlowOperatorSpec("burgers", viscosity=1.0)
    )
    coup_kw.setdefault("g1_modes", min(8, n))
    coup_kw.setdefault("g2_modes", min(8, n))
    coupling = CouplingSpec(f0=zeros(grid), c_fy=c_fy, **coup_kw)
    return ModelSpec(
        grid=grid,
        slow=slow,
        fast=FastOperatorSpec("linear", c_b=1.0),
        coupling=coupling,
        epsilon=epsilon,
        x0=sine_mode(grid, 1, x0_amp),
        y0=zeros(grid),
    )


def test_scheme_params_validation():
    with pytest.raises(ValueError):
        SchemeParams(dt_macro=0.0)
    with pytest.raises(ValueError):
        SchemeParams(dt_macro=0.01, dt_fast_target=-1.0)
    with pytest.raises(ValueError):
        SchemeParams(dt_macro=0.01, newton_tol=0.0)
    with pytest.raises(ValueError):
        SchemeParams(dt_macro=0.01, newton_max_iter=0)


def test_model_spec_validation():
    grid = Grid1D(6)
    coupling = CouplingSpec(f0=zeros(grid), g1_modes=6, g2_modes=6)
    common = dict(
        grid=grid,
        slow=SlowOperatorSpec("burgers"),
        coupling=coupling,
        x0=zeros(grid),
        y0=zeros(grid),
    )
    with pytest.raises(ValueError):
        ModelSpec(fast=FastOperatorSpec("linear"), epsilon=0.0, **common)
    # Lipschitz constant above the spectral gap: margin <= 0 refused here.
    lam = smallest_eigenvalue(grid)
    with pytest.raises(ValueError):
        ModelSpec(
            fast=FastOperatorSpec("smooth_bounded", b=lam + 1.0), epsilon=0.1, **common
        )
    with pytest.raises(ValueError):
        ModelSpec(
            grid=grid,
            slow=SlowOperatorSpec("burgers"),
            fast=FastOperatorSpec("linear"),
            coupling=coupling,
            epsilon=0.1,
            x0=zeros(Grid1D(7)),
            y0=zeros(grid),
        )


def test_noise_path_roundtrip_is_bitwise(tmp_path):
    gen = np.random.default_rng(1)
    path = NoisePath(0.01, 3, 0.05, gen.standard_normal((5, 4)), gen.standard_normal((5, 3, 2)))
    file_path = str(tmp_path / "noise.bin")
    path.save(file_path)
    assert NoisePath.load(file_path) == path
    buffer = io.BytesIO()
    path.save(buffer)
    buffer.seek(0)
    assert NoisePath.load(buffer) == path


def test_noise_path_rejects_foreign_bytes():
    with pytest.raises(ValueError):
        NoisePath.load(io.BytesIO(b"PNG\x00" + b"\x00" * 64))
    good = NoisePath(0.01, 1, 0.1, np.zeros((1, 1)), np.zeros((1, 1, 1)))
    buffer = io.BytesIO()
    good.save(buffer)
    raw = bytearray(buffer.getvalue())
    raw[4] = 99  # unsupported version
    with pytest.raises(ValueError):
        NoisePath.load(io.BytesIO(bytes(raw)))


def test_noise_path_shape_validation():
    with pytest.raises(ValueError):
        NoisePath(0.01, 2, 0.1, np.zeros((4, 3)), np.zeros((4, 3, 2)))  # n_sub mismatch
    with pytest.raises(ValueError):
        NoisePath(0.01, 2, 0.1, np.zeros(4), np.zeros((4, 2, 2)))


def test_same_stream_replays_bitwise():
    model = make_model()
    params = SchemeParams(dt_macro=1 / 64)
    first = simulate_coupled(model, 0.25, params, RngStream(12, 4))
    second = simulate_coupled(model, 0.25, params, RngStream(12, 4))
    np.testing.assert_array_equal(first[0].x, second[0].x)
    np.testing.assert_array_equal(first[0].y, second[0].y)
    assert first[1] == second[1]
    assert first[2].sup_norm_x_sq == second[2].sup_norm_x_sq


def test_record_false_gives_same_trajectory():
    model = make_model()
    params = SchemeParams(dt_macro=1 / 64)
    with_path = simulate_coupled(model, 0.25, params, RngStream(12, 4))
    without = simulate_coupled(model, 0.25, params, RngStream(12, 4), record=False)
    np.testing.assert_array_equal(with_path[0].x, without[0].x)
    np.testing.assert_array_equal(with_path[0].y, without[0].y)
    assert without[1] is None


def test_averaged_checks_noise_compatibility():
    model = make_model()
    params = SchemeParams(dt_macro=1 / 64)
    _, path, _ = simulate_coupled(model, 0.25, params, RngStream(3, 0))
    fbar = lambda x: np.zeros_like(x)  # noqa: E731
    with pytest.raises(ValueError):
        simulate_averaged(model, fbar, 0.25, SchemeParams(dt_macro=1 / 32), path)
    with pytest.raises(ValueError):
        simulate_averaged(model, fbar, 0.5, params, path)


def test_decoupled_averaging_is_bitwise_exact():
    # With c_fy = 0 the slow equation never sees the fast state, so replaying
    # the recorded noise against fbar(x) = f0 + c_fx x reproduces the coupled
    # slow path bit for bit and the strong error is exactly zero.
    model = make_model(c_fy=0.0, c_fx=0.7)
    params = SchemeParams(dt_macro=1 / 64)
    trajectory, path, _ = simulate_coupled(model, 0.5, params, RngStream(90, 2))
    coupling = model.coupling
    fbar = lambda x: coupling.f0.values + coupling.c_fx * x  # noqa: E731
    averaged = simulate_averaged(model, fbar, 0.5, params, path)
    assert strong_error(trajectory, averaged, model.grid, L2) == 0.0


def test_implicit_residual_contract():
    # After a step, x_new satisfies x_new - dt * A(x_new) = explicit side up
    # to the Newton tolerance (relative to the explicit side's magnitude).
    gen = np.random.default_rng(6)
    grid = Grid1D(16)
    tol = 1e-11
    params = SchemeParams(dt_macro=1 / 128, newton_tol=tol)
    specs = [
        SlowOperatorSpec("porous_medium", p=3.0),
        SlowOperatorSpec("porous_medium", p=4.0, c=0.5),
        SlowOperatorSpec("p_laplace", p=4.0),
        SlowOperatorSpec("p_laplace", p=3.0),
    ]
    for spec in specs:
        stepper = _SlowStepper(spec, grid, params.dt_macro, params)
        for _ in range(5):
            x = gen.uniform(-2.0, 2.0, size=16)
            forcing = gen.standard_normal(16)
            noise = 0.05 * gen.standard_normal(16)
            x_new = stepper.step(x, forcing, noise)
            b = x + params.dt_macro * forcing + noise
            scale = max(1.0, float(np.abs(b).max()))
            res = stepper.residual(x_new, x, forcing, noise)
            assert np.abs(res).max() <= tol * scale


def test_burgers_step_residual_is_small():
    gen = np.random.default_rng(7)
    grid = Grid1D(32)
    params = SchemeParams(dt_macro=1 / 256)
    stepper = _SlowStepper(SlowOperatorSpec("burgers", viscosity=2.0), grid, params.dt_macro, params)
    for _ in range(5):
        x = gen.standard_normal(32)
        forcing = gen.standard_normal(32)
        noise = 0.01 * gen.standard_normal(32)
        x_new = stepper.step(x, forcing, noise)
        res = stepper.residual(x_new, x, forcing, noise)
        assert np.abs(res).max() <= 1e-9


def test_newton_divergence_is_reported():
    grid = Grid1D(8)
    params = SchemeParams(dt_macro=0.25, newton_tol=1e-320)
    stepper = _SlowStepper(SlowOperatorSpec("porous_medium", p=3.0), grid, 0.25, params)
    x = np.linspace(-1.0, 1.0, 8)
    with pytest.raises(NewtonDivergence):
        stepper.step(x, np.ones(8), np.zeros(8))


def test_fast_block_contraction_linear_two_sided():
    # Additive noise cancels under synchronous coupling, so the mode-1 gap
    # contracts by exactly (1 + a lambda_1)^(-n_sub); the continuum rate
    # exp(-margin/2 * dt/eps) brackets it from below, and a 10% envelope
    # with a small micro step brackets it from above.
    epsilon, dt_macro = 0.05, 0.025
    model = make_model(n=8, epsilon=epsilon)
    params = SchemeParams(dt_macro=dt_macro, dt_fast_target=0.002)
    x = zeros(model.grid)
    y_a = sine_mode(model.grid, 1, 1.0)
    y_b = zeros(model.grid)
    stream = RngStream(55, 0)
    out_a = step_fast_block(model, x, y_a, dt_macro, params, stream)
    out_b = step_fast_block(model, x, y_b, dt_macro, params, stream)
    gap = norm_values(model.grid, out_a.values - out_b.values, L2)
    tau = dt_macro / epsilon
    lam = smallest_eigenvalue(model.grid)
    continuum = math.exp(-0.5 * model.margin * tau)
    assert continuum == pytest.approx(math.exp(-lam * tau))
    assert continuum * (1.0 - 1e-9) <= gap <= continuum * 1.1


def test_fast_block_contraction_smooth_bounded_envelope():
    epsilon, dt_macro = 0.05, 0.025
    grid = Grid1D(8)
    model = ModelSpec(
        grid=grid,
        slow=SlowOperatorSpec("burgers"),
        fast=FastOperatorSpec("smooth_bounded", c_b=1.0, b=1.0),
        coupling=CouplingSpec(f0=zeros(grid)),
        epsilon=epsilon,
        x0=zeros(grid),
        y0=zeros(grid),
    )
    params = SchemeParams(dt_macro=dt_macro, dt_fast_target=0.002)
    x = sine_mode(grid, 1, 0.3)
    y_a = sine_mode(grid, 1, 1.0)
    y_b = sine_mode(grid, 2, -0.5)
    stream = RngStream(56, 0)
    out_a = step_fast_block(model, x, y_a, dt_macro, params, stream)
    out_b = step_fast_block(model, x, y_b, dt_macro, params, stream)
    gap0 = norm_values(grid, y_a.values - y_b.values, L2)
    gap = norm_values(grid, out_a.values - out_b.values, L2)
    envelope = gap0 * math.exp(-0.5 * model.margin * dt_macro / epsilon) * 1.1
    assert gap <= envelope


def test_trajectory_stats_sup_and_increments():
    model = make_model()
    params = SchemeParams(dt_macro=1 / 64)
    trajectory, _, stats = simulate_coupled(model, 0.25, params, RngStream(8, 1))
    sup = max(norm_values(model.grid, row, L2) ** 2 for row in trajectory.x)
    assert stats.sup_norm_x_sq == pytest.approx(sup, rel=1e-12)
    # delta = dt_macro degenerates to the summed one-step increments.
    one_step = sum(
        params.dt_macro * norm_values(model.grid, b - a, L2) ** 2
        for a, b in zip(trajectory.x, trajectory.x[1:])
    )
    assert stats.increment_integral(params.dt_macro) == pytest.approx(one_step, rel=1e-12)
    # Coarser blocks anchor at the block start.
    delta = 4 * params.dt_macro
    manual = 0.0
    for j in range(trajectory.x.shape[0] - 1):
        anchor = (j // 4) * 4
        d = trajectory.x[j + 1] - trajectory.x[anchor]
        manual += params.dt_macro * norm_values(model.grid, d, L2) ** 2
    assert stats.increment_integral(delta) == pytest.approx(manual, rel=1e-12)


def test_mean_norm_y_stays_bounded():
    # Long-run fast energy settles; the mean squared norm must not blow up.
    model = make_model(epsilon=0.02)
    params = SchemeParams(dt_macro=1 / 64)
    _, _, stats = simulate_coupled(model, 1.0, params, RngStream(21, 0))
    assert 0.0 < stats.mean_norm_y_sq < 10.0


def test_horizon_must_be_step_multiple():
    model = make_model()
    params = SchemeParams(dt_macro=1 / 64)
    with pytest.raises(ValueError):
        simulate_coupled(model, 0.2501, params, RngStream(0, 0))


def test_step_slow_public_wrapper():
    model = make_model()
    x = sine_mode(model.grid, 1, 0.5)
    y = sine_mode(model.grid, 2, 0.1)
    out = step_slow(model, x, y, 1 / 128, zeros(model.grid))
    assert isinstance(out, Field)
    assert out.values.shape == (8,)
    assert np.all(np.isfinite(out.values))


def test_blow_up_names_epsilon_and_first_bad_step():
    # The Burgers convection of a huge initial state overflows in the first
    # macro step; the run must stop with context instead of returning NaN.
    model = make_model(epsilon=0.05, x0_amp=1e200)
    params = SchemeParams(dt_macro=1 / 64)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalBlowUp, match=r"epsilon=0\.05.*macro step 1\b"):
            simulate_coupled(model, 0.25, params, RngStream(3, 0))
        path = simulate_coupled(make_model(epsilon=0.05), 0.25, params, RngStream(3, 0))[1]
        fbar = lambda x: np.zeros_like(x)  # noqa: E731
        with pytest.raises(NumericalBlowUp, match=r"averaged.*macro step 1\b"):
            simulate_averaged(model, fbar, 0.25, params, path)
    assert issubclass(NumericalBlowUp, ArithmeticError)
