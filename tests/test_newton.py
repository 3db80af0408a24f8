"""The damped Newton solve of the porous-medium and p-Laplace slow step.

Each direction is one LAPACK gtsv solve with the three diagonals of the
Jacobian of u - dt * A(u). The bands are checked against a central finite
difference Jacobian, the direction against a dense solve, and the step
against its residual contract over random grids, exponents and step sizes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spavg.grid import Grid1D
from spavg.integrators import (
    NewtonDivergence,
    SchemeParams,
    _monotone_jacobian_bands,
    _newton_direction,
    _SlowStepper,
)
from spavg.operators import SlowOperatorSpec, slow_drift

SPECS = [
    SlowOperatorSpec("porous_medium", p=3.0),
    SlowOperatorSpec("porous_medium", p=4.5, c=0.5),
    SlowOperatorSpec("p_laplace", p=2.0),
    SlowOperatorSpec("p_laplace", p=3.5),
]


def dense_jacobian(bands):
    sub, diag, sup = bands
    return np.diag(diag) + np.diag(sub, -1) + np.diag(sup, 1)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.kind}-p{s.p}")
def test_jacobian_bands_match_finite_differences(spec):
    grid = Grid1D(12)
    dt = 1 / 128
    u = np.random.default_rng(1).uniform(-1.5, 1.5, size=12)

    def residual_map(v):
        return v - dt * slow_drift(spec, grid, v)

    step = 1e-6
    columns = []
    for j in range(12):
        e = np.zeros(12)
        e[j] = step
        columns.append((residual_map(u + e) - residual_map(u - e)) / (2 * step))
    reference = np.array(columns).T
    jacobian = dense_jacobian(_monotone_jacobian_bands(spec, grid, u, dt))
    scale = float(np.abs(reference).max())
    assert float(np.abs(jacobian - reference).max()) <= 1e-7 * scale


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.kind}-p{s.p}")
@pytest.mark.parametrize("n", [1, 2, 64])
def test_direction_matches_dense_solve(spec, n):
    grid = Grid1D(n)
    dt = 1 / 64
    gen = np.random.default_rng(n)
    u = gen.uniform(-1.0, 1.0, size=n)
    residual = gen.standard_normal(n)
    expected = np.linalg.solve(
        dense_jacobian(_monotone_jacobian_bands(spec, grid, u, dt)), -residual
    )
    direction = _newton_direction(spec, grid, u, dt, residual)
    scale = max(1.0, float(np.abs(expected).max()))
    assert float(np.abs(direction - expected).max()) <= 1e-12 * scale


@pytest.mark.parametrize("kind", ["porous_medium", "p_laplace"])
def test_non_finite_residual_is_newton_divergence(kind):
    # A NaN reaching the implicit solve is a classified failure naming the
    # slow operator, not a ValueError and not thirty-one futile halvings.
    grid = Grid1D(8)
    params = SchemeParams(dt_macro=1 / 64)
    stepper = _SlowStepper(SlowOperatorSpec(kind, p=3.0), grid, params.dt_macro, params)
    forcing = np.ones(8)
    forcing[3] = np.nan
    with pytest.raises(NewtonDivergence, match=rf"implicit {kind} solve met a non-finite residual"):
        stepper.step(np.linspace(-1.0, 1.0, 8), forcing, np.zeros(8))


def test_p_laplace_newton_takes_face_gradients_once_per_iterate(monkeypatch):
    # Each iterate's face gradients serve its residual, which still goes
    # through slow_drift as the integrators module binds it, and the
    # Jacobian of the next direction: one gradient per slow_drift call.
    import spavg.integrators as integrators
    import spavg.operators as operators

    counts = {"face_gradients": 0, "slow_drift": 0}
    for module, name in [
        (integrators, "slow_drift"),
        (integrators, "face_gradients"),
        (operators, "face_gradients"),
    ]:
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    grid = Grid1D(16)
    params = SchemeParams(dt_macro=1 / 16)
    stepper = _SlowStepper(SlowOperatorSpec("p_laplace", p=4.0), grid, 1 / 16, params)
    x = np.sin(np.pi * np.arange(1, 17) * grid.h)
    stepper.step(x, np.ones(16), np.zeros(16))
    assert counts["slow_drift"] > 2
    assert counts["face_gradients"] == counts["slow_drift"]


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 64),
    kind=st.sampled_from(["porous_medium", "p_laplace"]),
    p=st.floats(2.0, 5.0),
    dt=st.floats(1 / 1024, 1 / 32),
    seed=st.integers(0, 2**32 - 1),
)
def test_implicit_residual_contract_property(n, kind, p, dt, seed):
    # Smooth slow states keep the drift, and with it the rounding floor of
    # the residual, well below the tolerance on every grid.
    grid = Grid1D(n)
    tol = 1e-10
    params = SchemeParams(dt_macro=dt, newton_tol=tol)
    stepper = _SlowStepper(SlowOperatorSpec(kind, p=p), grid, dt, params)
    gen = np.random.default_rng(seed)
    nodes = np.arange(1, n + 1) * grid.h
    modes = np.sin(np.pi * np.outer(nodes, np.arange(1, 4)))
    x = modes @ gen.uniform(-0.5, 0.5, size=3)
    forcing = gen.standard_normal(n)
    noise = 0.05 * gen.standard_normal(n)
    x_new = stepper.step(x, forcing, noise)
    scale = max(1.0, float(np.abs(x + dt * forcing + noise).max()))
    assert float(np.abs(stepper.residual(x_new, x, forcing, noise)).max()) <= tol * scale
