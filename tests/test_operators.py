"""Drift stencils against hand-evaluated values, noise and margin formulas."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spavg.grid import Field, Grid1D, H_MINUS1, L2, sine_basis, sine_mode, smallest_eigenvalue, zeros
from spavg.operators import (
    CouplingSpec,
    FastOperatorSpec,
    SlowOperatorSpec,
    b2_values,
    burgers_convection,
    contraction_margin,
    coupling_f,
    dissipativity_margin,
    face_gradients,
    fast_drift,
    mode_scales,
    slow_drift,
)
from spavg.randomness import RngStream

GRID3 = Grid1D(3)  # h = 1/4, so 1/h^2 = 16 and 1/(2h) = 2


def central_difference(grid, v):
    """(v[i+1] - v[i-1]) / (2h) with zero Dirichlet neighbours at both ends.

    The plain stencil, the reference of the burgers_convection byte property.
    """
    out = np.zeros_like(v)
    out[:-1] += v[1:]
    out[1:] -= v[:-1]
    out /= 2.0 * grid.h
    return out


def test_central_difference_hand_values():
    # u = (2, 1, 0): interior (u[i+1] - u[i-1]) * 2 with zero boundaries.
    np.testing.assert_allclose(
        central_difference(GRID3, np.array([2.0, 1.0, 0.0])), [2.0, -4.0, -2.0]
    )


def test_central_difference_is_skew_adjoint():
    gen = np.random.default_rng(3)
    grid = Grid1D(12)
    for _ in range(30):
        u = gen.standard_normal(12)
        v = gen.standard_normal(12)
        lhs = float(central_difference(grid, u) @ v)
        rhs = float(u @ central_difference(grid, v))
        assert lhs == pytest.approx(-rhs, abs=1e-10)


def test_face_gradients_hand_values():
    # Faces (u_1-0, u_2-u_1, u_3-u_2, 0-u_3) / h for u = (1, 0, -1).
    np.testing.assert_allclose(
        face_gradients(GRID3, np.array([1.0, 0.0, -1.0])), [4.0, -4.0, -4.0, 4.0]
    )


# Any double, signed zeros, infinities and NaN included.
NODE_VALUE = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True), st.sampled_from([0.0, -0.0])
)
NODE_VALUES = st.lists(NODE_VALUE, min_size=1, max_size=64)


def same_bits(a, b):
    """Bit for bit, signed zeros included, except that any NaN matches any NaN."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    equal = (a.view(np.uint64) == b.view(np.uint64)) | (np.isnan(a) & np.isnan(b))
    return a.shape == b.shape and bool(equal.all())


@settings(max_examples=200, deadline=None)
@given(
    values=NODE_VALUES,
    p=st.floats(2.0, 5.0),
    columns=st.sampled_from([None, 3]),
    data=st.data(),
)
def test_face_gradients_and_p_laplace_drift_are_bit_equal_to_np_diff(values, p, columns, data):
    # The slice-built forms give the very bits of the np.diff expressions
    # they replace, which stay here as the reference: for one vector, and
    # for each column of (n, 3) columns along the first axis, against the
    # expressions on that column alone. Which of two NaN operands an
    # operation returns depends on the vector lane numpy puts it in, so
    # there a NaN matches any NaN.
    v = np.array(values)
    if columns is not None:
        more = [data.draw(st.lists(NODE_VALUE, min_size=v.size, max_size=v.size)) for _ in range(2)]
        v = np.column_stack([v, *more])
    grid = Grid1D(v.shape[0])
    with np.errstate(all="ignore"):
        gradients = face_gradients(grid, v)
        actual = slow_drift(SlowOperatorSpec("p_laplace", p=p), grid, v)
        for c in range(1 if columns is None else columns):
            column = v if columns is None else v[:, c].copy()
            g = np.diff(column, prepend=0.0, append=0.0) / grid.h
            flux = np.abs(g) ** (p - 2.0) * g
            drift = np.diff(flux) / grid.h
            if columns is None:
                assert gradients.tobytes() == g.tobytes()
                assert actual.tobytes() == drift.tobytes()
            else:
                assert gradients.shape == (v.shape[0] + 1, columns)
                assert same_bits(gradients[:, c], g)
                assert same_bits(actual[:, c], drift)


def test_burgers_convection_hand_values():
    # u = (2, 1, 0): D(u^2) = (2, -8, -2), u*Du = (4, -4, 0), average / 3.
    np.testing.assert_allclose(
        burgers_convection(GRID3, np.array([2.0, 1.0, 0.0])),
        [2.0, -4.0, -2.0 / 3.0],
        rtol=1e-14,
    )
    # Odd-symmetric u has even u^2 and odd Du, so both terms vanish.
    np.testing.assert_array_equal(
        burgers_convection(GRID3, np.array([1.0, 0.0, -1.0])), np.zeros(3)
    )


@settings(max_examples=300, deadline=None)
@given(values=NODE_VALUES, columns=st.sampled_from([0, 3]), data=st.data())
def test_burgers_convection_is_bit_equal_to_two_central_differences(values, columns, data):
    # One zero-padded copy gives the very bits of the two zero-filled
    # central differences it replaces, kept here as the reference, for one
    # state (n,) and for a batch of columns (n, 3).
    n = len(values)
    if columns:
        values += data.draw(st.lists(NODE_VALUE, min_size=2 * n, max_size=2 * n))
        u = np.array(values).reshape(columns, n).T
    else:
        u = np.array(values)
    grid = Grid1D(n)
    with np.errstate(all="ignore"):
        reference = (central_difference(grid, u * u) + u * central_difference(grid, u)) / 3.0
        actual = burgers_convection(grid, u)
    assert actual.shape == u.shape
    assert actual.tobytes() == reference.tobytes()


def test_burgers_convection_has_zero_energy():
    # <conv(u), u> = 0 algebraically: the two terms cancel through the
    # skew-adjointness of the central difference.
    gen = np.random.default_rng(17)
    grid = Grid1D(33)
    for _ in range(100):
        u = gen.uniform(-5.0, 5.0, size=33)
        energy = grid.h * float(burgers_convection(grid, u) @ u)
        assert abs(energy) <= 1e-10 * max(1.0, float(np.abs(u).max()) ** 3)


def test_burgers_drift_hand_values():
    spec = SlowOperatorSpec("burgers", viscosity=1.0)
    # -L u = (-48, 0, 16) for u = (2, 1, 0); plus convection (2, -4, -2/3).
    np.testing.assert_allclose(
        slow_drift(spec, GRID3, np.array([2.0, 1.0, 0.0])),
        [-46.0, -4.0, 46.0 / 3.0],
        rtol=1e-13,
    )
    np.testing.assert_allclose(
        slow_drift(spec, GRID3, np.array([1.0, 0.0, -1.0])), [-32.0, 0.0, 32.0]
    )


def test_porous_medium_drift_hand_values():
    spec = SlowOperatorSpec("porous_medium", p=3.0, c=2.0)
    # Psi(u) = 2 u |u| = (2, 0, -2); drift = -L Psi = (-64, 0, 64).
    np.testing.assert_allclose(
        slow_drift(spec, GRID3, np.array([1.0, 0.0, -1.0])), [-64.0, 0.0, 64.0]
    )


def test_p_laplace_drift_hand_values():
    spec = SlowOperatorSpec("p_laplace", p=4.0)
    # Face gradients (4, -4, -4, 4), flux |g|^2 g = (64, -64, -64, 64),
    # divergence (flux[i+1] - flux[i]) / h.
    np.testing.assert_allclose(
        slow_drift(spec, GRID3, np.array([1.0, 0.0, -1.0])), [-512.0, 0.0, 512.0]
    )


def test_monotone_drifts_dissipate():
    # <drift(u), u> through the respective pairing is nonpositive for the
    # single-operator drifts (the convection term contributes nothing).
    gen = np.random.default_rng(29)
    grid = Grid1D(14)
    specs = [
        SlowOperatorSpec("porous_medium", p=3.0),
        SlowOperatorSpec("p_laplace", p=4.0),
        SlowOperatorSpec("burgers", viscosity=0.7),
    ]
    for _ in range(50):
        u = gen.standard_normal(14)
        for spec in specs:
            drift = slow_drift(spec, grid, u)
            if spec.kind == "porous_medium":
                from spavg.grid import solve_neg_laplacian

                pairing = grid.h * float(solve_neg_laplacian(grid, drift) @ u)
            else:
                pairing = grid.h * float(drift @ u)
            assert pairing <= 1e-9


def test_slow_spec_validation_and_properties():
    with pytest.raises(ValueError):
        SlowOperatorSpec("advection")
    with pytest.raises(ValueError):
        SlowOperatorSpec("porous_medium", p=1.5)
    with pytest.raises(ValueError):
        SlowOperatorSpec("burgers", viscosity=0.0)
    with pytest.raises(ValueError):
        SlowOperatorSpec("porous_medium", c=-1.0)
    pm = SlowOperatorSpec("porous_medium", p=3.0)
    assert pm.state_norm == H_MINUS1
    assert pm.alpha == 3.0
    bg = SlowOperatorSpec("burgers")
    assert bg.state_norm == L2
    assert bg.alpha == 2.0


def test_fast_drift_hand_values():
    grid = Grid1D(2)  # h = 1/3, 1/h^2 = 9
    linear = FastOperatorSpec("linear", c_b=1.5)
    x = np.array([2.0, 0.0])
    y = np.array([1.0, 1.0])
    # -L y = -9 * (2-1, -1+2) = (-9, -9); b2 = 1.5 x = (3, 0).
    np.testing.assert_allclose(fast_drift(linear, grid, x, y), [-6.0, -9.0])
    bounded = FastOperatorSpec("smooth_bounded", c_b=1.0, b=2.0)
    np.testing.assert_allclose(
        b2_values(bounded, x, y), x + 2.0 * np.sin(1.0) * np.ones(2)
    )


def test_fast_spec_validation():
    with pytest.raises(ValueError):
        FastOperatorSpec("quadratic")
    with pytest.raises(ValueError):
        FastOperatorSpec("smooth_bounded", b=-0.5)
    with pytest.raises(ValueError):
        FastOperatorSpec("linear", b=3.0)  # sin amplitude is not linear
    assert FastOperatorSpec("linear").lipschitz_y == 0.0
    assert FastOperatorSpec("smooth_bounded", b=2.0).lipschitz_y == 2.0


def test_coupling_f_is_affine():
    grid = Grid1D(4)
    f0 = Field(grid, [1.0, 0.0, 0.0, -1.0])
    coup = CouplingSpec(f0=f0, c_fx=2.0, c_fy=-0.5, g1_modes=4, g2_modes=4)
    x = np.array([1.0, 1.0, 0.0, 0.0])
    y = np.array([0.0, 2.0, 2.0, 0.0])
    np.testing.assert_allclose(coupling_f(coup, x, y), [3.0, 1.0, -1.0, -1.0])


def test_coupling_validation():
    grid = Grid1D(4)
    f0 = zeros(grid)
    with pytest.raises(ValueError):
        CouplingSpec(f0=f0, g1_amplitude=-1.0, g1_modes=4, g2_modes=4)
    with pytest.raises(ValueError):
        CouplingSpec(f0=f0, g1_modes=0, g2_modes=4)
    with pytest.raises(ValueError):
        CouplingSpec(f0=f0, g1_modes=5, g2_modes=4)  # more modes than nodes
    with pytest.raises(ValueError):
        CouplingSpec(f0=f0, g1_modes=4, g2_modes=4, lipschitz_g2=0.1)


def test_mode_scales_decay():
    np.testing.assert_allclose(mode_scales(1.0, 4), [1.0, 0.25, 1.0 / 9.0, 0.0625])


def test_noise_increment_variance():
    # E ||dW||_{L2}^2 = dt * sum_k (amp / k^2)^2 by mode orthonormality.
    grid = Grid1D(16)
    amp, modes, dt = 0.8, 6, 0.05
    scales = mode_scales(amp, modes)
    expected = dt * float(np.sum(scales**2))
    basis = sine_basis(grid, modes)
    samples = np.empty(2000)
    for i in range(samples.size):
        xi = RngStream(3000, i).generator().standard_normal(modes)
        inc = basis @ (scales * np.sqrt(dt) * xi)
        samples[i] = grid.h * float(inc @ inc)
    stderr = samples.std(ddof=1) / np.sqrt(samples.size)
    assert abs(samples.mean() - expected) < 3.0 * stderr


def test_dissipativity_margin_formula():
    grid = Grid1D(8)
    coup = CouplingSpec(f0=zeros(grid))
    lam = smallest_eigenvalue(grid)
    linear = FastOperatorSpec("linear", c_b=5.0)
    assert dissipativity_margin(linear, coup, grid) == pytest.approx(2.0 * lam)
    bounded = FastOperatorSpec("smooth_bounded", b=1.25)
    assert dissipativity_margin(bounded, coup, grid) == pytest.approx(2.0 * lam - 2.5)
    # Engineered violation: Lipschitz constant above the spectral gap.
    violating = FastOperatorSpec("smooth_bounded", b=lam + 1.0)
    assert dissipativity_margin(violating, coup, grid) < 0.0


def test_contraction_margin_is_positive_or_raises():
    grid = Grid1D(8)
    coup = CouplingSpec(f0=zeros(grid))
    lam = smallest_eigenvalue(grid)
    bounded = FastOperatorSpec("smooth_bounded", b=1.25)
    assert contraction_margin(bounded, coup, grid) == dissipativity_margin(bounded, coup, grid)
    # Zero, negative and NaN margins all fail the one rule.
    for b in (lam, lam + 1.0, float("nan")):
        with pytest.raises(ValueError, match="the fast equation would not contract"):
            contraction_margin(FastOperatorSpec("smooth_bounded", b=b), coup, grid)
