"""Grid, field and norm primitives against dense linear-algebra oracles."""

import numpy as np
import pytest
import scipy.linalg

from spavg.grid import (
    H1_0,
    H_MINUS1,
    L2,
    Field,
    Grid1D,
    NormKind,
    ShiftedLaplacian,
    lp_norm_kind,
    norm_values,
    row_norms,
    sine_basis,
    sine_mode,
    smallest_eigenvalue,
    solve_neg_laplacian,
    zeros,
)


def dense_neg_laplacian(grid):
    n = grid.n_interior
    mat = np.zeros((n, n))
    for i in range(n):
        mat[i, i] = 2.0
        if i > 0:
            mat[i, i - 1] = -1.0
        if i + 1 < n:
            mat[i, i + 1] = -1.0
    return mat / grid.h**2


def test_grid_basics():
    grid = Grid1D(3)
    assert grid.h == 0.25
    np.testing.assert_allclose(grid.nodes, [0.25, 0.5, 0.75])
    with pytest.raises(ValueError):
        Grid1D(0)
    with pytest.raises(ValueError):
        Grid1D(-4)


def test_apply_neg_laplacian_matches_dense():
    gen = np.random.default_rng(11)
    for n in (1, 2, 3, 17, 64):
        grid = Grid1D(n)
        mat = dense_neg_laplacian(grid)
        for _ in range(5):
            v = gen.standard_normal(n)
            np.testing.assert_allclose(
                grid.apply_neg_laplacian(v.copy()), mat @ v, rtol=1e-12, atol=1e-9
            )


def test_apply_neg_laplacian_does_not_mutate_input():
    grid = Grid1D(5)
    v = np.arange(5.0)
    keep = v.copy()
    grid.apply_neg_laplacian(v)
    np.testing.assert_array_equal(v, keep)


def test_eigenvalues_match_dense_spectrum():
    for n in (2, 5, 16):
        grid = Grid1D(n)
        dense = np.sort(scipy.linalg.eigh(dense_neg_laplacian(grid), eigvals_only=True))
        np.testing.assert_allclose(np.sort(grid.eigenvalues), dense, rtol=1e-10)


def test_smallest_eigenvalue_frozen_value():
    # (2/h^2)(1 - cos(pi h)) at n=4, h=1/5, evaluated by hand:
    # 50 * (1 - cos(pi/5)) = 50 * 0.1909830056250525...
    assert smallest_eigenvalue(Grid1D(4)) == pytest.approx(
        9.549150281252627, abs=1e-12
    )
    assert smallest_eigenvalue(Grid1D(4)) == Grid1D(4).eigenvalues[0]


def test_smallest_eigenvalue_approaches_continuum():
    # The discrete value increases toward pi^2 from below as h shrinks.
    coarse = smallest_eigenvalue(Grid1D(15))
    fine = smallest_eigenvalue(Grid1D(255))
    assert coarse < fine < np.pi**2
    assert abs(fine - np.pi**2) / np.pi**2 < 1e-3


def test_field_validation_and_immutability():
    grid = Grid1D(4)
    with pytest.raises(ValueError):
        Field(grid, np.zeros(3))
    with pytest.raises(ValueError):
        Field(grid, [0.0, np.nan, 0.0, 0.0])
    with pytest.raises(ValueError):
        Field(grid, [0.0, np.inf, 0.0, 0.0])
    source = np.ones(4)
    f = Field(grid, source)
    source[0] = 99.0
    assert f.values[0] == 1.0
    with pytest.raises(ValueError):
        f.values[0] = 2.0


def test_field_equality_and_hash():
    grid = Grid1D(3)
    a = Field(grid, [1.0, 2.0, 3.0])
    b = Field(grid, [1.0, 2.0, 3.0])
    c = Field(grid, [1.0, 2.0, 4.0])
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert a != Field(Grid1D(3), np.zeros(3)) or a == Field(grid, a.values)


def test_sine_modes_are_h_orthonormal():
    # sum_i sin^2(k pi i h) = (n+1)/2 exactly, so the sqrt(2) scaling gives
    # h-weighted unit vectors and distinct modes are exactly orthogonal.
    grid = Grid1D(16)
    basis = sine_basis(grid, 16)
    gram = grid.h * basis @ basis.T
    np.testing.assert_allclose(gram, np.eye(16), atol=1e-12)


def test_sine_mode_is_discrete_eigenvector():
    grid = Grid1D(9)
    for k in (1, 3, 9):
        e = sine_mode(grid, k).values
        lam = grid.eigenvalues[k - 1]
        np.testing.assert_allclose(
            grid.apply_neg_laplacian(e.copy()), lam * e, rtol=1e-11, atol=1e-9
        )


def test_sine_mode_zero_amplitude_is_positive_zero():
    grid = Grid1D(5)
    for k in (1, 2, 5):
        for amplitude in (0.0, -0.0):
            values = sine_mode(grid, k, amplitude).values
            assert not values.any() and not np.signbit(values).any()


def test_sine_mode_rejects_bad_wavenumber():
    grid = Grid1D(4)
    with pytest.raises(ValueError):
        sine_mode(grid, 0)
    with pytest.raises(ValueError):
        sine_mode(grid, 5)


def test_l2_norm_hand_value():
    grid = Grid1D(3)
    # h * (1 + 4 + 9) = 3.5, so the norm is sqrt(3.5).
    assert norm_values(grid, np.array([1.0, -2.0, 3.0]), L2) == pytest.approx(
        np.sqrt(3.5), abs=1e-14
    )


def test_lp_norm_hand_values():
    grid = Grid1D(3)
    v = np.array([1.0, -2.0, 3.0])
    assert norm_values(grid, v, lp_norm_kind(1.0)) == pytest.approx(1.5, abs=1e-14)
    # (h * (1 + 16 + 81)) ** (1/4) = 24.5 ** 0.25
    assert norm_values(grid, v, lp_norm_kind(4.0)) == pytest.approx(
        24.5**0.25, abs=1e-14
    )


def test_lp_norm_p2_equals_l2():
    gen = np.random.default_rng(5)
    grid = Grid1D(21)
    p2 = lp_norm_kind(2.0)
    for _ in range(20):
        v = gen.standard_normal(21)
        assert norm_values(grid, v, p2) == pytest.approx(
            norm_values(grid, v, L2), rel=1e-13
        )


def test_h1_norm_of_sine_mode():
    # Summation by parts is exact with the boundary faces included, so
    # ||e_k||_{H1}^2 = lambda_k exactly.
    grid = Grid1D(12)
    for k in (1, 2, 7):
        e = sine_mode(grid, k)
        assert norm_values(grid, e.values, H1_0) == pytest.approx(
            np.sqrt(grid.eigenvalues[k - 1]), rel=1e-12
        )


def test_h_minus1_norm_of_first_mode():
    # L e_1 = lambda_1 e_1, so ||e_1||_{H^-1} = 1 / sqrt(lambda_1).
    grid = Grid1D(10)
    e = sine_mode(grid, 1)
    assert norm_values(grid, e.values, H_MINUS1) == pytest.approx(
        1.0 / np.sqrt(smallest_eigenvalue(grid)), rel=1e-12
    )


def test_duality_pairing_bound():
    # h <u, v> <= ||u||_{H^-1} ||v||_{H1} with equality when v solves Lv = u.
    gen = np.random.default_rng(77)
    grid = Grid1D(15)
    for _ in range(50):
        u = gen.standard_normal(15)
        v = gen.standard_normal(15)
        pairing = grid.h * float(u @ v)
        bound = norm_values(grid, u, H_MINUS1) * norm_values(grid, v, H1_0)
        assert pairing <= bound * (1.0 + 1e-10) + 1e-12


def test_norm_homogeneity_and_triangle():
    gen = np.random.default_rng(123)
    grid = Grid1D(17)
    kinds = [L2, H1_0, H_MINUS1, lp_norm_kind(4.0)]
    for _ in range(200):
        u = gen.standard_normal(17)
        v = gen.standard_normal(17)
        c = float(gen.uniform(-3.0, 3.0))
        for kind in kinds:
            nu = norm_values(grid, u, kind)
            nv = norm_values(grid, v, kind)
            assert norm_values(grid, c * u, kind) == pytest.approx(
                abs(c) * nu, rel=1e-9, abs=1e-12
            )
            assert norm_values(grid, u + v, kind) <= (nu + nv) * (1.0 + 1e-9) + 1e-12
    assert norm_values(grid, np.zeros(17), L2) == 0.0


def test_norm_kind_validation():
    with pytest.raises(ValueError):
        NormKind("banach")
    with pytest.raises(ValueError):
        lp_norm_kind(0.5)
    assert lp_norm_kind(3.0).p == 3.0


def test_solve_neg_laplacian_matches_dense_solve():
    gen = np.random.default_rng(42)
    for n in (2, 9, 33):
        grid = Grid1D(n)
        mat = dense_neg_laplacian(grid)
        for _ in range(5):
            rhs = gen.standard_normal(n)
            expected = np.linalg.solve(mat, rhs)
            np.testing.assert_allclose(
                solve_neg_laplacian(grid, rhs), expected, rtol=1e-9, atol=1e-12
            )


def test_shifted_laplacian_matches_dense_solve():
    gen = np.random.default_rng(43)
    for n in (1, 2, 9, 64):
        grid = Grid1D(n)
        for shift, scale in ((1.0, 0.3), (1.0, 1e-4), (0.0, 2.0)):
            mat = shift * np.eye(n) + scale * dense_neg_laplacian(grid)
            solver = ShiftedLaplacian(grid, shift, scale)
            rhs = gen.standard_normal(n)
            np.testing.assert_allclose(
                solver.solve(rhs), np.linalg.solve(mat, rhs), rtol=1e-9, atol=1e-12
            )
            # Several right-hand sides as columns, solved at once.
            block = gen.standard_normal((n, 3))
            np.testing.assert_allclose(
                solver.solve(block), np.linalg.solve(mat, block), rtol=1e-9, atol=1e-12
            )


def test_row_norms_match_norm_values():
    gen = np.random.default_rng(44)
    grid = Grid1D(17)
    rows = gen.standard_normal((6, 17))
    for kind in (L2, H1_0, H_MINUS1, lp_norm_kind(3.0)):
        expected = [norm_values(grid, row, kind) for row in rows]
        np.testing.assert_allclose(row_norms(grid, rows, kind), expected, rtol=1e-13)


def test_poisson_solve_hand_value():
    grid = Grid1D(3)
    # L u = (1, 1, 1) with h = 1/4 has the exact solution
    # u = (3/32, 4/32, 3/32); check: 16 * (2*3 - 4)/32 = 1.
    u = solve_neg_laplacian(grid, np.ones(3))
    np.testing.assert_allclose(u, [0.09375, 0.125, 0.09375], atol=1e-14)


def test_poisson_residual_contract_on_fine_grid():
    gen = np.random.default_rng(2026)
    grid = Grid1D(255)
    for scale in (1.0, 1e4, 1e-4):
        rhs = scale * gen.standard_normal(255)
        u = solve_neg_laplacian(grid, rhs)
        residual = grid.apply_neg_laplacian(u.copy()) - rhs
        assert np.abs(residual).max() <= 1e-12 * max(1.0, np.abs(rhs).max())


def test_poisson_solve_on_a_fine_grid_meets_its_rounding_floor():
    # The stencil residual of a solve on n = 256 nodes has a rounding floor
    # near eps * 4 max|u| / h^2, above a fixed 1e-12 bound: the one pttrs
    # solve is checked against that floor, so a sine mode solves (to its
    # closed form u = e_1 / lambda_1) and each row of a stack of amplitudes
    # 1e-6 ... 1e6 has the bytes of its own solve.
    grid = Grid1D(256)
    mode = sine_mode(grid, 1, 0.5).values
    np.testing.assert_allclose(
        solve_neg_laplacian(grid, mode), mode / grid.eigenvalues[0], rtol=1e-9
    )
    gen = np.random.default_rng(7)
    rows = gen.standard_normal((5, 256)) * np.logspace(-6, 6, 5)[:, None]
    stacked = solve_neg_laplacian(grid, rows.T)
    for row, column in zip(rows, stacked.T):
        assert solve_neg_laplacian(grid, row).tobytes() == column.tobytes()
    norms = row_norms(grid, rows, H_MINUS1)
    assert [norm_values(grid, row, H_MINUS1) for row in rows] == norms.tolist()
    with pytest.raises(ArithmeticError, match="residual tolerance"):
        solve_neg_laplacian(grid, np.full(256, np.nan))


def test_zeros_helper():
    grid = Grid1D(6)
    z = zeros(grid)
    assert z.grid is grid
    assert not z.values.any()
    assert norm_values(grid, z.values, H_MINUS1) == 0.0
