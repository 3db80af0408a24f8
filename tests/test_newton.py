"""The damped Newton solve of the porous-medium and p-Laplace slow step.

Each iteration solves for the directions of all columns of a batch with one
tridiagonal solve over their Jacobians laid end to end: an LDL^T factor
(LAPACK pttrf, pttrs) for the symmetric p-Laplace Jacobian, gtsv for the
porous-medium one. The bands are checked against a central finite
difference Jacobian, the directions against a dense solve, the step
against its residual contract over random grids, exponents and step sizes,
and the batched solve against a plain per-column Newton loop, byte for byte.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dgtsv, dpttrf, dpttrs

from spavg.grid import Grid1D
from spavg.integrators import (
    NEWTON_MAX_HALVINGS,
    NEWTON_MAX_ITER,
    NewtonDivergence,
    SchemeParams,
    _monotone_jacobian_bands,
    _newton_direction,
    _newton_monotone_solve,
    _SlowStepper,
)
from spavg.operators import SlowOperatorSpec, face_gradients, slow_drift

SPECS = [
    SlowOperatorSpec("porous_medium", p=3.0),
    SlowOperatorSpec("porous_medium", p=4.5, c=0.5),
    SlowOperatorSpec("p_laplace", p=2.0),
    SlowOperatorSpec("p_laplace", p=3.5),
]


def powers_of(spec, grid, u):
    """|v| ** (p - 2), which the Newton solve hands to the Jacobian with each iterate."""
    v = u if spec.kind == "porous_medium" else face_gradients(grid, u)
    return np.abs(v) ** (spec.p - 2.0)


def dense_jacobian(bands):
    sub, diag, sup = bands
    return np.diag(diag) + np.diag(sub, -1) + np.diag(sup, 1)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.kind}-p{s.p}")
def test_jacobian_bands_match_finite_differences(spec):
    # The bands of one column, and of a batch of three: the block-diagonal
    # matrix of the columns' own Jacobians, with zero couplings between.
    grid = Grid1D(12)
    dt = 1 / 128

    def residual_map(v):
        return v - dt * slow_drift(spec, grid, v)

    step = 1e-6
    for columns in (1, 3):
        u = np.random.default_rng(1).uniform(-1.5, 1.5, size=(columns, 12)).T
        blocks = []
        for c in range(columns):
            derivatives = []
            for j in range(12):
                e = np.zeros(12)
                e[j] = step
                difference = residual_map(u[:, c] + e) - residual_map(u[:, c] - e)
                derivatives.append(difference / (2 * step))
            blocks.append(np.array(derivatives).T)
        reference = scipy.linalg.block_diag(*blocks)
        bands = _monotone_jacobian_bands(spec, grid, u, dt, powers_of(spec, grid, u))
        jacobian = dense_jacobian(bands)
        scale = float(np.abs(reference).max())
        assert float(np.abs(jacobian - reference).max()) <= 1e-7 * scale


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.kind}-p{s.p}")
@pytest.mark.parametrize("n", [1, 2, 64])
def test_direction_matches_dense_solve(spec, n):
    # One column, and a batch of three solved by one tridiagonal solve.
    grid = Grid1D(n)
    dt = 1 / 64
    for columns in (1, 3):
        gen = np.random.default_rng(n)
        u = gen.uniform(-1.0, 1.0, size=(columns, n)).T
        residual = gen.standard_normal((columns, n)).T
        blocks = [
            dense_jacobian(_monotone_jacobian_bands(spec, grid, v, dt, powers_of(spec, grid, v)))
            for v in np.split(u, columns, axis=1)
        ]
        expected = np.linalg.solve(scipy.linalg.block_diag(*blocks), -residual.T.ravel())
        powers = powers_of(spec, grid, u)
        direction, singular = _newton_direction(spec, grid, u, dt, residual, powers)
        assert singular is None and direction.shape == (n, columns)
        scale = max(1.0, float(np.abs(expected).max()))
        assert float(np.abs(direction.T.ravel() - expected).max()) <= 1e-12 * scale


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([1, 2, 5, 64]),
    columns=st.integers(1, 16),
    p=st.sampled_from([2.0, 3.0, 4.5]),
    dt=st.sampled_from([1 / 512, 1 / 8]),
    seed=st.integers(0, 2**32 - 1),
)
def test_p_laplace_direction_matches_a_dense_solve_property(n, columns, p, dt, seed):
    # The LDL^T solve of the batched p-Laplace bands against np.linalg.solve
    # of each column's dense Jacobian I + dt G^T diag((p-1) |G u|^(p-2)) G,
    # built from face_gradients alone: G is the face-gradient matrix, the
    # face gradients of the identity's columns.
    spec = SlowOperatorSpec("p_laplace", p=p)
    grid = Grid1D(n)
    gen = np.random.default_rng(seed)
    u = rough_columns(gen, n, 10.0 ** gen.uniform(-3, 0.5, columns))
    residual = np.asfortranarray(gen.standard_normal((n, columns)))
    powers = powers_of(spec, grid, u)
    sub, diag, sup = _monotone_jacobian_bands(spec, grid, u, dt, powers)
    assert np.isfinite(diag).all() and np.isfinite(sup).all()
    assert np.array_equal(sub, sup)
    if diag.size > 1:
        assert dpttrf(diag, sup)[2] == 0
    direction, singular = _newton_direction(spec, grid, u, dt, residual, powers)
    assert singular is None
    G = face_gradients(grid, np.eye(n))
    eps = np.finfo(float).eps
    for c in range(columns):
        w = (p - 1.0) * np.abs(face_gradients(grid, u[:, c])) ** (p - 2.0)
        jacobian = np.eye(n) + dt * (G.T * w) @ G
        expected = np.linalg.solve(jacobian, -residual[:, c])
        # A backward-stable solve of a system whose entries carry a few
        # roundings each: forward error within a small multiple of
        # n eps cond(J), relative to the largest entry of the direction.
        tol = 16.0 * n * eps * np.linalg.cond(jacobian)
        error = float(np.abs(direction[:, c] - expected).max())
        assert error <= tol * float(np.abs(expected).max())


@pytest.mark.parametrize("kind", ["porous_medium", "p_laplace"])
def test_a_non_finite_column_sends_the_batch_to_per_column_solves(kind):
    # An infinite Jacobian entry in column 1 reaches every block of the one
    # batched solve (gtsv, or pttrf and pttrs for p_laplace); the fallback
    # then solves each column alone, so columns 0 and 2 keep the bytes of
    # their own one-column calls.
    spec = SlowOperatorSpec(kind, p=3.0)
    grid = Grid1D(8)
    dt = 1 / 64
    gen = np.random.default_rng(3)
    u = gen.uniform(-1.0, 1.0, size=(3, 8)).T
    residual = gen.standard_normal((3, 8)).T
    powers = powers_of(spec, grid, u)
    powers[3, 1] = np.inf
    sub, diag, sup = _monotone_jacobian_bands(spec, grid, u, dt, powers)
    if kind == "p_laplace":
        d, e, info = dpttrf(diag, sup)
        assert info == 0
        batched, _ = dpttrs(d, e, -residual.ravel(order="F"))
    else:
        *_, batched, _ = dgtsv(sub, diag, sup, -residual.ravel(order="F"))
    assert not np.isfinite(batched.reshape(3, 8)).all(axis=1).any()
    direction, _ = _newton_direction(spec, grid, u, dt, residual, powers)
    assert not np.isfinite(direction[:, 1]).all()
    for c in (0, 2):
        own = slice(c, c + 1)
        alone, singular = _newton_direction(
            spec, grid, u[:, own], dt, residual[:, own], powers[:, own]
        )
        assert singular is None
        assert direction[:, c].tobytes() == alone[:, 0].tobytes()


@pytest.mark.parametrize("kind", ["porous_medium", "p_laplace"])
def test_non_finite_residual_is_newton_divergence(kind):
    # A NaN reaching the implicit solve is a classified failure naming the
    # slow operator, not a ValueError and not thirty-one futile halvings.
    grid = Grid1D(8)
    params = SchemeParams(dt_macro=1 / 64)
    stepper = _SlowStepper(SlowOperatorSpec(kind, p=3.0), grid, params.dt_macro, params)
    forcing = np.ones((8, 1))
    forcing[3] = np.nan
    with pytest.raises(NewtonDivergence, match=rf"implicit {kind} solve met a non-finite residual"):
        stepper.step(np.linspace(-1.0, 1.0, 8)[:, None], forcing, np.zeros((8, 1)))


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
    x = np.sin(np.pi * np.arange(1, 17) * grid.h)[:, None]
    stepper.step(x, np.ones((16, 1)), np.zeros((16, 1)))
    assert counts["slow_drift"] > 2
    assert counts["face_gradients"] == counts["slow_drift"]


def test_a_singular_jacobian_fails_its_column_and_the_rest_iterate_on(monkeypatch):
    # A Jacobian flagged singular on the first iteration drops its column:
    # the other two take their directions and iterate on together, and the
    # solve then raises for the singular column with the message of its own.
    import spavg.integrators as integrators

    original = integrators._newton_direction
    widths = []

    def flag_column_1(*args):
        direction, singular = original(*args)
        if not widths:
            singular = np.array([False, True, False])
        widths.append(direction.shape[1])
        return direction, singular

    monkeypatch.setattr(integrators, "_newton_direction", flag_column_1)
    b = np.random.default_rng(5).uniform(-1.0, 1.0, size=(3, 8)).T
    spec = SlowOperatorSpec("porous_medium", p=3.0)
    with pytest.raises(NewtonDivergence) as failure:
        _newton_monotone_solve(spec, Grid1D(8), b, 1 / 64, SchemeParams(dt_macro=1 / 64))
    assert str(failure.value) == "implicit porous_medium solve met a singular Jacobian"
    assert failure.value.column == 1
    assert widths[0] == 3 and len(widths) > 1 and set(widths[1:]) == {2}


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
    x = modes @ gen.uniform(-0.5, 0.5, size=(3, 1))
    forcing = gen.standard_normal((n, 1))
    noise = 0.05 * gen.standard_normal((n, 1))
    x_new = stepper.step(x, forcing, noise)
    scale = max(1.0, float(np.abs(x + dt * forcing + noise).max()))
    assert float(np.abs(stepper.residual(x_new, x, forcing, noise)).max()) <= tol * scale


def reference_newton(spec, grid, b, dt, tol):
    """The damped Newton solve of one column, one tridiagonal solve per direction.

    Each direction solves the column's Jacobian as the batched solve does:
    gtsv for porous medium, an LDL^T factor (pttrf, pttrs) for p-Laplace,
    whose bands come from the same formula.

    Returns the solution with its iteration and halving counts, or raises
    NewtonDivergence with the message of the solve.
    """
    h2 = grid.h**2

    def residual(u):
        return u - dt * slow_drift(spec, grid, u) - b

    def direction(u, r):
        if spec.kind == "porous_medium":
            dpsi = spec.c * (spec.p - 1.0) * np.abs(u) ** (spec.p - 2.0)
            off = -dt * dpsi / h2
            sub, diag, sup = off[:-1], 1.0 + 2.0 * dt * dpsi / h2, off[1:]
        else:
            g = np.diff(u, prepend=0.0, append=0.0) / grid.h
            s = (dt * (spec.p - 1.0) / h2) * np.abs(g) ** (spec.p - 2.0)
            diag = 1.0 + s[:-1] + s[1:]
            sub = sup = -s[1:-1]
        if u.size == 1:
            return -r / diag
        if spec.kind == "porous_medium":
            *_, d, info = dgtsv(sub, diag, sup, -r)
        else:
            factor_d, factor_e, info = dpttrf(diag, sup)
            d, _ = dpttrs(factor_d, factor_e, -r)
        if info:
            raise NewtonDivergence(f"implicit {spec.kind} solve met a singular Jacobian")
        return d

    u = b.copy()
    scale = max(1.0, float(np.abs(b).max()))
    r = residual(u)
    norm = float(np.abs(r).max())
    if not np.isfinite(norm):
        raise NewtonDivergence(f"implicit {spec.kind} solve met a non-finite residual")
    halvings = 0
    for iteration in range(NEWTON_MAX_ITER):
        if norm <= tol * scale:
            return u, iteration, halvings
        d = direction(u, r)
        step = 1.0
        for _ in range(NEWTON_MAX_HALVINGS + 1):
            candidate = u + step * d
            candidate_r = residual(candidate)
            candidate_norm = float(np.abs(candidate_r).max())
            if candidate_norm < norm:
                break
            step *= 0.5
            halvings += 1
        else:
            raise NewtonDivergence(f"implicit {spec.kind} solve stalled at residual {norm:.3e}")
        u, r, norm = candidate, candidate_r, candidate_norm
    if norm <= tol * scale:
        return u, NEWTON_MAX_ITER, halvings
    raise NewtonDivergence(
        f"implicit {spec.kind} solve did not reach tolerance, residual {norm:.3e}"
    )


def assert_batch_solves_like_its_columns(spec, grid, b, dt, tol):
    """The batched solve of b (n, C) against reference_newton on each column.

    Returns the iteration and halving counts of the columns that converge.
    """
    outcomes = []
    for c in range(b.shape[1]):
        try:
            outcomes.append(reference_newton(spec, grid, b[:, c].copy(), dt, tol))
        except NewtonDivergence as exc:
            outcomes.append(str(exc))
    failing = [c for c, outcome in enumerate(outcomes) if isinstance(outcome, str)]
    params = SchemeParams(dt_macro=dt, newton_tol=tol)
    if failing:
        with pytest.raises(NewtonDivergence) as raised:
            _newton_monotone_solve(spec, grid, b, dt, params)
        assert raised.value.column == failing[0]
        assert str(raised.value) == outcomes[failing[0]]
        return []
    solution = _newton_monotone_solve(spec, grid, b, dt, params)
    for c, (u, _, _) in enumerate(outcomes):
        assert solution[:, c].tobytes() == u.tobytes()
    return [outcome[1:] for outcome in outcomes]


def rough_columns(gen, n, amplitudes):
    """Columns of white noise (rough) and of a few sine modes (smooth), column-major."""
    nodes = np.arange(1, n + 1) / (n + 1)
    modes = np.sin(np.pi * np.outer(nodes, np.arange(1, 4)))
    smooth = modes @ gen.uniform(-1, 1, (3, len(amplitudes)))
    rough = gen.standard_normal((n, len(amplitudes)))
    pick = gen.integers(0, 2, len(amplitudes)).astype(bool)
    return np.asfortranarray(np.where(pick, rough, smooth) * amplitudes)


def test_batch_with_halvings_and_uneven_iteration_counts():
    # Rough columns of growing size take more iterations and step halvings:
    # each still follows its own iterates, and a column that does not
    # converge fails the batch with its own message.
    grid = Grid1D(64)
    gen = np.random.default_rng(4)
    b = np.asfortranarray(gen.standard_normal((64, 5)) * np.array([0.01, 0.3, 1.0, 3.0, 10.0]))
    porous_medium = SlowOperatorSpec("porous_medium", p=3.0)
    p_laplace = SlowOperatorSpec("p_laplace", p=4.0)
    for spec in [porous_medium, p_laplace]:
        counts = assert_batch_solves_like_its_columns(spec, grid, b, 1 / 8, 1e-10)
        iterations, halvings = zip(*counts)
        assert len(set(iterations)) > 2 and max(halvings) > 0 and min(halvings) == 0
    # Column 3 meets a NaN at once, column 1 is too large to converge in
    # NEWTON_MAX_ITER iterations and names the batch; with an unreachable
    # tolerance every column fails and column 0 names it.
    failing = b.copy(order="F")
    failing[:, 1] *= 1e30
    failing[5, 3] = np.nan
    assert_batch_solves_like_its_columns(p_laplace, grid, failing, 1 / 8, 1e-10)
    assert_batch_solves_like_its_columns(porous_medium, grid, b, 1 / 8, 1e-320)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["porous_medium", "p_laplace"]),
    p=st.floats(2.0, 5.0),
    n=st.sampled_from([1, 2, 5, 64]),
    columns=st.integers(1, 16),
    dt=st.sampled_from([1 / 512, 1 / 64, 1 / 8, 1 / 2]),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_newton_equals_the_per_column_solve(kind, p, n, columns, dt, seed):
    # Columns of very different size and roughness converge after different
    # iteration counts, some with step halvings; the batched solve gives
    # each the bytes of its own solve, or the error of the lowest failing one.
    gen = np.random.default_rng(seed)
    amplitudes = 10.0 ** gen.uniform(-3, 1.3, columns)
    b = rough_columns(gen, n, amplitudes)
    assert_batch_solves_like_its_columns(SlowOperatorSpec(kind, p=p), Grid1D(n), b, dt, 1e-10)


def uneven_batch():
    """Five columns of growing size, (64, 5): their solves at dt = 1/8 take
    7 to 18 (porous medium, p = 3) and 14 to 35 (p-Laplace, p = 4) iterations."""
    gen = np.random.default_rng(4)
    return np.asfortranarray(gen.standard_normal((64, 5)) * np.array([0.01, 0.3, 1.0, 3.0, 10.0]))


UNEVEN_SPECS = [SlowOperatorSpec("porous_medium", p=3.0), SlowOperatorSpec("p_laplace", p=4.0)]


@pytest.mark.parametrize("spec", UNEVEN_SPECS, ids=lambda s: s.kind)
def test_converged_columns_ride_along_without_copies(spec, monkeypatch):
    # A column that converges is written once and stays in the batch,
    # unread, until every column has: a batch without failures copies no
    # columns out, every direction solves all five, and each column keeps
    # the bytes of its own solve.
    import spavg.integrators as integrators

    copies = []
    widths = []
    columns, direction = integrators._columns, integrators._newton_direction

    def counted_columns(*args):
        copies.append(args)
        return columns(*args)

    def recorded_direction(*args):
        widths.append(args[2].shape[1])
        return direction(*args)

    monkeypatch.setattr(integrators, "_columns", counted_columns)
    monkeypatch.setattr(integrators, "_newton_direction", recorded_direction)
    counts = assert_batch_solves_like_its_columns(spec, Grid1D(64), uneven_batch(), 1 / 8, 1e-10)
    iterations = [count[0] for count in counts]
    assert len(set(iterations)) == 5
    assert copies == [] and widths == [5] * max(iterations)


@pytest.mark.parametrize("fault", ["singular", "non_finite"])
@pytest.mark.parametrize("spec", UNEVEN_SPECS, ids=lambda s: s.kind)
def test_a_fault_after_a_column_is_written_fails_nothing(spec, fault, monkeypatch):
    # Column 0 converges first. At the next direction its Jacobian is
    # flagged singular, or its direction is NaN, which its later iterates
    # and Jacobians then carry into every batched solve. It is already in
    # the solution: the solve raises nothing, column 0 keeps the bytes of
    # its own solve, and so do the columns still open.
    import spavg.integrators as integrators

    grid = Grid1D(64)
    b = uneven_batch()
    written_at = reference_newton(spec, grid, b[:, 0].copy(), 1 / 8, 1e-10)[1]
    original = integrators._newton_direction
    column_0_finite = []

    def fault_column_0(*args):
        direction, singular = original(*args)
        if len(column_0_finite) == written_at:
            if fault == "singular":
                singular = np.array([True, False, False, False, False])
            else:
                direction[:, 0] = np.nan
        column_0_finite.append(bool(np.isfinite(args[2][:, 0]).all()))
        return direction, singular

    monkeypatch.setattr(integrators, "_newton_direction", fault_column_0)
    counts = assert_batch_solves_like_its_columns(spec, grid, b, 1 / 8, 1e-10)
    assert len(counts) == 5 and len(column_0_finite) == max(count[0] for count in counts)
    later = column_0_finite[written_at + 1 :]
    assert later and later == [fault == "singular"] * len(later)
