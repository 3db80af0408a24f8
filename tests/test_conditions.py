"""Structural condition checks: valid catalogs pass, engineered specs fail."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spavg.conditions import CONDITION_IDS, ConditionReport, _fields, check_condition, sample_field
from spavg.grid import (
    H1_0,
    H_MINUS1,
    L2,
    Grid1D,
    lp_norm_kind,
    norm_values,
    sine_basis,
    smallest_eigenvalue,
    solve_neg_laplacian,
)
from spavg.operators import (
    FAST_KINDS,
    SLOW_KINDS,
    FastOperatorSpec,
    SlowOperatorSpec,
    face_gradients,
    fast_drift,
    slow_drift,
)
from spavg.randomness import RngStream

GRID = Grid1D(16)

SLOW_SPECS = [
    SlowOperatorSpec("porous_medium", p=3.0, c=1.0),
    SlowOperatorSpec("p_laplace", p=4.0),
    SlowOperatorSpec("burgers", viscosity=1.0),
]
FAST_SPECS = [
    FastOperatorSpec("linear", c_b=1.0),
    FastOperatorSpec("smooth_bounded", c_b=1.0, b=1.0),
]


def test_report_validation():
    with pytest.raises(ValueError):
        ConditionReport("A3_coercive", 10, 11, 0.0, {})


def test_check_condition_rejects_unknown_inputs():
    with pytest.raises(ValueError):
        check_condition("A1_hemicontinuity", SLOW_SPECS[0], FAST_SPECS[0], GRID, 10, RngStream(0, 0))
    with pytest.raises(ValueError):
        check_condition("A3_coercive", SLOW_SPECS[0], FAST_SPECS[0], GRID, 1, RngStream(0, 0))


def test_sample_field_scales_with_amplitude():
    gen = np.random.default_rng(4)
    small = sample_field(GRID, np.random.default_rng(4), 0.1)
    large = sample_field(GRID, np.random.default_rng(4), 10.0)
    np.testing.assert_allclose(large, 100.0 * small, rtol=1e-12)
    assert sample_field(GRID, gen, 1.0).shape == (16,)


def test_sample_field_is_the_first_sample_of_a_batched_draw():
    # The batch draws its normals sample-major: sample 0 of both fields,
    # then sample 1, as successive sample_field calls draw them.
    u, v = _fields(GRID, np.random.default_rng(4), np.array([10.0, 0.1]), 2)
    gen = np.random.default_rng(4)
    lone = [sample_field(GRID, gen, amplitude) for amplitude in (10.0, 10.0, 0.1)]
    assert lone[0].tobytes() == u[:, 0].tobytes()
    assert lone[1].tobytes() == v[:, 0].tobytes()
    assert lone[2].tobytes() == u[:, 1].tobytes()


def reference_terms(condition, slow, fast, grid, samples, gen):
    """The per-sample lhs, base and slack of a check, one field at a time.

    Returns them with the known C (None when it is fitted) and the constants
    a report carries besides a fitted "C" and B2's "gamma_hat".
    """
    h = grid.h
    amplitude = [0.1, 1.0, 10.0]
    theta = {"porous_medium": slow.c, "p_laplace": 1.0, "burgers": slow.viscosity}[slow.kind]

    def pairing(a, v):
        if slow.kind == "porous_medium":
            v = solve_neg_laplacian(grid, v)
        return h * float(np.dot(a, v))

    def energy(v):
        if slow.kind == "porous_medium":
            return norm_values(grid, v, lp_norm_kind(slow.p)) ** slow.p
        if slow.kind == "p_laplace":
            return h * float(np.sum(np.abs(face_gradients(grid, v)) ** slow.p))
        return norm_values(grid, v, H1_0) ** 2

    def draw(i, count):
        return [sample_field(grid, gen, amplitude[i % 3]) for _ in range(count)]

    terms = []
    if condition == "B2_dissipative":
        probes, zero = min(8, grid.n_interior, samples - 1), np.zeros(grid.n_interior)
        pairs = [
            (sample_field(grid, gen, 1.0), 1e-4 * sine_basis(grid, k)[:, k - 1], zero)
            for k in range(1, probes + 1)
        ]
        pairs += [draw(i, 3) for i in range(probes, samples)]
        for x, u, v in pairs:
            d = u - v
            gap = fast_drift(fast, grid, x, u) - fast_drift(fast, grid, x, v)
            terms.append((2.0 * h * float(np.dot(gap, d)) / (h * float(np.dot(d, d))), 0.0, 0.0))
        return terms, 0.0, {}
    for i in range(samples):
        if condition == "A2_local_monotone":
            u, v = draw(i, 2)
            pa, pb = (pairing(slow_drift(slow, grid, z), u - v) for z in (u, v))
            w_sq = norm_values(grid, u - v, L2) ** 2
            base = (1.0 + norm_values(grid, v, lp_norm_kind(4.0)) ** 4) * w_sq
            terms.append((2.0 * (pa - pb), base, 1e-7 * (1.0 + abs(pa) + abs(pb))))
        elif condition == "A3_coercive":
            (v,) = draw(i, 1)
            lhs, e = pairing(slow_drift(slow, grid, v), v), energy(v)
            slack = 1e-7 * (1.0 + abs(lhs) + theta * e)
            terms.append((lhs, e if e > 0.0 else math.nan, slack))
        elif condition == "A4_growth":
            (v,) = draw(i, 1)
            if slow.kind == "porous_medium":
                psi = slow.c * v * np.abs(v) ** (slow.p - 2.0)
                lhs = h * float(np.sum(np.abs(psi) ** (slow.p / (slow.p - 1.0))))
            elif slow.kind == "p_laplace":
                lhs = energy(v)
            else:
                lhs = norm_values(grid, slow_drift(slow, grid, v), H_MINUS1) ** 2
            state_sq = norm_values(grid, v, slow.state_norm) ** 2
            terms.append((lhs, (1.0 + energy(v)) * (1.0 + state_sq), 1e-7 * (1.0 + lhs)))
        else:
            x, v = draw(i, 2)
            drift = fast_drift(fast, grid, x, v)
            if condition == "B3_coercive":
                lhs = h * float(np.dot(drift, v)) + norm_values(grid, v, H1_0) ** 2
                base = 1.0 + norm_values(grid, x, L2) ** 2 + norm_values(grid, v, L2) ** 2
                terms.append((lhs, base, 1e-7 * (1.0 + abs(lhs))))
            else:
                lhs = norm_values(grid, drift, H_MINUS1)
                base = 1.0 + norm_values(grid, v, H1_0) + norm_values(grid, x, L2)
                terms.append((lhs, base, 1e-7 * (1.0 + lhs)))
    if condition == "A2_local_monotone" and slow.kind != "burgers":
        return [(lhs, 0.0, slack) for lhs, _, slack in terms], 0.0, {"rho": 0.0}
    if condition == "A3_coercive":
        theta_fit = min((-lhs / e for lhs, e, _ in terms if e > 0.0), default=math.inf)
        return terms, -theta, {"theta": theta_fit, "alpha": slow.alpha}
    return terms, None, {"eta": 1.0} if condition == "B3_coercive" else {}


# b = 9 lies above lambda_1 = 8 of the one-node grid, where B2 then fails
# on some of its random samples and not on others.
ENGINEERED_FAST = FastOperatorSpec("smooth_bounded", c_b=1.0, b=9.0)


@pytest.mark.parametrize("n", [1, 16])
@pytest.mark.parametrize(
    "condition, slow, fast",
    [(c, s, FAST_SPECS[0]) for c in CONDITION_IDS[:3] for s in SLOW_SPECS]
    + [(c, SLOW_SPECS[2], f) for c in CONDITION_IDS[3:] for f in FAST_SPECS]
    + [("B2_dissipative", SLOW_SPECS[2], ENGINEERED_FAST)],
    ids=lambda x: (
        x if isinstance(x, str) else x.kind + (f"_b{x.b:g}" if getattr(x, "b", 0) else "")
    ),
)
def test_batched_checks_match_a_per_sample_loop(condition, slow, fast, n):
    grid, samples = Grid1D(n), 20
    report = check_condition(condition, slow, fast, grid, samples, RngStream(2026, 4))
    terms, known_c, constants = reference_terms(
        condition, slow, fast, grid, samples, RngStream(2026, 4).generator()
    )
    if known_c is None:
        c = max([0.0] + [lhs / base for lhs, base, _ in terms if base > 0.0])
        constants = {**constants, "C": c}
    else:
        c = known_c
    margins = [c * base + slack - lhs for lhs, base, slack in terms]
    if condition == "B2_dissipative":
        constants = {"gamma_hat": min(margins)}
    assert report.samples == len(terms) == samples
    assert report.violations == sum(not m > 0.0 for m in margins)
    assert list(report.fitted_constants) == list(constants)
    for key, value in constants.items():
        assert report.fitted_constants[key] == pytest.approx(value, rel=1e-12, abs=0.0), key
    # A3's margin is C * base + slack - lhs with lhs close to C * base: a
    # slack-sized difference of two much larger terms, so a last-digit change
    # in either (numpy's array power against Python's float pow) moves it far
    # more, relatively, than it moves them: 6.5e-12 on a porous-medium margin
    # at 16 nodes and 2 samples.
    assert report.worst_margin == pytest.approx(min(margins), rel=1e-9, abs=0.0)


@pytest.mark.parametrize("slow", SLOW_SPECS, ids=lambda s: s.kind)
@pytest.mark.parametrize("condition", ["A2_local_monotone", "A3_coercive", "A4_growth"])
def test_slow_conditions_hold_on_catalog(slow, condition):
    report = check_condition(
        condition, slow, FAST_SPECS[0], GRID, 150, RngStream(2026, 1)
    )
    assert report.samples == 150
    assert report.violations == 0
    assert report.worst_margin > 0.0


@pytest.mark.parametrize("fast", FAST_SPECS, ids=lambda s: s.kind)
@pytest.mark.parametrize("condition", ["B2_dissipative", "B3_coercive", "B4_growth"])
def test_fast_conditions_hold_on_catalog(fast, condition):
    report = check_condition(
        condition, SLOW_SPECS[2], fast, GRID, 150, RngStream(2026, 2)
    )
    assert report.violations == 0
    assert report.worst_margin > 0.0


def test_b2_fitted_rate_matches_spectral_gap():
    lam = smallest_eigenvalue(GRID)
    report = check_condition(
        "B2_dissipative", SLOW_SPECS[2], FAST_SPECS[0], GRID, 200, RngStream(7, 0)
    )
    # The linear fast drift contracts every direction at >= 2 lambda_1 and
    # the mode-1 probe attains it, so the fit pins the spectral gap.
    assert report.fitted_constants["gamma_hat"] == pytest.approx(2.0 * lam, rel=0.05)


def test_b2_detects_engineered_violation():
    lam = smallest_eigenvalue(GRID)
    bad = FastOperatorSpec("smooth_bounded", c_b=1.0, b=lam + 1.0)
    report = check_condition(
        "B2_dissipative", SLOW_SPECS[2], bad, GRID, 100, RngStream(7, 1)
    )
    assert report.violations >= 1
    assert report.worst_margin <= 0.0


def test_a3_reports_known_theta():
    # For the porous medium drift the coercivity constant is exactly c.
    slow = SlowOperatorSpec("porous_medium", p=3.0, c=2.0)
    report = check_condition(
        "A3_coercive", slow, FAST_SPECS[0], GRID, 80, RngStream(9, 0)
    )
    assert report.violations == 0
    assert "theta" in report.fitted_constants
    assert report.fitted_constants["theta"] >= 0.0


def test_constants_are_reported_for_fitted_conditions():
    for condition in ("A4_growth", "B3_coercive", "B4_growth"):
        report = check_condition(
            condition, SLOW_SPECS[1], FAST_SPECS[1], GRID, 60, RngStream(10, 0)
        )
        assert "C" in report.fitted_constants
        assert report.fitted_constants["C"] >= 0.0


def test_reports_are_reproducible():
    a = check_condition(
        "A2_local_monotone", SLOW_SPECS[2], FAST_SPECS[0], GRID, 50, RngStream(3, 3)
    )
    b = check_condition(
        "A2_local_monotone", SLOW_SPECS[2], FAST_SPECS[0], GRID, 50, RngStream(3, 3)
    )
    assert a == b


def test_uncomputable_margins_are_violations():
    # |grad v|^2000 overflows on these fields, so the pairings, energies and
    # the fitted growth constant come out inf or NaN: the checks must fail.
    slow = SlowOperatorSpec("p_laplace", p=2000.0)
    for condition in ("A2_local_monotone", "A3_coercive", "A4_growth"):
        report = check_condition(condition, slow, FAST_SPECS[0], Grid1D(32), 10, RngStream(0, 0))
        assert report.violations > 0, condition
        assert math.isnan(report.worst_margin), condition


@settings(max_examples=30, deadline=None)
@given(
    slow_kind=st.sampled_from(SLOW_KINDS),
    p=st.floats(2.0, 2500.0),
    fast_kind=st.sampled_from(FAST_KINDS),
    b=st.floats(0.0, 60.0),
    samples=st.integers(2, 8),
    n=st.sampled_from([1, 2, 16]),
)
def test_violations_iff_worst_margin_not_positive(slow_kind, p, fast_kind, b, samples, n):
    slow = SlowOperatorSpec(slow_kind, p=p)
    fast = FastOperatorSpec(fast_kind, b=b if fast_kind == "smooth_bounded" else 0.0)
    for i, condition in enumerate(CONDITION_IDS):
        report = check_condition(condition, slow, fast, Grid1D(n), samples, RngStream(5, i))
        assert (report.violations > 0) == (not report.worst_margin > 0.0), condition


def test_a3_without_positive_energy_reports_unbounded_theta():
    # With p = 2500 both fields of this seed underflow ||v||_p^p to 0, so no
    # sample bounds theta: the check reports it as inf, and each sample it
    # could not test is a violation.
    slow = SlowOperatorSpec("porous_medium", p=2500.0)
    report = check_condition("A3_coercive", slow, FAST_SPECS[0], GRID, 2, RngStream(198, 0))
    assert report.fitted_constants["theta"] == math.inf
    assert report.violations == 2
