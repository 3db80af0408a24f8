"""Structural condition checks: valid catalogs pass, engineered specs fail."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spavg.conditions import CONDITION_IDS, ConditionReport, check_condition, sample_field
from spavg.grid import Grid1D, smallest_eigenvalue
from spavg.operators import FAST_KINDS, SLOW_KINDS, FastOperatorSpec, SlowOperatorSpec
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


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_uncomputable_margins_are_violations():
    # |grad v|^2000 overflows on these fields, so the pairings, energies and
    # the fitted growth constant come out inf or NaN: the checks must fail.
    slow = SlowOperatorSpec("p_laplace", p=2000.0)
    for condition in ("A2_local_monotone", "A3_coercive", "A4_growth"):
        report = check_condition(condition, slow, FAST_SPECS[0], Grid1D(32), 10, RngStream(0, 0))
        assert report.violations > 0, condition
        assert math.isnan(report.worst_margin), condition


@pytest.mark.filterwarnings(
    "ignore:overflow:RuntimeWarning",
    "ignore:invalid:RuntimeWarning",
    "ignore:divide by zero:RuntimeWarning",
)
@settings(max_examples=30, deadline=None)
@given(
    slow_kind=st.sampled_from(SLOW_KINDS),
    p=st.floats(2.0, 2500.0),
    fast_kind=st.sampled_from(FAST_KINDS),
    b=st.floats(0.0, 60.0),
    samples=st.integers(2, 8),
)
def test_violations_iff_worst_margin_not_positive(slow_kind, p, fast_kind, b, samples):
    slow = SlowOperatorSpec(slow_kind, p=p)
    fast = FastOperatorSpec(fast_kind, b=b if fast_kind == "smooth_bounded" else 0.0)
    for i, condition in enumerate(CONDITION_IDS):
        report = check_condition(condition, slow, fast, GRID, samples, RngStream(5, i))
        assert (report.violations > 0) == (not report.worst_margin > 0.0), condition


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_a3_without_positive_energy_reports_unbounded_theta():
    # With p = 2500 both fields of this seed underflow ||v||_p^p to 0, so no
    # sample bounds theta; the check still runs and reports it as inf.
    slow = SlowOperatorSpec("porous_medium", p=2500.0)
    report = check_condition("A3_coercive", slow, FAST_SPECS[0], GRID, 2, RngStream(198, 0))
    assert report.fitted_constants["theta"] == math.inf
    assert report.violations == 0
