import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from accsens.boundary_solver import (
    _ml_boundaries_many,
    DEFAULT_GRID,
    RESIDUAL_RTOL,
    RootMethod,
    default_search_interval,
    gaussian_quadratic_coefficients,
    log_ratio_gap,
    ml_boundaries,
    ml_boundaries_gaussian,
    ml_boundaries_generic,
    optimal_linear_boundary,
)
from accsens.classifier import GeneralSpec, Orientation, accuracy, region_accuracy
from accsens.densities import DensityModel, HypothesisPair
from accsens.errors import EmptyIntervalError, InvalidParameterError, NoRootError
from conftest import random_gaussian_pair


class TestGaussianQuadratic:
    def test_reference_roots_unit_eta(self, table1_pair):
        report = ml_boundaries_gaussian(table1_pair, 1.0)
        assert report.method is RootMethod.GAUSSIAN_QUADRATIC
        assert report.orientation is Orientation.H0_FIRST
        np.testing.assert_allclose(report.roots, (3.65, 18.78), atol=0.01)

    def test_reference_roots_detuned_eta(self, table1_pair):
        report = ml_boundaries_gaussian(table1_pair, 0.4603)
        np.testing.assert_allclose(report.roots, (1.83, 20.60), atol=0.01)

    def test_equal_variance_midpoint(self):
        pair = HypothesisPair(DensityModel.gaussian(-1, 2), DensityModel.gaussian(1, 2), 0.5)
        report = ml_boundaries_gaussian(pair, 1.0)
        assert report.roots == (0.0,)
        assert report.orientation is Orientation.H0_FIRST

    def test_huge_eta_single_region(self, table1_pair):
        report = ml_boundaries_gaussian(table1_pair, 1e9)
        assert report.roots == ()
        assert report.orientation is Orientation.H0_FIRST

    def test_tiny_eta_keeps_two_roots(self, table1_pair):
        # with sigma0 > sigma1 the wide density wins both tails at any eta
        report = ml_boundaries_gaussian(table1_pair, 1e-9)
        assert len(report.roots) == 2

    def test_near_tangency_cases(self, table1_pair):
        # at the critical threshold the two boundaries coalesce; just above it
        # they vanish and the all-H0 region carries (almost) the same accuracy
        a, b, c0 = gaussian_quadratic_coefficients(table1_pair, 1.0)
        eta_crit = math.exp(c0 - b * b / (4 * a))
        below = ml_boundaries_gaussian(table1_pair, eta_crit * (1 - 1e-8))
        above = ml_boundaries_gaussian(table1_pair, eta_crit * (1 + 1e-8))
        assert len(below.roots) == 2 and above.roots == ()
        acc_below = region_accuracy(table1_pair, below.roots, below.orientation)
        assert acc_below == pytest.approx(table1_pair.p0, abs=1e-4)

    def test_identical_models_no_root(self):
        pair = HypothesisPair(DensityModel.gaussian(1, 2), DensityModel.gaussian(1, 2), 0.5)
        assert ml_boundaries_gaussian(pair, 1.0).roots == ()

    def test_residual_invariant(self, table1_pair):
        for eta in (1.0, 0.4603, 0.01, 7.0):
            report = ml_boundaries_gaussian(table1_pair, eta)
            for r, res in zip(report.roots, report.residuals):
                bound = RESIDUAL_RTOL * max(
                    table1_pair.p0 * table1_pair.h0.pdf(r),
                    table1_pair.p1 * table1_pair.h1.pdf(r),
                    1e-300,
                )
                assert res <= bound

    def test_requires_gaussians(self, exp_pair):
        with pytest.raises(InvalidParameterError):
            ml_boundaries_gaussian(exp_pair, 1.0)
        with pytest.raises(InvalidParameterError):
            ml_boundaries_gaussian(exp_pair, -1.0)


class TestGridBisection:
    def test_agrees_with_closed_form(self, table1_pair):
        generic = ml_boundaries_generic(table1_pair, 1.0)
        closed = ml_boundaries_gaussian(table1_pair, 1.0)
        np.testing.assert_allclose(generic.roots, closed.roots, atol=1e-9)
        assert generic.orientation == closed.orientation
        assert generic.warnings == ()

    def test_agreement_on_random_pairs(self):
        rng = np.random.default_rng(13)
        checked = 0
        for _ in range(200):
            pair = random_gaussian_pair(rng)
            eta = float(np.exp(rng.uniform(-2, 2)))
            closed = ml_boundaries_gaussian(pair, eta)
            generic = ml_boundaries_generic(pair, eta)
            # the default window spans 8 scale units; discard closed-form
            # roots outside it (the grid cannot see them by contract)
            lo, hi = default_search_interval(pair)
            inside = [r for r in closed.roots if lo < r < hi]
            assert len(generic.roots) == len(inside)
            np.testing.assert_allclose(generic.roots, inside, atol=1e-9)
            checked += 1
        assert checked == 200

    def test_exponential_pair(self, exp_pair):
        report = ml_boundaries_generic(exp_pair, 1.0)
        assert len(report.roots) == 1
        assert report.roots[0] == pytest.approx(math.log(2.0), abs=1e-10)
        # the steeper density dominates left of the root
        assert report.orientation is Orientation.H1_FIRST

    def test_sign_constant_between_roots(self, table1_pair):
        report = ml_boundaries_generic(table1_pair, 1.0)
        edges = (-72.0,) + report.roots + (41.0,)
        for lo, hi in zip(edges[:-1], edges[1:]):
            samples = np.linspace(lo, hi, 18)[1:-1]  # 16 interior points
            signs = np.sign(log_ratio_gap(table1_pair, 1.0, samples))
            assert len(set(signs.tolist())) == 1

    def test_empty_interval_rejected(self, table1_pair):
        with pytest.raises(EmptyIntervalError):
            ml_boundaries_generic(table1_pair, 1.0, interval=(3.0, 3.0))

    def test_dispatch(self, table1_pair, exp_pair):
        assert ml_boundaries(table1_pair, 1.0).method is RootMethod.GAUSSIAN_QUADRATIC
        assert ml_boundaries(exp_pair, 1.0).method is RootMethod.GRID_BISECTION


@st.composite
def exponential_pairs(draw):
    rate0, rate1 = draw(st.floats(0.2, 5.0)), draw(st.floats(0.2, 5.0))
    if draw(st.booleans()):  # nearly equal rates cross the ratio near the support edge
        rate1 = rate0 * draw(st.sampled_from([1.00001, 0.99999]))
    return HypothesisPair(
        DensityModel.exponential(rate0), DensityModel.exponential(rate1), draw(st.floats(0.05, 0.95))
    )


#: Thresholds from far below to far above every crossing of the ratio.
eta_grids = st.lists(st.floats(-20.0, 20.0).map(math.exp), min_size=2, max_size=12)


class TestManyThresholds:
    @settings(max_examples=60, deadline=None)
    @given(exponential_pairs(), eta_grids)
    def test_matches_one_solve_per_threshold(self, pair, etas):
        # repr spells out every float, so equal text is equal bits
        assert repr(_ml_boundaries_many(pair, etas)) == repr(
            tuple(ml_boundaries(pair, eta) for eta in etas)
        )

    def test_parity_warning_is_kept(self):
        # the ratio root of this pair sits exactly on the support edge at
        # eta = 1 + 1e-5, a grid point; that solve warns about the parity
        pair = HypothesisPair(DensityModel.exponential(1.0), DensityModel.exponential(1.0 + 1e-5))
        many = _ml_boundaries_many(pair, [1.0, 1.0 + 1e-5])
        assert many[1].warnings and "parity" in many[1].warnings[0]
        assert many == (ml_boundaries(pair, 1.0), ml_boundaries(pair, 1.0 + 1e-5))

    @pytest.mark.parametrize("p0", [0.0, 1.0])
    def test_single_hypothesis_priors(self, p0):
        pair = HypothesisPair(DensityModel.exponential(1.0), DensityModel.exponential(2.0), p0)
        assert _ml_boundaries_many(pair, [0.5, 2.0]) == tuple(ml_boundaries(pair, e) for e in (0.5, 2.0))

    def test_gaussian_pairs_use_the_closed_form(self, table1_pair):
        many = _ml_boundaries_many(table1_pair, [0.5, 1.0, 1e9])
        assert many == tuple(ml_boundaries_gaussian(table1_pair, e) for e in (0.5, 1.0, 1e9))

    def test_invalid_threshold_rejected(self, exp_pair):
        with pytest.raises(InvalidParameterError):
            _ml_boundaries_many(exp_pair, [1.0, 0.0])


@st.composite
def separated_two_root_gaussian_pairs(draw):
    """Two-root Gaussian pairs whose roots lie inside the search interval,
    at least 4 grid cells apart."""
    mu0, mu1 = draw(st.floats(-5.0, 5.0)), draw(st.floats(-5.0, 5.0))
    s0, s1 = draw(st.floats(0.5, 6.0)), draw(st.floats(0.5, 6.0))
    assume(abs(s0 - s1) >= 0.2)
    pair = HypothesisPair(
        DensityModel.gaussian(mu0, s0), DensityModel.gaussian(mu1, s1), draw(st.floats(0.3, 0.7))
    )
    roots = ml_boundaries_gaussian(pair, 1.0).roots
    lo, hi = default_search_interval(pair)
    cell = (hi - lo) / (DEFAULT_GRID - 1)
    assume(len(roots) == 2 and lo < roots[0] and roots[1] < hi and roots[1] - roots[0] >= 4 * cell)
    return pair


class TestClosedFormAgreesWithGrid:
    @settings(max_examples=50, deadline=None)
    @given(separated_two_root_gaussian_pairs())
    def test_roots_and_orientation(self, pair):
        closed = ml_boundaries_gaussian(pair, 1.0)
        grid = ml_boundaries_generic(pair, 1.0)
        assert len(grid.roots) == len(closed.roots)
        assert grid.orientation is closed.orientation
        for r_grid, r in zip(grid.roots, closed.roots):
            assert abs(r_grid - r) <= 1e-10 * max(1.0, abs(r))


class TestOptimalLinear:
    def test_reference_pair(self, table1_pair):
        best = optimal_linear_boundary(table1_pair)
        assert best.y == pytest.approx(3.6534, abs=1e-3)
        assert best.orientation is Orientation.H0_FIRST
        assert best.accuracy == pytest.approx(0.78347, abs=1e-4)

    def test_equal_variance_midpoint(self):
        pair = HypothesisPair(DensityModel.gaussian(-3, 2), DensityModel.gaussian(5, 2), 0.5)
        best = optimal_linear_boundary(pair)
        assert best.y == pytest.approx(1.0, abs=1e-12)

    def test_exponential_swapped_orientation(self, exp_pair):
        best = optimal_linear_boundary(exp_pair)
        assert best.y == pytest.approx(math.log(2.0), abs=1e-9)
        assert best.orientation is Orientation.H1_FIRST
        assert best.accuracy == pytest.approx(0.625, abs=1e-12)

    def test_ml_bounds_every_single_root_classifier(self, table1_pair):
        report = ml_boundaries(table1_pair, 1.0)
        full = accuracy(GeneralSpec(report.boundary_set()), table1_pair)
        for r in report.roots:
            for orient in Orientation:
                assert region_accuracy(table1_pair, (r,), orient) <= full + 1e-12

    def test_no_root_error(self):
        pair = HypothesisPair(DensityModel.gaussian(1, 2), DensityModel.gaussian(1, 2), 0.5)
        with pytest.raises(NoRootError):
            optimal_linear_boundary(pair)


class TestSearchInterval:
    def test_spans_both_models(self, table1_pair):
        lo, hi = default_search_interval(table1_pair)
        assert lo == pytest.approx(-72.0) and hi == pytest.approx(72.0)

    def test_clipped_to_support(self, exp_pair):
        lo, hi = default_search_interval(exp_pair)
        assert lo == 0.0
        assert hi == pytest.approx(9.0)
