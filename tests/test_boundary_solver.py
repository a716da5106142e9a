import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

import accsens.boundary_solver as boundary_solver
from accsens.boundary_solver import (
    _gaussian_pair_roots,
    _ml_boundaries_many,
    _ml_solve_many,
    DEFAULT_GRID,
    GRID_ROOT_TOL,
    RESIDUAL_RTOL,
    LikelihoodRootReport,
    RootMethod,
    default_search_interval,
    log_ratio_gap,
    ml_boundaries,
    ml_boundaries_gaussian,
    ml_boundaries_generic,
    optimal_linear_boundary,
)
from accsens._roots import NEWTON_STEPS, _newton
from accsens.classifier import GeneralSpec, LinearSpec, MLSpec, Orientation, accuracy, region_accuracy
from accsens.densities import CustomDensity, DensityModel, HypothesisPair
from accsens.errors import EmptyIntervalError, InvalidParameterError, NoRootError
from accsens.theory_checks import run_all_checks
from accsens.tradeoff import default_zeta_grid, general_curve, ml_curve
from conftest import (
    LAPLACE,
    LOGISTIC,
    custom_exponential_pair,
    random_gaussian_pair,
    touching_pair,
    undefined_pair,
)


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
        # they vanish and the all-H0 region carries (almost) the same accuracy.
        # In the shape coordinates of _gaussian_roots the discriminant
        # d^2 / r^2 - 4 a level is 0 there, with level = log(1 / r) +
        # log(p1 / (eta p0))
        (mu0, sig0), (mu1, sig1) = table1_pair.h0.params, table1_pair.h1.params
        d, r = (mu1 - mu0) / sig0, sig1 / sig0
        a = (r - 1.0) * (r + 1.0) / (2.0 * r * r)
        level = d * d / (r * r) / (4.0 * a)
        eta_crit = math.exp(math.log(1.0 / r) + math.log(table1_pair.p1 / table1_pair.p0) - level)
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

    def test_widths_a_billionth_apart_keep_both_roots(self):
        # the quadratic term is tiny but not zero: its far root lies at about
        # -2e9, and both roots meet the residual bound
        pair = HypothesisPair(DensityModel.gaussian(0.0, 1.0), DensityModel.gaussian(1.0, 1.0000000005), 0.5)
        report = ml_boundaries(pair, 1.0)
        assert report.roots == pytest.approx((-1999999834.5192716, 0.500000000375), rel=1e-15)
        assert report.orientation is Orientation.H1_FIRST
        region = region_accuracy(pair, report.roots, report.orientation)
        assert accuracy(MLSpec(1.0), pair) == region

    @pytest.mark.parametrize("width", [1e-6, 1e-12])
    def test_narrow_second_width_is_solved(self, width):
        # the two roots lie about width * sqrt(2 log(1 / width)) around the
        # narrow mean, and the ratio classifier picks out that interval (a
        # b^2 - 4ac discriminant found no root at width 1e-12)
        pair = HypothesisPair(DensityModel.gaussian(0.0, 1.0), DensityModel.gaussian(0.5, width), 0.5)
        lo, hi, h0_first = _gaussian_pair_roots(0.0, 1.0, 0.5, width, 0.0)
        assert bool(h0_first) and float(lo) < 0.5 < float(hi)
        half = width * math.sqrt(2.0 * math.log(1.0 / width))
        assert (float(hi) - float(lo)) / 2.0 == pytest.approx(half, rel=0.01)
        assert region_accuracy(pair, (float(lo), float(hi)), Orientation.H0_FIRST) > 0.99


def _reference(mu0, s0, mu1, s1, log_k):
    """The roots (x, sorted), whether H0 wins left of the first root, the
    discriminant relative to the size of its terms, and the rounding each
    root may carry, from the exact float inputs in 60-digit arithmetic.

    The rounding is that of the shape d, r and the level log(1/r) + log_k
    (one ulp each, carried through the slope of the gap at the root), of the
    root itself and of the map back mu0 + s0 y, in units of the float
    epsilon."""
    with mpmath.workdps(60):
        mu0, s0, mu1, s1, log_k = map(mpmath.mpf, (mu0, s0, mu1, s1, log_k))
        d, r = (mu1 - mu0) / s0, s1 / s0
        level = log_k - mpmath.log(r)
        a, b, c = (r - 1) * (r + 1) / (2 * r * r), d / (r * r), level - d * d / (2 * r * r)
        disc = b * b - 4 * a * c
        # relative to the size of its terms d^2 / r^2, 4a log_k and 4a log(r),
        # where log(r) carries the ulp of r; identical models have none
        size = d * d / (r * r) + 4 * abs(a) * (abs(log_k) + abs(mpmath.log(r)) + 1)
        relative = disc / size if size else mpmath.inf
        if disc <= 0:
            return (), (a < 0 if a != 0 else c < 0), relative, ()
        if a == 0:
            ys, h0_first = [-c / b], b > 0
        else:
            ys, h0_first = sorted((-b + sgn * mpmath.sqrt(disc)) / (2 * a) for sgn in (-1, 1)), a < 0
        roots = []
        for y in ys:
            x = mu0 + s0 * y
            if abs(x) > sys.float_info.max:  # dropped; each one below flips
                h0_first = h0_first != (x < 0)
                continue
            slope = abs(2 * a * y + b)
            # the level moves by one ulp of log_k and of log(r), and by r's
            # ulp over r
            shape = (abs(d * (y - d)) + (y - d) ** 2) / (r * r) + abs(log_k) + abs(mpmath.log(r)) + 1
            roots.append((x, float(abs(mu0) + s0 * (abs(y) + shape / slope))))
        return tuple(x for x, _ in roots), bool(h0_first), relative, tuple(t for _, t in roots)


@st.composite
def gaussian_shapes(draw):
    """(mu0, s0, mu1, s1, log_k): width ratios log-uniform over [1e-6, 1e6],
    exactly 1 or within 1e-9 of 1, and close means far from the origin."""
    s0 = math.exp(draw(st.floats(-10.0, 10.0)))
    r = draw(
        st.floats(math.log(1e-6), math.log(1e6)).map(math.exp)
        | st.just(1.0)
        | st.floats(-1e-9, 1e-9).map(lambda t: 1.0 + t)
    )
    mu0 = draw(st.floats(-10.0, 10.0) | st.sampled_from([-1.0, 1.0]).map(lambda t: t * 1e8)) * s0
    mu1 = mu0 + draw(st.floats(-20.0, 20.0) | st.floats(-1e-3, 1e-3)) * s0
    return mu0, s0, mu1, r * s0, draw(st.floats(-5.0, 5.0) | st.just(0.0))


class TestClosedFormAgainstMpmath:
    @settings(max_examples=400, deadline=None)
    @given(gaussian_shapes())
    # equal widths 9e-310 apart: the root -level / d of the shape passes the
    # float range, mu0 + s0 y does not
    @example((0.0, 0.0820849986238988, 9.13225923068183e-310, 0.0820849986238988, 2.0))
    def test_roots_and_orientation(self, shape):
        roots, h0_first, relative_disc, slack = _reference(*shape)
        # near a tangential double root the root count turns on the last
        # bits of the discriminant
        assume(abs(relative_disc) > 1e-9)
        lo, hi, h0 = _gaussian_pair_roots(*shape)
        found = [float(y) for y in (lo, hi) if y != math.inf]
        assert len(found) == len(roots)
        assert bool(h0) == h0_first
        eps = np.finfo(float).eps
        for x, ref, tol in zip(found, roots, slack):
            assert abs(mpmath.mpf(x) - ref) <= 8 * eps * tol

    @pytest.mark.parametrize(
        "shape",
        [
            (0.0, 1.0, 1e300, 1.0, 0.0),
            (0.0, 1.0, 1e200, 1.0, 0.0),
            (0.0, 1e-10, 0.0, 1e300, 0.0),
            (0.0, 1.0, 1e200, 3.0, 0.5),
            (0.0, 1.0, 1.0, 1e200, 0.0),
            (0.0, 1.0, 0.0, 1e-200, 0.0),
            (0.0, 1e300, 0.0, 1e-10, 0.0),
        ],
    )
    def test_shapes_whose_squares_leave_the_float_range(self, shape):
        # |d| or r past 1e154 or below 1e-154 square out of the float range,
        # and a width ratio of 1e310 is past it itself
        roots, h0_first, _, slack = _reference(*shape)
        lo, hi, h0 = _gaussian_pair_roots(*shape)
        found = [float(y) for y in (lo, hi) if y != math.inf]
        assert len(found) == len(roots) > 0
        assert bool(h0) == h0_first
        for x, ref, tol in zip(found, roots, slack):
            assert abs(mpmath.mpf(x) - ref) <= 8 * np.finfo(float).eps * tol

    def test_narrow_width_roots_to_the_last_bits(self):
        # N(0, 1) against N(10, 1e-6): a discriminant formed as b^2 - 4ac
        # cancels about 13 digits here
        roots, _, _, _ = _reference(0.0, 1.0, 10.0, 1e-6, 0.0)
        lo, hi, _ = _gaussian_pair_roots(0.0, 1.0, 10.0, 1e-6, 0.0)
        for x, ref in zip((lo, hi), roots):
            assert abs(mpmath.mpf(float(x)) - ref) <= 2e-16 * abs(ref)


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

    @pytest.mark.parametrize("eta", [0.5, 1.0, 2.0])
    def test_identical_models_no_root(self, eta):
        # at eta = 1 the gap is 0 up to rounding noise, whose sign changes
        # are no roots
        pair = HypothesisPair(DensityModel.exponential(1.0), DensityModel.exponential(1.0), 0.5)
        report = ml_boundaries_generic(pair, eta)
        assert report.roots == () and report.warnings == ()
        assert report.orientation is (Orientation.H1_FIRST if eta < 1.0 else Orientation.H0_FIRST)

    def test_empty_interval_rejected(self, table1_pair):
        with pytest.raises(EmptyIntervalError):
            ml_boundaries_generic(table1_pair, 1.0, interval=(3.0, 3.0))

    def test_dispatch(self, table1_pair, exp_pair, custom_exp_pair):
        assert ml_boundaries(table1_pair, 1.0).method is RootMethod.GAUSSIAN_QUADRATIC
        assert ml_boundaries(exp_pair, 1.0).method is RootMethod.EXPONENTIAL_LINEAR
        assert ml_boundaries(custom_exp_pair, 1.0).method is RootMethod.GRID_BISECTION


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


@st.composite
def gaussian_pairs(draw):
    """Gaussian pairs whose widths differ, agree, or lie within 1e-9 of each
    other."""
    s0 = draw(st.floats(0.2, 6.0))
    s1 = draw(st.floats(0.2, 6.0) | st.just(s0) | st.floats(-1e-9, 1e-9).map(lambda t: s0 * (1.0 + t)))
    mu0, mu1 = draw(st.floats(-6.0, 6.0)), draw(st.floats(-6.0, 6.0))
    return HypothesisPair(DensityModel.gaussian(mu0, s0), DensityModel.gaussian(mu1, s1), draw(st.floats(0.05, 0.95)))


def _laplace_pdf(x, p):
    return 0.5 / p[1] * np.exp(-np.abs(x - p[0]) / p[1])


def _logistic_pdf(x, p):
    z = np.exp(-np.abs(x - p[0]) / p[1])
    return z / (p[1] * (1.0 + z) ** 2)


def _uniform_pdf(x, p):
    return np.where((x >= p[0]) & (x <= p[1]), 1.0 / (p[1] - p[0]), 0.0)


def _uniform_mean_scale(p):
    return 0.5 * (p[0] + p[1]), (p[1] - p[0]) / math.sqrt(12.0)


def _custom(name, pdf, mean_scale=lambda p: (p[0], p[1])):
    """A two-parameter custom family given by its pdf; only the root solver
    runs on it, so the cdf and sampler are placeholders."""
    return CustomDensity(
        name=name,
        param_names=("a", "b"),
        pdf=pdf,
        cdf=lambda x, p: np.zeros_like(x),
        sampler=lambda rng, n, p: np.zeros(n),
        mean_scale=mean_scale,
    )


def _brentq_reference(pair, eta, interval=None):
    """Roots and orientation of the ratio equation at one threshold: the
    grid's sign changes, where a NaN or an exact 0 carries no sign, each
    bracket solved by brentq.  An undefined gap (both densities vanish)
    counts as negative."""
    lo, hi = interval if interval is not None else default_search_interval(pair)
    xs = np.linspace(lo, hi, DEFAULT_GRID)
    gap = log_ratio_gap(pair, eta, xs)
    signed = ~np.isnan(gap) & (gap != 0.0)
    xs, signs = xs[signed], np.sign(gap[signed])
    brackets = np.nonzero(signs[:-1] != signs[1:])[0]
    def gap(t):
        value = log_ratio_gap(pair, eta, t)
        return -math.inf if math.isnan(value) else value

    with np.errstate(invalid="ignore"):
        roots = [brentq(gap, xs[i], xs[i + 1], xtol=1e-14) for i in brackets]
    first = signs[0] if signs.size else -1.0
    return roots, Orientation.H0_FIRST if first < 0 else Orientation.H1_FIRST


def _root_tolerance(pair, eta, r):
    """GRID_ROOT_TOL relative to the root, plus how far the rounding noise
    of the log gap (4 eps of its largest term) moves a crossing of its slope:
    where two rates nearly agree the crossing is flat, and any point of the
    noisy stretch is as good a root as another.  At a support edge the gap
    jumps, and the bisection width alone applies."""
    terms = [math.log(pair.p1), pair.h1.log_pdf(r), math.log(eta), math.log(pair.p0), pair.h0.log_pdf(r)]
    if not all(map(math.isfinite, terms)):
        return GRID_ROOT_TOL * max(1.0, abs(r))
    h = 1e-6 * max(1.0, abs(r))
    slope = abs(log_ratio_gap(pair, eta, r + h) - log_ratio_gap(pair, eta, r)) / h
    noise = 4.0 * np.finfo(float).eps * max(abs(t) for t in terms)
    return GRID_ROOT_TOL * max(1.0, abs(r)) + noise / slope


def _assert_matches_reference(report, pair, eta, interval=None):
    roots, orientation = _brentq_reference(pair, eta, interval)
    assert len(report.roots) == len(roots)
    assert report.orientation is orientation
    assert not report.warnings
    for r_solver, r in zip(report.roots, roots):
        assert abs(r_solver - r) <= _root_tolerance(pair, eta, r)


class TestManyThresholds:
    @settings(max_examples=60, deadline=None)
    @given(exponential_pairs(), eta_grids)
    def test_matches_brentq_per_bracket(self, pair, etas):
        assume(pair.h0 != pair.h1)  # identical models: test_identical_models_no_root
        for report, eta in zip(_ml_boundaries_many(pair, etas, grid=DEFAULT_GRID), etas):
            assert report.eta == eta
            _assert_matches_reference(report, pair, eta)

    def test_wide_interval_roots_below_the_float_spacing(self):
        # near the roots (about 5e5) floats lie about 1.2e-10 apart, wider
        # than GRID_ROOT_TOL: the bisection must stop after its fixed
        # count of halvings and still return residual-bounded roots
        pair = HypothesisPair(DensityModel.exponential(1e-6), DensityModel.exponential(3e-6))
        interval = (0.0, 9e6)
        assert default_search_interval(pair) == interval
        many = _ml_boundaries_many(pair, [0.5, 1.0, 2.0], grid=DEFAULT_GRID)
        for report, eta in zip(many, (0.5, 1.0, 2.0)):
            assert report.roots and report == ml_boundaries_generic(pair, eta, interval)
            for r, res in zip(report.roots, report.residuals):
                bound = RESIDUAL_RTOL * max(pair.p0 * pair.h0.pdf(r), pair.p1 * pair.h1.pdf(r))
                assert res <= bound
            _assert_matches_reference(report, pair, eta, interval)

    def test_custom_families_sharing_parameters(self):
        # Laplace(0, 1) and logistic(0, 1) are equal as parameter tuples but
        # cross at two points; they are no identical models
        pair = HypothesisPair(
            DensityModel.from_custom(_custom("laplace", _laplace_pdf), (0.0, 1.0)),
            DensityModel.from_custom(_custom("logistic", _logistic_pdf), (0.0, 1.0)),
        )
        # the density ratio runs from 1/2 at 0 up to 2 in both tails
        for report, eta in zip(_ml_boundaries_many(pair, [0.8, 1.0, 1.5]), (0.8, 1.0, 1.5)):
            assert len(report.roots) == 2 and report == ml_boundaries(pair, eta)
            _assert_matches_reference(report, pair, eta)

    def test_custom_families_compare_by_their_record(self):
        # the same parameters against N(0, 1) in two custom families: two
        # problems, unequal and with their own digests
        normal = DensityModel.gaussian(0.0, 1.0)
        laplace, logistic = (
            HypothesisPair(DensityModel.from_custom(_custom(name, pdf), (0.0, 1.0)), normal)
            for name, pdf in (("laplace", _laplace_pdf), ("logistic", _logistic_pdf))
        )
        assert laplace != logistic and laplace.h0 != logistic.h0
        assert laplace.digest() != logistic.digest()
        assert laplace.to_dict()["h0"]["name"] == "laplace"
        assert laplace == HypothesisPair(DensityModel.from_custom(laplace.h0.custom, (0.0, 1.0)), normal)

    @pytest.mark.parametrize(
        "supports, edge", [(((0.0, 1.0), (2.0, 3.0)), 2.0), (((2.0, 3.0), (0.0, 1.0)), 1.0)]
    )
    def test_disjoint_supports(self, supports, edge):
        # between the supports both densities vanish and the gap is NaN,
        # which counts as negative: the root lies at the edge of H1's support
        uniform = _custom("uniform", _uniform_pdf, _uniform_mean_scale)
        pair = HypothesisPair(*(DensityModel.from_custom(uniform, s) for s in supports))
        report = ml_boundaries(pair, 1.0)
        _assert_matches_reference(report, pair, 1.0)
        assert report.roots == (pytest.approx(edge, abs=1e-12),)

    def test_touch_is_no_root(self):
        # at threshold 1 the gap of this pair touches 0 at a grid point
        # between two crossings; the touch changes no sign and bounds no
        # region, so the roots are the two crossings, with no warning
        pair = touching_pair()
        assert log_ratio_gap(pair, 1.0, pair.h0.params[0]) == 0.0
        many = _ml_boundaries_many(pair, [0.8, 1.0], grid=DEFAULT_GRID)
        assert many == (ml_boundaries_generic(pair, 0.8), ml_boundaries_generic(pair, 1.0))
        report = many[1]
        assert len(report.roots) == 2 and report.orientation is Orientation.H0_FIRST
        assert report.roots[0] < pair.h0.params[0] < report.roots[1]
        _assert_matches_reference(report, pair, 1.0)

    def test_undefined_ratio_warns(self):
        # both densities vanish on the whole default interval: the grid's one warning
        report = ml_boundaries(undefined_pair(), 1.0)
        assert report.roots == () and report.orientation is Orientation.H0_FIRST
        assert report.warnings == ("log ratio undefined on the whole interval",)

    @pytest.mark.parametrize("p0", [0.0, 1.0])
    @pytest.mark.parametrize(
        "models",
        [
            (DensityModel.exponential(1.0), DensityModel.exponential(2.0)),
            (DensityModel.gaussian(10.0, 6.0), DensityModel.gaussian(11.0, 3.0)),
            (custom_exponential_pair(1.0, 2.0).h0, custom_exponential_pair(1.0, 2.0).h1),
        ],
        ids=["exponential", "gaussian", "custom"],
    )
    def test_single_hypothesis_priors(self, models, p0):
        pair = HypothesisPair(*models, p0)
        many = _ml_boundaries_many(pair, [0.5, 2.0])
        assert many == tuple(ml_boundaries(pair, e) for e in (0.5, 2.0))
        orientation = Orientation.H1_FIRST if p0 == 0.0 else Orientation.H0_FIRST
        assert all(r.roots == () and r.orientation is orientation for r in many)

    @settings(max_examples=100, deadline=None)
    @given(gaussian_pairs(), eta_grids)
    def test_gaussian_batch_repeats_one_threshold(self, pair, etas):
        # one closed-form call for all thresholds gives, to the bit, the
        # reports of one call per threshold
        try:
            one = tuple(ml_boundaries(pair, eta) for eta in etas)
        except InvalidParameterError:
            with pytest.raises(InvalidParameterError):
                _ml_boundaries_many(pair, etas)
            return
        assert repr(_ml_boundaries_many(pair, etas)) == repr(one)

    def test_gaussian_pairs_use_the_closed_form(self, table1_pair):
        many = _ml_boundaries_many(table1_pair, [0.5, 1.0, 1e9])
        assert many == tuple(ml_boundaries_gaussian(table1_pair, e) for e in (0.5, 1.0, 1e9))

    def test_invalid_threshold_rejected(self, exp_pair):
        with pytest.raises(InvalidParameterError):
            _ml_boundaries_many(exp_pair, [1.0, 0.0])


PAIR_FIXTURES = ["table1_pair", "exp_pair", "custom_exp_pair"]


def _bayes_accuracy(pair, lo, hi):
    """The integral of max(p0 f0, p1 f1) over [lo, hi], by quadrature on 160
    equal pieces, independent of any root."""
    def best(x):
        return max(pair.p0 * float(pair.h0.pdf(x)), pair.p1 * float(pair.h1.pdf(x)))

    edges = np.linspace(lo, hi, 161)
    return sum(quad(best, a, b, epsabs=1e-14, epsrel=1e-12, limit=200)[0] for a, b in zip(edges[:-1], edges[1:]))


class TestBayesAccuracy:
    """The ratio classifier at threshold 1 is the maximum-accuracy one: on
    fixed custom and mixed pairs, all solved on the grid, its accuracy is the
    Bayes accuracy.  The densities are negligible past +-40, and the
    logistic cdf overflows exp, harmlessly, far in the left tail."""

    @pytest.mark.parametrize(
        "pair, lo",
        [
            (touching_pair(), -40.0),
            (custom_exponential_pair(1.0, 2.0), 0.0),
            (HypothesisPair(DensityModel.from_custom(LAPLACE, (0.0, 1.0)), DensityModel.gaussian(0.5, 1.0)), -40.0),
            (HypothesisPair(DensityModel.from_custom(LOGISTIC, (0.0, 1.0)), DensityModel.gaussian(0.0, 1.0), 0.4), -40.0),
        ],
        ids=["touching", "custom_exponential", "laplace_gaussian", "logistic_gaussian"],
    )
    def test_ml_accuracy_is_the_bayes_accuracy(self, pair, lo):
        assert ml_boundaries(pair, 1.0).method is RootMethod.GRID_BISECTION
        with np.errstate(over="ignore"):
            bayes = _bayes_accuracy(pair, lo, 40.0)
            assert accuracy(MLSpec(1.0), pair) == pytest.approx(bayes, abs=1e-8)

    def test_touching_pair_frontier_tops_at_the_bayes_accuracy(self):
        pair = touching_pair()
        with np.errstate(over="ignore"):
            top = accuracy(MLSpec(1.0), pair)
            assert top == pytest.approx(0.567442, abs=1e-6)
            assert default_zeta_grid(pair, 2)[-1] == top
            curve = general_curve(pair, n_boundaries=2)
        assert len(curve.points) > 1 and max(curve.accuracies) == top


class TestFrontDoor:
    """``_ml_boundaries_many`` checks the thresholds, the residuals and makes
    the reports for every family, and the public solvers are its
    one-threshold calls."""

    @pytest.mark.parametrize("eta", [0.0, -1.0, math.inf, math.nan])
    @pytest.mark.parametrize("name", PAIR_FIXTURES)
    def test_thresholds_must_be_positive_and_finite(self, name, eta, request):
        pair = request.getfixturevalue(name)
        rule = "eta must be positive and finite"
        with pytest.raises(InvalidParameterError, match=rule):
            _ml_boundaries_many(pair, [1.0, eta])
        with pytest.raises(InvalidParameterError, match=rule):
            ml_boundaries(pair, eta)
        with pytest.raises(InvalidParameterError, match=rule):
            ml_boundaries_generic(pair, eta)
        with pytest.raises(InvalidParameterError, match=rule):
            ml_curve(pair, [1.0, eta])

    @pytest.mark.parametrize("name", PAIR_FIXTURES)
    def test_one_residual_check_per_call(self, name, request, monkeypatch):
        pair = request.getfixturevalue(name)
        calls = []
        check = boundary_solver._check_residuals
        monkeypatch.setattr(
            boundary_solver, "_check_residuals", lambda *a: calls.append(list(a[1])) or check(*a)
        )
        solves = [
            (lambda: _ml_boundaries_many(pair, [0.5, 1.0, 2.0]), [0.5, 1.0, 2.0]),
            (lambda: _ml_boundaries_many(pair, [0.5, 2.0], grid=DEFAULT_GRID), [0.5, 2.0]),
            (lambda: ml_boundaries(pair, 0.5), [0.5]),
            (lambda: ml_boundaries_generic(pair, 2.0), [2.0]),
        ]
        if name == "table1_pair":
            solves.append((lambda: ml_boundaries_gaussian(pair, 0.5), [0.5]))
        for solve, etas in solves:
            calls.clear()
            solve()
            assert calls == [etas]


@st.composite
def rate_pairs(draw):
    """Exponential pairs whose rates agree, lie 1e-12 apart, or differ by a
    factor of up to 1e300 either way."""
    rate0 = math.exp(draw(st.floats(-7.0, 7.0)))
    ratio = draw(
        st.floats(-690.0, 690.0).map(math.exp)
        | st.floats(-1e-12, 1e-12).map(lambda t: 1.0 + t)
        | st.sampled_from([1.0, 1.0 + 1e-12, 1.0 - 1e-12, 1e300, 1e-300])
    )
    p0 = draw(st.floats(0.05, 0.95) | st.sampled_from([0.5, 1e-6, 1.0 - 1e-6]))
    return HypothesisPair(DensityModel.exponential(rate0), DensityModel.exponential(rate0 * ratio), p0)


def _exponential_reference(pair, eta):
    """The gap's value c = log(p1 l1 / (eta p0 l0)) at 0, its slope l0 - l1,
    the root -c / slope (None at equal rates) and the rounding the root may
    carry, from the exact float inputs in 60-digit arithmetic.

    The rounding is that of the rounded ratio p1 / p0, of each logarithm of
    c (an ulp of its size, three for log(l1 / l0)) carried through the
    slope, and of the root itself, in units of the float epsilon."""
    eps = np.finfo(float).eps
    with mpmath.workdps(60):
        (l0,), (l1,) = (tuple(map(mpmath.mpf, m.params)) for m in (pair.h0, pair.h1))
        p0, p1, eta = map(mpmath.mpf, (pair.p0, pair.p1, eta))
        log_p, log_eta, log_l = mpmath.log(p1 / p0), mpmath.log(eta), mpmath.log(l1 / l0)
        c, slope = log_p - log_eta + log_l, l0 - l1
        if slope == 0:
            return c, slope, None, None
        x = -c / slope
        rounded_p = abs(mpmath.mpf(pair.p1 / pair.p0) / (p1 / p0) - 1) / eps
        return c, slope, x, (rounded_p + abs(log_p) + abs(log_eta) + 3 * abs(log_l)) / abs(slope) + abs(x)


def _assert_matches_exponential_reference(report, pair, eta) -> bool:
    """The report against the reference; False where a root lies within its
    rounding of the support edge, so that it may be reported or not."""
    eps = np.finfo(float).eps
    assert report.method is RootMethod.EXPONENTIAL_LINEAR and report.eta == eta
    c, slope, x, slack = _exponential_reference(pair, eta)
    h1_first = report.orientation is Orientation.H1_FIRST
    if x is None:  # a constant gap
        assert report.roots == ()
        if abs(c) > 4 * eps * (2 + abs(c)):
            assert h1_first == (c > 0)
        return True
    tol = 4 * eps * slack
    if abs(x) <= tol:
        return False
    if 0 < x <= sys.float_info.max:
        (root,) = report.roots
        assert abs(mpmath.mpf(root) - x) <= tol
        # the gap has the orientation's sign left of the root, the other one
        # right of it
        assert (c + slope * mpmath.mpf(root) / 2 > 0) == h1_first
        assert (c + slope * mpmath.mpf(root) * 2 > 0) != h1_first
    else:
        assert report.roots == ()
        assert (c + slope > 0) == h1_first  # the sign on the whole support
    return True


class TestExponentialClosedForm:
    @settings(max_examples=300, deadline=None)
    @given(rate_pairs(), eta_grids.map(lambda etas: etas + [1.0]))
    def test_roots_and_orientation_against_mpmath(self, pair, etas):
        many = _ml_boundaries_many(pair, etas)
        assert many == tuple(ml_boundaries(pair, eta) for eta in etas)
        for report, eta in zip(many, etas):
            _assert_matches_exponential_reference(report, pair, eta)

    @pytest.mark.parametrize("rates", [(1e-5, 1e305), (1e305, 1e-5), (1e-300, 1e9), (1e9, 1e-300)])
    @pytest.mark.parametrize("eta", [0.5, 1.0, 2.0])
    def test_rate_ratios_past_the_float_range(self, rates, eta):
        # l1 / l0 overflows or underflows; the root still lies inside it
        pair = HypothesisPair(*map(DensityModel.exponential, rates), 0.3)
        report = ml_boundaries(pair, eta)
        assert report.roots and _assert_matches_exponential_reference(report, pair, eta)

    def test_agreement_on_random_pairs(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            rate0, rate1 = rng.uniform(0.2, 5.0, 2)
            pair = HypothesisPair(
                DensityModel.exponential(rate0), DensityModel.exponential(rate1), rng.uniform(0.3, 0.7)
            )
            eta = float(np.exp(rng.uniform(-2, 2)))
            closed = ml_boundaries(pair, eta)
            generic = ml_boundaries_generic(pair, eta)
            # the closed form covers the whole support; the grid sees the
            # default search interval only
            lo, hi = default_search_interval(pair)
            inside = [r for r in closed.roots if lo < r < hi]
            assert len(generic.roots) == len(inside)
            assert generic.orientation is closed.orientation
            np.testing.assert_allclose(generic.roots, inside, atol=1e-9)

    def test_nearly_equal_rates_keep_every_digit(self):
        # log(l1 / l0) taken as log(l1) - log(l0) loses 11 digits here; the
        # grid's root is as far off
        pair = HypothesisPair(DensityModel.exponential(3.0), DensityModel.exponential(3.00003))
        exact = mpmath.mpf("0.33333166667777768352658331338258521689902476")
        (root,) = ml_boundaries(pair, 1.0).roots
        assert abs(mpmath.mpf(root) - exact) <= np.spacing(root)
        plain = (math.log(3.00003) - math.log(3.0)) / (3.00003 - 3.0)
        for off in (plain, ml_boundaries_generic(pair, 1.0).roots[0]):
            assert abs(mpmath.mpf(off) - exact) > 1e-11 * exact

    def test_weighted_density_past_the_range_of_its_exponential(self):
        # at the root exp(-1e300 x) is exp(-1381), which underflows to 0,
        # while 1e300 exp(-1381) is about 1e-300: the pdf, taken in the log
        # domain, keeps it, so the residual check accepts the exact root
        pair = HypothesisPair(DensityModel.exponential(1e300), DensityModel.exponential(1e-300), 0.3)
        report = ml_boundaries(pair, 1.0)
        assert report.roots == (1.38070375793604e-297,)
        assert _assert_matches_exponential_reference(report, pair, 1.0)
        with mpmath.workdps(60):
            l0, l1, p0, p1 = map(mpmath.mpf, (1e300, 1e-300, pair.p0, pair.p1))
            exact = mpmath.log(p0 * l0 / (p1 * l1)) / (l0 - l1)
            assert abs(mpmath.mpf(report.roots[0]) - exact) <= np.spacing(report.roots[0])
        assert pair.h0.pdf(report.roots[0]) > 0.0

    @pytest.mark.parametrize("rates, eta, orientation", [
        ((1.0, 2.0), 2.0, Orientation.H0_FIRST), ((2.0, 1.0), 0.5, Orientation.H1_FIRST),
    ])
    def test_root_on_the_support_edge(self, rates, eta, orientation):
        # the gap is 0 at x = 0 and takes the slope's sign beyond: a zero at
        # the grid's first point bounds no region, so the grid, on the
        # built-in pair and on the same pair as a custom one, gives the
        # closed form's answer, with no warning
        pair = HypothesisPair(*map(DensityModel.exponential, rates))
        report = ml_boundaries(pair, eta)
        assert report.roots == () and report.orientation is orientation and not report.warnings
        for grid in (ml_boundaries_generic(pair, eta), ml_boundaries(custom_exponential_pair(*rates), eta)):
            assert grid.method is RootMethod.GRID_BISECTION
            assert grid.roots == () and grid.orientation is orientation and not grid.warnings

    def test_roots_beyond_the_search_interval(self, exp_pair):
        # at eta 1e-6 the root log(2e6) lies past the interval's end 9
        assert ml_boundaries(exp_pair, 1e-6).roots == (pytest.approx(math.log(2e6), rel=1e-15),)
        assert ml_boundaries_generic(exp_pair, 1e-6).roots == ()

    @pytest.mark.parametrize("eta", [0.5, 1.0, 2.0])
    def test_identical_models_no_root(self, eta):
        pair = HypothesisPair(DensityModel.exponential(1.0), DensityModel.exponential(1.0), 0.5)
        report = ml_boundaries(pair, eta)
        assert report.roots == () and report.method is RootMethod.EXPONENTIAL_LINEAR
        assert report.orientation is (Orientation.H1_FIRST if eta < 1.0 else Orientation.H0_FIRST)

    def test_no_grid_scan(self, exp_pair, monkeypatch):
        def refuse(*args):
            raise AssertionError("an exponential pair was scanned on the grid")

        monkeypatch.setattr(boundary_solver, "_grid_solve", refuse)
        assert ml_boundaries(exp_pair, 1.0).roots
        assert len(_ml_boundaries_many(exp_pair, [0.5, 1.0, 2.0])) == 3
        assert optimal_linear_boundary(exp_pair).accuracy == pytest.approx(0.625, abs=1e-12)
        assert len(ml_curve(exp_pair).points) > 0
        assert run_all_checks(exp_pair).a2 is not None


class TestBisect:
    #: roots of exp(1) against exp(2) (p0 = 1/2) as the grid solve returns
    #: them: log(20) and log(2) to the bit (bisection left them 1.6e-13 and
    #: 2.1e-13 off)
    PINNED = {0.1: (math.log(20.0),), 1.0: (math.log(2.0),), 10.0: ()}

    @pytest.mark.parametrize("eta", sorted(PINNED))
    def test_ratio_roots_are_pinned(self, exp_pair, eta):
        assert ml_boundaries_generic(exp_pair, eta).roots == self.PINNED[eta]


def _cauchy_pdf(x, p):
    return 1.0 / (math.pi * p[1] * (1.0 + ((x - p[0]) / p[1]) ** 2))


class TestNewtonFallback:
    """Once a fallback point keeps more than half of its bracket, ``_newton``
    falls back on midpoints until a Newton step lands: regula falsi alone
    shrinks a bracket with a flat far end from one side only."""

    @pytest.mark.parametrize("interval, grid", [((0.0, 1e36), DEFAULT_GRID), ((0.0, 1e33), 2)])
    def test_cauchy_pair_on_a_wide_interval(self, interval, grid):
        # p1 f1 = eta p0 f0 for Cauchy(0, 1) against Cauchy(0, 2) at eta 1.9
        # reads 1 + x^2 = 3.8 (1 + x^2 / 4): the root sqrt(56) lies in the
        # first grid cell, whose far end is flat to its last digit
        cauchy = _custom("cauchy", _cauchy_pdf)
        pair = HypothesisPair(*(DensityModel.from_custom(cauchy, (0.0, w)) for w in (1.0, 2.0)))
        report = ml_boundaries_generic(pair, 1.9, interval, grid)
        assert report.roots == (pytest.approx(math.sqrt(56.0), abs=1e-12),)

    def test_a_flat_far_end_is_resolved(self):
        # the residual rises from -1000 to its root at 1 and stays at 1 past
        # 1.001: each regula falsi point keeps 99.9 % of the bracket, so
        # alternating it with midpoints halves the width once per two points
        # and leaves this one about 2^50 tol wide after NEWTON_STEPS
        tol = GRID_ROOT_TOL
        lo, hi = np.asarray([0.0]), np.asarray([2.0**150 * tol])
        points = []

        def fn(x):
            points.append(x.size)
            return np.minimum(1000.0 * (x - 1.0), 1.0), np.where(x < 1.001, 1000.0, 0.0), np.ones_like(x)

        x = _newton(fn, lo, hi, np.asarray([-1000.0]), np.asarray([1.0]), tol)
        assert abs(x[0] - 1.0) <= tol
        assert len(points) < NEWTON_STEPS


class TestNewtonInputs:
    def test_the_caller_arrays_are_not_written(self):
        # linear residuals stop at their first Newton point, cubic ones only
        # after many, so the batch shrinks while the state is updated in place
        root = np.asarray([0.3, 1.7, -2.0, 0.9, 5.0, -0.4])
        power = np.asarray([1.0, 3.0, 1.0, 3.0, 1.0, 1.0])
        lo, hi = root - np.asarray([1.0, 2.0, 0.5, 3.0, 0.25, 4.0]), root + np.asarray([2.0, 0.5, 1.0, 1.0, 3.0, 0.1])
        r_lo, r_hi = -((root - lo) ** power), (hi - root) ** power
        given = [v.copy() for v in (lo, hi, r_lo, r_hi, root, power)]
        sizes = []

        def fn(x, c, k):
            sizes.append(x.size)
            d = x - c
            return d * np.abs(d) ** (k - 1.0), k * np.abs(d) ** (k - 1.0), np.zeros_like(x)

        x = _newton(fn, lo, hi, r_lo, r_hi, 1e-9, root, power)
        assert len(set(sizes)) > 2  # stopped at different points, and compacted
        for v, w in zip((lo, hi, r_lo, r_hi, root, power), given):
            assert v.tobytes() == w.tobytes()
        assert np.all(np.abs(x - root) <= 1e-6)


class TestNewtonCertifiedStep:
    """Given a curvature, ``_newton`` stops at a plain Newton step whose error
    estimate (|G''| h^2 / 2 + |c h^3|) / |G'|, c the cubic term fitted at the
    bracket's far end, is within ``tol`` / 2, without evaluating it: a step
    longer than the ``tol`` of a short stop; a curvature that is not finite
    certifies no step and keeps the Newton step."""

    TARGETS = np.asarray([1.5, 3.0, 6.0])
    TOL = 1e-12

    def _solve(self, curvature=None):
        """exp(x) = t on [0, 2], whose slope and curvature are exp(x), with the
        curvature ``curvature(exp(x))`` or none: the roots, the number of
        residual calls and the points evaluated for each target.  The
        rounding scale 0 leaves no stop within rounding."""
        calls, points = [], {t: [] for t in self.TARGETS.tolist()}

        def fn(x, t):
            calls.append(x.size)
            for z, target in zip(x.tolist(), t.tolist()):
                points[target].append(z)
            e = np.exp(x)
            return (e - t, e, np.zeros_like(x)) + (() if curvature is None else (curvature(e),))

        t = self.TARGETS
        x = _newton(fn, np.zeros(t.size), np.full(t.size, 2.0), 1.0 - t, math.exp(2.0) - t, self.TOL, t)
        return x, len(calls), [points[target] for target in t.tolist()]

    def test_a_certified_step_saves_the_confirming_point(self):
        x, calls, points = self._solve(lambda e: e)
        _, plain_calls, _ = self._solve()
        assert np.all(np.abs(x - np.log(self.TARGETS)) <= self.TOL)
        assert calls < plain_calls
        # a short stop is within tol of its last point
        assert all(min(abs(root - z) for z in zs) > self.TOL for root, zs in zip(x.tolist(), points))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_a_curvature_that_is_not_finite_keeps_the_newton_step(self, value):
        # an infinite curvature once folded the step onto the point itself,
        # which the short-step rule took as the root: 0.157 for log 1.5
        x, calls, _ = self._solve(lambda e: np.full_like(e, value))
        plain, plain_calls, _ = self._solve()
        assert np.all(np.abs(x - np.log(self.TARGETS)) <= self.TOL)
        assert x.tobytes() == plain.tobytes()
        assert calls == plain_calls


class TestResidualCheck:
    @pytest.mark.parametrize("name", ["table1_pair", "exp_pair"])
    def test_one_pdf_call_per_density_per_solve(self, name, request, monkeypatch):
        pair = request.getfixturevalue(name)
        calls = {(f, id(m)): 0 for f in ("pdf", "pdf_dx") for m in (pair.h0, pair.h1)}
        depth = [0]  # pdf_dx may call pdf itself; only the outermost call counts

        def counted(name, fn):
            def wrapped(self, x):
                calls[name, id(self)] += depth[0] == 0
                depth[0] += 1
                try:
                    return fn(self, x)
                finally:
                    depth[0] -= 1

            return wrapped

        for f in ("pdf", "pdf_dx"):
            monkeypatch.setattr(DensityModel, f, counted(f, getattr(DensityModel, f)))
        reports = _ml_boundaries_many(pair, [0.5, 0.7, 1.0, 2.0])
        assert sum(len(report.roots) for report in reports) > 2
        # the slopes are needed only for a root that misses the relative bound
        assert calls == {(f, id(m)): f == "pdf" for f in ("pdf", "pdf_dx") for m in (pair.h0, pair.h1)}
        steep = HypothesisPair(DensityModel.gaussian(0.0, 1.0), DensityModel.gaussian(0.5, 1e-6), 0.5)
        calls.update({(f, id(m)): 0 for f in ("pdf", "pdf_dx") for m in (steep.h0, steep.h1)})
        _ml_boundaries_many(steep, [1.0])
        assert [calls[f, id(m)] for f in ("pdf", "pdf_dx") for m in (steep.h0, steep.h1)] == [1, 1, 1, 1]

    @pytest.mark.parametrize("h1", [(1e300, 1.0), (1e200, 1.0), (0.0, 1e300)])
    def test_pairs_past_the_square_range_solve(self, h1):
        sigma0 = 1e-10 if h1[1] == 1e300 else 1.0
        pair = HypothesisPair(DensityModel.gaussian(0.0, sigma0), DensityModel.gaussian(*h1), 0.5)
        roots, h0_first, _, _ = _reference(0.0, sigma0, *h1, 0.0)
        report = ml_boundaries(pair, 1.0)
        assert report.roots == pytest.approx(roots, rel=1e-15)
        assert (report.orientation is Orientation.H0_FIRST) == h0_first

    def test_a_root_within_one_ulp_meets_the_bound(self):
        # the lower root lies 0.94 ulp from the exact one, where the defect
        # is 2.8 times RESIDUAL_RTOL of the density
        pair = HypothesisPair(DensityModel.gaussian(0.0, 1.0), DensityModel.gaussian(0.5, 1e-6), 0.5)
        roots, _, _, _ = _reference(0.0, 1.0, 0.5, 1e-6, 0.0)
        report = ml_boundaries(pair, 1.0)
        assert report.roots == pytest.approx(roots, rel=1e-15)
        assert max(report.residuals) > RESIDUAL_RTOL * float(pair.h1.pdf(report.roots[0])) * pair.p1

    def test_a_jump_at_a_support_edge_is_refused(self):
        # exp(1) against N(0, 1): the ratio jumps across eta at 0, where the
        # bisection leaves a root with a defect of 0.3
        pair = HypothesisPair(DensityModel.exponential(1.0), DensityModel.gaussian(0.0, 1.0), 0.5)
        with pytest.raises(InvalidParameterError, match="fails the residual bound"):
            ml_boundaries(pair, 1.0)


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

    def test_constant_classifier_beats_every_root(self):
        # the prior 0.8 is above both roots' single-boundary classifiers
        # (0.77367 at best); one boundary at H* reaches it, the top of the
        # one-boundary frontier
        pair = HypothesisPair(DensityModel.gaussian(0, 9), DensityModel.gaussian(9, 4), 0.8)
        best = optimal_linear_boundary(pair)
        assert best.accuracy == default_zeta_grid(pair, 1)[-1] == 0.8
        assert best.orientation is Orientation.H0_FIRST and best.y > max(ml_boundaries(pair).roots)
        assert best.accuracy == accuracy(LinearSpec(best.y, best.orientation), pair)

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


def _one_row_at_a_time(pair, etas, thetas):
    """The reports of ``ml_boundaries`` at each threshold and parameter row
    in turn, up to the first row it refuses, and that refusal (or None)."""
    reports = []
    for eta, theta in zip(etas, thetas):
        try:
            reports.append(ml_boundaries(pair.with_theta(theta), eta))
        except InvalidParameterError as refusal:
            return reports, refusal
    return reports, None


def _assert_rows_match(pair, etas, thetas):
    """The front door at the rows ``thetas`` holds, row by row, what the
    reports of one ``ml_boundaries`` call per row hold, or raises what the
    first row refused raises."""
    reports, refusal = _one_row_at_a_time(pair, etas, thetas)
    if refusal is not None:
        with pytest.raises(InvalidParameterError) as raised:
            _ml_solve_many(pair, etas, thetas=thetas)
        assert str(raised.value) == str(refusal)
        return
    method, floats, *rows = _ml_solve_many(pair, etas, thetas=thetas)
    stacked = tuple(
        LikelihoodRootReport(rs, method, Orientation.H0_FIRST if h0 else Orientation.H1_FIRST, res, eta, w)
        for eta, rs, h0, w, res in zip(floats, *rows)
    )
    assert stacked == tuple(reports)
    assert repr(stacked) == repr(tuple(reports))


@st.composite
def gaussian_theta_rows(draw):
    """(mu0, s0, mu1, s1) rows that reach every rescale of
    ``_gaussian_pair_roots``: width ratios below 2^-500 and above 2^500,
    equal widths with a root past the float range of the shape, and plain
    shapes."""
    kind = draw(st.sampled_from(["narrow", "wide", "equal_far", "plain"]))
    if kind == "equal_far":
        # N(0, 2^k) against N(+-2^e, 2^k): the root -level 2^(2k - e) is in
        # range, its shape -level 2^(k - e) is not
        e = draw(st.integers(-1074, -1032))
        s0 = math.ldexp(1.0, draw(st.integers(1025 + e, (1023 + e) // 2 - 1)))
        return (0.0, s0, math.ldexp(draw(st.sampled_from([-1.0, 1.0])), e), s0)
    s0 = math.ldexp(draw(st.floats(1.0, 2.0)), draw(st.integers(-30, 30)))
    mu0 = draw(st.floats(-10.0, 10.0)) * s0
    mu1 = mu0 + draw(st.floats(-20.0, 20.0)) * s0
    if kind == "narrow":
        s1 = math.ldexp(s0, draw(st.integers(-560, -501)))
    elif kind == "wide":
        s1 = math.ldexp(s0, draw(st.integers(501, 560)))
    else:
        s1 = s0 * draw(st.floats(0.2, 5.0) | st.just(1.0))
    return (mu0, s0, mu1, s1)


@st.composite
def exponential_theta_rows(draw):
    """(rate0, rate1) rows on both sides of ``_log_rate_ratio``: within a
    factor 2 of each other, equal, or further apart."""
    rate0 = math.ldexp(draw(st.floats(1.0, 2.0)), draw(st.integers(-20, 20)))
    factor = draw(
        st.floats(0.5, 2.0)
        | st.just(1.0)
        | st.integers(2, 60).map(lambda k: 2.0**k)
        | st.integers(2, 60).map(lambda k: 2.0**-k)
    )
    return (rate0, rate0 * factor * draw(st.floats(1.0, 1.5)))


class TestThetaRows:
    """The front door at a stack of parameter rows, one per threshold,
    answers each row as ``ml_boundaries`` at ``pair.with_theta`` of it."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(gaussian_theta_rows(), min_size=1, max_size=6),
        st.floats(0.05, 0.95) | st.just(0.5),
        st.lists(st.floats(-3.0, 3.0).map(math.exp) | st.just(1.0), min_size=6, max_size=6),
    )
    def test_gaussian_rows_match_one_solve_per_row(self, rows, p0, etas):
        pair = HypothesisPair(DensityModel.gaussian(*rows[0][:2]), DensityModel.gaussian(*rows[0][2:]), p0)
        _assert_rows_match(pair, etas[: len(rows)], np.array(rows))

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(exponential_theta_rows(), min_size=1, max_size=6),
        st.floats(0.05, 0.95) | st.just(0.5),
        st.lists(st.floats(-3.0, 3.0).map(math.exp) | st.just(1.0), min_size=6, max_size=6),
    )
    def test_exponential_rows_match_one_solve_per_row(self, rows, p0, etas):
        pair = HypothesisPair(DensityModel.exponential(rows[0][0]), DensityModel.exponential(rows[0][1]), p0)
        _assert_rows_match(pair, etas[: len(rows)], np.array(rows))

    @pytest.mark.parametrize("name", ["custom_exp_pair", "fig2c_pair"])
    def test_grid_rows_match_one_solve_per_row(self, name, request):
        pair = request.getfixturevalue(name)
        thetas = pair.theta * np.array([[1.0], [1.1], [0.9]])
        _assert_rows_match(pair, [1.0, 0.5, 2.0], thetas)
        method, *_ = _ml_solve_many(pair, [1.0, 0.5], grid=DEFAULT_GRID, thetas=thetas[:2])
        assert method is RootMethod.GRID_BISECTION

    def test_first_refused_row_wins(self):
        # N(0, 1) against N(0.5, 1e-6) at the assumption audit's rows: the
        # mu0 + h row's root misses the residual bound before the s1 - h
        # row's negative width is refused
        pair = HypothesisPair(DensityModel.gaussian(0.0, 1.0), DensityModel.gaussian(0.5, 1e-6), 0.5)
        thetas = np.repeat(pair.theta[None, :], 8, axis=0)
        thetas[[0, 2, 4, 6], range(4)] += 1e-5
        thetas[[1, 3, 5, 7], range(4)] -= 1e-5
        reports, refusal = _one_row_at_a_time(pair, [1.0] * 8, thetas)
        assert "fails the residual bound" in str(refusal)
        _assert_rows_match(pair, [1.0] * 8, thetas)
        # the refused width after a row that passes, and before one that fails
        _assert_rows_match(pair, [1.0] * 2, thetas[[1, 7]])
        _assert_rows_match(pair, [1.0] * 2, thetas[[7, 0]])
        with pytest.raises(InvalidParameterError, match="sigma must be > 0"):
            _ml_solve_many(pair, [1.0], thetas=thetas[[7]])
