import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from accsens.boundary_solver import (
    _bisect,
    _gaussian_pair_roots,
    _ml_boundaries_many,
    BISECTION_WIDTH,
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
from accsens.classifier import GeneralSpec, MLSpec, Orientation, accuracy, region_accuracy
from accsens.densities import CustomDensity, DensityModel, HypothesisPair
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
    """Roots, orientation and parity warning of the ratio equation at one
    threshold: the grid's sign changes, each bracket solved by brentq.  An
    undefined gap (both densities vanish) counts as negative."""
    lo, hi = interval if interval is not None else default_search_interval(pair)
    xs = np.linspace(lo, hi, DEFAULT_GRID)
    gap = log_ratio_gap(pair, eta, xs)
    xs, gap = xs[~np.isnan(gap)], gap[~np.isnan(gap)]
    signs = np.sign(gap)
    brackets = np.nonzero(signs[:-1] * signs[1:] < 0)[0]
    def gap(t):
        value = log_ratio_gap(pair, eta, t)
        return -math.inf if math.isnan(value) else value

    with np.errstate(invalid="ignore"):
        roots = [brentq(gap, xs[i], xs[i + 1], xtol=1e-14) for i in brackets]
    roots = sorted(roots + xs[signs == 0].tolist())
    nonzero = signs[signs != 0]
    ends_differ = bool(nonzero.size) and nonzero[0] != nonzero[-1]
    first = nonzero[0] if nonzero.size else -1.0
    orientation = Orientation.H0_FIRST if first < 0 else Orientation.H1_FIRST
    return roots, orientation, len(roots) % 2 != ends_differ


def _root_tolerance(pair, eta, r):
    """BISECTION_WIDTH relative to the root, plus how far the rounding noise
    of the log gap (4 eps of its largest term) moves a crossing of its slope:
    where two rates nearly agree the crossing is flat, and any point of the
    noisy stretch is as good a root as another.  At a support edge the gap
    jumps, and the bisection width alone applies."""
    terms = [math.log(pair.p1), pair.h1.log_pdf(r), math.log(eta), math.log(pair.p0), pair.h0.log_pdf(r)]
    if not all(map(math.isfinite, terms)):
        return BISECTION_WIDTH * max(1.0, abs(r))
    h = 1e-6 * max(1.0, abs(r))
    slope = abs(log_ratio_gap(pair, eta, r + h) - log_ratio_gap(pair, eta, r)) / h
    noise = 4.0 * np.finfo(float).eps * max(abs(t) for t in terms)
    return BISECTION_WIDTH * max(1.0, abs(r)) + noise / slope


def _assert_matches_reference(report, pair, eta, interval=None):
    roots, orientation, parity_warning = _brentq_reference(pair, eta, interval)
    assert len(report.roots) == len(roots)
    assert report.orientation is orientation
    assert bool(report.warnings) == parity_warning
    for r_solver, r in zip(report.roots, roots):
        assert abs(r_solver - r) <= _root_tolerance(pair, eta, r)


class TestManyThresholds:
    @settings(max_examples=60, deadline=None)
    @given(exponential_pairs(), eta_grids)
    def test_matches_brentq_per_bracket(self, pair, etas):
        assume(pair.h0 != pair.h1)  # identical models: test_identical_models_no_root
        for report, eta in zip(_ml_boundaries_many(pair, etas), etas):
            assert report.eta == eta
            _assert_matches_reference(report, pair, eta)

    def test_wide_interval_roots_below_the_float_spacing(self):
        # near the roots (about 5e5) floats lie about 1.2e-10 apart, wider
        # than BISECTION_WIDTH: the bisection must stop after its fixed
        # count of halvings and still return residual-bounded roots
        pair = HypothesisPair(DensityModel.exponential(1e-6), DensityModel.exponential(3e-6))
        interval = (0.0, 9e6)
        assert default_search_interval(pair) == interval
        many = _ml_boundaries_many(pair, [0.5, 1.0, 2.0])
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


def _cubic(x):
    """x + x^3 / 3: strictly increasing, in basic float operations only, so
    every element is computed alike whatever the array around it."""
    return x + x * x * x / 3.0


class TestBisect:
    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(-4.0, 4.0),
        st.floats(1e-9, 4.0),
        st.floats(1e-9, 4.0),
        st.lists(st.tuples(st.floats(1.5, 1e3), st.floats(-4.0, 4.0)), min_size=1, max_size=3),
        st.sampled_from([1e-12, 1e-9, 1e-6]),
        st.booleans(),
    )
    def test_a_bracket_is_solved_alike_alone_and_in_a_batch(
        self, root, left, right, wider, tol, rising
    ):
        fn = _cubic if rising else (lambda x: -_cubic(x))
        lo, hi = root - left, root + right
        # wider brackets of other roots, the bracket itself in the middle
        others = [(r - f * (hi - lo), r + f * (hi - lo), r) for f, r in wider]
        brackets = others[:1] + [(lo, hi, root)] + others[1:]
        batch_lo, batch_hi, roots = (np.asarray(v) for v in zip(*brackets))
        alone = _bisect(fn, np.asarray([lo]), np.asarray([hi]), fn(root), rising, tol)
        batch = _bisect(fn, batch_lo, batch_hi, fn(roots), rising, tol)
        assert alone[0].tobytes() == batch[1].tobytes()
        for x, a, b, r in zip(batch, batch_lo, batch_hi, roots):
            reference = brentq(lambda y: _cubic(y) - _cubic(r), a, b, xtol=1e-15, rtol=1e-15)
            assert abs(x - reference) <= tol

    def test_brackets_of_one_width_take_the_same_steps(self):
        # one grid's cells: each cell halves as often as the batch would
        lo = np.linspace(0.0, 3.0, 7)[:-1]
        hi = lo + 0.5
        roots = lo + 0.3
        batch = _bisect(_cubic, lo, hi, _cubic(roots), True, 1e-12)
        for k in range(lo.size):
            one = _bisect(_cubic, lo[k:k + 1], hi[k:k + 1], _cubic(roots[k:k + 1]), True, 1e-12)
            assert one[0] == batch[k]
        np.testing.assert_allclose(batch, roots, atol=1e-12)

    #: roots of exp(1) against exp(2) (p0 = 1/2) as the grid solve returned
    #: them when every bracket took the halvings of the widest one
    PINNED = {0.1: (2.995732273554152,), 1.0: (0.693147180559738,), 10.0: ()}

    @pytest.mark.parametrize("eta", sorted(PINNED))
    def test_ratio_roots_are_pinned(self, exp_pair, eta):
        assert ml_boundaries(exp_pair, eta).roots == self.PINNED[eta]


class TestResidualCheck:
    @pytest.mark.parametrize("name", ["table1_pair", "exp_pair"])
    def test_one_pdf_call_per_density_per_solve(self, name, request, monkeypatch):
        pair = request.getfixturevalue(name)
        calls = {(f, id(m)): 0 for f in ("pdf", "pdf_dx") for m in pair.models}
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
        assert calls == {(f, id(m)): f == "pdf" for f in ("pdf", "pdf_dx") for m in pair.models}
        steep = HypothesisPair(DensityModel.gaussian(0.0, 1.0), DensityModel.gaussian(0.5, 1e-6), 0.5)
        calls.update({(f, id(m)): 0 for f in ("pdf", "pdf_dx") for m in steep.models})
        _ml_boundaries_many(steep, [1.0])
        assert [calls[f, id(m)] for f in ("pdf", "pdf_dx") for m in steep.models] == [1, 1, 1, 1]

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
