import dataclasses
import hashlib
import json
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from accsens import boundary_solver, param_designer
from accsens.boundary_solver import _gaussian_roots, _newton, ml_boundaries
from accsens.classifier import (
    GeneralSpec,
    BoundarySet,
    MLSpec,
    Norm,
    Orientation,
    _gradients,
    _norms,
    accuracy,
    region_accuracy,
    sensitivity,
)
from accsens.densities import DensityModel, HypothesisPair
from accsens.errors import (
    InfeasibleTargetError,
    InvalidParameterError,
    SchemaError,
    SolverFailureError,
    UnresolvedClassifierError,
)
from accsens.param_designer import (
    D_XTOL,
    RATIO_LIMIT,
    SCALE_LIMIT,
    SEPARATION_LIMIT,
    ParamDesignProblem,
    _design_eval,
    _max_accuracy_shape,
    _separation_residual,
    _shape,
    _shape_accuracy,
    design_params,
    exponential_law,
    fig3_box,
    gamma_sweep,
    gaussian_equal_variance_law,
    sweep_csv_text,
)


class TestGaussianLaw:
    def test_coincident_means(self):
        acc, sens = gaussian_equal_variance_law(0.0, 2.0)
        assert acc == 0.5
        assert sens == pytest.approx(1.0 / (2 * 2.0 * math.sqrt(2 * math.pi)), rel=1e-14)

    def test_two_sigma_separation(self):
        acc, _ = gaussian_equal_variance_law(2.0, 1.0)
        assert acc == pytest.approx(0.8413, abs=5e-5)

    def test_matches_generic_pipeline(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            dmu = rng.uniform(0.0, 8.0)
            sigma = rng.uniform(0.3, 6.0)
            acc, sens = gaussian_equal_variance_law(dmu, sigma)
            pair = HypothesisPair(
                DensityModel.gaussian(0.0, sigma), DensityModel.gaussian(dmu, sigma), 0.5
            )
            spec = GeneralSpec(BoundarySet((dmu / 2.0,)))
            assert accuracy(spec, pair) == pytest.approx(acc, abs=1e-12)
            # sensitivity of the law = |d acc / d mu1| at the fixed midpoint
            h = 1e-6 * max(1.0, dmu)
            fd = (
                region_accuracy(
                    HypothesisPair(pair.h0, DensityModel.gaussian(dmu + h, sigma), 0.5),
                    (dmu / 2.0,),
                    Orientation.H0_FIRST,
                )
                - region_accuracy(
                    HypothesisPair(pair.h0, DensityModel.gaussian(dmu - h, sigma), 0.5),
                    (dmu / 2.0,),
                    Orientation.H0_FIRST,
                )
            ) / (2 * h)
            assert sens == pytest.approx(abs(fd), abs=1e-8)

    def test_monotone_in_separation(self):
        grid = np.linspace(0.1, 10.0, 50)
        laws = [gaussian_equal_variance_law(d, 2.0) for d in grid]
        accs = np.array([a for a, _ in laws])
        sens = np.array([s for _, s in laws])
        assert np.all(np.diff(accs) > 0)
        assert np.all(np.diff(sens) < 0)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            gaussian_equal_variance_law(-1.0, 1.0)
        with pytest.raises(InvalidParameterError):
            gaussian_equal_variance_law(1.0, 0.0)

    @pytest.mark.parametrize(
        "args", [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf)]
    )
    def test_non_finite_argument_is_refused(self, args):
        with pytest.raises(InvalidParameterError):
            gaussian_equal_variance_law(*args)


class TestExponentialLaw:
    def test_reference_ratio_two(self):
        law = exponential_law(2.0, 1.0)
        assert law.accuracy == pytest.approx(0.625, abs=1e-15)
        assert law.sensitivity == pytest.approx(0.08664, abs=5e-6)
        assert law.boundary == pytest.approx(math.log(2.0), rel=1e-14)
        assert law.orientation is Orientation.H1_FIRST

    def test_limit_toward_identical_rates(self):
        law = exponential_law(1.0 + 1e-8, 1.0)
        assert law.accuracy == pytest.approx(0.5, abs=1e-8)

    def test_accuracy_matches_generic_pipeline(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            r = rng.uniform(1.05, 8.0)
            lam0 = rng.uniform(0.2, 4.0)
            law = exponential_law(r, lam0)
            pair = HypothesisPair(
                DensityModel.exponential(lam0), DensityModel.exponential(r * lam0), 0.5
            )
            generic = region_accuracy(pair, (law.boundary,), Orientation.H1_FIRST)
            assert generic == pytest.approx(law.accuracy, abs=1e-10)
            report = ml_boundaries(pair, 1.0)
            assert report.orientation is Orientation.H1_FIRST
            assert report.roots[0] == pytest.approx(law.boundary, abs=1e-9)

    def test_sensitivity_matches_finite_difference(self):
        rng = np.random.default_rng(16)
        for _ in range(50):
            r = rng.uniform(1.05, 8.0)
            lam0 = rng.uniform(0.2, 4.0)
            law = exponential_law(r, lam0)
            lam1 = r * lam0
            h = 1e-6 * max(1.0, lam1)
            fd = (
                exponential_law((lam1 + h) / lam0, lam0).accuracy
                - exponential_law((lam1 - h) / lam0, lam0).accuracy
            ) / (2 * h)
            assert law.sensitivity == pytest.approx(abs(fd), abs=1e-7)

    def test_monotone_in_ratio(self):
        grid = np.linspace(1.01, 12.0, 60)
        laws = [exponential_law(r, 1.0) for r in grid]
        accs = np.array([l.accuracy for l in laws])
        sens = np.array([l.sensitivity for l in laws])
        assert np.all(np.diff(accs) > 0)
        assert np.all(np.diff(sens) < 0)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            exponential_law(1.0, 1.0)
        with pytest.raises(InvalidParameterError):
            exponential_law(2.0, 0.0)

    @pytest.mark.parametrize(
        "args", [(math.inf, 1.0), (math.nan, 1.0), (2.0, math.inf), (2.0, math.nan)]
    )
    def test_non_finite_argument_is_refused(self, args):
        with pytest.raises(InvalidParameterError):
            exponential_law(*args)


class TestDesign:
    def test_box_validation(self):
        with pytest.raises(InvalidParameterError):
            ParamDesignProblem(bounds=((0, 0), (1, 1), (0, 1)), gamma=0.8)
        with pytest.raises(InvalidParameterError):
            ParamDesignProblem(bounds=((0, 0), (0, 1), (0, 1), (0.1, 1)), gamma=0.8)
        with pytest.raises(InvalidParameterError):
            fig3_box(0.4)
        for p0 in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(InvalidParameterError):
                dataclasses.replace(fig3_box(0.8), p0=p0)

    @pytest.mark.parametrize(
        "bounds",
        [
            # width ratios from 1e-320 and 1e-300: r^2 would underflow to 0
            ((0, 0), (1e-320, 1), (0, 1), (1e-320, 1)),
            ((0, 0), (1, 1e300), (0, 1e300), (1, 1e300)),
            ((0, 0), (1, 1), (0, 1), (0.5 / RATIO_LIMIT, 1)),
            ((0, 0), (1, 1), (0, 1), (1, 2 * RATIO_LIMIT)),
            ((0, 0), (1, 1), (0, 2 * SEPARATION_LIMIT), (1, 1)),
            ((0, 0), (0.5 / SCALE_LIMIT, 1 / SCALE_LIMIT), (0, 0), (1 / SCALE_LIMIT, 1 / SCALE_LIMIT)),
            ((0, 0), (SCALE_LIMIT, 2 * SCALE_LIMIT), (0, 1), (SCALE_LIMIT, SCALE_LIMIT)),
            ((2 * SCALE_LIMIT, 2 * SCALE_LIMIT), (1e90, 1e90), (2 * SCALE_LIMIT, 2 * SCALE_LIMIT), (1e90, 1e90)),
            ((1e-19, 1e-19), (1e-60, 1e-60), (1e-19, 1e-19), (1e-60, 1e-60)),  # |mu| / sigma^2 = 1e101
        ],
    )
    def test_box_beyond_the_limits_is_refused(self, bounds):
        with pytest.raises(InvalidParameterError):
            ParamDesignProblem(bounds=bounds, gamma=0.9)

    @pytest.mark.parametrize("norm", list(Norm))
    @pytest.mark.parametrize(
        "bounds",
        [
            ((0, 0), (1, 1), (0, SEPARATION_LIMIT), (1 / RATIO_LIMIT, RATIO_LIMIT)),
            ((0, 0), (1e-50, 1e-44), (0, 1e-48), (1e-50, 1e-44)),
            ((0, 0), (1, RATIO_LIMIT), (-1e39, 1e39), (1, RATIO_LIMIT)),
        ],
    )
    def test_box_at_the_limits_is_solved(self, bounds, norm):
        # every square and sensitivity stays finite: no RuntimeWarning
        result = design_params(ParamDesignProblem(bounds=bounds, gamma=0.9, norm=norm))
        assert abs(result.accuracy - 0.9) <= 1e-9
        assert 0.0 < result.sensitivity < math.inf

    @pytest.mark.parametrize("norm", list(Norm))
    @pytest.mark.parametrize("scale", [1e-60, 1e25, 1e60])
    def test_rescaled_box_solves_alike(self, scale, norm):
        # the solver sees a box only through its width ratios and separations
        unit = ((0.0, 0.0), (1.0, 2.0), (0.0, 40.0), (1.0, 1.5))
        base = design_params(ParamDesignProblem(bounds=unit, gamma=0.9, norm=norm))
        bounds = tuple((lo * scale, hi * scale) for lo, hi in unit)
        result = design_params(ParamDesignProblem(bounds=bounds, gamma=0.9, norm=norm))
        assert result.accuracy == pytest.approx(base.accuracy, abs=1e-12)
        assert result.sensitivity * scale == pytest.approx(base.sensitivity, rel=1e-12)
        assert [v / scale for v in result.theta] == pytest.approx(base.theta, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize(
        "change",
        [
            {"bounds": [[0, 0], [0.1, "wide"], [0, 40], [0.1, 15]]},
            {"bounds": [[0, 0], [0.1, 15], [0, 40]] + [[0.1]]},
            {"bounds": "fig3"},
            {"gamma": "high"},
            {"mean_gap_max": [40]},
            {"p0": None},
            {"norm": "l7"},
            {"ordered_sigmas": "yes"},
        ],
    )
    def test_from_dict_rejects_malformed_values(self, change):
        spec = {**fig3_box(0.8).to_dict(), **change}
        with pytest.raises(SchemaError):
            ParamDesignProblem.from_dict(spec)

    def test_feasibility_guard(self):
        # a cramped box cannot reach accuracy 0.99
        box = ParamDesignProblem(
            bounds=((0.0, 0.0), (3.0, 4.0), (0.0, 1.0), (3.0, 4.0)), gamma=0.99
        )
        assert _max_accuracy_shape(box)[0] < 0.95
        with pytest.raises(InfeasibleTargetError):
            design_params(box)

    def test_single_design_is_feasible_and_consistent(self):
        problem = fig3_box(0.9)
        result = design_params(problem)
        assert abs(result.accuracy - 0.9) <= 1e-5
        # verify against the library pipeline on the designed pair
        assert accuracy(
            GeneralSpec(BoundarySet(result.boundaries)), result.pair
        ) == pytest.approx(result.accuracy, abs=1e-9) or len(result.boundaries) == 1
        lo = np.array([b[0] for b in problem.bounds])
        hi = np.array([b[1] for b in problem.bounds])
        assert np.all(np.asarray(result.theta) >= lo - 1e-12)
        assert np.all(np.asarray(result.theta) <= hi + 1e-12)
        assert result.theta[3] <= result.theta[1] + 1e-12
        # the scan record names the optimum's shape
        assert result.scan.feasible > 0
        assert result.scan.d == pytest.approx((result.theta[2] - result.theta[0]) / result.theta[1])
        assert result.scan.r == pytest.approx(result.theta[3] / result.theta[1])

    def test_pair_carries_the_prior(self):
        result = design_params(dataclasses.replace(fig3_box(0.8), p0=0.3))
        assert result.pair.p0 == 0.3
        assert accuracy(MLSpec(1.0), result.pair) == pytest.approx(result.accuracy, abs=1e-9)
        assert abs(result.accuracy - 0.8) <= 1e-9

    def test_chance_target_trivial(self):
        problem = fig3_box(0.5)
        result = design_params(problem)
        assert result.sensitivity <= 1e-6

    def test_sweep_monotonicity_small(self):
        gammas = [0.6, 0.75, 0.9]
        results = gamma_sweep(fig3_box(gammas[0]), gammas)
        sens = [r.sensitivity for r in results]
        assert sens[0] >= sens[1] - 1e-4 and sens[1] >= sens[2] - 1e-4
        text = sweep_csv_text(results)
        assert text.splitlines()[0] == "gamma,sens_star,mu0,sigma0,mu1,sigma1"
        assert len(text.splitlines()) == 4

    def test_determinism(self):
        problem = fig3_box(0.8)
        a = design_params(problem)
        b = design_params(problem)
        assert a.theta == b.theta and a.sensitivity == b.sensitivity
        assert a.to_dict() == b.to_dict()

    def test_design_is_placed_nearest_the_origin(self):
        # at mu0 = -0.001, a thousand times 1 / eps widths from the origin,
        # mu0 + d sigma0 would round the gap away (accuracy 0.8, the prior)
        box = ParamDesignProblem(
            bounds=((-0.001, 0.001), (1e-30, 1e-30), (-0.001, 0.001), (1e-30, 1e-30)), gamma=0.9, p0=0.2
        )
        result = design_params(box)
        assert result.theta[0] == 0.0
        assert abs(result.accuracy - 0.9) <= 1e-9
        assert accuracy(MLSpec(1.0), result.pair) == pytest.approx(0.9, abs=1e-9)

    def test_design_whose_gap_is_lost_to_rounding_is_refused(self):
        # mu0 is pinned at 10, 1e13 widths from the origin: the placed design
        # would reach 0.90002, not 0.9
        box = ParamDesignProblem(bounds=((10, 10), (1e-12, 1e-12), (10, 11), (1e-12, 1e-12)), gamma=0.9)
        with pytest.raises(SolverFailureError, match="lost to rounding"):
            design_params(box)

    def test_design_with_equal_widths_reproduces_through_the_public_pipeline(self):
        # this box's optimum has equal widths, near which a pair's roots
        # must still meet the residual bound of the public pipeline
        box = ParamDesignProblem(
            bounds=((-0.914, 1.832), (2.493, 4.742), (2.570, 5.874), (1.205, 3.154)),
            gamma=0.8833, ordered_sigmas=True, p0=0.3715,
        )
        result = design_params(box)
        assert result.boundaries == ml_boundaries(result.pair, 1.0).roots
        assert accuracy(MLSpec(1.0), result.pair) == pytest.approx(result.accuracy, abs=1e-12)
        assert sensitivity(MLSpec(1.0), result.pair) == pytest.approx(result.sensitivity, rel=1e-12)

    def test_low_gamma_optimum_uses_unequal_widths(self):
        # Below accuracy ~0.64 the true optimum leaves the equal-width family:
        # shrinking the second width trades the tied mean components against a
        # smaller worst component.  Verified against exhaustive 2-d profile
        # scans over (sigma0, sigma1) with the separation root-solved per cell;
        # the designed minimum therefore rises with gamma on this stretch
        # before the equal-width branch takes over and falls monotonically.
        low = design_params(fig3_box(0.55))
        mid = design_params(fig3_box(0.6426))
        assert low.theta[3] < low.theta[1] - 0.5  # strictly unequal widths
        assert low.sensitivity < mid.sensitivity - 5e-4
        # equal-width law value at the cap width; the unequal design beats it
        z = 0.12566134685507405  # standard normal quantile of 0.55
        law = math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi) / 30.0
        assert low.sensitivity < law - 1e-3


def _ml_accuracy(pair: HypothesisPair) -> float:
    """Public accuracy of the maximum-accuracy classifier, also for a pair
    whose likelihood ratio never crosses one (one region, won by the larger
    prior)."""
    try:
        return accuracy(MLSpec(1.0), pair)
    except UnresolvedClassifierError:
        return max(pair.p0, pair.p1)


def _grid_designs(box: ParamDesignProblem, n: int):
    """Brute force without the shape argument, through the public pipeline:
    for each (sigma0, sigma1) cell of a coarse grid and each mu0 bound,
    root-solve mu1 on either side of mu0 so that the maximum-accuracy
    classifier reaches gamma; yields (sensitivity, theta)."""

    def pair(theta):
        mu0, s0, mu1, s1 = theta
        return HypothesisPair(DensityModel.gaussian(mu0, s0), DensityModel.gaussian(mu1, s1), box.p0)

    def defect(theta):
        return _ml_accuracy(pair(theta)) - box.gamma

    (m1_lo, m1_hi), gap = box.bounds[2], box.mean_gap_max
    for mu0 in sorted(set(box.bounds[0])):
        lo, hi = (m1_lo, m1_hi) if gap is None else (max(m1_lo, mu0 - gap), min(m1_hi, mu0 + gap))
        for s0 in np.linspace(*box.bounds[1], n):
            for s1 in np.linspace(*box.bounds[3], n):
                if box.ordered_sigmas and s1 > s0:
                    continue
                # accuracy rises with |mu1 - mu0| on either side of mu0
                sides = [(max(lo, mu0), hi), (min(hi, mu0), lo)]
                for near, far in [s for s in sides if min(s) >= lo and max(s) <= hi]:
                    at_near, at_far = defect((mu0, s0, near, s1)), defect((mu0, s0, far, s1))
                    if at_near > 0.0 or at_far < 0.0:
                        continue
                    mu1 = near if at_near == 0.0 else far if at_far == 0.0 else brentq(
                        lambda m: defect((mu0, s0, m, s1)), near, far, xtol=1e-13
                    )
                    theta = (mu0, s0, mu1, s1)
                    try:
                        yield sensitivity(MLSpec(1.0), pair(theta), box.norm), theta
                    except UnresolvedClassifierError:
                        yield 0.0, theta


def _coordinates(mu0, s0, mu1, s1):
    """The shape (d, r) of the pair N(mu0, s0) against N(mu1, s1)."""
    return (mu1 - mu0) / s0, s1 / s0


@st.composite
def _kernel_pairs(draw):
    """Gaussian pairs (mu0, s0, mu1, s1, p0) for the shape kernel: general
    draws (either width larger), equal widths and widths within 1e-9 of
    each other, and pairs whose prior keeps the ratio from crossing one (no
    root)."""
    means, widths, priors = st.floats(-6.0, 6.0), st.floats(0.2, 6.0), st.floats(0.2, 0.8)
    mu0, s0 = draw(means), draw(widths)
    kind = draw(st.sampled_from(["general", "equal", "no_root"]))
    if kind == "general":
        return mu0, s0, draw(means), draw(widths), draw(priors)
    if kind == "equal":
        s1 = s0 * (1.0 + draw(st.just(0.0) | st.floats(-1e-9, 1e-9)))
        return mu0, s0, draw(means), s1, draw(priors)
    # coincident means: p1 f1 < p0 f0 everywhere when p1 / p0 < s1 / s0 < 1,
    # and p1 f1 > p0 f0 everywhere when p1 / p0 > s1 / s0 > 1
    ratio = draw(st.floats(0.3, 0.9) | st.floats(1.1, 3.0))
    bound = 1.0 / (1.0 + ratio)
    p0 = draw(st.floats(bound + 0.01, 0.95) if ratio < 1.0 else st.floats(0.05, bound - 0.01))
    return mu0, s0, mu0, s0 * ratio, p0


class TestShapeReduction:
    """The invariances the exact design solver rests on, as properties of the
    shape kernel over random Gaussian pairs and priors, plus brute-force
    references through the public pipeline."""

    priors = st.floats(0.2, 0.8)

    @settings(max_examples=150, deadline=None)
    @given(_kernel_pairs(), st.floats(-20.0, 20.0), st.floats(0.05, 20.0))
    # widths 8.9e-10 apart: 9 s1 rounds the width ratio of the moved pair one
    # ulp lower, which moves the sensitivity by 7.4e-8 relative
    @example((1e-9, 1.0, 0.0, 0.9999999991089222, 0.5), 0.0, 9.0)
    # equal widths 1.2e-312 apart once moved: the one root lies at 1.7e308,
    # and its standard scores past the float range
    @example((2.225073858507e-311, 0.25, 0.0, 0.25, 0.25), 0.0, 0.0546875)
    def test_translation_and_scaling(self, theta, shift, scale):
        # The moved pair, evaluated as a design is (the closed form in its own
        # coordinates), matches the kernel at the shape of the first in
        # accuracy, and at its own shape in sensitivity, scaled by
        # 1 / (scale sigma0): where the widths nearly agree the sensitivity
        # turns on the last bit of the width ratio, which the move may round.
        mu0, s0, mu1, s1, p0 = theta
        moved = (scale * mu0 + shift, scale * s0, scale * mu1 + shift, scale * s1)
        # Float rounding may merge two means a few ulps apart; an identical
        # pair has no boundary and so no sensitivity, a distinct one has both.
        assume((moved[0] == moved[2]) == (mu0 == mu1))
        acc = _shape_accuracy(*_coordinates(mu0, s0, mu1, s1), p0)
        assert _design_eval(moved, p0, Norm.INF)[0] == pytest.approx(float(acc), abs=1e-9)
        # Near a tangential double root the two roots are fixed only to
        # sqrt(eps) and the sensitivity is of the order of their gap.
        for norm in Norm:
            sens = float(_norms(_gradients(*_shape(*_coordinates(*moved), p0)), norm)) / s0
            assert _design_eval(moved, p0, norm)[1] * scale == pytest.approx(sens, rel=1e-8, abs=1e-8)

    @settings(max_examples=150, deadline=None)
    @given(st.floats(0.0, 8.0), st.floats(0.0, 8.0), st.floats(0.05, 5.0), priors)
    def test_accuracy_even_and_monotone_in_separation(self, d1, d2, r, p0):
        near, far = sorted((d1, d2))
        d = np.array([d1, -d1, near, far])
        acc = _shape_accuracy(d, r, p0)
        assert acc[1] == pytest.approx(acc[0], abs=1e-12)
        assert acc[2] <= acc[3] + 1e-12

    @settings(max_examples=150, deadline=None)
    @given(_kernel_pairs())
    def test_kernel_matches_public_pipeline(self, theta):
        # the kernel at the shape (d, r) of theta against the public pipeline
        # at N(0, 1) against N(d, r), the pair of that very shape
        d, r = _coordinates(*theta[:4])
        p0 = theta[4]
        acc, (lo, hi) = _shape_accuracy(d, r, p0), _shape(d, r, p0)[1]
        roots = tuple(float(y) for y in (lo, hi) if math.isfinite(y))
        pair = HypothesisPair(DensityModel.gaussian(0.0, 1.0), DensityModel.gaussian(d, r), p0)
        assert roots == ml_boundaries(pair, 1.0).roots
        if not roots:  # a single region: the larger prior wins everywhere
            assert acc == max(p0, 1.0 - p0)
            return
        assert accuracy(MLSpec(1.0), pair) == pytest.approx(float(acc), abs=1e-12)
        for norm in Norm:
            sens = _norms(_gradients(*_shape(d, r, p0)), norm)
            assert sensitivity(MLSpec(1.0), pair, norm) == pytest.approx(float(sens), rel=1e-9, abs=1e-15)

    @pytest.mark.parametrize("gamma,norm", [(0.55, Norm.INF), (0.9, Norm.TWO)])
    def test_design_not_beaten_by_brute_force_grid(self, gamma, norm):
        box = fig3_box(gamma, norm)
        best_grid = min(_grid_designs(box, 31))[0]
        result = design_params(box)
        assert result.sensitivity <= best_grid * (1.0 + 1e-9)

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4),
        st.lists(st.floats(0.2, 5.0), min_size=4, max_size=4),
        st.floats(0.55, 0.97),
        st.sampled_from(list(Norm)),
        st.none() | st.floats(0.5, 8.0),
        st.booleans(),
        priors,
    )
    def test_random_box_not_beaten_by_brute_force_grid(self, means, widths, gamma, norm, gap, ordered, p0):
        # unordered widths and ratio ranges that cross 1 unless ordered
        try:
            box = ParamDesignProblem(
                bounds=(tuple(sorted(means[:2])), tuple(sorted(widths[:2])),
                        tuple(sorted(means[2:])), tuple(sorted(widths[2:]))),
                gamma=gamma, norm=norm, mean_gap_max=gap, ordered_sigmas=ordered, p0=p0,
            )
        except InvalidParameterError:
            assume(False)
        grid = list(_grid_designs(box, 8))
        try:
            result = design_params(box)
        except InfeasibleTargetError:
            # a brute-force design can only meet gamma at the box's edge
            assert not grid or _max_accuracy_shape(box)[0] >= gamma - 1e-9
            return
        if grid:
            assert result.sensitivity <= min(grid)[0] * (1.0 + 1e-9)
        # the design's boundaries are those of the public pipeline at its pair
        assert result.boundaries == ml_boundaries(result.pair, 1.0).roots
        if not result.boundaries:
            assert result.sensitivity == 0.0
            return
        # and so are its accuracy and sensitivity, to the float
        assert accuracy(MLSpec(1.0), result.pair) == result.accuracy
        assert sensitivity(MLSpec(1.0), result.pair, norm) == result.sensitivity

    def test_max_accuracy_not_below_brute_force_grid(self):
        box = ParamDesignProblem(
            bounds=((0.0, 0.0), (3.0, 4.0), (0.0, 1.0), (3.0, 4.0)), gamma=0.99
        )
        best_grid = max(
            _ml_accuracy(HypothesisPair(DensityModel.gaussian(0.0, s0), DensityModel.gaussian(mu1, s1), box.p0))
            for s0 in np.linspace(3.0, 4.0, 21)
            for s1 in np.linspace(3.0, 4.0, 21)
            for mu1 in np.linspace(0.0, 1.0, 21)
        )
        assert _max_accuracy_shape(box)[0] >= best_grid - 1e-12


#: The designs of ``reproduce fig3`` (its 20 gammas), recorded before the
#: design scored its shapes through the classifier's kernel.
FIG3_DESIGNS = json.loads((Path(__file__).parent / "data" / "fig3_designs.json").read_text())


def test_fig3_designs_match_the_record():
    gammas = [row["gamma"] for row in FIG3_DESIGNS]
    assert gammas == np.linspace(0.55, 0.99, 20).tolist()
    for row, result in zip(FIG3_DESIGNS, gamma_sweep(fig3_box(gammas[0]), gammas)):
        assert result.sensitivity == pytest.approx(row["sens_star"], rel=1e-12, abs=0.0)
        assert result.theta == pytest.approx(tuple(row["theta"]), rel=1e-12, abs=0.0)
        # a design reports the floats of the public functions at its pair
        assert result.accuracy == accuracy(MLSpec(1.0), result.pair)
        assert result.sensitivity == sensitivity(MLSpec(1.0), result.pair, result.norm)


#: SHA-256 digests of the CSV text of the fig3 sweep (``linspace`` of the
#: recorded gammas) in both norms.
FIG3_SWEEPS = json.loads((Path(__file__).parent / "data" / "fig3_sweep_digests.json").read_text())


@pytest.mark.parametrize("record", FIG3_SWEEPS, ids=lambda r: r["norm"])
def test_fig3_sweep_is_unchanged(record):
    start, stop, num = record["gammas"]
    results = gamma_sweep(fig3_box(start, Norm(record["norm"])), np.linspace(start, stop, num))
    assert hashlib.sha256(sweep_csv_text(results).encode()).hexdigest() == record["csv_sha256"]


def _mp_accuracy(d, r, p0):
    """A(d, r) of N(0, 1) against N(d, r) at prior p0, in mpmath: the roots
    of the log ratio gap a y^2 + b y + c and the mass each hypothesis puts
    where it wins."""
    p1 = 1 - p0
    level = mpmath.log(p1 / p0) - mpmath.log(r)
    a, b, c = (r - 1) * (r + 1) / (2 * r * r), d / (r * r), level - d * d / (2 * r * r)
    disc = b * b - 4 * a * c
    if disc <= 0:  # one region, H1's where the gap is positive
        return p1 if (a > 0 or (a == 0 and c > 0)) else p0
    if a == 0:  # H1 right of the root where b > 0
        y = -c / b
        left = p0 * mpmath.ncdf(y) + p1 * (1 - mpmath.ncdf((y - d) / r))
        return left if b > 0 else 1 - left
    lo, hi = sorted((-b + sgn * mpmath.sqrt(disc)) / (2 * a) for sgn in (-1, 1))
    inside0 = mpmath.ncdf(hi) - mpmath.ncdf(lo)
    inside1 = mpmath.ncdf((hi - d) / r) - mpmath.ncdf((lo - d) / r)
    # H1 wins outside (lo, hi) where a > 0
    return p0 * inside0 + p1 * (1 - inside1) if a > 0 else p0 * (1 - inside0) + p1 * inside1


class TestEnvelopeSlope:
    """The slope ``_separation_residual`` hands the Newton solve: dA/dd at the
    fixed maximum-accuracy roots, by the envelope theorem."""

    shapes = (st.floats(0.0, 50.0), st.floats(math.log(1e-3), math.log(1e3)).map(math.exp), st.floats(0.05, 0.95))

    @settings(max_examples=80, deadline=None)
    @given(*shapes)
    @example(0.0, 2.0, 0.5)  # A is even in d: a flat start
    @example(50.0, 1e-3, 0.5)  # saturated: the scores leave the float range
    @example(1.175494351e-38, 1.0, 0.5)  # beside the kink of A = Phi(|d| / 2) at d = 0
    def test_matches_the_derivative_of_the_accuracy(self, d, r, p0):
        slope = float(_separation_residual(np.float64(d), r, p0, 0.0)[1])
        md, mr, mp0 = map(mpmath.mpf, (d, r, p0))
        # the size of the two terms p1 phi(z1) / r whose difference is the
        # slope; A differs from a prior by about that much, so it is
        # differentiated with that many more digits
        lo, hi, _ = _gaussian_roots(np.float64(d), r, math.log((1 - p0) / p0) - math.log(r))
        with mpmath.workdps(30):
            terms = sum(
                mpmath.npdf((mpmath.mpf(float(y)) - md) / mr) for y in (lo, hi) if math.isfinite(y)
            ) * (1 - mp0) / mr
        if terms < 1e-300:  # below the float range phi reads 0, and so does the slope
            assert abs(slope) <= 1e-300
            return
        # from the right for d > 0: a central step wider than d straddles
        # the kink that equal widths and priors put at d = 0, where A is even
        with mpmath.workdps(30 + int(-mpmath.log10(terms))):
            ref = mpmath.diff(lambda x: _mp_accuracy(x, mr, mp0), md, direction=1 if d > 0 else 0)
        assert abs(slope - ref) <= 1e-6 * max(abs(ref), terms), (slope, ref)

    @st.composite
    def rootless_shapes(draw):
        """(d, r, p0) whose ratio never crosses one: with r < 1 a prior with
        p1 / p0 < r and with r > 1 one with p1 / p0 > r puts the quadratic
        gap on one side of 0 for |d| below the root of its discriminant.
        Priors in [0.05, 0.95] leave such ratios in about [0.06, 18]."""
        narrow = draw(st.booleans())
        r = draw(st.floats(0.07, 0.99) if narrow else st.floats(1.01, 15.0))
        edge = 1.0 / (1.0 + r)
        p0 = draw(st.floats(edge + 0.01, 0.95) if narrow else st.floats(0.05, edge - 0.01))
        level = math.log((1.0 - p0) / p0) - math.log(r)
        d_max = math.sqrt(2.0 * (r * r - 1.0) * level)
        return draw(st.floats(0.0, 0.99)) * d_max, r, p0

    @settings(max_examples=60, deadline=None)
    @given(rootless_shapes())
    def test_zero_where_the_ratio_has_no_root(self, shape):
        d, r, p0 = shape
        lo, hi, _ = _gaussian_roots(np.float64(d), r, math.log((1 - p0) / p0) - math.log(r))
        assert lo == hi == math.inf
        assert _separation_residual(np.float64(d), r, p0, 0.0)[1] == 0.0


class TestSlopeRow:
    """``_separation_residual`` computes only the mu1 row of ``_gradients``,
    by the same operations, so its slope is that row to the bit."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.tuples(st.floats(0.0, 60.0), st.floats(-3.0, 3.0)), min_size=1, max_size=8),
        st.floats(0.05, 0.95),
    )
    def test_slope_is_the_mu1_row_of_the_kernel(self, shapes, p0):
        d = np.asarray([v for v, _ in shapes])
        r = 10.0 ** np.asarray([w for _, w in shapes])
        slope = _separation_residual(d, r, p0, 0.0)[1]
        assert slope.tobytes() == _gradients(*_shape(d, r, p0))[2].tobytes()


class TestNewtonSeparationRoot:
    """The separation roots of ``_designs``, solved by the shared ``_newton``
    with the envelope slope."""

    BAND = 4.0 * np.finfo(float).eps  # the residual's rounding band: A lies in [0.5, 1]

    @staticmethod
    def _record(box, monkeypatch):
        """Every ``_newton`` call of one design of ``box``: its arguments and roots."""
        calls, newton = [], param_designer._newton

        def recording(fn, lo, hi, r_lo, r_hi, tol, *args):
            x = newton(fn, lo, hi, r_lo, r_hi, tol, *args)
            calls.append((fn, lo, hi, r_lo, r_hi, tol, args, x))
            return x

        monkeypatch.setattr(param_designer, "_newton", recording)
        design_params(box)
        monkeypatch.undo()
        return calls

    boxes = [
        fig3_box(0.65),
        fig3_box(0.99),
        fig3_box(0.9, Norm.TWO),
        ParamDesignProblem(bounds=((0, 0), (1, 1), (0, SEPARATION_LIMIT), (1 / RATIO_LIMIT, RATIO_LIMIT)), gamma=0.9),
        ParamDesignProblem(bounds=((0, 0), (1, RATIO_LIMIT), (-1e39, 1e39), (1, RATIO_LIMIT)), gamma=0.9),
        ParamDesignProblem(bounds=((-1, 2), (0.5, 3), (0, 4), (0.2, 6)), gamma=0.8, p0=0.3),
    ]

    @pytest.mark.parametrize("box", boxes)
    def test_roots_agree_with_brentq(self, box, monkeypatch):
        calls, widths = self._record(box, monkeypatch), []
        for fn, lo, hi, r_lo, r_hi, tol, (r,), x in calls:
            assert tol == D_XTOL
            reference = np.asarray([
                brentq(lambda z: float(fn(np.asarray([z]), r[k:k + 1])[0][0]), a, b, xtol=1e-15, rtol=1e-15)
                for k, (a, b) in enumerate(zip(lo, hi))
            ])
            assert np.all((x >= lo) & (x <= hi))
            near = np.abs(x - reference) <= D_XTOL
            level = np.abs(fn(x, r)[0]) <= self.BAND
            assert np.all(near | level), (x[~(near | level)], reference[~(near | level)])
            widths.append(hi - lo)
        # the scan round's brackets from 0, and the zoom's narrow ones
        assert np.all(calls[0][1] == 0.0) and np.concatenate(widths[1:]).min() < 1e-6

    @pytest.mark.parametrize("box", boxes[:4])
    def test_batch_returns_the_roots_of_one_call_per_ratio(self, box, monkeypatch):
        for fn, lo, hi, r_lo, r_hi, tol, (r,), x in self._record(box, monkeypatch):
            alone = [
                _newton(fn, *(v[k:k + 1] for v in (lo, hi, r_lo, r_hi)), tol, r[k:k + 1])[0]
                for k in range(lo.size)
            ]
            assert x.tobytes() == np.asarray(alone).tobytes()

    #: ``_gaussian_roots`` calls of one fig3 pass; bisecting the separation
    #: roots took 732, the Newton solve takes 161.
    PASS_CALLS = 300

    def test_fig3_pass_kernel_calls(self, monkeypatch):
        count, kernel = [], boundary_solver._gaussian_roots

        def counting(*args):
            count.append(1)
            return kernel(*args)

        # the design's kernel, and the closed form behind its final evaluation
        monkeypatch.setattr(param_designer, "_gaussian_roots", counting)
        monkeypatch.setattr(boundary_solver, "_gaussian_roots", counting)
        for gamma, norm in ((0.65, Norm.INF), (0.99, Norm.INF), (0.9, Norm.TWO)):
            design_params(fig3_box(gamma, norm))
        assert 0 < len(count) <= self.PASS_CALLS
