import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from accsens.boundary_solver import default_search_interval, ml_boundaries
from accsens.classifier import (
    BoundarySet,
    GeneralSpec,
    MLSpec,
    Norm,
    Orientation,
    accuracy,
    apply_norm,
    region_accuracy,
    region_accuracy_gradient,
    sensitivity,
)
from accsens.densities import CustomDensity, DensityModel, HypothesisPair
from accsens.errors import InfeasibleTargetError, InvalidParameterError, SolverFailureError
from accsens.tradeoff import (
    TradeoffCurve,
    constrained_min_sensitivity,
    general_curve,
    linear_curve,
    ml_curve,
)


def _point_at(curve: TradeoffCurve, parameter: float):
    for p in curve.points:
        if p.parameter == parameter:
            return p
    raise AssertionError(f"no point with parameter {parameter}")


def _acc_max(pair) -> float:
    report = ml_boundaries(pair, 1.0)
    return region_accuracy(pair, report.roots, report.orientation)


class TestMlCurve:
    def test_reference_points(self, table1_pair):
        curve = ml_curve(table1_pair)
        red = _point_at(curve, 1.0)
        assert red.accuracy == pytest.approx(0.7891, abs=5e-4)
        assert red.sensitivity == pytest.approx(0.0334, abs=1e-3)
        green = ml_curve(table1_pair, np.asarray([0.4603]))
        assert green.points[0].accuracy == pytest.approx(0.7766, abs=5e-4)
        assert green.points[0].sensitivity == pytest.approx(0.0201, abs=1e-3)

    def test_singleton_grid_is_max_accuracy(self, table1_pair):
        curve = ml_curve(table1_pair, np.asarray([1.0]))
        assert len(curve.points) == 1
        assert curve.points[0].accuracy == pytest.approx(_acc_max(table1_pair), abs=1e-14)

    def test_curve_invariants(self, table1_pair):
        curve = ml_curve(table1_pair)
        acc = curve.accuracies
        assert np.all(np.diff(acc) > 0)  # strictly increasing after collapse
        assert np.all(acc >= 0.5)
        assert len({len(p.boundaries) for p in curve.points}) == 1
        assert curve.metadata["degenerate_etas"] > 0  # thresholds past coalescence

    def test_dominated_pair_exists_with_inf_norm(self, table1_pair):
        # detuning the threshold can simultaneously lose accuracy and gain
        # sensitivity: the sweep is not a monotone frontier
        curve = ml_curve(table1_pair, norm=Norm.INF)
        acc, sens = curve.accuracies, curve.sensitivities
        found = any(
            np.any((acc[:i] < acc[i] - 1e-6) & (sens[:i] > sens[i] + 1e-6))
            for i in range(len(acc))
        )
        assert found

    @pytest.mark.parametrize("eta_grid", [[1.0 + 1e-5], [1.0, 1.0 + 1e-5]])
    def test_solver_warnings_are_kept(self, eta_grid):
        # at eta = 1 + 1e-5 the ratio root of this pair sits exactly on the
        # support edge, and that solve warns about the root parity
        pair = HypothesisPair(DensityModel.exponential(1.0), DensityModel.exponential(1.0 + 1e-5))
        curve = ml_curve(pair, np.asarray(eta_grid))
        assert curve.metadata["warnings"] == list(ml_boundaries(pair, 1.0 + 1e-5).warnings)
        assert "parity" in curve.metadata["warnings"][0]

    def test_clean_curve_has_no_warnings_key(self, exp_pair):
        assert "warnings" not in ml_curve(exp_pair).metadata

    def test_empty_and_invalid_grids(self, table1_pair):
        with pytest.raises(InvalidParameterError):
            ml_curve(table1_pair, np.asarray([]))
        with pytest.raises(InvalidParameterError):
            ml_curve(table1_pair, np.asarray([-1.0]))


class TestLinearCurve:
    def test_best_point_is_optimal_linear(self, table1_pair):
        curve = linear_curve(table1_pair)
        best = max(curve.points, key=lambda p: p.accuracy)
        assert best.parameter == pytest.approx(3.6534, abs=1e-3)
        assert best.accuracy == pytest.approx(0.78347, abs=1e-4)

    def test_far_boundary_degenerates(self, table1_pair):
        curve = linear_curve(table1_pair, np.asarray([-1e6, 0.0, 1e6]))
        far = [p for p in curve.points if abs(p.parameter) == 1e6]
        for p in far:
            assert p.accuracy == pytest.approx(max(table1_pair.p0, table1_pair.p1), abs=1e-12)
            assert p.sensitivity <= 1e-12

    def test_equal_variance_midpoint_accuracy(self):
        pair = HypothesisPair(DensityModel.gaussian(-2, 3), DensityModel.gaussian(4, 3), 0.5)
        curve = linear_curve(pair, np.asarray([1.0]))
        from scipy.special import ndtr

        assert curve.points[0].accuracy == pytest.approx(float(ndtr(6 / (2 * 3))), abs=1e-14)

    def test_kept_orientation_never_below_chance(self, table1_pair):
        curve = linear_curve(table1_pair)
        assert np.all(curve.accuracies >= 0.5)

    def test_accuracy_outside_unit_interval_is_a_solver_failure(self):
        # a custom family whose cdf overshoots 1, as region_accuracy refuses it
        broken = CustomDensity(
            name="overshoot",
            param_names=("a",),
            pdf=lambda x, p: np.zeros_like(x),
            cdf=lambda x, p: np.full_like(x, 5.0),
            sampler=lambda rng, n, p: np.zeros(n),
        )
        pair = HypothesisPair(DensityModel.from_custom(broken, (1.0,)), DensityModel.gaussian(0.0, 1.0))
        with pytest.raises(SolverFailureError, match="escaped"):
            linear_curve(pair, np.asarray([-1.0, 0.0]))


@st.composite
def linear_sweeps(draw):
    """A random Gaussian or exponential pair and boundary positions reaching
    half the search interval past either end."""
    if draw(st.booleans()):
        h0 = DensityModel.gaussian(draw(st.floats(-5.0, 5.0)), draw(st.floats(0.5, 6.0)))
        h1 = DensityModel.gaussian(draw(st.floats(-5.0, 5.0)), draw(st.floats(0.5, 6.0)))
    else:
        h0 = DensityModel.exponential(draw(st.floats(0.2, 5.0)))
        h1 = DensityModel.exponential(draw(st.floats(0.2, 5.0)))
    pair = HypothesisPair(h0, h1, draw(st.floats(0.05, 0.95)))
    lo, hi = default_search_interval(pair)
    u = draw(st.lists(st.floats(-0.5, 1.5), min_size=1, max_size=40))
    return pair, lo + np.asarray(u) * (hi - lo)


class TestLinearCurveProperties:
    @settings(max_examples=50, deadline=None)
    @given(linear_sweeps(), st.sampled_from(list(Norm)))
    def test_points_reproduce_the_public_functions(self, sweep, norm):
        pair, ys = sweep
        curve = linear_curve(pair, ys, norm)
        for p in curve.points:
            (y,) = p.boundaries
            # the point-by-point sweep: the orientation at or above chance
            acc0 = accuracy(GeneralSpec(BoundarySet((y,), Orientation.H0_FIRST)), pair)
            assert p.orientation is (Orientation.H0_FIRST if acc0 >= 0.5 else Orientation.H1_FIRST)
            assert p.accuracy == (acc0 if acc0 >= 0.5 else 1.0 - acc0)
            spec = GeneralSpec(BoundarySet((y,), p.orientation))
            # 1 - acc0 may differ from the swapped sum in the last bit
            tol = 0.0 if p.orientation is Orientation.H0_FIRST else np.finfo(float).eps
            assert abs(accuracy(spec, pair) - p.accuracy) <= tol
            public = sensitivity(spec, pair, norm)
            if norm is Norm.INF:
                assert p.sensitivity == public
            else:
                assert abs(p.sensitivity - public) <= 1e-15 * public


class TestConstrainedMin:
    def test_saturated_target_returns_optimum(self, table1_pair):
        acc_max = _acc_max(table1_pair)
        pt = constrained_min_sensitivity(table1_pair, acc_max)
        np.testing.assert_allclose(pt.boundaries, (3.6534, 18.7774), atol=1e-3)
        assert pt.sensitivity == pytest.approx(0.0334, abs=1e-3)

    def test_chance_target_has_zero_sensitivity(self, table1_pair):
        pt = constrained_min_sensitivity(table1_pair, 0.5)
        assert pt.sensitivity == 0.0
        assert pt.boundaries[0] == pt.boundaries[1]

    def test_infeasible_target(self, table1_pair):
        with pytest.raises(InfeasibleTargetError):
            constrained_min_sensitivity(table1_pair, _acc_max(table1_pair) + 1e-3)

    def test_feasibility_tolerance(self, table1_pair):
        for zeta in (0.6, 0.7, 0.77):
            pt = constrained_min_sensitivity(table1_pair, zeta)
            assert abs(pt.accuracy - zeta) <= 1e-6

    def test_never_above_matched_ratio_classifier(self, table1_pair):
        # the ratio classifier at the same accuracy is a feasible candidate,
        # so the constrained minimum can only improve on it
        for eta in (0.4603, 0.2, 2.0):
            report = ml_boundaries(table1_pair, eta)
            acc = region_accuracy(table1_pair, report.roots, report.orientation)
            from accsens.classifier import apply_norm, region_accuracy_gradient

            s_ml = apply_norm(
                region_accuracy_gradient(table1_pair, report.roots, report.orientation), Norm.INF
            )
            pt = constrained_min_sensitivity(table1_pair, acc)
            assert pt.sensitivity <= s_ml + 1e-6


@pytest.fixture(scope="module")
def inf_curve(table1_pair):
    return general_curve(table1_pair, zeta_grid=np.linspace(0.5, _acc_max(table1_pair), 24))


class TestGeneralCurve:
    def test_every_point_feasible(self, inf_curve):
        for p in inf_curve.points:
            assert abs(p.accuracy - p.parameter) <= 1e-6

    def test_no_failed_targets(self, inf_curve):
        assert inf_curve.metadata["failed_zetas"] == []

    def test_near_monotone_inf(self, inf_curve):
        # The exact minimum genuinely dips by ~6e-5 where the active gradient
        # component switches (verified against a 3000x3000 brute-force grid),
        # so the non-increase property carries a 1e-4 allowance for the
        # max-component norm.
        s = inf_curve.sensitivities
        assert np.max(np.maximum(0.0, s[:-1] - s[1:])) <= 1e-4

    def test_monotone_two_norm(self, table1_pair):
        curve = general_curve(
            table1_pair,
            zeta_grid=np.linspace(0.5, _acc_max(table1_pair), 24),
            norm=Norm.TWO,
        )
        s = curve.sensitivities
        assert np.max(np.maximum(0.0, s[:-1] - s[1:])) <= 1e-5

    def test_csv_shape_and_determinism(self, table1_pair):
        grid = np.linspace(0.55, 0.75, 5)
        a = general_curve(table1_pair, zeta_grid=grid)
        b = general_curve(table1_pair, zeta_grid=grid)
        assert a.to_csv_text() == b.to_csv_text()
        header = a.to_csv_text().splitlines()[0]
        assert header == "accuracy,sensitivity,y1,y2,provenance"
        assert "np.float" not in a.to_csv_text()  # plain scalar formatting only


class TestPenaltyPath:
    def test_three_boundary_curve_is_best_effort(self, table1_pair):
        zetas = np.asarray([0.6, 0.7])
        curve = general_curve(table1_pair, zeta_grid=zetas, n_boundaries=3)
        assert curve.metadata.get("best_effort") is True
        for p in curve.points:
            assert len(p.boundaries) == 3
            assert abs(p.accuracy - p.parameter) <= 1e-6
        # three boundaries generalize two: no point may sit above the
        # two-boundary minimum by more than solver slack
        for p in curve.points:
            two = constrained_min_sensitivity(table1_pair, p.parameter)
            assert p.sensitivity <= two.sensitivity + 1e-3


class TestOneRootTopPoint:
    @pytest.mark.parametrize("norm", [Norm.INF, Norm.TWO])
    def test_exponential_curve_keeps_its_maximum_accuracy_point(self, exp_pair, norm):
        acc_max = _acc_max(exp_pair)
        curve = general_curve(exp_pair, zeta_grid=np.linspace(0.5, acc_max, 5), norm=norm)
        assert curve.metadata["failed_zetas"] == []
        top = curve.points[-1]
        spec = GeneralSpec(BoundarySet(top.boundaries, top.orientation))
        assert accuracy(spec, exp_pair) == pytest.approx(acc_max, abs=1e-9)
        assert top.sensitivity == pytest.approx(sensitivity(MLSpec(1.0), exp_pair, norm), abs=1e-12)


# ---- properties of the frontier over random pairs ----


def _level_roots(fn, grid):
    """Roots of fn bracketed by sign changes over a grid."""
    values = [fn(t) for t in grid]
    return [
        brentq(fn, a, b, xtol=1e-14)
        for a, b, fa, fb in zip(grid, grid[1:], values, values[1:])
        if fa * fb < 0
    ]


def _matched_sensitivities(pair, zeta, norm):
    """Sensitivities of every ratio classifier and every single-boundary
    classifier whose accuracy is zeta."""
    out = []
    log_etas = np.linspace(-12.0, 12.0, 241)

    def ratio_gap(t):
        report = ml_boundaries(pair, math.exp(t))
        return region_accuracy(pair, report.roots, report.orientation) - zeta

    for t in _level_roots(ratio_gap, log_etas):
        report = ml_boundaries(pair, math.exp(t))
        if report.roots:
            grad = region_accuracy_gradient(pair, report.roots, report.orientation)
            out.append(apply_norm(grad, norm))
    lo, hi = default_search_interval(pair)
    ys = np.unique(np.append(np.linspace(lo, hi, 401), ml_boundaries(pair, 1.0).roots))
    for orientation in Orientation:
        for y in _level_roots(lambda y: region_accuracy(pair, (y,), orientation) - zeta, ys):
            out.append(apply_norm(region_accuracy_gradient(pair, (y,), orientation), norm))
    return out


@st.composite
def two_root_gaussian_pairs(draw):
    mu0, mu1 = draw(st.floats(-5.0, 5.0)), draw(st.floats(-5.0, 5.0))
    s0, s1 = draw(st.floats(0.5, 6.0)), draw(st.floats(0.5, 6.0))
    assume(abs(s0 - s1) >= 0.2)
    pair = HypothesisPair(
        DensityModel.gaussian(mu0, s0), DensityModel.gaussian(mu1, s1), draw(st.floats(0.3, 0.7))
    )
    assume(len(ml_boundaries(pair, 1.0).roots) == 2)
    return pair


@st.composite
def exponential_pairs(draw):
    rate, ratio = draw(st.floats(0.5, 3.0)), draw(st.floats(1.2, 4.0))
    return HypothesisPair(DensityModel.exponential(rate), DensityModel.exponential(rate * ratio))


#: Where on the attainable accuracy range a target sits: anywhere inside, or
#: within 1e-3 to 1e-8 of the top, where a two-root pair's level set is a
#: loop only a few grid cells across.
positions = st.one_of(st.floats(0.02, 0.98), st.floats(3.0, 8.0).map(lambda k: 1.0 - 10.0**-k))


class TestFrontierProperties:
    def _check_point(self, pair, u, norm):
        acc_max = _acc_max(pair)
        floor = max(pair.p0, pair.p1)
        assume(acc_max - floor > 1e-3)
        zeta = floor + u * (acc_max - floor)
        pt = constrained_min_sensitivity(pair, zeta, norm)
        spec = GeneralSpec(BoundarySet(pt.boundaries, pt.orientation))
        assert abs(accuracy(spec, pair) - zeta) <= 1e-6
        assert abs(sensitivity(spec, pair, norm) - pt.sensitivity) <= 1e-9
        matched = _matched_sensitivities(pair, zeta, norm)
        assert matched, "no matched ratio or single-boundary classifier found"
        assert pt.sensitivity <= min(matched) + 1e-9

    @settings(max_examples=25, deadline=None)
    @given(two_root_gaussian_pairs(), positions, st.sampled_from(list(Norm)))
    def test_gaussian_point_is_feasible_and_dominates(self, pair, u, norm):
        self._check_point(pair, u, norm)

    @settings(max_examples=15, deadline=None)
    @given(exponential_pairs(), positions, st.sampled_from(list(Norm)))
    def test_exponential_point_is_feasible_and_dominates(self, pair, u, norm):
        self._check_point(pair, u, norm)

    @settings(max_examples=15, deadline=None)
    @given(st.one_of(two_root_gaussian_pairs(), exponential_pairs()), st.sampled_from(list(Norm)))
    def test_curve_top_is_the_maximum_accuracy_point(self, pair, norm):
        acc_max = _acc_max(pair)
        zetas = np.asarray([0.5 * (0.5 + acc_max), acc_max])
        curve = general_curve(pair, zeta_grid=zetas, norm=norm)
        assert curve.metadata["failed_zetas"] == []
        top = curve.points[-1]
        spec = GeneralSpec(BoundarySet(top.boundaries, top.orientation))
        assert accuracy(spec, pair) == pytest.approx(acc_max, abs=1e-9)
        assert top.sensitivity == pytest.approx(sensitivity(MLSpec(1.0), pair, norm), abs=1e-9)
