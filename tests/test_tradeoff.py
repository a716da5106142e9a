import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from accsens.boundary_solver import default_search_interval, ml_boundaries, optimal_linear_boundary
from accsens.classifier import (
    BoundarySet,
    GeneralSpec,
    LinearSpec,
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
    _assemble,
    TradeoffCurve,
    constrained_min_sensitivity,
    default_zeta_grid,
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
            spec = GeneralSpec(BoundarySet((y,), p.orientation))
            assert p.accuracy == accuracy(spec, pair)
            assert p.sensitivity == sensitivity(spec, pair, norm)


@pytest.fixture(scope="module")
def kink_pair() -> HypothesisPair:
    return HypothesisPair(DensityModel.gaussian(3.4, 0.6), DensityModel.gaussian(-2.5, 4.4), 0.32)


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

    # Minima found by a per-branch scalar Brent polish.  fig2c's target sits
    # 1e-9 below the maximum accuracy (zeta None), where the minimum lies on a
    # branch through a ratio root that is shorter than one zoom sample spacing.
    # The kink pair's inf-norm minima sit where two gradient components tie
    # with unequal slopes; a zoom window narrower than the best sample's
    # neighbours loses them by up to 8e-5 relative.
    @pytest.mark.parametrize(
        "name, zeta, norm, pinned",
        [
            ("table1_pair", 0.6, Norm.INF, 0.01477695256856416),
            ("table1_pair", 0.7, Norm.INF, 0.01748246113737712),
            ("table1_pair", 0.77, Norm.INF, 0.01968149381234189),
            ("table1_pair", 0.6, Norm.TWO, 0.02032927820898502),
            ("table1_pair", 0.7, Norm.TWO, 0.022192512326529985),
            ("table1_pair", 0.77, Norm.TWO, 0.027585033072757118),
            ("exp_pair", 0.55, Norm.INF, 0.04238068169077231),
            ("exp_pair", 0.6, Norm.INF, 0.08794618996645322),
            ("exp_pair", 0.55, Norm.TWO, 0.05841598074856281),
            ("exp_pair", 0.6, Norm.TWO, 0.12436333505724233),
            ("fig2c_pair", None, Norm.INF, 0.04291216711072849),
            ("kink_pair", 0.86, Norm.INF, 0.033477212541950255),
            ("kink_pair", 0.89, Norm.INF, 0.028672228693648192),
        ],
    )
    def test_no_worse_than_pinned_minima(self, name, zeta, norm, pinned, request):
        pair = request.getfixturevalue(name)
        zeta = _acc_max(pair) - 1e-9 if zeta is None else zeta
        pt = constrained_min_sensitivity(pair, zeta, norm)
        spec = GeneralSpec(BoundarySet(pt.boundaries, pt.orientation))
        assert abs(accuracy(spec, pair) - zeta) <= 1e-9
        assert pt.sensitivity <= pinned * (1.0 + 1e-10)


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

    def test_refined_minima_sums_the_zoomed_minima_of_every_target(self, table1_pair):
        grid = np.asarray([0.6, 0.7])
        count = general_curve(table1_pair, grid).metadata["refined_minima"]
        assert count > 0
        assert count == sum(
            general_curve(table1_pair, grid[i : i + 1]).metadata["refined_minima"] for i in range(2)
        )
        # one boundary needs no zoom; the base and top targets are not scanned
        assert general_curve(table1_pair, grid, 1).metadata["refined_minima"] == 0
        saturated = np.asarray([0.5, _acc_max(table1_pair)])
        assert general_curve(table1_pair, saturated).metadata["refined_minima"] == 0

    def test_inconsistent_cdf_refuses_every_target(self):
        # a custom family whose cdf runs up to 10: the top accuracy already
        # escapes [0, 1], which refuses each target as its one-target call does
        from scipy.special import ndtr

        inconsistent = CustomDensity(
            name="tenfold",
            param_names=("a",),
            pdf=lambda x, p: np.exp(-x * x / 8.0) / (2.0 * math.sqrt(2.0 * math.pi)),
            cdf=lambda x, p: 10.0 * ndtr(np.asarray(x) / 2.0),
            sampler=lambda rng, n, p: np.zeros(n),
            mean_scale=lambda p: (0.0, 2.0),
        )
        pair = HypothesisPair(DensityModel.from_custom(inconsistent, (1.0,)), DensityModel.gaussian(1.0, 1.0))
        curve = general_curve(pair, np.asarray([0.6, 0.7]))
        assert curve.points == ()
        assert [f["zeta"] for f in curve.metadata["failed_zetas"]] == [0.7, 0.6]
        with pytest.raises(SolverFailureError, match="escaped") as exc:
            constrained_min_sensitivity(pair, 0.6)
        assert curve.metadata["failed_zetas"][1]["error"] == str(exc.value)

    def test_csv_shape_and_determinism(self, table1_pair):
        grid = np.linspace(0.55, 0.75, 5)
        a = general_curve(table1_pair, zeta_grid=grid)
        b = general_curve(table1_pair, zeta_grid=grid)
        assert a.to_csv_text() == b.to_csv_text()
        header = a.to_csv_text().splitlines()[0]
        assert header == "accuracy,sensitivity,y1,y2,provenance"
        assert "np.float" not in a.to_csv_text()  # plain scalar formatting only


#: Frontier minima as the solver returned them when it bisected every
#: level-set point on its whole segment: n = 2 on 8 default targets and
#: n = 3 on two table1 targets, both norms.
RECORDED_MINIMA = json.loads((Path(__file__).parent / "data" / "frontier_minima.json").read_text())


class TestRecordedMinima:
    @pytest.mark.parametrize(
        "record", RECORDED_MINIMA, ids=lambda r: f"{r['pair']}-n{r['n_boundaries']}-{r['norm']}"
    )
    def test_no_target_lost_and_no_minimum_raised(self, record, request):
        pair = request.getfixturevalue(f"{record['pair']}_pair")
        n = record["n_boundaries"]
        if n == 2:
            assert default_zeta_grid(pair, n, 8).tolist() == record["zetas"]
        curve = general_curve(pair, np.asarray(record["zetas"]), n, Norm(record["norm"]))
        assert [p.parameter for p in curve.points] == record["zetas"]
        for p, recorded in zip(curve.points, record["sensitivities"]):
            assert p.sensitivity <= recorded * (1.0 + 1e-6)


@pytest.fixture(scope="module")
def chance_pair() -> HypothesisPair:
    """Its two-boundary minimum at target 0.5 read an accuracy of
    0.49999999999999994 when the level sets were bisected on whole segments."""
    return HypothesisPair(
        DensityModel.gaussian(-3.714297972308004, 3.808240966928466),
        DensityModel.gaussian(-0.007221375598850166, 0.6577895460456951),
        0.35917043383098235,
    )


class TestChanceTarget:
    def test_curve_keeps_the_chance_target(self, chance_pair):
        curve = general_curve(chance_pair, [0.5, 0.6], 2, Norm.INF)
        assert [p.parameter for p in curve.points] == [0.5, 0.6]
        assert curve.metadata["dropped_below_chance"] == 0
        assert curve.points[0] == constrained_min_sensitivity(chance_pair, 0.5)

    def test_a_point_meeting_chance_one_rounding_below_is_kept(self, chance_pair):
        # a constrained point is judged by its target, not its accuracy
        point = replace(constrained_min_sensitivity(chance_pair, 0.5), accuracy=0.49999999999999994)
        curve = _assemble([point], Norm.INF, "general", chance_pair, {})
        assert curve.points == (point,) and curve.metadata["dropped_below_chance"] == 0
        below = replace(point, parameter=0.49999999999999994)
        assert _assemble([below], Norm.INF, "general", chance_pair, {}).points == ()


class TestTargetValidation:
    @pytest.mark.parametrize("zeta", [math.nan, math.inf, -math.inf, -0.5, 1.5])
    def test_target_not_a_finite_accuracy(self, table1_pair, zeta):
        with pytest.raises(InvalidParameterError, match="not a finite number in"):
            constrained_min_sensitivity(table1_pair, zeta)
        with pytest.raises(InvalidParameterError, match="not a finite number in"):
            general_curve(table1_pair, np.asarray([0.6, zeta]))

    @pytest.mark.parametrize("grid", [[[0.6, 0.7]], 0.6])
    def test_grid_not_one_dimensional(self, table1_pair, grid):
        with pytest.raises(InvalidParameterError, match="one-dimensional"):
            general_curve(table1_pair, np.asarray(grid))

    def test_empty_grid(self, table1_pair):
        with pytest.raises(InvalidParameterError, match="empty"):
            general_curve(table1_pair, np.asarray([]))


@pytest.fixture(scope="module")
def steep_exp_pair() -> HypothesisPair:
    """At 0.6 (inf norm) the three-boundary scan and zoom alone stop 1.6e-2
    above the two-boundary minimum on this pair."""
    return HypothesisPair(DensityModel.exponential(1.5), DensityModel.exponential(5.0))


@pytest.fixture(scope="module")
def solved(request):
    """constrained_min_sensitivity by fixture name, each problem solved once."""
    cache = {}

    def solve(name, zeta, norm, n_boundaries):
        key = (name, zeta, norm, n_boundaries)
        if key not in cache:
            pair = request.getfixturevalue(name)
            cache[key] = constrained_min_sensitivity(pair, zeta, norm, n_boundaries)
        return cache[key]

    return solve


class TestBoundaryCounts:
    # Minima that an SLSQP polish of the same points does not lower by more
    # than 1e-9 relative.
    @pytest.mark.parametrize(
        "zeta, norm, pinned",
        [
            (0.5867, Norm.INF, 0.0047250046),
            (0.6734, Norm.INF, 0.0101863848),
            (0.6734, Norm.TWO, 0.0155114401),
        ],
    )
    def test_three_boundary_minima(self, table1_pair, solved, zeta, norm, pinned):
        pt = solved("table1_pair", zeta, norm, 3)
        assert pt.orientation is Orientation.H0_FIRST and len(pt.boundaries) == 3
        spec = GeneralSpec(BoundarySet(pt.boundaries, pt.orientation))
        assert abs(accuracy(spec, table1_pair) - zeta) <= 1e-9
        assert sensitivity(spec, table1_pair, norm) <= pinned * (1.0 + 1e-6)

    @pytest.mark.parametrize(
        "name, zeta, norm",
        [
            ("table1_pair", 0.5867, Norm.INF),
            ("table1_pair", 0.6734, Norm.INF),
            ("table1_pair", 0.6734, Norm.TWO),
            ("exp_pair", 0.55, Norm.INF),
            ("exp_pair", 0.6, Norm.INF),
            ("exp_pair", 0.55, Norm.TWO),
            ("exp_pair", 0.6, Norm.TWO),
            ("steep_exp_pair", 0.6, Norm.INF),
        ],
    )
    def test_more_boundaries_never_raise_the_minimum(self, solved, name, zeta, norm):
        # n boundaries followed by one at H* form an (n + 1)-boundary classifier
        s1, s2, s3 = (solved(name, zeta, norm, n).sensitivity for n in (1, 2, 3))
        assert s3 <= s2 * (1.0 + 1e-12)
        assert s2 <= s1 * (1.0 + 1e-12)

    def test_three_boundary_curve_is_deterministic(self, table1_pair):
        a, b = (general_curve(table1_pair, np.asarray([0.6734]), 3).to_csv_text() for _ in range(2))
        assert a == b
        assert a.splitlines()[0] == "accuracy,sensitivity,y1,y2,y3,provenance"


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


class TestSingleBoundaryTopPoint:
    """One boundary cannot reach the ratio classifier's accuracy when the
    ratio has two roots; its curve tops out at the best root instead."""

    @pytest.mark.parametrize("name", ["table1_pair", "fig2c_pair"])
    def test_default_grid_keeps_its_maximum(self, name, request):
        pair = request.getfixturevalue(name)
        report = ml_boundaries(pair, 1.0)
        assert len(report.roots) == 2
        best = max(region_accuracy(pair, (r,), report.orientation) for r in report.roots)
        assert best < _acc_max(pair)
        assert default_zeta_grid(pair, 1)[-1] == best
        curve = general_curve(pair, n_boundaries=1)
        assert curve.metadata["failed_zetas"] == []
        top = curve.points[-1]
        assert abs(top.accuracy - best) <= 1e-9
        spec = GeneralSpec(BoundarySet(top.boundaries, top.orientation))
        assert abs(accuracy(spec, pair) - best) <= 1e-9

    def test_target_above_the_best_root_is_infeasible(self, table1_pair):
        top = default_zeta_grid(table1_pair, 1)[-1]
        assert constrained_min_sensitivity(table1_pair, top + 1e-10, Norm.INF, 1).accuracy == top
        with pytest.raises(InfeasibleTargetError):
            constrained_min_sensitivity(table1_pair, top + 1e-6, Norm.INF, 1)

    @pytest.mark.parametrize("sigma0, p0", [(3.0, 0.6), (10.0, 0.9)])
    def test_prior_beats_every_root(self, sigma0, p0):
        # a wide H0 with a large prior: one boundary at H*, which calls
        # everything H0, is more accurate than one at either ratio root
        pair = HypothesisPair(DensityModel.gaussian(0.0, sigma0), DensityModel.gaussian(0.0, 1.0), p0)
        report = ml_boundaries(pair, 1.0)
        best = max(region_accuracy(pair, (r,), report.orientation) for r in report.roots)
        assert best < p0
        zetas = default_zeta_grid(pair, 1, 8)
        assert zetas[-1] == p0
        curve = general_curve(pair, zetas, n_boundaries=1)
        assert curve.metadata["failed_zetas"] == []
        assert curve.points[-1].accuracy == p0
        between = 0.5 * (best + p0)
        assert abs(constrained_min_sensitivity(pair, between, Norm.INF, 1).accuracy - between) <= 1e-9

    def test_more_boundaries_reach_the_ratio_accuracy(self, table1_pair):
        for n in (2, 3):
            assert default_zeta_grid(table1_pair, n)[-1] == _acc_max(table1_pair)


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


class TestCurvePointsArePublicValues:
    @settings(max_examples=12, deadline=None)
    @given(st.one_of(two_root_gaussian_pairs(), exponential_pairs()), st.sampled_from(list(Norm)))
    def test_every_point_equals_the_public_functions(self, pair, norm):
        # each curve evaluates its points on arrays; the public functions one
        # set at a time, and the floats must agree exactly
        curves = [ml_curve(pair, norm=norm), linear_curve(pair, norm=norm)]
        for n in (1, 2):
            curves.append(general_curve(pair, default_zeta_grid(pair, n, steps=5), n, norm))
        for curve in curves:
            assert curve.points
            for p in curve.points:
                spec = GeneralSpec(BoundarySet(p.boundaries, p.orientation))
                assert p.accuracy == accuracy(spec, pair)
                assert p.sensitivity == sensitivity(spec, pair, norm)
        best = optimal_linear_boundary(pair)
        assert best.accuracy == accuracy(LinearSpec(best.y, best.orientation), pair)


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

    @settings(max_examples=6, deadline=None)
    @given(st.one_of(two_root_gaussian_pairs(), exponential_pairs()), positions, st.sampled_from(list(Norm)))
    def test_three_boundary_point_is_feasible_and_dominates_two(self, pair, u, norm):
        acc_max = _acc_max(pair)
        floor = max(pair.p0, pair.p1)
        assume(acc_max - floor > 1e-3)
        zeta = floor + u * (acc_max - floor)
        pt = constrained_min_sensitivity(pair, zeta, norm, 3)
        spec = GeneralSpec(BoundarySet(pt.boundaries, pt.orientation))
        assert abs(accuracy(spec, pair) - zeta) <= 1e-9
        assert abs(sensitivity(spec, pair, norm) - pt.sensitivity) <= 1e-9
        two = constrained_min_sensitivity(pair, zeta, norm)
        assert pt.sensitivity <= two.sensitivity * (1.0 + 1e-12)

    @settings(max_examples=20, deadline=None)
    @given(
        st.one_of(two_root_gaussian_pairs(), exponential_pairs()),
        st.floats(0.02, 0.98),
        st.sampled_from(list(Norm)),
    )
    def test_single_boundary_point_is_the_best_level_root(self, pair, u, norm):
        report = ml_boundaries(pair, 1.0)
        orientation = report.orientation
        # one boundary in the base orientation reaches both priors (at the
        # far ends) and its best accuracy at a ratio root
        top = max(region_accuracy(pair, (r,), orientation) for r in report.roots)
        floor = max(pair.p0, pair.p1)
        assume(top - floor > 1e-3)
        zeta = floor + u * (top - floor)
        pt = constrained_min_sensitivity(pair, zeta, norm, 1)
        spec = GeneralSpec(BoundarySet(pt.boundaries, pt.orientation))
        assert pt.orientation is orientation
        assert abs(accuracy(spec, pair) - zeta) <= 1e-12
        lo, hi = default_search_interval(pair)
        ys = np.unique(np.append(np.linspace(lo, hi, 401), report.roots))
        roots = _level_roots(lambda y: region_accuracy(pair, (y,), orientation) - zeta, ys)
        best = min(apply_norm(region_accuracy_gradient(pair, (y,), orientation), norm) for y in roots)
        assert abs(pt.sensitivity - best) <= 1e-9

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


@st.composite
def target_grids(draw, n_boundaries):
    """A random pair and a shuffled target grid: interior targets, the top of
    default_zeta_grid, the base accuracy and one target above the top."""
    pair = draw(st.one_of(two_root_gaussian_pairs(), exponential_pairs()))
    top = default_zeta_grid(pair, n_boundaries, 2)[-1]
    assume(top < 1.0 - 1e-6)
    # the prior of the class that owns the rightmost region
    h0_first = ml_boundaries(pair, 1.0).orientation is Orientation.H0_FIRST
    base = pair.p0 if h0_first == (n_boundaries % 2 == 0) else pair.p1
    interior = [0.5 + u * (top - 0.5) for u in draw(st.lists(positions, min_size=2, max_size=3))]
    zetas = interior + [top, base, top + 0.5 * (1.0 - top)]
    return pair, np.asarray(draw(st.permutations(zetas)))


class TestBatchEquivalence:
    """A curve solves its targets together; each of its points and refusals
    must be those of the one-target call."""

    def _check(self, grid, norm, n_boundaries):
        pair, zetas = grid
        curve = general_curve(pair, zetas, n_boundaries, norm)
        single, refused = {}, []
        for zeta in sorted(zetas.tolist(), reverse=True):
            try:
                single[zeta] = constrained_min_sensitivity(pair, zeta, norm, n_boundaries)
            except (SolverFailureError, InfeasibleTargetError) as exc:
                refused.append({"zeta": zeta, "error": str(exc)})
        assert curve.metadata["failed_zetas"] == refused
        for p in curve.points:
            q = single[p.parameter]
            assert p.orientation is q.orientation
            assert abs(p.sensitivity - q.sensitivity) <= 1e-9 * q.sensitivity

    @pytest.mark.parametrize("n_boundaries", [1, 2])
    @settings(max_examples=10, deadline=None)
    @given(st.data(), st.sampled_from(list(Norm)))
    def test_one_and_two_boundaries(self, n_boundaries, data, norm):
        self._check(data.draw(target_grids(n_boundaries)), norm, n_boundaries)

    @settings(max_examples=3, deadline=None)
    @given(target_grids(3), st.sampled_from(list(Norm)))
    def test_three_boundaries(self, grid, norm):
        self._check(grid, norm, 3)
