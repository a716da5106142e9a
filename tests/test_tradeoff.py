import hashlib
import json
import math
from dataclasses import replace
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from accsens import boundary_solver, fig3_box, gamma_sweep, param_designer
from accsens._records import plain
from accsens._roots import ZOOM, _newton, _zoom
from accsens.boundary_solver import (
    _saturation_points,
    default_search_interval,
    ml_boundaries,
    optimal_linear_boundary,
)
from accsens.classifier import (
    BoundarySet,
    GeneralSpec,
    LinearSpec,
    MLSpec,
    Norm,
    Orientation,
    _gap,
    _gap_slope,
    accuracy,
    apply_norm,
    region_accuracy,
    region_accuracy_gradient,
    sensitivity,
)
from accsens.densities import CustomDensity, DensityModel, HypothesisPair
from accsens.errors import InfeasibleTargetError, InvalidParameterError, SolverFailureError
from accsens import tradeoff
from accsens.tradeoff import (
    SCAN_RTOL,
    TradeoffCurve,
    TradeoffPoint,
    _assemble,
    constrained_min_sensitivity,
    default_zeta_grid,
    general_curve,
    linear_curve,
    ml_curve,
)
from conftest import undefined_pair


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

    @pytest.mark.parametrize("eta_grid", [[1.0], [0.8, 1.0]])
    def test_solver_warnings_are_kept(self, eta_grid):
        # both densities vanish on the whole default interval, and every
        # grid solve warns that the log ratio is undefined there, once
        pair = undefined_pair()
        curve = ml_curve(pair, np.asarray(eta_grid))
        assert curve.metadata["warnings"] == list(ml_boundaries(pair, 1.0).warnings)
        assert curve.metadata["warnings"] == ["log ratio undefined on the whole interval"]

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


#: Sensitivities as the zoom gave them with six sampling rounds and no
#: interpolation step: the default 60-target two-boundary curves of table1,
#: fig2c and exp(1)/exp(2), and the 20-gamma fig3 designs, both norms.
CEILINGS = json.loads((Path(__file__).parent / "data" / "sensitivity_ceilings.json").read_text())


class TestSensitivityCeilings:
    """No zoomed minimum rises above its recorded value by more than 1e-9
    relative, and every recorded target is still solved."""

    @pytest.mark.parametrize(
        "record", [r for r in CEILINGS if "pair" in r], ids=lambda r: f"{r['pair']}-{r['norm']}"
    )
    def test_curve(self, record, request):
        pair = request.getfixturevalue(f"{record['pair']}_pair")
        n = record["n_boundaries"]
        zetas = default_zeta_grid(pair, n)
        assert zetas.tolist() == record["zetas"]
        curve = general_curve(pair, zetas, n, Norm(record["norm"]))
        points = sorted(curve.points, key=lambda p: p.parameter)
        assert [p.parameter for p in points] == record["zetas"]
        for p, recorded in zip(points, record["sensitivities"]):
            assert p.sensitivity <= recorded * (1.0 + 1e-9)

    @pytest.mark.parametrize("record", [r for r in CEILINGS if "box" in r], ids=lambda r: f"fig3-{r['norm']}")
    def test_design(self, record):
        gammas = record["gammas"]
        assert gammas == np.linspace(0.55, 0.99, 20).tolist()
        results = gamma_sweep(fig3_box(gammas[0], Norm(record["norm"])), gammas)
        assert [r.gamma for r in results] == gammas
        for result, recorded in zip(results, record["sensitivities"]):
            assert result.sensitivity <= recorded * (1.0 + 1e-9)

    def test_three_inf_norm_pieces_within_one_spacing(self):
        # the one point of a 120-pair random gate that the interpolation step
        # leaves above the six-round zoom it replaced: three pieces of the inf
        # norm meet within 1/14 of the last round's sample spacing, and the
        # secant crossing lands 2.2e-11 past the kink.  Six rounds read
        # 5.183505402625614e-09, 4.2e-9 relative below; pinned where the step
        # leaves it, so that it rises no further.
        pair = HypothesisPair(
            DensityModel.exponential(0.14507296034285028), DensityModel.exponential(4.246803807776099), 0.41096746516866783
        )
        point = constrained_min_sensitivity(pair, 0.6941428822891851, Norm.INF, 2)
        assert point.sensitivity <= 5.183505424318246e-09


RECORDED_CURVES = json.loads((Path(__file__).parent / "data" / "frontier_curves.json").read_text())


class TestRecordedCurves:
    """Whole curves, byte for byte, as the full-broadcast level-set scan gave
    them before the scan solved only the brackets that hold a level-set
    point: table1 and exp(1)/exp(2), 1, 2 and 3 boundaries, both norms, on
    six default targets."""

    @pytest.mark.parametrize(
        "record", RECORDED_CURVES, ids=lambda r: f"{r['pair']}-n{r['n_boundaries']}-{r['norm']}"
    )
    def test_curve_is_unchanged(self, record, request):
        pair = request.getfixturevalue(f"{record['pair']}_pair")
        n = record["n_boundaries"]
        assert default_zeta_grid(pair, n, 6).tolist() == record["zetas"]
        curve = general_curve(pair, np.asarray(record["zetas"]), n, Norm(record["norm"]))
        assert json.dumps(curve.to_dict()) == json.dumps(record["curve"])


RECORDED_SWEEPS = json.loads((Path(__file__).parent / "data" / "sweep_curves.json").read_text())


@pytest.fixture(scope="module")
def skewed_pair() -> HypothesisPair:
    """N(0, 1) against N(0.5, 3) at p0 0.3: its ratio classifiers fall below
    chance at 72 default thresholds, and its single boundaries tie in
    accuracy at 803 default grid points."""
    return HypothesisPair(DensityModel.gaussian(0.0, 1.0), DensityModel.gaussian(0.5, 3.0), 0.3)


class TestRecordedSweeps:
    """The ratio-classifier and single-boundary sweeps on their default
    grids, both norms, as SHA-256 digests of their JSON text (key order as
    written) and of their CSV text, with their metadata in full."""

    @pytest.mark.parametrize(
        "record", RECORDED_SWEEPS, ids=lambda r: f"{r['pair']}-{r['kind']}-{r['norm']}"
    )
    def test_sweep_is_unchanged(self, record, request):
        pair = request.getfixturevalue(f"{record['pair']}_pair")
        sweep = {"ml": ml_curve, "linear": linear_curve}[record["kind"]]
        curve = sweep(pair, norm=Norm(record["norm"]))
        assert curve.metadata == record["metadata"]
        assert len(curve.accuracies) == record["points"]
        assert hashlib.sha256(json.dumps(curve.to_dict()).encode()).hexdigest() == record["json_sha256"]
        assert hashlib.sha256(curve.to_csv_text().encode()).hexdigest() == record["csv_sha256"]


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
        curve = _assemble_points([point], Norm.INF, "general", chance_pair, {})
        assert curve.points == (point,) and curve.metadata["dropped_below_chance"] == 0
        below = replace(point, parameter=0.49999999999999994)
        assert _assemble_points([below], Norm.INF, "general", chance_pair, {}).points == ()


def _reference_assemble(points, metadata):
    """``_assemble``'s rules applied point by point: the reference the array
    version is checked against.  Returns the points and the metadata of the
    curve."""
    kept = [p for p in points if (p.parameter if p.kind == "constrained" else p.accuracy) >= 0.5]
    metadata = dict(metadata)
    metadata["dropped_below_chance"] = len(points) - len(kept)
    if kept:
        counts = {}
        for p in kept:
            counts[len(p.boundaries)] = counts.get(len(p.boundaries), 0) + 1
        modal = max(sorted(counts), key=lambda k: counts[k])
        metadata["dropped_boundary_count"] = sum(1 for p in kept if len(p.boundaries) != modal)
        kept = [p for p in kept if len(p.boundaries) == modal]
    kept.sort(key=lambda p: (p.accuracy, p.sensitivity))
    collapsed = []
    for p in kept:
        if collapsed and abs(p.accuracy - collapsed[-1].accuracy) <= 1e-13:
            continue  # same accuracy: the sort already put the lower sensitivity first
        collapsed.append(p)
    metadata["collapsed_ties"] = len(kept) - len(collapsed)
    return tuple(collapsed), metadata


def _assemble_points(points, norm, kind, pair, metadata) -> TradeoffCurve:
    """``_assemble`` on the columns of ``points``, the boundary rows padded
    with NaN past each point's count."""
    counts = np.asarray([len(p.boundaries) for p in points], dtype=np.intp)
    bounds = np.full((len(points), counts.max(initial=0)), np.nan)
    for row, p in zip(bounds, points):
        row[: len(p.boundaries)] = p.boundaries
    columns = (
        np.asarray([p.accuracy for p in points], dtype=float),
        np.asarray([p.sensitivity for p in points], dtype=float),
        bounds,
        np.asarray([p.orientation is Orientation.H0_FIRST for p in points], dtype=bool),
        np.asarray([p.parameter for p in points], dtype=float),
    )
    return _assemble(columns, counts, norm, kind, pair, metadata)


HALF_ULP_BELOW = float(np.nextafter(0.5, 0.0))


@st.composite
def assembly_inputs(draw):
    """A curve kind and its points in clusters: each cluster starts at
    chance, one ulp below it or anywhere in [0.3, 1], and climbs by steps of
    at most 1e-13 (0 for an exact tie), so a cluster of several steps can
    span more than 1e-13.  Boundary counts 1 to 3 are mixed; a constrained
    point's target is its accuracy, chance, one ulp below chance or anything."""
    kind = draw(st.sampled_from(["ml", "linear", "general"]))
    point_kind = {"ml": "ml", "linear": "linear", "general": "constrained"}[kind]
    points = []
    for _ in range(draw(st.integers(0, 6))):
        acc = draw(st.sampled_from([0.5, HALF_ULP_BELOW]) | st.floats(0.3, 1.0))
        for step in draw(st.lists(st.sampled_from([0.0, 1e-13]) | st.floats(0.0, 1e-13), max_size=8)):
            acc += step
            sens = draw(st.sampled_from([0.0, 0.25]) | st.floats(0.0, 1.0))
            bounds = tuple(draw(st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=3)))
            orientation = draw(st.sampled_from(list(Orientation)))
            if kind == "general":
                parameter = draw(st.sampled_from([acc, 0.5, HALF_ULP_BELOW]) | st.floats(0.0, 1.0))
            else:
                parameter = draw(st.floats(-10.0, 10.0))
            points.append(TradeoffPoint(acc, sens, bounds, orientation, point_kind, parameter))
    return kind, draw(st.permutations(points))


class TestAssemble:
    """The array ``_assemble`` against the per-point reference."""

    @settings(max_examples=150, deadline=None)
    @given(assembly_inputs())
    def test_same_points_and_metadata_as_the_reference(self, table1_pair, inputs):
        kind, points = inputs
        curve = _assemble_points(points, Norm.TWO, kind, table1_pair, {"first": 1})
        expected, metadata = _reference_assemble(points, {"first": 1})
        assert curve.points == expected
        assert list(curve.metadata.items()) == list(metadata.items())

    def test_a_chain_of_near_ties_keeps_every_point_past_1e_13_from_the_last_kept(self, table1_pair):
        # steps of 0.6e-13: each is a tie with the point before, but the
        # third point lies 1.2e-13 from the first, so it is kept
        accs = [0.7 + k * 0.6e-13 for k in range(5)]
        points = [TradeoffPoint(a, 1.0 - a, (0.0,), Orientation.H0_FIRST, "linear", a) for a in accs]
        curve = _assemble_points(points, Norm.INF, "linear", table1_pair, {})
        assert curve.accuracies.tolist() == [accs[0], accs[2], accs[4]]
        assert curve.metadata["collapsed_ties"] == 2
        assert curve.points == _reference_assemble(points, {})[0]

    def test_a_count_tie_keeps_the_smallest_count(self, table1_pair):
        points = [
            TradeoffPoint(0.6 + 0.01 * k, 0.1, (0.0,) * n, Orientation.H1_FIRST, "ml", 1.0)
            for k, n in enumerate([3, 2, 3, 2])
        ]
        curve = _assemble_points(points, Norm.INF, "ml", table1_pair, {})
        assert curve.boundaries.shape == (2, 2)
        assert curve.metadata["dropped_boundary_count"] == 2

    def test_empty_input(self, table1_pair):
        curve = _assemble_points([], Norm.INF, "ml", table1_pair, {"eta_points": 3})
        assert curve.points == () and curve.boundaries.shape == (0, 0)
        assert list(curve.metadata.items()) == [("eta_points", 3), ("dropped_below_chance", 0), ("collapsed_ties", 0)]
        assert curve.to_csv_text() == "accuracy,sensitivity,provenance\n"
        assert json.dumps(curve.to_dict()) == json.dumps(
            {
                "points": [],
                "norm": "inf",
                "kind": "ml",
                "pair_digest": table1_pair.digest(),
                "metadata": {"eta_points": 3, "dropped_below_chance": 0, "collapsed_ties": 0},
            }
        )


class TestCurveColumns:
    """A curve's columns are read-only, and its points, its JSON form and
    its CSV text all show the same points."""

    @pytest.fixture(
        scope="class",
        params=[("ml", Norm.INF), ("linear", Norm.TWO), ("general", Norm.INF)],
        ids=lambda p: f"{p[0]}-{p[1].value}",
    )
    def curve(self, request, table1_pair):
        kind, norm = request.param
        if kind == "general":
            return general_curve(table1_pair, default_zeta_grid(table1_pair, 2, 8), 2, norm)
        return {"ml": ml_curve, "linear": linear_curve}[kind](table1_pair, norm=norm)

    @pytest.mark.parametrize("column", ["accuracies", "sensitivities", "boundaries", "h0_first", "parameters"])
    def test_a_column_cannot_be_written(self, curve, column):
        values = getattr(curve, column)
        with pytest.raises(ValueError, match="read-only"):
            values[0] = values[-1]

    def test_points_match_the_columns(self, curve):
        assert len(curve.points) == curve.accuracies.size > 0
        assert curve.points is curve.points  # built once
        point_kind = {"ml": "ml", "linear": "linear", "general": "constrained"}[curve.kind]
        for i, p in enumerate(curve.points):
            assert p.accuracy == curve.accuracies[i] and type(p.accuracy) is float
            assert p.sensitivity == curve.sensitivities[i]
            assert p.boundaries == tuple(curve.boundaries[i].tolist())
            assert (p.orientation is Orientation.H0_FIRST) == curve.h0_first[i]
            assert p.kind == point_kind and p.parameter == curve.parameters[i]

    def test_json_form_is_the_points_form(self, curve):
        form = curve.to_dict()
        expected = {
            "points": [plain(p) for p in curve.points],
            "norm": curve.norm.value,
            "kind": curve.kind,
            "pair_digest": curve.pair_digest,
            "metadata": curve.metadata,
        }
        assert form == expected
        assert json.dumps(form) == json.dumps(expected)  # key for key, in order

    def test_csv_rows_are_the_points(self, curve):
        header, *rows = curve.to_csv_text().splitlines()
        assert header.split(",")[2:-1] == [f"y{i + 1}" for i in range(curve.boundaries.shape[1])]
        assert len(rows) == len(curve.points)
        for row, p in zip(rows, curve.points):
            assert row == ",".join([repr(p.accuracy), repr(p.sensitivity), *map(repr, p.boundaries), p.provenance])


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

    @pytest.mark.parametrize("count", [2.0, 2.5, True])
    def test_boundary_count_not_an_integer(self, table1_pair, count):
        calls = (
            partial(constrained_min_sensitivity, table1_pair, 0.6, n_boundaries=count),
            partial(general_curve, table1_pair, [0.6], n_boundaries=count),
            partial(default_zeta_grid, table1_pair, count),
        )
        for call in calls:
            with pytest.raises(InvalidParameterError, match="n_boundaries must be >= 1 and <= 3 and an integer"):
                call()

    def test_numpy_integer_boundary_count(self, table1_pair):
        # a numpy integer is a count; the curve's written form holds a plain int
        curve = general_curve(table1_pair, [0.6], n_boundaries=np.int64(2))
        assert json.dumps(curve.to_dict()) == json.dumps(general_curve(table1_pair, [0.6]).to_dict())


class TestSweepGrids:
    # the ratio and single-boundary sweeps take their grids through the
    # frontier's target check: one-dimensional, non-empty numbers, finite
    # boundary positions
    @pytest.mark.parametrize(
        "sweep, grid, message",
        [
            (ml_curve, [[0.5, 2.0]], "eta grid must be one-dimensional"),
            (ml_curve, [], "eta grid is empty"),
            (ml_curve, ["a"], "thresholds must be numbers"),
            (linear_curve, [[0.0, 1.0]], "boundary grid must be one-dimensional"),
            (linear_curve, [], "boundary grid is empty"),
            (linear_curve, [math.inf, 1.0], "boundary position inf is not a finite number"),
            (linear_curve, [1.0, -math.inf], "boundary position -inf is not a finite number"),
            (linear_curve, [math.nan, 1.0], "boundary position nan is not a finite number"),
        ],
    )
    def test_bad_grid_is_refused(self, table1_pair, sweep, grid, message):
        with pytest.raises(InvalidParameterError, match=message):
            sweep(table1_pair, grid)


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

    def test_three_boundaries_keep_the_two_boundary_refusals(self, table1_pair):
        # a target that the inner two-boundary solve refuses is refused for
        # three boundaries with the same error, whatever the three-boundary
        # scan found; the other targets keep their points
        grid = np.asarray([0.6, 0.6734, 0.75])
        solve = tradeoff._constrained_minima
        refusal = SolverFailureError("two-boundary refusal")

        def refusing(pair, zetas, norm, n_boundaries):
            zetas, columns, refusals, refined = solve(pair, zetas, norm, n_boundaries)
            if n_boundaries == 2:
                refusals = [refusal if z == 0.6734 else r for z, r in zip(zetas.tolist(), refusals)]
            return zetas, columns, refusals, refined

        expected = general_curve(table1_pair, grid, 3)
        with mock.patch.object(tradeoff, "_constrained_minima", refusing):
            curve = general_curve(table1_pair, grid, 3)
        assert curve.metadata["failed_zetas"] == [{"zeta": 0.6734, "error": "two-boundary refusal"}]
        assert curve.parameters.tolist() == [0.6, 0.75]
        kept = expected.parameters != 0.6734
        np.testing.assert_array_equal(curve.sensitivities, expected.sensitivities[kept])
        np.testing.assert_array_equal(curve.boundaries, expected.boundaries[kept])

    def test_three_boundary_curve_is_deterministic(self, table1_pair):
        a, b = (general_curve(table1_pair, np.asarray([0.6734]), 3).to_csv_text() for _ in range(2))
        assert a == b
        assert a.splitlines()[0] == "accuracy,sensitivity,y1,y2,y3,provenance"


class TestLevelSetBrackets:
    @pytest.mark.parametrize("norm", [Norm.INF, Norm.TWO])
    @pytest.mark.parametrize("name", ["table1_pair", "exp_pair"])
    @pytest.mark.parametrize("n_boundaries", [1, 2, 3])
    def test_every_level_set_solve_starts_from_one_grid_cell(self, name, n_boundaries, norm, request, monkeypatch):
        # in the scan and in every zoom round, no bracket handed to the
        # Newton iteration holds a point of its grid inside, so none is a
        # whole segment
        pair = request.getfixturevalue(name)
        grids, brackets = [], []
        level, newton = tradeoff._level_root, _newton
        # the ratio roots, the frontier and the design run the shared solver and zoom
        shared = (boundary_solver._newton, tradeoff._newton, param_designer._newton, tradeoff._zoom, param_designer._zoom)
        assert shared == (_newton,) * 3 + (_zoom,) * 2

        def recording_level(pair, grid, *args):
            grids.append(grid[0])
            return level(pair, grid, *args)

        def checked_newton(fn, lo, hi, *args):
            ys = grids[-1]
            inside = np.searchsorted(ys, hi, side="left") - np.searchsorted(ys, lo, side="right")
            assert np.all(inside <= 0), f"{int(np.sum(inside > 0))} of {lo.size} brackets span grid points"
            brackets.append(lo.size)
            return newton(fn, lo, hi, *args)

        monkeypatch.setattr(tradeoff, "_level_root", recording_level)
        monkeypatch.setattr(tradeoff, "_newton", checked_newton)
        curve = general_curve(pair, default_zeta_grid(pair, n_boundaries, steps=8), n_boundaries, norm)
        assert curve.points and not curve.metadata["failed_zetas"]
        assert sum(brackets) > 0


class TestSaturatedBoundaries:
    @pytest.mark.parametrize("norm", [Norm.INF, Norm.TWO])
    def test_flat_tail_boundaries_are_reported_at_the_saturation_points(self, table1_pair, norm):
        # G is flat where both cdfs read exactly 1 (or 0), so the solver may
        # leave a boundary anywhere there; the curve reports it at H* (or L*),
        # whatever path the solver took
        l_sat, h_sat = _saturation_points(table1_pair, *default_search_interval(table1_pair))
        curve = general_curve(table1_pair, norm=norm)
        ys = np.asarray([p.boundaries for p in curve.points])
        f0, f1 = table1_pair.h0.cdf(ys), table1_pair.h1.cdf(ys)
        high, low = (f0 == 1.0) & (f1 == 1.0), (f0 == 0.0) & (f1 == 0.0)
        assert np.count_nonzero(high) >= 3
        assert np.all(ys[high] == h_sat) and np.all(ys[low] == l_sat)
        assert np.all(np.diff(ys, axis=1) >= 0.0)


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


def _runs(mask: np.ndarray) -> list[tuple[int, int]]:
    """Half-open index ranges of the consecutive True entries."""
    edges = np.diff(np.concatenate(([0], mask.astype(np.int8), [0])))
    return list(zip(np.nonzero(edges == 1)[0].tolist(), np.nonzero(edges == -1)[0].tolist()))


def _broadcast_scan(pair, grid, brackets, d, tol, norm, scan, free):
    """The branch minima of ``tradeoff._scan`` by the full-broadcast scan it
    replaced: ``_level_set`` over every (free row, grid point or pair,
    segment) entry, G evaluated at the fixed grid points, and a loop over
    the runs of each row and segment.  Rows of (row, index, segment,
    sensitivity, boundaries...)."""
    ys, _, cuts, _ = grid
    fixed = tuple(ys[i][:, None] for i in scan)
    s, bounds = tradeoff._level_set(
        pair, grid, d, tol, norm, fixed, free[:, None, None], np.arange(cuts.size - 1)
    )
    found = np.isfinite(s)
    minima = []
    for r in range(free.size):
        for k in range(cuts.size - 1):
            for start, stop in _runs(found[r, :, k]) if len(scan) == 1 else [(0, found.shape[1])]:
                if found[r, start:stop, k].any():
                    i = start + int(np.argmin(s[r, start:stop, k]))
                    minima.append((r, i, k, float(s[r, i, k]), *(float(y[r, i, k]) for y in bounds)))
    return minima


class TestCompactedScan:
    """The scan solves only the brackets that hold a level-set point, and it
    must pick the branch minima the full-broadcast scan picked: the same
    rows, grid points or pairs, segments, sensitivities and boundaries,
    exactly, so the zoom starts from the same points."""

    @pytest.mark.parametrize("n_boundaries", [1, 2, 3])
    @settings(max_examples=8, deadline=None)
    @given(st.one_of(two_root_gaussian_pairs(), exponential_pairs()), positions, st.sampled_from(list(Norm)))
    def test_same_branch_minima_as_the_full_broadcast_scan(self, n_boundaries, pair, u, norm):
        # a target is scanned only below the top of n boundaries in the base
        # orientation, and that top may be chance (one boundary of a pair
        # whose best single boundary needs the other orientation)
        top = default_zeta_grid(pair, n_boundaries, 2)[-1]
        assume(top - 0.5 > 1e-3)
        zeta = 0.5 + u * (top - 0.5)
        calls, scan = [], tradeoff._scan

        def recording(*args):
            minima = scan(*args)
            calls.append((args, minima))
            return minima

        with mock.patch.object(tradeoff, "_scan", recording):
            try:
                constrained_min_sensitivity(pair, zeta, norm, n_boundaries)
            except SolverFailureError:
                pass
        assert calls
        for args, (r, i, k, s, bounds) in calls:
            columns = (r, i, k, s, *bounds)
            assert list(zip(*(v.tolist() for v in columns))) == _broadcast_scan(*args)



#: Synthetic objectives of the zoom, by name: the number of coordinates and
#: the value at the samples' offsets h from their minimum's minimiser;
#: smooth and V-shaped in one coordinate, and separable in two.
ZOOM_OBJECTIVES = {
    "smooth": (1, lambda h: h[0] ** 2),
    "v-shaped": (1, lambda h: np.abs(h[0])),
    # kinks with sides of different slopes, off the squared parabola's vertex
    "steep right": (1, lambda h: np.maximum(-h[0], 3.0 * h[0])),
    "steep left": (1, lambda h: np.maximum(-3.0 * h[0], h[0])),
    # a minimum near zero rounder than the last round's spacing, as a
    # two-norm's can be: a hyperbola, whose square is a parabola
    "rounded": (1, lambda h: np.hypot(h[0], 1e-9)),
    "separable": (2, lambda h: h[0] ** 2 + 3.0 * h[1] ** 2),
}
#: A non-uniform grid, so that the two sides of a window differ.
ZOOM_GRID = np.geomspace(0.5, 20.0, 40)


def _zoom_case(name, positions, seed):
    """A zoom over the objective ``name``, one minimum per entry of
    ``positions`` (each minimiser at that fraction of the span between its
    starting point's neighbours): the starting indices, one array per
    coordinate; the minimisers, (coordinate, minimum); and ``solve``."""
    dims = ZOOM_OBJECTIVES[name][0]
    rng = np.random.default_rng(seed)
    idx = tuple(rng.integers(1, ZOOM_GRID.size - 1, len(positions)) for _ in range(dims))
    # the grid's ends: the samples past an end all sit at the end
    idx[0][:2] = 0, ZOOM_GRID.size - 1
    lo = ZOOM_GRID[np.maximum(np.array(idx) - 1, 0)]
    hi = ZOOM_GRID[np.minimum(np.array(idx) + 1, ZOOM_GRID.size - 1)]
    minimisers = lo + np.array(positions) * (hi - lo)
    return idx, minimisers, _zoom_solve(name, minimisers)


def _zoom_solve(name, minimisers):
    def solve(fixed):
        return ZOOM_OBJECTIVES[name][1](fixed - minimisers[:, :, None]), list(fixed)

    return solve


class TestZoom:
    """The one zoom that polishes the frontier's minima (many at once) and
    the design's best ratio (one), on synthetic objectives."""

    POSITIONS = [0.5, 0.3, 0.0, 1.0, 0.77, 0.01, 0.5, 0.999]

    @pytest.mark.parametrize("name", list(ZOOM_OBJECTIVES))
    @pytest.mark.parametrize("spread", [1.0, 6.0])
    def test_many_minima_as_one_minimum_each(self, name, spread):
        positions = [spread * (p - 0.5) + 0.5 for p in self.POSITIONS]
        idx, minimisers, solve = _zoom_case(name, positions, 3)
        batch = _zoom(solve, ZOOM_GRID, idx)
        for k in range(len(positions)):
            one_solve = _zoom_solve(name, minimisers[:, k : k + 1])
            one = _zoom(one_solve, ZOOM_GRID, tuple(i[k : k + 1] for i in idx))
            assert [v.tobytes() for v in one] == [v[k : k + 1].tobytes() for v in batch]

    @pytest.mark.parametrize("name", list(ZOOM_OBJECTIVES))
    def test_never_above_the_starting_grid_point(self, name):
        # minimisers out to three cells past either neighbour
        positions = np.linspace(-3.0, 4.0, 15)
        idx, minimisers, solve = _zoom_case(name, positions, 5)
        value, *cols = _zoom(solve, ZOOM_GRID, idx)
        objective = ZOOM_OBJECTIVES[name][1]
        assert np.all(value <= objective(ZOOM_GRID[np.array(idx)] - minimisers))
        # the value is the one of the reported sample
        assert value.tolist() == objective(np.array(cols) - minimisers).tolist()

    @pytest.mark.parametrize("name", list(ZOOM_OBJECTIVES))
    @pytest.mark.parametrize("ends", [(0.5, 0.3), (0.01, 0.999), (1e-8, 1.0 - 1e-8)])
    def test_finds_a_minimiser_between_the_neighbours(self, name, ends):
        # the minima at the grid's ends, at (0.01, 0.999) within a first-round
        # sample spacing of the end point, which all the samples past it tie
        # with, and at (1e-8, 1 - 1e-8) within one of the last round's, where
        # only the end lies on the minimiser's near side and the interpolation
        # step cannot better that spacing
        idx, minimisers, solve = _zoom_case(name, [*ends, *self.POSITIONS[2:]], 7)
        _, *cols = _zoom(solve, ZOOM_GRID, idx)
        points, keep, rounds = ZOOM[len(idx)]
        half = points // 2
        centre = ZOOM_GRID[np.array(idx)]
        side = np.maximum(
            centre - ZOOM_GRID[np.maximum(np.array(idx) - 1, 0)],
            ZOOM_GRID[np.minimum(np.array(idx) + 1, ZOOM_GRID.size - 1)] - centre,
        )
        # the last round's sample spacing: the window side shrinks by
        # keep / half per round, and each side holds half sample spacings;
        # one coordinate's interpolation step stays within a spacing of
        # that round's best sample
        spacing = side * (keep / half) ** (rounds - 1) / half
        assert np.all(np.abs(np.array(cols) - minimisers) <= spacing)

    @pytest.mark.parametrize("name", ["smooth", "v-shaped", "steep right", "steep left", "rounded"])
    @pytest.mark.parametrize("near_end", ["first round", "last round"])
    def test_interpolation_step_finds_the_minimiser_to_a_few_ulps(self, name, near_end):
        # the parabola's vertex of a smooth minimum and the secant lines'
        # crossing of a kink land on the minimiser, far below the last
        # round's spacing of about 1e-6 of a cell; so do the minima near the
        # grid's ends, 0.01 of a cell from an end, where the first rounds'
        # samples past it all tie at it, and 1.5 last-round spacings from
        # it, where only the end and one sample lie on the minimiser's near
        # side
        points, keep, rounds = ZOOM[1]
        from_end = 0.01 if near_end == "first round" else 1.5 * (keep / (points // 2)) ** rounds
        positions = [from_end, 1.0 - from_end, *np.linspace(0.02, 0.98, 25)]
        idx, minimisers, solve = _zoom_case(name, positions, 11)
        _, *cols = _zoom(solve, ZOOM_GRID, idx)
        start = np.array(idx)
        cells = ZOOM_GRID[np.minimum(start + 1, ZOOM_GRID.size - 1)] - ZOOM_GRID[np.maximum(start - 1, 0)]
        assert np.all(np.abs(np.array(cols) - minimisers) <= 4.0 * np.finfo(float).eps * cells)

    @pytest.mark.parametrize("name", ["smooth", "v-shaped", "steep right", "steep left", "rounded"])
    @pytest.mark.parametrize("spread", [1.0, 6.0])
    def test_interpolation_step_is_never_above_the_last_rounds_best(self, name, spread):
        positions = [spread * (p - 0.5) + 0.5 for p in self.POSITIONS]
        idx, minimisers, solve = _zoom_case(name, positions, 13)
        calls = []

        def recorded(fixed):
            value, cols = solve(fixed)
            calls.append(value)
            return value, cols

        value, *cols = _zoom(recorded, ZOOM_GRID, idx)
        rounds = ZOOM[1][2]
        # the rounds, then one call for the step's five points of every minimum
        assert len(calls) == rounds + 1 and calls[-1].shape == (len(positions), 5)
        assert np.all(value <= calls[rounds - 1].min(axis=1))
        assert value.tolist() == ZOOM_OBJECTIVES[name][1](np.array(cols) - minimisers).tolist()


def _rounding_band(pair, x, target):
    """G's rounding band at x: 4 eps (p0 F0 (1 + z0^2) + p1 F1 (1 + z1^2) +
    |target|), z the distance of x from each density's mean in its scales.

    The solver stops inside 4 eps (p0 F0 + p1 F1 + |target|).  A cdf far out
    in a tail, exp(-z^2 / 2) and the like, also carries the rounding of z^2
    in its exponent, a relative error of about z^2 eps, so no float resolves
    G more finely than this wider band."""
    scale = np.abs(target)
    for p, h in ((pair.p0, pair.h0), (pair.p1, pair.h1)):
        mean, width = h.mean_scale()
        scale = scale + p * h.cdf(x) * (1.0 + ((x - mean) / width) ** 2)
    return 4.0 * np.finfo(float).eps * scale


def _level_newton(pair, lo, hi, g_lo, g_hi, target, tol):
    """The frontier's level-set solve of G = target on the brackets [lo, hi]:
    the shared ``_newton`` on ``_level_residual``."""
    return _newton(partial(tradeoff._level_residual, pair), lo, hi, g_lo - target, g_hi - target, tol, target)


def _inflections(pair, a, b):
    """The inflection points of G in (a, b): the sign changes of its
    curvature G'' = p0 f0' - p1 f1' on 257 points, each solved by brentq."""

    def curvature(y):
        return float(pair.p0 * pair.h0.pdf_dx(y) - pair.p1 * pair.h1.pdf_dx(y))

    ys = np.linspace(a, b, 257)
    c = np.asarray([curvature(y) for y in ys])
    changes = np.flatnonzero(((c[:-1] < 0.0) & (c[1:] > 0.0)) | ((c[:-1] > 0.0) & (c[1:] < 0.0)))
    return [brentq(curvature, ys[i], ys[i + 1], xtol=1e-15) for i in changes.tolist()]


@st.composite
def level_brackets(draw):
    """A pair and 1 to 8 brackets, each a piece of a segment of the search
    interval on which G is monotone, with a target that G crosses on it.

    Some brackets end at a ratio root, where G has its extreme and G' -> 0,
    with a target within 1e-14 to 1e-2 (of G's rise on the bracket) of that
    extreme: the root lies close to where Newton converges only linearly.
    Some hold an inflection point of G (p0 f0' = p1 f1', so G'' = 0), where
    the curvature term |G''| h^2 / (2 |G'|) of a Newton step's error reads
    0, with a target anywhere on the bracket or at G there.  Some end at a
    saturation point, in the flat tail where both cdfs read exactly 0 or 1
    and G', G'' underflow, with a target within 1e-16 to 1 (of G's rise) of
    the flat value."""
    pair = draw(st.one_of(two_root_gaussian_pairs(), exponential_pairs()))
    lo, hi = default_search_interval(pair)
    l_sat, h_sat = _saturation_points(pair, lo, hi)
    ends = [lo, *(r for r in ml_boundaries(pair, 1.0).roots if lo < r < hi), hi]
    inflections = [(k, c) for k in range(len(ends) - 1) for c in _inflections(pair, ends[k], ends[k + 1])]
    kinds = ["piece", "root", "tail"] + ["inflection"] * bool(inflections)
    brackets = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(kinds))
        k = draw(st.integers(0, len(ends) - 2))
        width = (ends[k + 1] - ends[k]) * 10.0 ** -draw(st.floats(0.0, 5.0))
        at_root = [e for e in (k, k + 1) if 0 < e < len(ends) - 1]
        if kind == "root" and at_root:
            e = draw(st.sampled_from(at_root))
            if e == k:
                a, b = ends[k], min(ends[k] + width, ends[k + 1])
            else:
                a, b = max(ends[k + 1] - width, ends[k]), ends[k + 1]
            g_a, g_b = float(_gap(pair, a)), float(_gap(pair, b))
            g_root, g_far = (g_a, g_b) if e == k else (g_b, g_a)
            target = g_root + 10.0 ** -draw(st.floats(2.0, 14.0)) * (g_far - g_root)
        elif kind == "inflection":
            k, c = draw(st.sampled_from(inflections))
            width = (ends[k + 1] - ends[k]) * 10.0 ** -draw(st.floats(0.0, 5.0))
            u = draw(st.floats(0.05, 0.95))
            a, b = max(c - u * width, ends[k]), min(c + (1.0 - u) * width, ends[k + 1])
            g_a, g_b = float(_gap(pair, a)), float(_gap(pair, b))
            v = draw(st.one_of(st.floats(0.0, 1.0), st.none()))
            target = float(_gap(pair, c)) if v is None else g_a + v * (g_b - g_a)
        elif kind == "tail":
            u = draw(st.floats(0.0, 1.0))
            if draw(st.booleans()):
                a, b = ends[-2] + u * (ends[-1] - ends[-2]), h_sat
                g_far, g_flat = float(_gap(pair, a)), float(_gap(pair, b))
                g_a, g_b = g_far, g_flat
            else:
                a, b = l_sat, ends[0] + u * (ends[1] - ends[0])
                g_flat, g_far = float(_gap(pair, a)), float(_gap(pair, b))
                g_a, g_b = g_flat, g_far
            assume(a < b)
            target = g_flat + 10.0 ** -draw(st.floats(0.0, 16.0)) * (g_far - g_flat)
        else:
            a = ends[k] + draw(st.floats(0.0, 1.0)) * (ends[k + 1] - ends[k] - width)
            b = min(a + width, ends[k + 1])
            g_a, g_b = float(_gap(pair, a)), float(_gap(pair, b))
            target = g_a + draw(st.floats(0.0, 1.0)) * (g_b - g_a)
        target = min(max(target, min(g_a, g_b)), max(g_a, g_b))
        brackets.append((a, b, target))
    return pair, *(np.asarray(v) for v in zip(*brackets))


def _example_brackets(h0, h1, p0, lo, hi, target):
    return HypothesisPair(h0, h1, p0), *(np.asarray(v, dtype=float) for v in (lo, hi, target))


class TestNewtonLevelSet:
    @settings(max_examples=60, deadline=None)
    @given(level_brackets(), st.sampled_from([SCAN_RTOL, 2.0 * np.finfo(float).eps]))
    # the first point lands on G's inflection point ln 4, where G'' reads
    # 2.8e-17 and the Newton step's error, 1.5e-7, is cubic
    @example(
        _example_brackets(
            DensityModel.exponential(1.0), DensityModel.exponential(2.0), 0.5,
            [0.9709517201478879], [1.8016370020918933], [-0.0932714637308569],
        ),
        SCAN_RTOL,
    )
    # a step whose estimate |G''| h^2 / (2 |G'|) is 0.9994 tol, and whose
    # error is 1.0003 tol
    @example(
        _example_brackets(
            DensityModel.gaussian(0.1, 1.2013521706569459), DensityModel.gaussian(0.0, 5.278088302635863),
            0.3721124919084896, [1.8124295747280972], [42.22470642108691], [-0.056854473272948514],
        ),
        SCAN_RTOL,
    )
    # in the lower tail at tol = 2 eps (hi - lo): a step whose estimate is
    # 0.93 tol, where the rounding of G spans about tol
    @example(
        _example_brackets(
            DensityModel.gaussian(0.0, 1.109375), DensityModel.gaussian(-0.68359375, 0.5), 0.40625,
            [-62.125, -8.875, -8.875, -8.875], [-7.769532187675045] + [-1.8000060011202863] * 3,
            [2.1198556235214462e-14] + [2.5272652332978948e-16] * 3,
        ),
        2.0 * np.finfo(float).eps,
    )
    # a root 4e-20 (in G) from the end of a bracket reaching into the flat
    # tail, where brentq takes 103 iterations
    @example(
        _example_brackets(
            DensityModel.exponential(1.0), DensityModel.exponential(2.0), 0.5,
            [0.0, 0.0, 9.0], [0.6931471805599453, 0.6931471805599453, 72.0], [0.0, 0.0, -6.169728705346374e-05],
        ),
        SCAN_RTOL,
    )
    def test_roots_agree_with_brentq(self, brackets, rtol):
        pair, lo, hi, target = brackets
        search_lo, search_hi = default_search_interval(pair)
        tol = rtol * (search_hi - search_lo)  # as the frontier solver sets it
        g_lo, g_hi = _gap(pair, lo), _gap(pair, hi)
        x = _level_newton(pair, lo, hi, g_lo, g_hi, target, tol)
        reference = np.asarray([
            brentq(lambda y: float(_gap(pair, y)) - t, a, b, xtol=1e-15, rtol=1e-15, maxiter=400)
            for a, b, t in zip(lo, hi, target)
        ])
        assert np.all((x >= lo) & (x <= hi))
        near = np.abs(x - reference) <= tol
        level = np.abs(_gap(pair, x) - target) <= _rounding_band(pair, x, target)
        assert np.all(near | level), (x[~(near | level)], reference[~(near | level)])

    @settings(max_examples=30, deadline=None)
    @given(level_brackets(), st.sampled_from([SCAN_RTOL, 2.0 * np.finfo(float).eps]))
    def test_batch_returns_the_roots_of_one_call_per_bracket(self, brackets, rtol):
        pair, lo, hi, target = brackets
        search_lo, search_hi = default_search_interval(pair)
        tol = rtol * (search_hi - search_lo)  # as the frontier solver sets it
        g_lo, g_hi = _gap(pair, lo), _gap(pair, hi)
        batch = _level_newton(pair, lo, hi, g_lo, g_hi, target, tol)
        alone = [
            _level_newton(pair, *(v[k:k + 1] for v in (lo, hi, g_lo, g_hi, target)), tol)[0]
            for k in range(lo.size)
        ]
        assert batch.tobytes() == np.asarray(alone).tobytes()

    #: Points one bracket may take in the hard cases; bisecting a grid cell
    #: to 2 eps of the search interval takes about 40.  A flat saturated tail
    #: takes up to 9: G' and G'' both underflow there.
    HARD_STEPS = 20
    #: Points of a cell beside a ratio root, where G' -> 0: up to 18 with
    #: Newton steps alone, which converge only linearly there, and up to 4
    #: with the second-order step where Kantorovich's condition fails.
    RATIO_ROOT_STEPS = 4

    def _steps(self, pair, lo, hi, target):
        """The root of G = target on [lo, hi] to 2 eps of the search interval,
        and the points the iteration evaluated: the calls of the residual
        handed to ``_newton``."""
        lo, hi, target = (np.asarray([v], dtype=float) for v in (lo, hi, target))
        count = []

        def residual(z, t):
            count.append(z.size)
            return tradeoff._level_residual(pair, z, t)

        search_lo, search_hi = default_search_interval(pair)
        tol = 2.0 * np.finfo(float).eps * (search_hi - search_lo)
        x = _newton(residual, lo, hi, _gap(pair, lo) - target, _gap(pair, hi) - target, tol, target)
        assert lo[0] <= x[0] <= hi[0]
        assert abs(_gap(pair, x)[0] - target[0]) <= max(
            _rounding_band(pair, x, target)[0], abs(_gap_slope(pair, x)[0]) * tol
        )
        return len(count)

    @pytest.mark.parametrize("offset", [0.0, 1e-16, 1e-13, 1e-10])
    def test_root_on_a_bracket_end(self, table1_pair, offset):
        # two coincident boundaries read the base accuracy: near it, the free
        # boundary's root sits on the cell end where the fixed one lies
        ys = tradeoff.default_y_grid(table1_pair)
        lo, hi = ys[700], ys[701]
        g_lo, g_hi = float(_gap(table1_pair, lo)), float(_gap(table1_pair, hi))
        target = g_lo + math.copysign(offset, g_hi - g_lo)
        assert self._steps(table1_pair, lo, hi, target) <= self.HARD_STEPS

    @pytest.mark.parametrize("offset", [0.0, 1e-16, 1e-13, 1e-12])
    def test_flat_saturated_tail(self, table1_pair, offset):
        # both cdfs read exactly 1 on the right of the cell, where G is flat
        # and G' underflows towards 0
        lo, hi = default_search_interval(table1_pair)
        _, h_sat = _saturation_points(table1_pair, lo, hi)
        g_flat = float(_gap(table1_pair, h_sat))
        assert table1_pair.h0.cdf(h_sat) == table1_pair.h1.cdf(h_sat) == 1.0
        start = 0.75 * hi
        assert float(_gap(table1_pair, start)) < g_flat - 1e-12
        steps = self._steps(table1_pair, start, h_sat, g_flat - offset)
        assert steps <= self.HARD_STEPS

    @pytest.mark.parametrize("fraction", [1e-14, 1e-10, 1e-6, 1e-2])
    def test_cell_beside_a_ratio_root(self, table1_pair, fraction):
        # G has its extremum at the ratio root, so G' -> 0 at the cell end and
        # a target just inside G's range on the cell puts the root close to
        # that end
        ys = tradeoff.default_y_grid(table1_pair)
        for root in ml_boundaries(table1_pair, 1.0).roots:
            i = int(np.searchsorted(ys, root))
            for lo, hi in ((ys[i - 1], root), (root, ys[i + 1])):
                g_root = float(_gap(table1_pair, root))
                g_far = float(_gap(table1_pair, hi if lo == root else lo))
                target = g_root + fraction * (g_far - g_root)
                assert self._steps(table1_pair, lo, hi, target) <= self.RATIO_ROOT_STEPS

    #: Residual calls of ``_level_residual`` and residual points (the array
    #: elements passed to it) of whole inf curves on the default grids, by
    #: pair and boundary count.  exp(1)/exp(2), n = 3: 1,677 calls when the
    #: fallback alternated regula falsi and midpoints, 1,498 when it halves
    #: once a fallback point keeps most of its bracket, 1,350 calls and
    #: 16,675,660 points with the second-order step beside ratio roots, 1,230
    #: and 12,298,837 with the certified step.  table1, n = 3: 1,026 calls
    #: with Newton steps alone, 582 calls and 16,951,113 points with the
    #: second-order step, 452 and 12,861,156 with the certified step.  n = 2,
    #: second-order step -> certified step: exp 338 -> 276 calls and 606,333
    #: -> 340,432 points; table1 205 -> 143 calls and 547,858 -> 346,125
    #: points.
    CURVE_POINTS = {
        ("exp", 3): (1230, 12_298_837),
        ("table1", 3): (452, 12_861_156),
        ("exp", 2): (276, 340_432),
        ("table1", 2): (143, 346_125),
    }

    @staticmethod
    def _curve_points(pair, n_boundaries, monkeypatch):
        """The residual calls and points of the default inf curve of ``pair``."""
        sizes, newton = [], tradeoff._newton

        def counting(fn, *args):
            return newton(lambda z, *a: sizes.append(z.size) or fn(z, *a), *args)

        monkeypatch.setattr(tradeoff, "_newton", counting)
        general_curve(pair, n_boundaries=n_boundaries, norm=Norm.INF)
        return len(sizes), sum(sizes)

    def _check_curve_points(self, pair, name, n_boundaries, monkeypatch):
        calls, points = self._curve_points(pair, n_boundaries, monkeypatch)
        max_calls, max_points = self.CURVE_POINTS[name, n_boundaries]
        assert 0 < calls <= max_calls
        assert 0 < points <= max_points

    def test_exponential_curve_points(self, exp_pair, monkeypatch):
        self._check_curve_points(exp_pair, "exp", 3, monkeypatch)

    def test_table1_curve_points(self, table1_pair, monkeypatch):
        self._check_curve_points(table1_pair, "table1", 3, monkeypatch)

    def test_exponential_two_boundary_curve_points(self, exp_pair, monkeypatch):
        self._check_curve_points(exp_pair, "exp", 2, monkeypatch)

    def test_table1_two_boundary_curve_points(self, table1_pair, monkeypatch):
        self._check_curve_points(table1_pair, "table1", 2, monkeypatch)
