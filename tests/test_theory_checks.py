import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import accsens.boundary_solver as boundary_solver
import accsens.theory_checks as theory_checks
from accsens.classifier import Norm, apply_norm, region_accuracy, region_accuracy_gradient
from accsens.boundary_solver import ml_boundaries
from accsens.densities import CustomDensity, DensityModel, Family, HypothesisPair
from accsens.errors import AccsensError, UnresolvedClassifierError
from accsens.theory_checks import (
    Verdict,
    check_a1,
    check_a2,
    check_a3,
    curvature_weights,
    run_all_checks,
    sensitivity_boundary_gradient,
    sensitivity_slope_witness,
)
from conftest import random_gaussian_pair, warn_on_the_stencil


class TestA1:
    def test_holds_for_reference_pair(self, table1_pair):
        result = check_a1(table1_pair)
        assert result.holds
        assert result.index == 3  # the h1 width dominates
        assert result.gap > 1e-2

    def test_fails_with_tied_pair(self, fig2c_pair):
        result = check_a1(fig2c_pair)
        assert not result.holds
        assert result.fragile
        mags = np.abs(result.gradient)
        assert np.sum(mags >= mags.max() - 1e-9) == 2
        assert mags.max() == pytest.approx(0.043, abs=2e-3)

    def test_fails_for_mirror_symmetric_pair(self):
        pair = HypothesisPair(DensityModel.gaussian(-2, 3), DensityModel.gaussian(2, 3), 0.5)
        result = check_a1(pair)
        assert not result.holds
        g = result.gradient
        assert abs(g[0]) == pytest.approx(abs(g[2]), abs=1e-12)


class TestA2:
    def test_holds_for_reference_pair(self, table1_pair):
        result = check_a2(table1_pair)
        assert result.holds
        assert abs(result.witness_value) > 1e-4

    def test_holds_for_exponential_pair(self, exp_pair):
        result = check_a2(exp_pair)
        assert result.holds

    def test_inert_component_yields_zero_product(self, table1_pair):
        # a parameter the densities ignore cannot move the boundaries
        inert = _with_inert_param(table1_pair)
        result = check_a2(inert, j=2)  # the dummy component of h0
        assert not result.holds
        assert all(abs(p) <= 1e-8 for p in result.products)


class TestA3:
    def test_holds_for_reference_pair(self, table1_pair):
        result = check_a3(table1_pair)
        assert result.holds
        assert abs(result.inner_product) > 1e-3

    def test_eta_response_direction(self, table1_pair):
        # raising the threshold shrinks the H1 region: boundaries move inward
        result = check_a3(table1_pair)
        dy1, dy2 = result.eta_response
        assert dy1 > 0 and dy2 < 0


def _with_inert_param(pair: HypothesisPair) -> HypothesisPair:
    """Clone of a Gaussian pair whose h0 carries an extra inert parameter."""
    spec = CustomDensity(
        name="gaussian_with_tag",
        param_names=("mu", "sigma", "tag"),
        pdf=lambda x, p: np.exp(-0.5 * ((x - p[0]) / p[1]) ** 2) / (p[1] * math.sqrt(2 * math.pi)),
        cdf=lambda x, p: 0.5 * (1 + np.vectorize(math.erf)((x - p[0]) / (p[1] * math.sqrt(2)))),
        sampler=lambda rng, n, p: rng.normal(p[0], p[1], n),
        mean_scale=lambda p: (p[0], p[1]),
        pdf_dx=lambda x, p: -((x - p[0]) / p[1] ** 2)
        * np.exp(-0.5 * ((x - p[0]) / p[1]) ** 2)
        / (p[1] * math.sqrt(2 * math.pi)),
    )
    h0 = DensityModel.from_custom(spec, pair.h0.params + (1.0,))
    return HypothesisPair(h0, pair.h1, pair.p0)


class TestWitness:
    def test_reference_pair_nonzero(self, table1_pair):
        w = sensitivity_slope_witness(table1_pair)
        assert w.verdict is Verdict.NONZERO
        assert w.gradient_norm > 1e-3
        assert w.identity_ok and w.identity_defect < 1e-5
        assert w.descent_found
        assert w.descent_sensitivity_drop > 0
        assert w.descent_accuracy_change <= 1e-12

    def test_tied_pair_inf_verdict_withheld(self, fig2c_pair):
        w = sensitivity_slope_witness(fig2c_pair)
        assert w.verdict is Verdict.WITHHELD

    def test_tied_pair_two_norm_still_nonzero(self, fig2c_pair):
        w = sensitivity_slope_witness(fig2c_pair, Norm.TWO)
        assert w.verdict is Verdict.NONZERO
        assert w.descent_found

    def test_underflowing_slope_takes_no_descent_step(self):
        # nearly equal means: the two-norm slope is about 4e-306, and its
        # square underflows, so no descent direction exists to normalize
        pair = HypothesisPair(
            DensityModel.gaussian(0.0, 0.5), DensityModel.gaussian(8.382685416300437e-290, 0.5), 0.5
        )
        w = sensitivity_slope_witness(pair, Norm.TWO)
        assert 0.0 < w.gradient_norm < 1e-300
        assert w.verdict is Verdict.ZERO
        assert not w.descent_found and w.descent_sensitivity_drop == 0.0

    def test_identity_trivial_for_inert_component(self, table1_pair):
        # both sides of the mixed-derivative identity vanish for a parameter
        # the densities ignore; the defect check must still pass
        inert = _with_inert_param(table1_pair)
        report = ml_boundaries(inert, 1.0)
        assert len(report.roots) == 2
        assert sensitivity_slope_witness(inert).identity_defect < 1e-5
        # A2's products are w_i * d y_i*/d theta_j: the response row itself
        # is 0 for the inert component
        w = curvature_weights(inert, report.roots, report.orientation)
        assert np.allclose(np.asarray(check_a2(inert, 2).products) / w, 0.0, atol=1e-9)

    def test_identity_on_random_pairs(self):
        rng = np.random.default_rng(5150)
        passed = 0
        while passed < 15:
            pair = random_gaussian_pair(rng)
            try:
                a1 = check_a1(pair)
            except Exception:
                continue
            if not a1.holds or not check_a2(pair, a1.index).holds:
                continue
            assert sensitivity_slope_witness(pair).identity_defect < 1e-5
            passed += 1

    def test_descent_probe_lowers_sensitivity(self, table1_pair):
        report = ml_boundaries(table1_pair, 1.0)
        grad = sensitivity_boundary_gradient(table1_pair, report)
        direction = -grad / np.linalg.norm(grad)
        y = np.asarray(report.roots)
        y_new = y + 1e-3 * direction
        s_old = np.max(np.abs(_grad_at(table1_pair, y, report.orientation)))
        s_new = np.max(np.abs(_grad_at(table1_pair, y_new, report.orientation)))
        assert s_new < s_old
        assert region_accuracy(table1_pair, y_new, report.orientation) <= region_accuracy(
            table1_pair, y, report.orientation
        )


def _grad_at(pair, boundaries, orientation):
    from accsens.classifier import region_accuracy_gradient

    return region_accuracy_gradient(pair, boundaries, orientation)


class TestCurvatureWeights:
    def test_matches_fd_of_boundary_gradient(self, table1_pair):
        from accsens.classifier import region_accuracy_boundary_gradient

        report = ml_boundaries(table1_pair, 1.0)
        y = np.asarray(report.roots)
        w = curvature_weights(table1_pair, y, report.orientation)
        h = 1e-6
        for i in range(y.size):
            y_hi, y_lo = y.copy(), y.copy()
            y_hi[i] += h
            y_lo[i] -= h
            fd = (
                region_accuracy_boundary_gradient(table1_pair, y_hi, report.orientation)[i]
                - region_accuracy_boundary_gradient(table1_pair, y_lo, report.orientation)[i]
            ) / (2 * h)
            assert w[i] == pytest.approx(fd, abs=1e-7)


class TestFullReport:
    def test_bundles_everything(self, table1_pair):
        report = run_all_checks(table1_pair)
        assert report.a1.holds and report.a2.holds and report.a3.holds
        assert report.witness.verdict is Verdict.NONZERO
        payload = report.to_dict()
        tc = theory_checks
        assert payload["steps"] == {
            "theta_fd": tc.THETA_FD_STEP,
            "eta_fd": tc.ETA_FD_STEP,
            "descent": tc.DESCENT_STEP,
        }
        assert payload["tolerances"] == {
            "a1_gap": tc.A1_GAP_TOL,
            "a2_product": tc.A2_PRODUCT_TOL,
            "a3_inner": tc.A3_INNER_TOL,
            "witness": tc.WITNESS_TOL,
            "identity": tc.IDENTITY_TOL,
        }
        assert report.a2.step == payload["a2"]["step"] == tc.THETA_FD_STEP


def _one_by_one(pair: HypothesisPair, norm: Norm) -> str:
    """The verdicts of the public checks, each solving for itself."""
    a1 = check_a1(pair)
    parts = {
        "a1": a1.to_dict(),
        "a2": check_a2(pair, a1.index).to_dict(),
        "a3": check_a3(pair, norm).to_dict(),
        "witness": sensitivity_slope_witness(pair, norm).to_dict(),
    }
    return json.dumps(parts, sort_keys=True)


@st.composite
def audit_pairs(draw):
    if draw(st.booleans()):
        mu0, mu1 = draw(st.floats(-5.0, 5.0)), draw(st.floats(-5.0, 5.0))
        s0, s1 = draw(st.floats(0.5, 6.0)), draw(st.floats(0.5, 6.0))
        return HypothesisPair(
            DensityModel.gaussian(mu0, s0), DensityModel.gaussian(mu1, s1), draw(st.floats(0.3, 0.7))
        )
    rate, ratio = draw(st.floats(0.5, 3.0)), draw(st.floats(1.2, 4.0))
    return HypothesisPair(DensityModel.exponential(rate), DensityModel.exponential(rate * ratio))


class TestSolveOnce:
    @settings(max_examples=40, deadline=None)
    @given(audit_pairs(), st.sampled_from(list(Norm)))
    def test_report_equals_public_checks(self, pair, norm):
        try:
            report = run_all_checks(pair, norm)
        except AccsensError:
            # a pair the audit refuses is refused by the public checks too
            with pytest.raises(AccsensError):
                _one_by_one(pair, norm)
            return
        payload = report.to_dict()
        assert json.dumps({k: payload[k] for k in ("a1", "a2", "a3", "witness")}, sort_keys=True) == (
            _one_by_one(pair, norm)
        )

    @pytest.mark.parametrize("fixture", ["table1_pair", "fig2c_pair", "exp_pair", "custom_exp_pair"])
    def test_each_boundary_problem_is_solved_once(self, request, monkeypatch, fixture):
        pair = request.getfixturevalue(fixture)
        calls, scans = [], []
        solve, many = theory_checks.ml_boundaries, theory_checks._ml_boundaries_many
        monkeypatch.setattr(
            theory_checks, "ml_boundaries", lambda *a, **k: calls.append(a) or solve(*a, **k)
        )
        monkeypatch.setattr(
            theory_checks, "_ml_boundaries_many",
            lambda p, etas: calls.extend((p, eta) for eta in etas) or many(p, etas),
        )
        grid_solve = boundary_solver._grid_solve
        monkeypatch.setattr(
            boundary_solver, "_grid_solve", lambda p, etas, *a: scans.append(etas) or grid_solve(p, etas, *a)
        )
        run_all_checks(pair)
        m = pair.theta.size
        assert len(calls) <= 1 + 2 * m + 2
        assert len({(p.theta.tobytes(), eta) for p, eta in calls}) == len(calls)
        # closed forms scan no grid; otherwise the base and the eta stencil
        # share one grid scan
        closed_form = pair.h0.family in (Family.GAUSSIAN, Family.EXPONENTIAL)
        assert len(scans) == (0 if closed_form else 1 + 2 * m)


class TestThetaRowsInOneCall:
    """The audit's 2m theta re-solves are one front-door call on a stack of
    parameter rows, after the one call for the base and the eta stencil."""

    @staticmethod
    def _count_front_door(monkeypatch):
        calls = []
        solve = boundary_solver._ml_solve_many

        def counted(*args, **kwargs):
            calls.append("thetas" in kwargs)
            return solve(*args, **kwargs)

        monkeypatch.setattr(boundary_solver, "_ml_solve_many", counted)
        monkeypatch.setattr(theory_checks, "_ml_solve_many", counted)
        return calls

    @pytest.mark.parametrize("fixture", ["table1_pair", "exp_pair"])
    def test_at_most_two_front_door_calls(self, request, monkeypatch, fixture):
        calls = self._count_front_door(monkeypatch)
        run_all_checks(request.getfixturevalue(fixture))
        # the stencil's call, then the theta rows' (9 and 5 calls with one
        # call per re-solve)
        assert calls == [False, True]

    @pytest.mark.parametrize("fixture", ["table1_pair", "fig2c_pair", "exp_pair", "custom_exp_pair"])
    def test_single_checks_equal_the_report(self, request, fixture):
        pair = request.getfixturevalue(fixture)
        report = run_all_checks(pair)
        assert check_a2(pair) == report.a2
        assert sensitivity_slope_witness(pair) == report.witness

    def test_unresolved_base_raises_before_any_theta_row(self, monkeypatch):
        # the ratio of exp(1) against exp(2) at p0 = 0.99 never crosses 1
        pair = HypothesisPair(DensityModel.exponential(1.0), DensityModel.exponential(2.0), 0.99)
        calls = self._count_front_door(monkeypatch)
        for audit in (run_all_checks, check_a2, sensitivity_slope_witness):
            with pytest.raises(UnresolvedClassifierError):
                audit(pair)
        assert True not in calls


class TestSolverWarnings:
    def test_stencil_warning_reaches_the_report(self, table1_pair, monkeypatch):
        warning = "log ratio undefined on the whole interval"
        warn_on_the_stencil(monkeypatch, warning)
        report = run_all_checks(table1_pair)
        assert report.warnings == (warning,)
        assert report.to_dict()["warnings"] == [warning]

    def test_warnings_are_deduplicated(self, table1_pair, monkeypatch):
        # every solve behind the audit warns alike: the eta stencil's and
        # the theta re-solves'
        solve, warning = boundary_solver._gaussian_solve, "log ratio undefined on the whole interval"
        monkeypatch.setattr(
            boundary_solver, "_gaussian_solve",
            lambda pair, etas, *a: (*solve(pair, etas, *a)[:2], [(warning,)] * len(etas)),
        )
        assert run_all_checks(table1_pair).warnings == (warning,)

    def test_clean_report_has_no_warnings_key(self, table1_pair):
        report = run_all_checks(table1_pair)
        assert report.warnings == ()
        assert "warnings" not in report.to_dict()


def _stencil_loop(pair, report, norm, h=1e-6):
    """d S / d y_i by central differences, relative step h, one boundary at a
    time; with the inf norm a difference falls back to the side on which the
    center's arg-max survives.  Returns the slope and whether each
    difference is one-sided."""
    y = np.asarray(report.roots, dtype=float)
    orientation = report.orientation

    def sens(b):
        return apply_norm(region_accuracy_gradient(pair, b, orientation), norm)

    def absmax(b):
        return int(np.argmax(np.abs(region_accuracy_gradient(pair, b, orientation))))

    j_center, s_center = absmax(y), sens(y)
    out, one_sided = np.empty(y.size), []
    for i in range(y.size):
        step = h * max(1.0, abs(y[i]))
        y_plus, y_minus = y.copy(), y.copy()
        y_plus[i] += step
        y_minus[i] -= step
        s_plus, s_minus = sens(y_plus), sens(y_minus)
        ok_plus = ok_minus = True
        if norm is Norm.INF:
            ok_plus, ok_minus = absmax(y_plus) == j_center, absmax(y_minus) == j_center
        if ok_plus and not ok_minus:
            out[i] = (s_plus - s_center) / step
        elif ok_minus and not ok_plus:
            out[i] = (s_center - s_minus) / step
        else:
            out[i] = (s_plus - s_minus) / (2.0 * step)
        one_sided.append(ok_plus != ok_minus)
    return out, one_sided


def _stencil_errors(pair, norm, steps):
    """|stencil - exact slope| at each relative step, and whether every
    difference was one-sided."""
    report = ml_boundaries(pair, 1.0)
    exact = sensitivity_boundary_gradient(pair, report, norm)
    errors, sides = [], []
    for h in steps:
        fd, one_sided = _stencil_loop(pair, report, norm, h)
        errors.append(np.abs(fd - exact))
        sides.append(all(one_sided))
    return np.asarray(errors), sides


class TestExactSlope:
    """The sensitivity slope is the exact product of the accuracy gradient
    and its boundary Jacobian; a finite-difference stencil converges to it."""

    @pytest.mark.parametrize("norm", list(Norm))
    def test_matches_the_central_stencil_on_table1(self, table1_pair, norm):
        report = ml_boundaries(table1_pair, 1.0)
        fd, one_sided = _stencil_loop(table1_pair, report, norm)
        assert not any(one_sided)
        np.testing.assert_allclose(
            sensitivity_boundary_gradient(table1_pair, report, norm), fd, rtol=1e-7, atol=0.0
        )
        # truncation error C h^2: each tenth of the step cuts it about a
        # hundredfold (below 1e-5 rounding, eps S / h, takes over)
        errors, _ = _stencil_errors(table1_pair, norm, (1e-3, 1e-4, 1e-5))
        ratios = errors[:-1] / errors[1:]
        assert ((ratios > 50.0) & (ratios < 200.0)).all(), ratios

    def test_one_sided_stencil_converges_like_h_on_fig2c(self, fig2c_pair):
        # the tied inf-norm gradient switches its arg-max inside every
        # central stencil, so each difference is one-sided: error C h
        errors, sides = _stencil_errors(fig2c_pair, Norm.INF, (1e-4, 1e-5, 1e-6))
        assert all(sides)
        ratios = errors[:-1] / errors[1:]
        assert ((ratios > 5.0) & (ratios < 20.0)).all(), ratios

    @settings(max_examples=40, deadline=None)
    @given(audit_pairs(), st.sampled_from(list(Norm)))
    def test_agrees_with_the_stencil_where_a1_holds(self, pair, norm):
        try:
            assume(check_a1(pair).holds)
            a3 = check_a3(pair, norm)
        except AccsensError:
            assume(False)
        fd, _ = _stencil_loop(pair, ml_boundaries(pair, 1.0), norm)
        # normwise: a component of the slope far below its largest one is
        # lost in the stencil's rounding, eps S / h
        atol = 1e-12 + 1e-6 * float(np.max(np.abs(fd)))
        np.testing.assert_allclose(a3.sens_gradient, fd, rtol=0.0, atol=atol)
        # the stencil's inner product gives the same verdict, unless it sits
        # at the tolerance itself
        tol = theory_checks.A3_INNER_TOL
        ip = float(np.dot(a3.eta_response, fd))
        if abs(abs(a3.inner_product) - tol) > 1e-6 * tol:
            assert (abs(ip) > tol) == a3.holds
