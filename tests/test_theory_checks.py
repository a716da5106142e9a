import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import accsens.boundary_solver as boundary_solver
import accsens.theory_checks as theory_checks
from accsens.classifier import Norm, apply_norm, region_accuracy, region_accuracy_gradient
from accsens.boundary_solver import ml_boundaries
from accsens.densities import CustomDensity, DensityModel, Family, HypothesisPair
from accsens.errors import AccsensError
from accsens.theory_checks import (
    ETA_FD_STEP,
    SENS_FD_STEP,
    Verdict,
    boundary_theta_response,
    check_a1,
    check_a2,
    check_a3,
    curvature_weights,
    mixed_derivative_identity_defect,
    run_all_checks,
    sensitivity_boundary_gradient,
    sensitivity_slope_witness,
)
from conftest import random_gaussian_pair


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

    def test_identity_trivial_for_inert_component(self, table1_pair):
        # both sides of the mixed-derivative identity vanish for a parameter
        # the densities ignore; the defect check must still pass
        inert = _with_inert_param(table1_pair)
        report = ml_boundaries(inert, 1.0)
        assert len(report.roots) == 2
        defect = mixed_derivative_identity_defect(inert, report)
        assert defect < 1e-5
        assert np.allclose(boundary_theta_response(inert, 2), 0.0, atol=1e-9)

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
            report = ml_boundaries(pair, 1.0)
            assert mixed_derivative_identity_defect(pair, report) < 1e-5
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
        assert payload["tolerances"]["a1_gap"] == 1e-6
        assert payload["steps"]["theta_fd"] == 1e-5


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

    @pytest.mark.parametrize("fixture", ["table1_pair", "fig2c_pair", "exp_pair"])
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
        # the base and the eta stencil share one grid scan
        gaussian = pair.h0.family is Family.GAUSSIAN
        assert len(scans) == (0 if gaussian else 1 + 2 * m)


class TestSolverWarnings:
    # exp(1) against exp(1 + 1e-5): at threshold 1 + ETA_FD_STEP the ratio
    # root sits exactly on the support edge, a grid point, so that solve of
    # the eta stencil reports a root-parity warning
    PAIR = HypothesisPair(DensityModel.exponential(1.0), DensityModel.exponential(1.0 + 1e-5))

    def test_stencil_warning_reaches_the_report(self):
        expected = ml_boundaries(self.PAIR, 1.0 + ETA_FD_STEP).warnings
        assert expected and "parity" in expected[0]
        report = run_all_checks(self.PAIR)
        assert report.warnings == expected
        assert report.to_dict()["warnings"] == list(expected)

    def test_warnings_are_deduplicated(self, table1_pair, monkeypatch):
        solve = theory_checks.ml_boundaries
        monkeypatch.setattr(
            theory_checks, "ml_boundaries",
            lambda *a, **k: dataclasses.replace(solve(*a, **k), warnings=("grid too coarse",)),
        )
        assert run_all_checks(table1_pair).warnings == ("grid too coarse",)

    def test_clean_report_has_no_warnings_key(self, table1_pair):
        report = run_all_checks(table1_pair)
        assert report.warnings == ()
        assert "warnings" not in report.to_dict()


def _stencil_loop(pair, report, norm, h=SENS_FD_STEP):
    """d S / d y_i as one boundary at a time, two sensitivity and two arg-max
    evaluations per boundary; and whether each difference is one-sided."""
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


class TestStencilReference:
    @pytest.mark.parametrize("name", ["table1_pair", "fig2c_pair"])
    @pytest.mark.parametrize("norm", list(Norm))
    def test_batched_stencil_equals_the_per_boundary_loop(self, name, norm, request):
        pair = request.getfixturevalue(name)
        report = ml_boundaries(pair, 1.0)
        expected, one_sided = _stencil_loop(pair, report, norm)
        np.testing.assert_array_equal(sensitivity_boundary_gradient(pair, report, norm), expected)
        # fig2c's tied gradient takes the one-sided branch at both boundaries
        assert all(one_sided) == (name == "fig2c_pair" and norm is Norm.INF)
