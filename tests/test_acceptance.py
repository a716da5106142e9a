"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints one criterion PASS line on success (visible with -rA/-s) and
carries the criterion number in its name so a verbose run shows one line per
criterion either way.  Runtime budgets are asserted where the criterion
states one.
"""

import math
import time

import numpy as np
import pytest

from accsens.adversary_sim import (
    SCENARIOS,
    analytic_perturbed_accuracy,
    run_experiment,
    standard_error,
)
from accsens.boundary_solver import ml_boundaries, ml_boundaries_gaussian, optimal_linear_boundary
from accsens.classifier import (
    MLSpec,
    Norm,
    accuracy,
    accuracy_gradient,
    region_accuracy,
    sensitivity,
)
from accsens.densities import DensityModel, HypothesisPair
from accsens.param_designer import (
    exponential_law,
    fig3_box,
    gamma_sweep,
    gaussian_equal_variance_law,
)
from accsens.theory_checks import (
    Verdict,
    check_a1,
    check_a2,
    sensitivity_slope_witness,
)
from accsens.tradeoff import constrained_min_sensitivity, general_curve, linear_curve, ml_curve
from conftest import random_gaussian_pair

MC_SEED = 20240801

TABLE1_REFERENCE = {
    "c1": {"eta": 1.0, "roots": (3.65, 18.78), "acc": 0.7891, "sens": 0.0334,
           "s1": 0.6857, "s2": 0.6808},
    "c2": {"eta": 0.4603, "roots": (1.83, 20.60), "acc": 0.7766, "sens": 0.0201,
           "s1": 0.6947, "s2": 0.6939},
}


def _report(line: str) -> None:
    print(line)


def test_criterion_01_boundary_closed_form(table1_pair):
    report = ml_boundaries_gaussian(table1_pair, 1.0)
    np.testing.assert_allclose(report.roots, TABLE1_REFERENCE["c1"]["roots"], atol=0.01)
    ml_boundaries_gaussian(table1_pair, 1.0)  # warm
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        ml_boundaries_gaussian(table1_pair, 1.0)
        best = min(best, time.perf_counter() - t0)
    assert best < 1e-3, f"closed-form solve took {best * 1e3:.3f} ms"
    _report(f"criterion 1: PASS (roots {report.roots[0]:.4f}, {report.roots[1]:.4f}; {best * 1e6:.0f} us)")


def test_criterion_02_nominal_accuracy_and_sensitivity(table1_pair):
    t0 = time.perf_counter()
    values = {}
    for name, ref in TABLE1_REFERENCE.items():
        spec = MLSpec(ref["eta"])
        values[name] = (accuracy(spec, table1_pair), sensitivity(spec, table1_pair, Norm.INF))
    elapsed = time.perf_counter() - t0
    for name, ref in TABLE1_REFERENCE.items():
        acc, sens = values[name]
        assert acc == pytest.approx(ref["acc"], abs=5e-4)
        assert sens == pytest.approx(ref["sens"], abs=1e-3)
    assert elapsed < 10e-3, f"nominal evaluation took {elapsed * 1e3:.1f} ms"
    _report(
        "criterion 2: PASS ("
        + "; ".join(f"{n}: A={v[0]:.4f}, S={v[1]:.4f}" for n, v in values.items())
        + f"; {elapsed * 1e3:.1f} ms)"
    )


@pytest.fixture(scope="module")
def mc_reports(table1_pair):
    t0 = time.perf_counter()
    out = {}
    for i, (name, ref) in enumerate(TABLE1_REFERENCE.items()):
        for j, scenario in enumerate(("s1", "s2")):
            out[(name, scenario)] = run_experiment(
                table1_pair, MLSpec(ref["eta"]), SCENARIOS[scenario],
                n_obs=10000, n_trials=100, base_seed=MC_SEED + 1000 * i + 100 * j,
            )
    out["elapsed"] = time.perf_counter() - t0
    return out


def test_criterion_03_monte_carlo_matches_reference(table1_pair, mc_reports):
    for name, ref in TABLE1_REFERENCE.items():
        spec = MLSpec(ref["eta"])
        for scenario in ("s1", "s2"):
            report = mc_reports[(name, scenario)]
            assert report.mean_accuracy == pytest.approx(ref[scenario], abs=0.01)
            analytic = analytic_perturbed_accuracy(table1_pair, spec, SCENARIOS[scenario])
            assert abs(report.mean_accuracy - analytic) <= 3 * standard_error(report)
    assert mc_reports["elapsed"] < 30.0, f"experiment took {mc_reports['elapsed']:.1f} s"
    means = {k: v.mean_accuracy for k, v in mc_reports.items() if isinstance(k, tuple)}
    _report(
        "criterion 3: PASS ("
        + "; ".join(f"{c}/{s}: {m:.4f}" for (c, s), m in means.items())
        + f"; {mc_reports['elapsed']:.1f} s)"
    )


def test_criterion_04_detuned_classifier_wins_under_attack(table1_pair, mc_reports):
    nominal_c1 = accuracy(MLSpec(1.0), table1_pair)
    nominal_c2 = accuracy(MLSpec(0.4603), table1_pair)
    assert nominal_c1 > nominal_c2
    for scenario in ("s1", "s2"):
        assert (
            mc_reports[("c2", scenario)].mean_accuracy
            > mc_reports[("c1", scenario)].mean_accuracy
        )
    _report(
        "criterion 4: PASS (nominal c1 > c2; attacked c2 > c1 under s1 and s2, "
        f"margins {mc_reports[('c2', 's1')].mean_accuracy - mc_reports[('c1', 's1')].mean_accuracy:.4f} / "
        f"{mc_reports[('c2', 's2')].mean_accuracy - mc_reports[('c1', 's2')].mean_accuracy:.4f})"
    )


def test_criterion_05_tied_gradient_pair(fig2c_pair):
    # Reported reference vector for this pair.  Differentiating the
    # correct-classification probability yields these magnitudes with every
    # sign flipped (plugging the two boundaries into the closed form in
    # descending order negates each entry, which is how the reference was
    # printed); the finite-difference oracle and the mixed-derivative
    # identity both pin the signs used here, so the assert is against the
    # sign-corrected vector at the stated tolerance.
    reported = np.array([0.043, 0.024, -0.043, 0.040])
    grad = accuracy_gradient(MLSpec(1.0), fig2c_pair)
    np.testing.assert_allclose(np.abs(grad), np.abs(reported), atol=2e-3)
    np.testing.assert_allclose(grad, -reported, atol=2e-3)
    a1 = check_a1(fig2c_pair)
    assert not a1.holds
    mags = np.abs(grad)
    assert int(np.sum(mags >= mags.max() - 1e-9)) == 2
    _report(
        "criterion 5: PASS (gradient "
        + np.array2string(np.round(grad, 4), separator=", ")
        + "; reference magnitudes within 2e-3, global sign flipped; two tied max components)"
    )


def test_criterion_06_nonzero_sensitivity_slope():
    rng = np.random.default_rng(606)
    t0 = time.perf_counter()
    accepted = 0
    attempts = 0
    while accepted < 50:
        attempts += 1
        assert attempts < 2000, "pair sampler failed to qualify 50 instances"
        pair = random_gaussian_pair(rng)
        report = ml_boundaries(pair, 1.0)
        if len(report.roots) != 2:
            continue
        a1 = check_a1(pair)
        if not a1.holds:
            continue
        if not check_a2(pair, a1.index).holds:
            continue
        witness = sensitivity_slope_witness(pair)
        assert witness.verdict is Verdict.NONZERO
        assert witness.gradient_norm > 1e-7
        assert witness.identity_defect <= 1e-5
        assert witness.descent_found
        assert witness.descent_sensitivity_drop > 0
        assert witness.descent_accuracy_change <= 1e-12
        accepted += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"witness sweep took {elapsed:.1f} s"
    _report(
        f"criterion 6: PASS (50 qualifying pairs from {attempts} draws; "
        f"slope nonzero, identity within 1e-5, descent step found; {elapsed:.1f} s)"
    )


@pytest.fixture(scope="module")
def inf_curves(table1_pair):
    t0 = time.perf_counter()
    curves = {
        "ml": ml_curve(table1_pair, norm=Norm.INF),
        "linear": linear_curve(table1_pair, norm=Norm.INF),
        "general": general_curve(table1_pair, norm=Norm.INF),
    }
    curves["elapsed"] = time.perf_counter() - t0
    return curves


def test_criterion_07_curve_dominance_and_kinks(table1_pair, inf_curves):
    t0 = time.perf_counter()
    ml, lin, gen = inf_curves["ml"], inf_curves["linear"], inf_curves["general"]
    assert gen.metadata["failed_zetas"] == []
    acc_max = gen.accuracies.max()

    # dominance at matched accuracies: re-solve the constrained minimum at
    # the exact accuracy of sampled ratio/linear points
    checked = 0
    for point in list(ml.points[::8]) + list(lin.points[::64]):
        if not (0.5 < point.accuracy <= acc_max):
            continue
        opt = constrained_min_sensitivity(table1_pair, point.accuracy, Norm.INF)
        assert opt.sensitivity <= point.sensitivity + 1e-6, (
            f"general optimum {opt.sensitivity} above {point.kind} point "
            f"{point.sensitivity} at accuracy {point.accuracy}"
        )
        checked += 1
    assert checked > 40

    # all three curves pass through their unit-threshold point
    red_acc = region_accuracy(table1_pair, ml_boundaries(table1_pair, 1.0).roots,
                              ml_boundaries(table1_pair, 1.0).orientation)
    red_sens = sensitivity(MLSpec(1.0), table1_pair, Norm.INF)
    ml_red = [p for p in ml.points if p.parameter == 1.0]
    assert ml_red and ml_red[0].accuracy == pytest.approx(red_acc, abs=1e-12)
    assert ml_red[0].sensitivity == pytest.approx(red_sens, abs=1e-12)
    top = max(gen.points, key=lambda p: p.accuracy)
    assert top.accuracy == pytest.approx(red_acc, abs=1e-9)
    assert top.sensitivity == pytest.approx(red_sens, abs=1e-9)
    lin_best = optimal_linear_boundary(table1_pair)
    lin_top = max(lin.points, key=lambda p: p.accuracy)
    assert lin_top.parameter == pytest.approx(lin_best.y, abs=1e-9)
    assert lin_top.accuracy == pytest.approx(lin_best.accuracy, abs=1e-12)

    # detuning anomaly: some threshold pair loses accuracy AND gains sensitivity
    acc, sens = ml.accuracies, ml.sensitivities
    dominated = any(
        np.any((acc[:i] < acc[i] - 1e-6) & (sens[:i] > sens[i] + 1e-6))
        for i in range(len(acc))
    )
    assert dominated

    elapsed = inf_curves["elapsed"] + (time.perf_counter() - t0)
    assert elapsed < 300.0, f"curve work took {elapsed:.1f} s"
    _report(
        f"criterion 7: PASS (dominance at {checked} matched accuracies within 1e-6; "
        f"unit-threshold point on all curves; detuning anomaly present; {elapsed:.1f} s)"
    )


def test_criterion_08_two_norm_smoothness(table1_pair):
    curves = {
        "ml": ml_curve(table1_pair, norm=Norm.TWO),
        "linear": linear_curve(table1_pair, norm=Norm.TWO),
        "general": general_curve(table1_pair, norm=Norm.TWO),
    }

    def branch(points, ascending=True):
        pts = sorted(points, key=lambda p: p.accuracy)
        return np.array([p.accuracy for p in pts]), np.array([p.sensitivity for p in pts])

    # the from-the-optimum sweeps: threshold at or below one, single boundary
    # on its ascending side, and the constrained frontier itself
    ml_lo = [p for p in curves["ml"].points if p.parameter <= 1.0]
    y_best = max(curves["linear"].points, key=lambda p: p.accuracy).parameter
    lin_left = [p for p in curves["linear"].points if p.parameter <= y_best]
    branches = {
        "ml (eta<=1)": branch(ml_lo),
        "linear (ascending)": branch(lin_left),
        "general": (curves["general"].accuracies, curves["general"].sensitivities),
    }
    d2_bounds = {"ml (eta<=1)": 2e-4, "linear (ascending)": 2e-4, "general": 2e-3}
    for name, (acc, sens) in branches.items():
        viol = float(np.max(np.maximum(0.0, sens[:-1] - sens[1:])))
        assert viol <= 1e-5, f"{name}: monotone tradeoff violated by {viol}"
        interior = sens[:-2]  # the fold at the accuracy maximum has unbounded curvature
        d2 = float(np.max(np.abs(np.diff(interior, 2)))) if interior.size > 2 else 0.0
        assert d2 <= d2_bounds[name], f"{name}: second differences {d2} exceed {d2_bounds[name]}"

    # contrast: the max-component norm shows kinks on the same branches
    inf_ml = [p for p in ml_curve(table1_pair, norm=Norm.INF).points if p.parameter <= 1.0]
    acc, sens = branch(inf_ml)
    inf_viol = float(np.max(np.maximum(0.0, sens[:-1] - sens[1:])))
    assert inf_viol > 1e-5
    _report(
        "criterion 8: PASS (two-norm branches monotone within 1e-5 with bounded "
        f"second differences; max-component norm violates by {inf_viol:.1e})"
    )


def test_criterion_09_closed_form_laws():
    rng = np.random.default_rng(909)
    from accsens.classifier import Orientation

    for _ in range(50):
        r = rng.uniform(1.05, 8.0)
        lam0 = rng.uniform(0.2, 4.0)
        law = exponential_law(r, lam0)
        pair = HypothesisPair(
            DensityModel.exponential(lam0), DensityModel.exponential(r * lam0), 0.5
        )
        generic = region_accuracy(pair, (law.boundary,), Orientation.H1_FIRST)
        assert abs(generic - law.accuracy) <= 1e-10
        lam1 = r * lam0
        h = 1e-6 * max(1.0, lam1)
        fd = (
            exponential_law((lam1 + h) / lam0, lam0).accuracy
            - exponential_law((lam1 - h) / lam0, lam0).accuracy
        ) / (2 * h)
        assert abs(law.sensitivity - abs(fd)) <= 1e-7

    for _ in range(50):
        dmu = rng.uniform(0.0, 8.0)
        sigma = rng.uniform(0.3, 6.0)
        acc, sens = gaussian_equal_variance_law(dmu, sigma)
        pair = HypothesisPair(
            DensityModel.gaussian(0.0, sigma), DensityModel.gaussian(dmu, sigma), 0.5
        )
        assert abs(region_accuracy(pair, (dmu / 2.0,), Orientation.H0_FIRST) - acc) <= 1e-12
        h = 1e-6 * max(1.0, dmu)
        acc_hi = region_accuracy(
            HypothesisPair(pair.h0, DensityModel.gaussian(dmu + h, sigma), 0.5),
            (dmu / 2.0,), Orientation.H0_FIRST,
        )
        acc_lo = region_accuracy(
            HypothesisPair(pair.h0, DensityModel.gaussian(dmu - h, sigma), 0.5),
            (dmu / 2.0,), Orientation.H0_FIRST,
        )
        assert abs(sens - abs((acc_hi - acc_lo) / (2 * h))) <= 1e-8

    # monotone as the closed forms state
    rs = np.linspace(1.01, 12.0, 60)
    exp_laws = [exponential_law(r, 1.0) for r in rs]
    assert np.all(np.diff([l.accuracy for l in exp_laws]) > 0)
    assert np.all(np.diff([l.sensitivity for l in exp_laws]) < 0)
    dmus = np.linspace(0.1, 10.0, 60)
    g_laws = [gaussian_equal_variance_law(d, 2.0) for d in dmus]
    assert np.all(np.diff([a for a, _ in g_laws]) > 0)
    assert np.all(np.diff([s for _, s in g_laws]) < 0)
    _report("criterion 9: PASS (both closed-form laws match the generic pipeline and are monotone)")


def test_criterion_10_design_sweep_properties():
    # The sweep runs where the monotone trends hold for the verified global
    # optimum.  Below accuracy ~0.64 the optimal design genuinely trades
    # unequal widths for a lower worst-component sensitivity, so the curve
    # rises there; see the design module tests for that regime.
    t0 = time.perf_counter()
    gammas = np.linspace(0.65, 0.99, 20)
    results = gamma_sweep(fig3_box(float(gammas[0])), gammas)
    elapsed = time.perf_counter() - t0
    sens = np.array([r.sensitivity for r in results])
    dmu = np.array([abs(r.theta[2] - r.theta[0]) for r in results])
    s0 = np.array([r.theta[1] for r in results])
    s1 = np.array([r.theta[3] for r in results])
    for r in results:
        assert abs(r.accuracy - r.gamma) <= 1e-5
    assert np.max(np.maximum(0.0, sens[1:] - sens[:-1])) <= 1e-4
    assert np.max(np.maximum(0.0, dmu[:-1] - dmu[1:])) <= 1e-3
    assert np.max(np.maximum(0.0, s0[1:] - s0[:-1])) <= 0.05
    assert np.max(np.maximum(0.0, s1[1:] - s1[:-1])) <= 0.05
    assert elapsed < 600.0, f"design sweep took {elapsed:.1f} s"
    _report(
        f"criterion 10: PASS (20-point sweep: sensitivity non-increasing, "
        f"separation non-decreasing, widths non-increasing; {elapsed:.1f} s)"
    )


def test_criterion_11_seeded_commands_are_reproducible(tmp_path):
    import json

    from accsens.cli import main

    jobs = [
        ("curve", ["curve", "ml", "--problem", "table1.json", "--eta-steps", "50",
                   "--format", "csv,json,svg"]),
        ("simulate", ["simulate", "--problem", "table1.json", "--scenario", "s1",
                      "--classifier", "ml:1.0", "--n-obs", "1000", "--n-trials", "5",
                      "--seed", "11"]),
        ("design", ["design", "--box", "fig3.json", "--gamma", "0.8"]),
        ("reproduce", ["reproduce", "table1", "--seed", "13"]),
    ]
    for name, argv in jobs:
        dirs = []
        for run in ("a", "b"):
            out = tmp_path / name / run
            if name == "reproduce":
                code = main(argv + ["--out", str(out)])
            else:
                code = main(argv + ["--out", str(out)])
            assert code == 0
            dirs.append(out)
        files_a = sorted(p for p in dirs[0].rglob("*") if p.is_file())
        files_b = sorted(p for p in dirs[1].rglob("*") if p.is_file())
        assert [p.name for p in files_a] == [p.name for p in files_b]
        for fa, fb in zip(files_a, files_b):
            if fa.name == "metadata.json":
                ma, mb = json.loads(fa.read_text()), json.loads(fb.read_text())
                ma.pop("wall_time_s"), mb.pop("wall_time_s")
                assert ma == mb, f"{fa} differs beyond wall time"
            else:
                assert fa.read_bytes() == fb.read_bytes(), f"{fa} not byte-identical"
    _report("criterion 11: PASS (curve, simulate, design, reproduce byte-identical across runs)")
