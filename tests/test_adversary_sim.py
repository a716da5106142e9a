import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from accsens.adversary_sim import (
    SCENARIOS,
    PerturbationSpec,
    analytic_perturbed_accuracy,
    run_experiment,
    standard_error,
)
from accsens.classifier import MLSpec, accuracy, classify_boundaries, resolve
from accsens.densities import DensityModel, HypothesisPair
from accsens.errors import (
    InvalidParameterError,
    InvalidPerturbationError,
    UnresolvedClassifierError,
)

SEED = 20240801


class TestPerturbation:
    def test_applies_additive_shifts(self, table1_pair):
        shifted = SCENARIOS["s2"].apply(table1_pair)
        assert shifted.h0.params == (1.0, 11.0)
        assert shifted.h1.params == (7.0, 5.5)

    def test_rejects_nonpositive_width(self, table1_pair):
        with pytest.raises(InvalidPerturbationError):
            PerturbationSpec(sigma_bar_1=-4.0).apply(table1_pair)

    def test_rejects_non_gaussian(self, exp_pair):
        with pytest.raises(InvalidPerturbationError):
            PerturbationSpec(mu_bar_0=1.0).apply(exp_pair)


class TestAnalyticOracle:
    def test_zero_perturbation_is_nominal(self, table1_pair):
        spec = MLSpec(1.0)
        assert analytic_perturbed_accuracy(
            table1_pair, spec, PerturbationSpec()
        ) == pytest.approx(accuracy(spec, table1_pair), abs=1e-15)

    def test_reference_values(self, table1_pair):
        # closed-form accuracies of the nominal boundaries under both attacks
        expected = {
            ("c1", "s1"): 0.68617,
            ("c1", "s2"): 0.68039,
            ("c2", "s1"): 0.69501,
            ("c2", "s2"): 0.69358,
        }
        specs = {"c1": MLSpec(1.0), "c2": MLSpec(0.4603)}
        for (cls, scen), value in expected.items():
            got = analytic_perturbed_accuracy(table1_pair, specs[cls], SCENARIOS[scen])
            assert got == pytest.approx(value, abs=5e-5)


@pytest.fixture(scope="module")
def reports(table1_pair):
    out = {}
    for cls, spec in (("c1", MLSpec(1.0)), ("c2", MLSpec(0.4603))):
        for scen in ("s1", "s2"):
            out[(cls, scen)] = run_experiment(table1_pair, spec, SCENARIOS[scen], base_seed=SEED)
    return out


class TestExperiment:
    def test_means_match_analytic_within_three_se(self, table1_pair, reports):
        specs = {"c1": MLSpec(1.0), "c2": MLSpec(0.4603)}
        for (cls, scen), report in reports.items():
            analytic = analytic_perturbed_accuracy(table1_pair, specs[cls], SCENARIOS[scen])
            assert abs(report.mean_accuracy - analytic) <= 3 * standard_error(report)

    def test_detuned_classifier_wins_under_attack(self, table1_pair, reports):
        # nominally the unit threshold is strictly better; under both attacks
        # the lower-sensitivity classifier strictly wins
        assert accuracy(MLSpec(1.0), table1_pair) > accuracy(MLSpec(0.4603), table1_pair)
        for scen in ("s1", "s2"):
            assert reports[("c2", scen)].mean_accuracy > reports[("c1", scen)].mean_accuracy

    def test_report_shape(self, reports):
        report = reports[("c1", "s1")]
        assert report.n_trials == 100 and report.n_obs == 10000
        assert len(report.per_trial_accuracy) == 100
        assert min(report.per_trial_accuracy) <= report.mean_accuracy <= max(report.per_trial_accuracy)
        csv = report.trials_csv_text().splitlines()
        assert csv[0] == "trial,seed,accuracy"
        assert len(csv) == 101

    def test_zero_perturbation_consistency(self, table1_pair):
        spec = MLSpec(1.0)
        report = run_experiment(table1_pair, spec, PerturbationSpec(), base_seed=SEED)
        nominal = accuracy(spec, table1_pair)
        tol = 3 * np.sqrt(nominal * (1 - nominal) / (report.n_obs * report.n_trials))
        assert abs(report.mean_accuracy - nominal) <= tol

    def test_bit_identical_reports(self, table1_pair):
        spec = MLSpec(1.0)
        a = run_experiment(table1_pair, spec, SCENARIOS["s1"], n_obs=500, n_trials=7, base_seed=5)
        b = run_experiment(table1_pair, spec, SCENARIOS["s1"], n_obs=500, n_trials=7, base_seed=5)
        assert a == b
        c = run_experiment(table1_pair, spec, SCENARIOS["s1"], n_obs=500, n_trials=7, base_seed=6)
        assert a.per_trial_accuracy != c.per_trial_accuracy

    def test_input_validation(self, table1_pair):
        with pytest.raises(InvalidParameterError):
            run_experiment(table1_pair, MLSpec(1.0), SCENARIOS["s1"], n_obs=0)
        with pytest.raises(InvalidParameterError):
            run_experiment(table1_pair, MLSpec(1.0), SCENARIOS["s1"], n_trials=0)

    @pytest.mark.parametrize("seed", [-1, -(2**40), 1.5, "3", True, None])
    def test_rejects_negative_or_non_integer_seed(self, table1_pair, seed):
        with pytest.raises(InvalidParameterError):
            run_experiment(table1_pair, MLSpec(1.0), SCENARIOS["s1"], n_obs=10, base_seed=seed)

    def test_accepts_numpy_integer_seed(self, table1_pair):
        a = run_experiment(table1_pair, MLSpec(1.0), SCENARIOS["s1"], n_obs=50, n_trials=2, base_seed=np.int64(9))
        b = run_experiment(table1_pair, MLSpec(1.0), SCENARIOS["s1"], n_obs=50, n_trials=2, base_seed=9)
        assert a.per_trial_accuracy == b.per_trial_accuracy

    def test_unequal_priors_label_frequencies(self):
        pair = HypothesisPair(DensityModel.gaussian(0, 2), DensityModel.gaussian(5, 1), 0.8)
        report = run_experiment(pair, MLSpec(1.0), PerturbationSpec(), n_obs=20000, n_trials=3, base_seed=1)
        nominal = accuracy(MLSpec(1.0), pair)
        assert report.mean_accuracy == pytest.approx(nominal, abs=0.01)


def _labelled_accuracies(pair, spec, perturbation, n_obs, n_trials, base_seed):
    """Reference Monte Carlo that labels every observation: draw the labels,
    scatter each class's samples into one array, classify it and compare."""
    bset = resolve(spec, pair)
    shifted = perturbation.apply(pair)
    out = []
    for t in range(n_trials):
        rng = np.random.default_rng(base_seed + t)
        labels = (rng.random(n_obs) < shifted.p1).astype(np.int8)
        x = np.empty(n_obs)
        n1 = int(labels.sum())
        n0 = n_obs - n1
        if n0:
            x[labels == 0] = shifted.h0.sample(rng, n0)
        if n1:
            x[labels == 1] = shifted.h1.sample(rng, n1)
        out.append(float(np.mean(classify_boundaries(bset, x) == labels)))
    return tuple(out)


shifts = st.builds(
    PerturbationSpec,
    st.floats(-3.0, 3.0), st.floats(-0.4, 3.0), st.floats(-3.0, 3.0), st.floats(-0.4, 3.0),
)


class TestCountingMatchesLabelling:
    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(-5.0, 5.0), st.floats(0.5, 6.0), st.floats(-5.0, 5.0), st.floats(0.5, 6.0),
        st.floats(0.2, 0.8), st.floats(-2.0, 2.0),
        st.one_of(st.sampled_from(list(SCENARIOS.values())), shifts),
        st.integers(1, 2000), st.integers(1, 3), st.integers(0, 2**32),
    )
    def test_bit_identical_to_labelling(self, mu0, s0, mu1, s1, p0, log_eta, perturbation, n_obs, n_trials, seed):
        pair = HypothesisPair(DensityModel.gaussian(mu0, s0), DensityModel.gaussian(mu1, s1), p0)
        spec = MLSpec(float(np.exp(log_eta)))
        try:
            resolve(spec, pair)
        except UnresolvedClassifierError:
            assume(False)
        report = run_experiment(pair, spec, perturbation, n_obs=n_obs, n_trials=n_trials, base_seed=seed)
        assert report.per_trial_accuracy == _labelled_accuracies(
            pair, spec, perturbation, n_obs, n_trials, seed
        )
