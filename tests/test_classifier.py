import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accsens.boundary_solver import default_search_interval
from accsens.classifier import (
    _accuracies,
    _gradients,
    _norms,
    BoundarySet,
    GeneralSpec,
    Label,
    LinearSpec,
    MLSpec,
    Norm,
    Orientation,
    accuracy,
    accuracy_gradient,
    apply_norm,
    classify,
    classify_boundaries,
    count_h0_labels,
    region_accuracy,
    region_accuracy_gradient,
    sensitivity,
    spec_from_dict,
    spec_to_dict,
)
from accsens.densities import DensityModel, HypothesisPair
from accsens.densities import CustomDensity
from accsens.errors import InvalidParameterError, SchemaError, SolverFailureError
from conftest import random_gaussian_pair

C1 = BoundarySet((3.65, 18.78))
C2 = BoundarySet((1.83, 20.60))


class TestClassify:
    def test_ml_labels_reference_pair(self, table1_pair):
        assert classify(MLSpec(1.0), table1_pair, 10.0) is Label.H1
        assert classify(MLSpec(1.0), table1_pair, 0.0) is Label.H0

    def test_orientation_convention(self, table1_pair):
        assert classify(GeneralSpec(BoundarySet((0.0,), Orientation.H0_FIRST)), table1_pair, -1.0) is Label.H0
        assert classify(GeneralSpec(BoundarySet((0.0,), Orientation.H1_FIRST)), table1_pair, -1.0) is Label.H1

    def test_vectorized_matches_scalar(self, table1_pair):
        xs = np.linspace(-20, 30, 64)
        vec = classify(MLSpec(1.0), table1_pair, xs)
        for x, v in zip(xs, vec):
            assert classify(MLSpec(1.0), table1_pair, float(x)) == v
        bset = BoundarySet((3.65, 18.78))
        vec = classify_boundaries(bset, xs)
        for x, v in zip(xs, vec):
            assert classify(GeneralSpec(bset), table1_pair, float(x)) == v


    @pytest.mark.parametrize("orientation", list(Orientation))
    @pytest.mark.parametrize("boundaries", [(0.5,), (-1.0, 2.0), (-1.0, -1.0), (-1.0, 0.5, 2.0)])
    def test_general_and_linear_specs_label_as_classify_boundaries(
        self, table1_pair, boundaries, orientation
    ):
        # samples exactly on every boundary, just beside them and between
        bset = BoundarySet(boundaries, orientation)
        b = np.asarray(boundaries)
        x = np.concatenate([b, np.nextafter(b, -np.inf), np.nextafter(b, np.inf), [-5.0, 0.0, 7.0]])
        expected = classify_boundaries(bset, x)
        specs = [GeneralSpec(bset)]
        if len(boundaries) == 1:
            specs.append(LinearSpec(boundaries[0], orientation))
        for spec in specs:
            np.testing.assert_array_equal(classify(spec, table1_pair, x), expected)
            for xi, label in zip(x, expected):
                assert classify(spec, table1_pair, float(xi)) is Label(int(label))


class TestAccuracy:
    def test_reference_values(self, table1_pair):
        assert accuracy(GeneralSpec(C1), table1_pair) == pytest.approx(0.7891, abs=5e-4)
        assert accuracy(GeneralSpec(C2), table1_pair) == pytest.approx(0.7766, abs=5e-4)

    def test_indistinguishable_pair_is_chance(self):
        pair = HypothesisPair(DensityModel.gaussian(1, 2), DensityModel.gaussian(1, 2), 0.5)
        rng = np.random.default_rng(3)
        for _ in range(5):
            ys = tuple(sorted(rng.uniform(-5, 7, rng.integers(1, 4))))
            assert accuracy(GeneralSpec(BoundarySet(ys)), pair) == pytest.approx(0.5, abs=1e-12)

    def test_orientations_partition(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            pair = random_gaussian_pair(rng)
            ys = tuple(sorted(rng.uniform(-10, 10, rng.integers(1, 5))))
            total = accuracy(
                GeneralSpec(BoundarySet(ys, Orientation.H0_FIRST)), pair
            ) + accuracy(GeneralSpec(BoundarySet(ys, Orientation.H1_FIRST)), pair)
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_unit_threshold_is_optimal(self, table1_pair, exp_pair):
        for pair in (table1_pair, exp_pair):
            best = accuracy(MLSpec(1.0), pair)
            rng = np.random.default_rng(17)
            lo, hi = (-40.0, 45.0) if pair is table1_pair else (0.0, 6.0)
            for _ in range(1000):
                ys = tuple(sorted(rng.uniform(lo, hi, rng.integers(1, 5))))
                orient = Orientation.H0_FIRST if rng.random() < 0.5 else Orientation.H1_FIRST
                assert accuracy(GeneralSpec(BoundarySet(ys, orient)), pair) <= best + 1e-12

    def test_coincident_boundaries_cancel(self, table1_pair):
        base = accuracy(GeneralSpec(BoundarySet((3.65, 18.78))), table1_pair)
        padded = accuracy(GeneralSpec(BoundarySet((3.65, 7.0, 7.0, 18.78))), table1_pair)
        assert padded == pytest.approx(base, abs=1e-15)

    def test_odd_boundary_counts(self, table1_pair):
        # single boundary follows the two-region formula
        y = 3.65
        f0 = table1_pair.h0.cdf(y)
        f1 = table1_pair.h1.cdf(y)
        expected = 0.5 * f0 + 0.5 * (1 - f1)
        assert accuracy(LinearSpec(y), table1_pair) == pytest.approx(expected, abs=1e-15)


@st.composite
def boundary_problems(draw):
    """A random Gaussian or exponential pair and a sorted set of 1-5 boundaries
    reaching half the search interval past either end."""
    if draw(st.booleans()):
        h0 = DensityModel.gaussian(draw(st.floats(-5.0, 5.0)), draw(st.floats(0.5, 6.0)))
        h1 = DensityModel.gaussian(draw(st.floats(-5.0, 5.0)), draw(st.floats(0.5, 6.0)))
    else:
        h0 = DensityModel.exponential(draw(st.floats(0.2, 5.0)))
        h1 = DensityModel.exponential(draw(st.floats(0.2, 5.0)))
    pair = HypothesisPair(h0, h1, draw(st.floats(0.05, 0.95)))
    lo, hi = default_search_interval(pair)
    u = draw(st.lists(st.floats(-0.5, 1.5), min_size=1, max_size=5))
    return pair, tuple(sorted((lo + np.asarray(u) * (hi - lo)).tolist()))


class TestAccuracyProperties:
    @settings(max_examples=100, deadline=None)
    @given(boundary_problems())
    def test_orientations_are_complements(self, problem):
        pair, ys = problem
        a0 = region_accuracy(pair, ys, Orientation.H0_FIRST)
        a1 = region_accuracy(pair, ys, Orientation.H1_FIRST)
        assert 0.0 <= a0 <= 1.0 and 0.0 <= a1 <= 1.0
        assert abs(a0 + a1 - 1.0) <= 4 * np.finfo(float).eps
        np.testing.assert_array_equal(
            region_accuracy_gradient(pair, ys, Orientation.H0_FIRST),
            -region_accuracy_gradient(pair, ys, Orientation.H1_FIRST),
        )


def _logistic_cdf(x, p):
    return 1.0 / (1.0 + np.exp(-(np.asarray(x) - p[0]) / p[1]))


#: A custom family with no analytic gradients: they come from finite differences.
LOGISTIC = CustomDensity(
    name="logistic",
    param_names=("loc", "scale"),
    pdf=lambda x, p: _logistic_cdf(x, p) * (1.0 - _logistic_cdf(x, p)) / p[1],
    cdf=_logistic_cdf,
    sampler=lambda rng, n, p: rng.logistic(p[0], p[1], n),
    mean_scale=lambda p: (p[0], p[1] * np.pi / np.sqrt(3.0)),
)


@st.composite
def boundary_batches(draw):
    """A Gaussian, exponential or custom pair and K columns of n = 0 to 3
    sorted boundaries, each with its own orientation."""
    family = draw(st.sampled_from(["gaussian", "exponential", "custom"]))
    if family == "gaussian":
        h0, h1 = (DensityModel.gaussian(draw(st.floats(-5.0, 5.0)), draw(st.floats(0.5, 6.0))) for _ in range(2))
    elif family == "exponential":
        h0, h1 = (DensityModel.exponential(draw(st.floats(0.2, 5.0))) for _ in range(2))
    else:
        h0, h1 = (
            DensityModel.from_custom(LOGISTIC, (draw(st.floats(-5.0, 5.0)), draw(st.floats(0.5, 3.0))))
            for _ in range(2)
        )
    pair = HypothesisPair(h0, h1, draw(st.floats(0.05, 0.95)))
    lo, hi = default_search_interval(pair)
    n, k = draw(st.integers(0, 3)), draw(st.integers(1, 6))
    u = draw(st.lists(st.lists(st.floats(-0.5, 1.5), min_size=n, max_size=n), min_size=k, max_size=k))
    ys = np.sort(lo + np.asarray(u, dtype=float).reshape(k, n) * (hi - lo), axis=1).T
    h0_first = np.asarray(draw(st.lists(st.booleans(), min_size=k, max_size=k)))
    return pair, ys, h0_first


class TestBatchEvaluation:
    @settings(max_examples=150, deadline=None)
    @given(boundary_batches(), st.sampled_from(list(Norm)))
    def test_columns_equal_one_set_calls(self, batch, norm):
        pair, ys, h0_first = batch
        acc = _accuracies(pair, ys, h0_first)
        grads = _gradients(pair, ys, h0_first)
        sens = _norms(grads, norm)
        assert acc.shape == sens.shape == (ys.shape[1],)
        assert grads.shape == (pair.theta.size, ys.shape[1])
        for k, first in enumerate(h0_first.tolist()):
            orientation = Orientation.H0_FIRST if first else Orientation.H1_FIRST
            assert acc[k] == region_accuracy(pair, ys[:, k], orientation)
            grad = region_accuracy_gradient(pair, ys[:, k], orientation)
            np.testing.assert_array_equal(grads[:, k], grad)
            assert sens[k] == apply_norm(grad, norm)

    def test_the_empty_set_is_one_region(self, table1_pair):
        ys = np.zeros((0, 2))
        np.testing.assert_array_equal(_accuracies(table1_pair, ys, np.asarray([True, False])), [0.5, 0.5])
        np.testing.assert_array_equal(_gradients(table1_pair, ys, True), np.zeros((4, 2)))
        assert region_accuracy(table1_pair, (), Orientation.H1_FIRST) == table1_pair.p1


class TestAccuracyGradient:
    def test_reference_magnitudes_with_tied_pair(self, fig2c_pair):
        # The reported reference vector for this pair is [0.043, 0.024,
        # -0.043, 0.040].  Differentiating the correct-classification
        # probability directly (mass drifting into the misclassified middle
        # region lowers it) yields the same magnitudes with every sign
        # flipped; the magnitude pattern with its exactly tied leading pair
        # is the part that matters downstream.
        grad = accuracy_gradient(MLSpec(1.0), fig2c_pair)
        reported = np.array([0.043, 0.024, -0.043, 0.040])
        np.testing.assert_allclose(np.abs(grad), np.abs(reported), atol=2e-3)
        np.testing.assert_allclose(grad, -reported, atol=2e-3)
        assert abs(grad[0]) == pytest.approx(abs(grad[2]), abs=1e-12)

    def test_equal_variance_midpoint_antisymmetry(self):
        pair = HypothesisPair(DensityModel.gaussian(-2, 3), DensityModel.gaussian(4, 3), 0.5)
        grad = accuracy_gradient(GeneralSpec(BoundarySet((1.0,))), pair)
        assert grad[0] == pytest.approx(-grad[2], abs=1e-15)

    def test_matches_finite_differences_reference(self, table1_pair):
        spec = GeneralSpec(C1)
        grad = accuracy_gradient(spec, table1_pair)
        theta = table1_pair.theta
        h = 1e-5
        for j in range(4):
            e = np.zeros(4)
            e[j] = h
            fd = (
                accuracy(spec, table1_pair.with_theta(theta + e))
                - accuracy(spec, table1_pair.with_theta(theta - e))
            ) / (2 * h)
            assert grad[j] == pytest.approx(fd, abs=1e-6)

    def test_matches_finite_differences_random(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            pair = random_gaussian_pair(rng)
            ys = tuple(sorted(rng.uniform(-8, 8, rng.integers(1, 4))))
            spec = GeneralSpec(BoundarySet(ys))
            grad = accuracy_gradient(spec, pair)
            theta = pair.theta
            h = 1e-5
            for j in range(4):
                e = np.zeros(4)
                e[j] = h
                fd = (
                    accuracy(spec, pair.with_theta(theta + e))
                    - accuracy(spec, pair.with_theta(theta - e))
                ) / (2 * h)
                assert grad[j] == pytest.approx(fd, abs=1e-6)


class TestSensitivity:
    def test_reference_values(self, table1_pair):
        assert sensitivity(GeneralSpec(C1), table1_pair, Norm.INF) == pytest.approx(0.0334, abs=1e-3)
        assert sensitivity(GeneralSpec(C2), table1_pair, Norm.INF) == pytest.approx(0.0201, abs=1e-3)

    def test_norm_ordering(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            pair = random_gaussian_pair(rng)
            ys = tuple(sorted(rng.uniform(-8, 8, rng.integers(1, 4))))
            spec = GeneralSpec(BoundarySet(ys))
            s_inf = sensitivity(spec, pair, Norm.INF)
            s_two = sensitivity(spec, pair, Norm.TWO)
            dim = len(pair.theta)
            assert s_two >= s_inf - 1e-15
            assert s_inf >= s_two / np.sqrt(dim) - 1e-15

    def test_two_norm_of_components_past_the_square_range(self):
        # a Gaussian of width 3e-251 has gradient components near 1e250
        assert apply_norm(np.array([3e200, -4e200]), Norm.TWO) == pytest.approx(5e200, rel=1e-15)
        pair = HypothesisPair(DensityModel.gaussian(0.0, 3e-251), DensityModel.gaussian(1e-300, 3e-251))
        two, inf = (sensitivity(MLSpec(1.0), pair, norm) for norm in (Norm.TWO, Norm.INF))
        assert inf <= two < np.inf


class TestMonteCarloConsistency:
    def test_empirical_accuracy_matches_analytic(self):
        rng = np.random.default_rng(2024)
        for _ in range(10):
            pair = random_gaussian_pair(rng)
            ys = tuple(sorted(rng.uniform(-6, 6, rng.integers(1, 4))))
            orient = Orientation.H0_FIRST if rng.random() < 0.5 else Orientation.H1_FIRST
            bset = BoundarySet(ys, orient)
            analytic = region_accuracy(pair, bset.boundaries, bset.orientation)
            n = 10**5
            labels = (rng.random(n) < pair.p1).astype(int)
            x = np.empty(n)
            n1 = labels.sum()
            if n - n1:
                x[labels == 0] = pair.h0.sample(rng, n - n1)
            if n1:
                x[labels == 1] = pair.h1.sample(rng, n1)
            empirical = np.mean(classify_boundaries(bset, x) == labels)
            assert empirical == pytest.approx(analytic, abs=0.005)


class TestSpecsAndValidation:
    def test_boundary_set_validation(self):
        with pytest.raises(InvalidParameterError):
            BoundarySet(())
        with pytest.raises(InvalidParameterError):
            BoundarySet((2.0, 1.0))
        with pytest.raises(InvalidParameterError):
            BoundarySet((np.inf,))
        with pytest.raises(InvalidParameterError):
            MLSpec(0.0)

    def test_spec_round_trip(self):
        for spec in (
            GeneralSpec(BoundarySet((1.0, 2.0), Orientation.H1_FIRST)),
            MLSpec(0.4603),
            LinearSpec(3.65),
        ):
            assert spec_from_dict(spec_to_dict(spec)) == spec
        with pytest.raises(SchemaError):
            spec_from_dict({"kind": "ml", "eta": 1.0, "gamma": 2.0})
        with pytest.raises(SchemaError):
            spec_from_dict({"kind": "quadratic"})

    @pytest.mark.parametrize(
        "obj",
        [
            {"kind": "general", "boundaries": [1.0, 2.0], "orientation": "sideways"},
            {"kind": "general", "boundaries": ["left"]},
            {"kind": "general", "boundaries": 3.0},
            {"kind": "linear", "y": None},
            {"kind": "linear", "y": 1.0, "orientation": 3},
            {"kind": "ml", "eta": "one"},
        ],
    )
    def test_malformed_spec_values_raise_schema_error(self, obj):
        with pytest.raises(SchemaError):
            spec_from_dict(obj)

    def test_accuracy_outside_unit_interval_is_a_solver_failure(self):
        # a custom family whose cdf overshoots 1: the range check must raise
        # (under python -O too), not return a probability above one
        broken = CustomDensity(
            name="overshoot",
            param_names=("a",),
            pdf=lambda x, p: np.zeros_like(x),
            cdf=lambda x, p: np.full_like(x, 5.0),
            sampler=lambda rng, n, p: np.zeros(n),
        )
        pair = HypothesisPair(
            DensityModel.from_custom(broken, (1.0,)), DensityModel.gaussian(0.0, 1.0)
        )
        with pytest.raises(SolverFailureError):
            region_accuracy(pair, (0.0,), Orientation.H0_FIRST)


class TestCountH0Labels:
    @pytest.mark.parametrize("orientation", list(Orientation))
    @pytest.mark.parametrize(
        "boundaries", [(0.5,), (-1.0, 2.0), (-1.0, -1.0), (-1.0, 0.5, 2.0), (0.5, 0.5, 2.0)]
    )
    def test_matches_labelling(self, boundaries, orientation):
        # samples exactly on every boundary, just beside them, at +-inf and NaN
        bset = BoundarySet(boundaries, orientation)
        b = np.asarray(boundaries)
        x = np.concatenate([
            b, np.nextafter(b, -np.inf), np.nextafter(b, np.inf),
            [-np.inf, np.inf, np.nan, np.nan, 0.0, -5.0, 7.0],
        ])
        rng = np.random.default_rng(len(boundaries))
        for sample in (x, rng.permutation(x), x[:1], x[-3:], np.empty(0)):
            expected = int(np.count_nonzero(classify_boundaries(bset, sample) == 0))
            assert count_h0_labels(bset, sample) == expected
