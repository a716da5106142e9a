import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import kstest

import accsens.densities as dens
from accsens.densities import CustomDensity, DensityModel, Family, HypothesisPair
from accsens.errors import CapabilityError, InvalidParameterError, SchemaError


class TestPdf:
    def test_gaussian_mode(self):
        model = DensityModel.gaussian(0.0, 9.0)
        assert model.pdf(0.0) == pytest.approx(1.0 / (9.0 * math.sqrt(2 * math.pi)), abs=1e-15)
        assert model.pdf(0.0) == pytest.approx(0.044326, abs=1e-6)

    def test_exponential_at_origin(self):
        assert DensityModel.exponential(2.0).pdf(0.0) == 2.0
        assert DensityModel.exponential(2.0).pdf(-0.5) == 0.0

    def test_gaussian_against_high_precision_reference(self):
        # 50-digit evaluation of the closed form as an independent oracle.
        import mpmath

        mpmath.mp.dps = 50
        x, mu, sigma = map(mpmath.mpf, ("3.65", "9", "4"))
        ref = mpmath.exp(-((x - mu) ** 2) / (2 * sigma**2)) / (sigma * mpmath.sqrt(2 * mpmath.pi))
        assert DensityModel.gaussian(9.0, 4.0).pdf(3.65) == pytest.approx(float(ref), rel=1e-14)

    def test_normalization_by_quadrature(self):
        for model in (
            DensityModel.gaussian(0.0, 9.0),
            DensityModel.gaussian(9.0, 4.0),
            DensityModel.exponential(2.0),
        ):
            assert abs(model.normalization_defect()) < 1e-9

    def test_construction_check_flag(self):
        bad = CustomDensity(
            name="half_normal_unnormalized",
            param_names=("sigma",),
            pdf=lambda x, p: np.exp(-0.5 * (x / p[0]) ** 2) / (p[0] * math.sqrt(2 * math.pi)),
            cdf=lambda x, p: 0.5 * (1 + np.vectorize(math.erf)(x / (p[0] * math.sqrt(2)))),
            sampler=lambda rng, n, p: np.abs(rng.normal(0, p[0], n)),
            support=(0.0, math.inf),
        )
        dens.NORMALIZATION_CHECKS = True
        try:
            with pytest.raises(InvalidParameterError, match="integrates"):
                DensityModel.from_custom(bad, (1.0,))
            DensityModel.gaussian(0.0, 1.0)  # proper models still construct
        finally:
            dens.NORMALIZATION_CHECKS = False

    @pytest.mark.parametrize("x", [1e200, -1e200, 8e307, 1e308])
    def test_gaussian_far_out_points_do_not_warn(self, x):
        model = DensityModel.gaussian(1.0, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert model.pdf(x) == 0.0
            assert model.log_pdf(x) == -np.inf
            np.testing.assert_array_equal(model.grad_pdf_params(x), [0.0, 0.0])
            np.testing.assert_array_equal(model.pdf(np.asarray([x, 1.0])), [0.0, model.pdf(1.0)])


class TestCdf:
    def test_gaussian_symmetry(self):
        assert DensityModel.gaussian(0.0, 1.0).cdf(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_exponential_median(self):
        assert DensityModel.exponential(1.0).cdf(math.log(2.0)) == pytest.approx(0.5, abs=1e-15)

    def test_gaussian_against_quadrature(self):
        model = DensityModel.gaussian(0.0, 9.0)
        # finite lower limit at -44 sigma: the remaining tail mass underflows
        ref, err = quad(lambda t: model.pdf(t), -400.0, 3.65, limit=300, epsabs=1e-14)
        assert err < 1e-12
        assert model.cdf(3.65) == pytest.approx(ref, abs=1e-12)
        assert model.cdf(3.65) == pytest.approx(0.65747, abs=1e-5)

    def test_sentinels(self):
        for model in (DensityModel.gaussian(3.0, 2.0), DensityModel.exponential(0.7)):
            assert model.cdf(-np.inf) == 0.0
            assert model.cdf(np.inf) == 1.0

    def test_cdf_x_derivative_matches_pdf(self):
        # grids span 3.5 scale units: beyond that the cdf is within ~1e-4 of
        # its limit and the finite difference loses to float cancellation
        h = 1e-6
        for model, grid in [
            (DensityModel.gaussian(0.0, 9.0), np.linspace(-31.5, 31.5, 41)),
            (DensityModel.gaussian(9.0, 4.0), np.linspace(-5, 23, 41)),
            (DensityModel.exponential(2.0), np.linspace(0.01, 1.75, 41)),
        ]:
            fd = (np.asarray(model.cdf(grid + h)) - np.asarray(model.cdf(grid - h))) / (2 * h)
            pdf = np.asarray(model.pdf(grid))
            rel = np.abs(fd - pdf) / np.maximum(np.abs(pdf), 1e-300)
            assert np.max(rel) < 1e-6


def _fd_grad(fn, params, x, step=1e-6):
    out = []
    for i, p in enumerate(params):
        h = step * max(1.0, abs(p))
        hi = list(params)
        lo = list(params)
        hi[i] = p + h
        lo[i] = p - h
        out.append((fn(hi, x) - fn(lo, x)) / (2 * h))
    return np.asarray(out)


class TestParameterGradients:
    def test_gaussian_pdf_mu_at_mode(self):
        grad = DensityModel.gaussian(0.0, 1.0).grad_pdf_params(0.0)
        assert grad[0] == pytest.approx(0.0, abs=1e-15)

    def test_exponential_pdf_rate_at_origin(self):
        grad = DensityModel.exponential(1.0).grad_pdf_params(0.0)
        assert grad[0] == pytest.approx(1.0, abs=1e-15)

    def test_gaussian_pdf_sigma_matches_fd(self):
        model = DensityModel.gaussian(0.0, 9.0)
        fd = _fd_grad(lambda p, x: DensityModel.gaussian(*p).pdf(x), model.params, 3.65)
        assert model.grad_pdf_params(3.65)[1] == pytest.approx(fd[1], abs=1e-8)

    def test_gaussian_cdf_mu_closed_form(self):
        model = DensityModel.gaussian(0.0, 1.0)
        assert model.grad_cdf_params(0.0)[0] == pytest.approx(-1.0 / math.sqrt(2 * math.pi), abs=1e-15)

    def test_exponential_cdf_rate_saturates(self):
        model = DensityModel.exponential(1.0)
        assert model.grad_cdf_params(np.inf)[0] == 0.0
        assert model.grad_cdf_params(1e6)[0] == 0.0

    def test_gaussian_cdf_grad_matches_fd(self):
        model = DensityModel.gaussian(9.0, 4.0)
        fd = _fd_grad(lambda p, x: DensityModel.gaussian(*p).cdf(x), model.params, 18.78)
        np.testing.assert_allclose(model.grad_cdf_params(18.78), fd, atol=1e-8)

    def test_gradients_match_fd_on_random_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            if rng.random() < 0.5:
                params = (rng.uniform(-10, 10), rng.uniform(0.3, 12.0))
                model = DensityModel.gaussian(*params)
                make = lambda p, x: DensityModel.gaussian(*p).pdf(x)
                make_cdf = lambda p, x: DensityModel.gaussian(*p).cdf(x)
                x = rng.uniform(params[0] - 4 * params[1], params[0] + 4 * params[1])
            else:
                params = (rng.uniform(0.2, 5.0),)
                model = DensityModel.exponential(*params)
                make = lambda p, x: DensityModel.exponential(*p).pdf(x)
                make_cdf = lambda p, x: DensityModel.exponential(*p).cdf(x)
                x = rng.uniform(0.01, 4.0 / params[0])
            np.testing.assert_allclose(
                model.grad_pdf_params(x), _fd_grad(make, model.params, x), atol=1e-7
            )
            np.testing.assert_allclose(
                model.grad_cdf_params(x), _fd_grad(make_cdf, model.params, x), atol=1e-7
            )

    def test_pdf_dx(self):
        model = DensityModel.gaussian(2.0, 3.0)
        h = 1e-6
        for x in (-1.0, 2.0, 4.5):
            fd = (model.pdf(x + h) - model.pdf(x - h)) / (2 * h)
            assert model.pdf_dx(x) == pytest.approx(fd, abs=1e-9)
        exp = DensityModel.exponential(1.5)
        assert exp.pdf_dx(1.0) == pytest.approx(-1.5 * exp.pdf(1.0), rel=1e-12)


class TestSampling:
    def test_exponential_mean_lln(self):
        rng = np.random.default_rng(123)
        draws = DensityModel.exponential(1.0).sample(rng, 10**6)
        assert 0.997 <= draws.mean() <= 1.003

    def test_gaussian_std_lln(self):
        rng = np.random.default_rng(456)
        draws = DensityModel.gaussian(0.0, 9.0).sample(rng, 10**6)
        assert 8.97 <= draws.std(ddof=1) <= 9.03

    def test_determinism(self):
        a = DensityModel.gaussian(1.0, 2.0).sample(np.random.default_rng(7), 1)
        b = DensityModel.gaussian(1.0, 2.0).sample(np.random.default_rng(7), 1)
        assert a[0] == b[0]
        with pytest.raises(InvalidParameterError):
            DensityModel.gaussian(1.0, 2.0).sample(np.random.default_rng(7), 0)

    @pytest.mark.parametrize(
        "model",
        [DensityModel.gaussian(9.0, 4.0), DensityModel.exponential(2.0)],
        ids=["gaussian", "exponential"],
    )
    def test_empirical_cdf_ks(self, model):
        rng = np.random.default_rng(99)
        draws = model.sample(rng, 10**5)
        stat = kstest(draws, lambda x: np.asarray(model.cdf(x))).statistic
        assert stat < 0.01


class TestValidationAndSerialization:
    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            DensityModel.gaussian(0.0, 0.0)
        with pytest.raises(InvalidParameterError):
            DensityModel.gaussian(0.0, -1.0)
        with pytest.raises(InvalidParameterError):
            DensityModel.exponential(0.0)
        with pytest.raises(InvalidParameterError):
            HypothesisPair(DensityModel.gaussian(0, 1), DensityModel.gaussian(1, 1), 1.5)

    def test_priors_sum_exactly(self):
        pair = HypothesisPair(DensityModel.gaussian(0, 1), DensityModel.gaussian(1, 1), 0.3)
        assert pair.p0 + pair.p1 == 1.0

    def test_round_trip(self):
        pair = HypothesisPair(DensityModel.gaussian(0, 9), DensityModel.exponential(2.0), 0.25)
        again = HypothesisPair.from_dict(pair.to_dict())
        assert again == pair
        assert again.digest() == pair.digest()

    def test_unknown_keys_rejected(self):
        with pytest.raises(SchemaError, match="surprise"):
            DensityModel.from_dict({"family": "gaussian", "params": {"mu": 0, "sigma": 1}, "surprise": 1})
        with pytest.raises(SchemaError, match="tau"):
            DensityModel.from_dict({"family": "gaussian", "params": {"mu": 0, "tau": 1}})
        with pytest.raises(SchemaError, match="p2"):
            HypothesisPair.from_json(
                '{"h0": {"family": "gaussian", "params": {"mu": 0, "sigma": 1}},'
                ' "h1": {"family": "gaussian", "params": {"mu": 1, "sigma": 1}}, "p2": 0.5}'
            )
        with pytest.raises(SchemaError, match="family"):
            DensityModel.from_dict({"params": {"mu": 0}})

    def test_theta_stacking(self):
        pair = HypothesisPair(DensityModel.gaussian(0, 9), DensityModel.gaussian(9, 4), 0.5)
        np.testing.assert_array_equal(pair.theta, [0, 9, 9, 4])
        assert pair.theta_names == ("h0.mu", "h0.sigma", "h1.mu", "h1.sigma")
        moved = pair.with_theta([1, 2, 3, 4])
        assert moved.h0.params == (1.0, 2.0)
        assert moved.h1.params == (3.0, 4.0)


def _uniform_custom(fd: bool = True) -> CustomDensity:
    return CustomDensity(
        name="uniform",
        param_names=("a", "b"),
        pdf=lambda x, p: np.where((x >= p[0]) & (x <= p[1]), 1.0 / (p[1] - p[0]), 0.0),
        cdf=lambda x, p: np.clip((x - p[0]) / (p[1] - p[0]), 0.0, 1.0),
        sampler=lambda rng, n, p: rng.uniform(p[0], p[1], n),
        support=(-math.inf, math.inf),
        mean_scale=lambda p: (0.5 * (p[0] + p[1]), (p[1] - p[0]) / math.sqrt(12.0)),
        fd_gradients=fd,
    )


class TestCustomDensities:
    def test_fd_gradient_fallback(self):
        model = DensityModel.from_custom(_uniform_custom(), (0.0, 2.0))
        # interior point: d cdf / da = (x - b) / (b - a)^2, d cdf / db = -(x - a)/(b - a)^2
        x = 0.7
        expected = np.array([(x - 2.0) / 4.0, -(x - 0.0) / 4.0])
        np.testing.assert_allclose(model.grad_cdf_params(x), expected, atol=1e-8)

    def test_capability_error_without_gradients(self):
        model = DensityModel.from_custom(_uniform_custom(fd=False), (0.0, 2.0))
        assert not model.has_gradients
        with pytest.raises(CapabilityError):
            model.grad_cdf_params(0.7)

    def test_custom_sampler_and_support(self):
        model = DensityModel.from_custom(_uniform_custom(), (1.0, 3.0))
        draws = model.sample(np.random.default_rng(5), 1000)
        assert draws.min() >= 1.0 and draws.max() <= 3.0
        assert model.pdf(0.0) == 0.0
        assert model.family is Family.CUSTOM
