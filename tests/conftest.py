import numpy as np
import pytest

from accsens.densities import CustomDensity, DensityModel, HypothesisPair


@pytest.fixture(scope="session")
def table1_pair() -> HypothesisPair:
    """Wide H0 against narrow shifted H1; the workhorse reference problem."""
    return HypothesisPair(DensityModel.gaussian(0.0, 9.0), DensityModel.gaussian(9.0, 4.0), 0.5)


@pytest.fixture(scope="session")
def fig2c_pair() -> HypothesisPair:
    """Pair whose accuracy gradient has two tied maximal components."""
    return HypothesisPair(DensityModel.gaussian(0.0, 4.0), DensityModel.gaussian(5.0, 3.0), 0.5)


@pytest.fixture(scope="session")
def exp_pair() -> HypothesisPair:
    return HypothesisPair(DensityModel.exponential(1.0), DensityModel.exponential(2.0), 0.5)


def random_gaussian_pair(rng: np.random.Generator, min_sigma_gap: float = 0.2) -> HypothesisPair:
    """Well-conditioned random pair for property loops."""
    mu0, mu1 = rng.uniform(-5.0, 5.0, 2)
    s0, s1 = rng.uniform(0.5, 6.0, 2)
    if abs(s0 - s1) < min_sigma_gap:
        s1 += 2.0 * min_sigma_gap
    p0 = rng.uniform(0.3, 0.7)
    return HypothesisPair(DensityModel.gaussian(mu0, s0), DensityModel.gaussian(mu1, s1), p0)


def _decay(x, p):
    """exp(-rate x) on the support x >= 0 and 0 elsewhere, with its argument
    x, 0 off the finite support, so that x exp(-rate x) is 0 at inf."""
    on = (x >= 0.0) & (x < np.inf)
    t = np.where(on, x, 0.0)
    return np.where(on, np.exp(-p[0] * t), 0.0), t


#: The exponential family registered as a custom one: the root solver has no
#: closed form for it, so its pairs take the grid scan.
CUSTOM_EXPONENTIAL = CustomDensity(
    name="custom_exponential",
    param_names=("rate",),
    pdf=lambda x, p: p[0] * _decay(x, p)[0],
    cdf=lambda x, p: -np.expm1(-p[0] * np.maximum(x, 0.0)),
    sampler=lambda rng, n, p: rng.exponential(1.0 / p[0], n),
    support=(0.0, np.inf),
    grad_pdf=lambda x, p: ((1.0 - p[0] * _decay(x, p)[1]) * _decay(x, p)[0])[None],
    grad_cdf=lambda x, p: np.prod(_decay(x, p), axis=0)[None],
    pdf_dx=lambda x, p: -p[0] * p[0] * _decay(x, p)[0],
    mean_scale=lambda p: (1.0 / p[0], 1.0 / p[0]),
)


def custom_exponential_pair(rate0: float, rate1: float, p0: float = 0.5) -> HypothesisPair:
    """exp(rate0) against exp(rate1) as a custom pair, solved on the grid."""
    return HypothesisPair(
        DensityModel.from_custom(CUSTOM_EXPONENTIAL, (rate0,)),
        DensityModel.from_custom(CUSTOM_EXPONENTIAL, (rate1,)),
        p0,
    )


@pytest.fixture(scope="session")
def custom_exp_pair() -> HypothesisPair:
    """``exp_pair`` as a custom pair, solved on the grid."""
    return custom_exponential_pair(1.0, 2.0)
