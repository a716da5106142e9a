import dataclasses

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


def _laplace_cdf(x, p):
    t = (np.asarray(x) - p[0]) / p[1]
    return np.where(t < 0.0, 0.5 * np.exp(np.minimum(t, 0.0)), 1.0 - 0.5 * np.exp(-np.maximum(t, 0.0)))


def _logistic_cdf(x, p):
    return 1.0 / (1.0 + np.exp(-(np.asarray(x) - p[0]) / p[1]))


#: Laplace and logistic families whose search hints fix the default
#: interval at [-4, 4], so that its grid points do not move with the location.
_HINTS = dict(sampler=lambda rng, n, p: np.zeros(n), mean_scale=lambda p: (0.0, 0.5))
LAPLACE = CustomDensity(
    name="laplace",
    param_names=("loc", "scale"),
    pdf=lambda x, p: 0.5 / p[1] * np.exp(-np.abs(x - p[0]) / p[1]),
    cdf=_laplace_cdf,
    **_HINTS,
)
LOGISTIC = CustomDensity(
    name="logistic",
    param_names=("loc", "scale"),
    pdf=lambda x, p: _logistic_cdf(x, p) * (1.0 - _logistic_cdf(x, p)) / p[1],
    cdf=_logistic_cdf,
    **_HINTS,
)


def touching_pair() -> HypothesisPair:
    """Laplace(c, 1/2) against logistic(c, 1/4) at equal priors, c a point of
    the default 4096-point grid over [-4, 4]: both pdfs read exactly 1 at c,
    so at threshold 1 the log ratio gap touches 0 there from above, between
    two crossings where the lighter logistic tails fall below.  The touch
    changes no sign, so the roots are the two crossings, H0 wins outside
    them, and no warning is raised."""
    c = float(np.linspace(-4.0, 4.0, 4096)[2048])
    return HypothesisPair(
        DensityModel.from_custom(LAPLACE, (c, 0.5)), DensityModel.from_custom(LOGISTIC, (c, 0.25))
    )


#: A uniform family whose search hints put the default interval at [-4, 4].
UNIFORM = CustomDensity(
    name="uniform",
    param_names=("lo", "hi"),
    pdf=lambda x, p: np.where((x >= p[0]) & (x <= p[1]), 1.0 / (p[1] - p[0]), 0.0),
    cdf=lambda x, p: np.clip((np.asarray(x) - p[0]) / (p[1] - p[0]), 0.0, 1.0),
    **_HINTS,
)


def undefined_pair() -> HypothesisPair:
    """Uniform(10, 11) against uniform(10, 12): both densities vanish on the
    whole default interval [-4, 4], so the log ratio is undefined there, and
    the grid solve finds no root and warns."""
    return HypothesisPair(
        DensityModel.from_custom(UNIFORM, (10.0, 11.0)), DensityModel.from_custom(UNIFORM, (10.0, 12.0))
    )


def warn_on_the_stencil(monkeypatch, warning: str) -> None:
    """Give the audit's solve at threshold 1 + h of its eta stencil the
    solver warning ``warning``, as a grid solve may."""
    import accsens.theory_checks as theory_checks

    many = theory_checks._ml_boundaries_many

    def solve(pair, etas):
        base, plus, *rest = many(pair, etas)
        return (base, dataclasses.replace(plus, warnings=(warning,)), *rest)

    monkeypatch.setattr(theory_checks, "_ml_boundaries_many", solve)
