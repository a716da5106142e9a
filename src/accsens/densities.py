"""Parametric scalar density families used by the hypothesis-testing pipeline.

Every model exposes the same surface: pdf/cdf evaluation, derivatives of both
with respect to the distribution parameters, the pdf derivative in x, and an
exact seeded sampler.  Built-in families (Gaussian, Exponential) carry analytic
gradients; custom families register callables, and any parameter gradient a
custom family does not supply is taken by central finite differences.  The
built-in pdf, its slope, the cdf and its parameter gradient also take arrays
of parameters (``_pdf``, ``_pdf_dx``, ``_cdf``, ``_grad_cdf``), so that
boundary sets can be scored, and roots checked, at many.

All values are immutable and all operations are pure functions of their
inputs, so models can be shared freely across threads.  Samplers take an
explicit ``numpy.random.Generator``; one generator per unit of work, never
shared.

Throughout the package the convention for the normal distribution is that the
second parameter is the standard deviation, and "cdf" always means the
left-tail cumulative probability P[X <= x].
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np
from scipy.special import ndtr

from ._records import read_number, read_object
from .errors import CapabilityError, InvalidParameterError, SchemaError

_SQRT_2PI = math.sqrt(2.0 * math.pi)


class Family(str, Enum):
    GAUSSIAN = "gaussian"
    EXPONENTIAL = "exponential"
    CUSTOM = "custom"


@dataclass(frozen=True)
class CustomDensity:
    """Registration record for a user-supplied density family.

    ``pdf``/``cdf``/``sampler`` are required.  Gradient hooks are optional:
    missing parameter gradients are approximated by central finite
    differences with step ``1e-6 * max(1, |theta_i|)``.  ``mean_scale``
    supplies location/scale hints used to build default root-search
    intervals.

    Signature conventions: ``pdf(x, params) -> array``, ``cdf(x, params) ->
    array``, ``sampler(rng, n, params) -> array``, ``grad_pdf(x, params) ->
    array of shape (len(params),) + x.shape``, same for ``grad_cdf``,
    ``pdf_dx(x, params) -> array``, ``mean_scale(params) -> (loc, scale)``.
    """

    name: str
    param_names: tuple[str, ...]
    pdf: Callable
    cdf: Callable
    sampler: Callable
    support: tuple[float, float] = (-math.inf, math.inf)
    grad_pdf: Callable | None = None
    grad_cdf: Callable | None = None
    pdf_dx: Callable | None = None
    mean_scale: Callable | None = None


def _fd_param_grad(fn: Callable, x: np.ndarray, params: np.ndarray) -> np.ndarray:
    """Central finite differences of ``fn(x, params)`` in each parameter."""
    out = []
    for i, p in enumerate(params):
        h = 1e-6 * max(1.0, abs(p))
        hi = params.copy()
        lo = params.copy()
        hi[i] = p + h
        lo[i] = p - h
        out.append((np.asarray(fn(x, hi)) - np.asarray(fn(x, lo))) / (2.0 * h))
    return np.stack(out, axis=0)


# ---- the built-in families' formulas, their parameters broadcast against x ----


def _gaussian_score(x: np.ndarray, mu, sigma) -> tuple[np.ndarray, np.ndarray]:
    """z = (x - mu) / sigma and the pdf; far out z * z overflows to inf, pdf 0."""
    z = (x - mu) / sigma
    return z, np.exp(-0.5 * z * z) / (sigma * _SQRT_2PI)


def _cdf(family: Family, x: np.ndarray, params) -> np.ndarray:
    """P[X <= x] of a built-in family; ``params`` holds one value or one
    array per parameter, each broadcast against x."""
    if family is Family.GAUSSIAN:
        mu, sigma = params
        with np.errstate(over="ignore"):  # far out z is +-inf: cdf 0 or 1
            return ndtr((x - mu) / sigma)
    (lam,) = params
    return np.where(x >= 0.0, -np.expm1(-lam * np.where(x >= 0.0, x, 0.0)), 0.0)


def _log_each(v):
    """``math.log`` of a float, or of each entry of an array: ``np.log`` may
    differ from it in the last bit, and a density at an array of parameters
    must read what it reads at each one alone."""
    if isinstance(v, float):
        return math.log(v)
    return np.reshape([math.log(t) for t in np.ravel(v).tolist()], np.shape(v))


def _pdf(family: Family, x: np.ndarray, params) -> np.ndarray:
    """The density of a built-in family at x, zero outside the support, with
    ``params`` broadcast against x as in ``_cdf``."""
    with np.errstate(over="ignore"):
        if family is Family.GAUSSIAN:
            return _gaussian_score(x, *params)[1]
        (lam,) = params
        # in the log domain, so that lam exp(-lam x) does not underflow where
        # exp(-lam x) alone would
        return np.where(x >= 0.0, np.exp(_log_each(lam) - lam * np.where(x >= 0.0, x, 0.0)), 0.0)


def _pdf_dx(family: Family, x: np.ndarray, params) -> np.ndarray:
    """d pdf / dx of a built-in family, as ``_pdf`` broadcasts it; the
    exponential family's right-derivative at its support edge x = 0."""
    f = _pdf(family, x, params)
    if family is Family.GAUSSIAN:
        mu, sigma = params
        with np.errstate(over="ignore"):  # a width past 1e154 squares to inf: slope 0
            out = -((x - mu) / np.float64(sigma) ** 2) * f
        return np.where(np.isinf(x), 0.0, out)
    (lam,) = params
    with np.errstate(over="ignore"):  # a rate past about 1e154: slope -inf
        return np.where(x >= 0.0, -lam * f, 0.0)


def _cdf_pdf_dx(model: "DensityModel", x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cdf, pdf and d pdf / dx of ``model`` at the array x, from one
    standardized argument.  The cdf and pdf of a built-in family carry the
    operation order of ``_cdf`` and ``_pdf``, so they read what those read;
    the slope is -(z / sigma) f for a Gaussian and -lam f for an
    exponential.  A custom family's values come from its public methods.
    The three arrays are new, for the caller to work on in place, as the
    arithmetic here does where it can: a level-set solve calls this on
    arrays far larger than the cache, where every temporary costs a pass
    through memory."""
    if model.family is Family.CUSTOM:
        return tuple(np.array(v(x), dtype=float) for v in (model.cdf, model.pdf, model.pdf_dx))
    if model.family is Family.GAUSSIAN:
        mu, sigma = model.params
        with np.errstate(over="ignore", invalid="ignore"):  # far out z is +-inf: cdf 0 or 1, slope NaN
            z = x - mu
            z /= sigma
            f = -0.5 * z
            f *= z
            np.exp(f, out=f)
            f /= sigma * _SQRT_2PI
            dx = z / sigma
            np.negative(dx, out=dx)
            dx *= f
            return ndtr(z), f, dx
    (lam,) = model.params
    outside = ~(x >= 0.0)  # NaN too, as in ``_cdf`` and ``_pdf``
    with np.errstate(over="ignore"):  # a rate past about 1e154: slope -inf
        t = np.where(outside, 0.0, x)
        t *= lam
        f = math.log(lam) - t
        np.exp(f, out=f)
        np.copyto(f, 0.0, where=outside)
        np.negative(t, out=t)
        np.expm1(t, out=t)
        np.negative(t, out=t)
        np.copyto(t, 0.0, where=outside)
        return t, f, f * -lam


def _grad_cdf(family: Family, x: np.ndarray, params) -> np.ndarray:
    """d cdf / d theta of a built-in family, as ``_cdf`` broadcasts it, with
    the parameters on a new first axis; 0 at the +-inf sentinels."""
    if family is Family.GAUSSIAN:
        with np.errstate(over="ignore", invalid="ignore"):  # far out: inf * 0
            z, f = _gaussian_score(x, *params)  # f is 0 at the sentinels
            z_f = np.where(f == 0.0, 0.0, z * f)
        return -np.array((f, z_f))
    (lam,) = params
    with np.errstate(over="ignore", invalid="ignore"):
        d_lam = np.where((x >= 0.0) & np.isfinite(x), x * np.exp(-lam * x), 0.0)
    return d_lam[None, ...]


@dataclass(frozen=True)
class DensityModel:
    """A named parametric scalar density with full evaluation capabilities."""

    family: Family
    params: tuple[float, ...]
    custom: CustomDensity | None = None

    def __post_init__(self) -> None:
        if self.family is Family.GAUSSIAN:
            if len(self.params) != 2:
                raise InvalidParameterError("gaussian expects (mu, sigma)")
            if not self.params[1] > 0:
                raise InvalidParameterError(f"gaussian sigma must be > 0, got {self.params[1]}")
        elif self.family is Family.EXPONENTIAL:
            if len(self.params) != 1:
                raise InvalidParameterError("exponential expects (rate,)")
            if not self.params[0] > 0:
                raise InvalidParameterError(f"exponential rate must be > 0, got {self.params[0]}")
        elif self.family is Family.CUSTOM:
            if self.custom is None:
                raise InvalidParameterError("custom model requires a CustomDensity record")
            if len(self.params) != len(self.custom.param_names):
                raise InvalidParameterError(
                    f"custom model {self.custom.name!r} expects "
                    f"{len(self.custom.param_names)} parameters, got {len(self.params)}"
                )
        if not all(math.isfinite(p) for p in self.params):
            raise InvalidParameterError(f"non-finite parameters {self.params}")

    # ---- constructors ----

    @staticmethod
    def gaussian(mu: float, sigma: float) -> "DensityModel":
        return DensityModel(Family.GAUSSIAN, (float(mu), float(sigma)))

    @staticmethod
    def exponential(rate: float) -> "DensityModel":
        return DensityModel(Family.EXPONENTIAL, (float(rate),))

    @staticmethod
    def from_custom(spec: CustomDensity, params) -> "DensityModel":
        return DensityModel(Family.CUSTOM, tuple(float(p) for p in params), spec)

    # ---- metadata ----

    @property
    def param_names(self) -> tuple[str, ...]:
        if self.family is Family.GAUSSIAN:
            return ("mu", "sigma")
        if self.family is Family.EXPONENTIAL:
            return ("rate",)
        return self.custom.param_names

    @property
    def support(self) -> tuple[float, float]:
        if self.family is Family.GAUSSIAN:
            return (-math.inf, math.inf)
        if self.family is Family.EXPONENTIAL:
            return (0.0, math.inf)
        return self.custom.support

    def mean_scale(self) -> tuple[float, float]:
        """Location/scale hints used for default search intervals."""
        if self.family is Family.GAUSSIAN:
            return self.params
        if self.family is Family.EXPONENTIAL:
            m = 1.0 / self.params[0]
            return (m, m)
        if self.custom.mean_scale is None:
            raise CapabilityError(
                f"custom model {self.custom.name!r} declares no mean/scale hints; "
                "pass an explicit search interval"
            )
        loc, scale = self.custom.mean_scale(np.asarray(self.params, dtype=float))
        return (float(loc), float(scale))

    def with_params(self, params) -> "DensityModel":
        return DensityModel(self.family, tuple(float(p) for p in params), self.custom)

    # ---- evaluation ----

    def pdf(self, x):
        """Density at ``x``; zero outside the support."""
        x = np.asarray(x, dtype=float)
        if self.family is Family.CUSTOM:
            out = np.asarray(self.custom.pdf(x, np.asarray(self.params)), dtype=float)
            lo, hi = self.custom.support
            out = np.where((x >= lo) & (x <= hi), out, 0.0)
        else:
            out = _pdf(self.family, x, self.params)
        return out if out.ndim else float(out)

    def log_pdf(self, x):
        """log pdf(x); -inf outside the support."""
        x = np.asarray(x, dtype=float)
        if self.family is Family.GAUSSIAN:
            mu, sigma = self.params
            with np.errstate(over="ignore"):  # far out z * z is inf: log pdf -inf
                z = (x - mu) / sigma
                out = -0.5 * z * z - math.log(sigma * _SQRT_2PI)
        elif self.family is Family.EXPONENTIAL:
            lam = self.params[0]
            out = np.where(x >= 0.0, math.log(lam) - lam * x, -np.inf)
        else:
            with np.errstate(divide="ignore"):
                out = np.log(np.asarray(self.pdf(x), dtype=float))
        return out if out.ndim else float(out)

    def cdf(self, x):
        """P[X <= x].  Accepts +-inf sentinels."""
        x = np.asarray(x, dtype=float)
        if self.family is Family.CUSTOM:
            out = np.asarray(self.custom.cdf(x, np.asarray(self.params)), dtype=float)
            lo, hi = self.custom.support
            out = np.where(x < lo, 0.0, np.where(x > hi, 1.0, out))
        else:
            out = np.asarray(_cdf(self.family, x, self.params))
        return out if out.ndim else float(out)

    def pdf_dx(self, x):
        """d pdf / dx.  For the exponential family the right-derivative is
        used at the support edge x = 0."""
        x = np.asarray(x, dtype=float)
        if self.family is not Family.CUSTOM:
            out = _pdf_dx(self.family, x, self.params)
        elif self.custom.pdf_dx is not None:
            out = np.asarray(self.custom.pdf_dx(x, np.asarray(self.params)), dtype=float)
        else:
            h = 1e-6
            out = (np.asarray(self.pdf(x + h)) - np.asarray(self.pdf(x - h))) / (2 * h)
        out = np.asarray(out)
        return out if out.ndim else float(out)

    def grad_pdf_params(self, x) -> np.ndarray:
        """d pdf(x) / d theta, shape ``(n_params,) + shape(x)``."""
        x = np.asarray(x, dtype=float)
        if self.family is Family.GAUSSIAN:
            mu, sigma = self.params
            f = np.asarray(self.pdf(x))
            with np.errstate(over="ignore", invalid="ignore"):  # far out: inf * 0
                z = np.where(np.isinf(x), 0.0, (x - mu) / sigma)
                d_mu = np.where(f == 0.0, 0.0, z / sigma * f)
                d_sigma = np.where(f == 0.0, 0.0, (z * z - 1.0) / sigma * f)
            return np.stack([d_mu, d_sigma], axis=0)
        if self.family is Family.EXPONENTIAL:
            lam = self.params[0]
            with np.errstate(over="ignore", invalid="ignore"):
                d_lam = np.where(
                    (x >= 0.0) & np.isfinite(x), np.exp(-lam * x) * (1.0 - lam * x), 0.0
                )
            return d_lam[None, ...]
        if self.custom.grad_pdf is not None:
            return np.asarray(self.custom.grad_pdf(x, np.asarray(self.params)), dtype=float)
        return _fd_param_grad(self.custom.pdf, x, np.asarray(self.params, dtype=float))

    def grad_cdf_params(self, x) -> np.ndarray:
        """d cdf(x) / d theta, shape ``(n_params,) + shape(x)``.

        Vanishes identically at the +-inf sentinels: the cdf saturates there
        regardless of the parameters.
        """
        x = np.asarray(x, dtype=float)
        if self.family is not Family.CUSTOM:
            return _grad_cdf(self.family, x, self.params)
        if self.custom.grad_cdf is not None:
            return np.asarray(self.custom.grad_cdf(x, np.asarray(self.params)), dtype=float)
        return _fd_param_grad(self.custom.cdf, x, np.asarray(self.params, dtype=float))

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` i.i.d. exact samples.  Same generator state, same output."""
        if n < 1:
            raise InvalidParameterError(f"sample size must be >= 1, got {n}")
        if self.family is Family.GAUSSIAN:
            mu, sigma = self.params
            return rng.normal(mu, sigma, size=n)
        if self.family is Family.EXPONENTIAL:
            return rng.exponential(1.0 / self.params[0], size=n)
        return np.asarray(self.custom.sampler(rng, n, np.asarray(self.params)), dtype=float)

    # ---- serialization ----

    def to_dict(self) -> dict:
        name = {} if self.custom is None else {"name": self.custom.name}
        return {"family": self.family.value, **name, "params": dict(zip(self.param_names, self.params))}

    @staticmethod
    def from_dict(obj: dict) -> "DensityModel":
        # a custom spec, as ``to_dict`` writes it, also holds a name
        spec = read_object(obj, "density spec", ("family", "name", "params"), ("family",))
        if spec["family"] == Family.CUSTOM.value:
            raise SchemaError(
                "family 'custom' cannot be read from a spec; build the model in Python "
                "with DensityModel.from_custom"
            )
        read_object(obj, "density spec", ("family", "params"))
        try:
            family = Family(obj["family"])
        except ValueError:
            raise SchemaError(f"unknown family {obj['family']!r}") from None
        names = ("mu", "sigma") if family is Family.GAUSSIAN else ("rate",)
        params = read_object(obj["params"], f"parameters of family {family.value!r}", names)
        return DensityModel(
            family, tuple(read_number(params[n], f"{family.value} parameter {n!r}") for n in names)
        )


@dataclass(frozen=True)
class HypothesisPair:
    """A binary testing problem: two densities plus prior probabilities.

    Only ``p0`` is stored; the complementary prior is derived so the two
    always sum to one exactly.
    """

    h0: DensityModel
    h1: DensityModel
    p0: float = 0.5

    def __post_init__(self) -> None:
        if not (0.0 <= self.p0 <= 1.0):
            raise InvalidParameterError(f"prior p0 must lie in [0, 1], got {self.p0}")

    @property
    def p1(self) -> float:
        return 1.0 - self.p0

    @property
    def theta(self) -> np.ndarray:
        """Stacked parameter vector [theta0; theta1]."""
        return np.asarray(self.h0.params + self.h1.params, dtype=float)

    @property
    def split(self) -> int:
        """Index where the stacked vector switches from theta0 to theta1."""
        return len(self.h0.params)

    def with_theta(self, theta) -> "HypothesisPair":
        theta = np.asarray(theta, dtype=float)
        size = len(self.h0.params) + len(self.h1.params)
        if theta.shape != (size,):
            raise InvalidParameterError(f"theta must have shape ({size},), got {theta.shape}")
        k, values = self.split, theta.tolist()
        return HypothesisPair(
            self.h0.with_params(values[:k]), self.h1.with_params(values[k:]), self.p0
        )

    def digest(self) -> str:
        """Stable short fingerprint of the problem definition."""
        import hashlib

        payload = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()[:12]

    def to_dict(self) -> dict:
        return {"h0": self.h0.to_dict(), "h1": self.h1.to_dict(), "p0": self.p0}

    @staticmethod
    def from_dict(obj: dict) -> "HypothesisPair":
        read_object(obj, "problem spec", ("h0", "h1", "p0"), required=("h0", "h1"))
        return HypothesisPair(
            DensityModel.from_dict(obj["h0"]),
            DensityModel.from_dict(obj["h1"]),
            read_number(obj.get("p0", 0.5), "problem spec key 'p0'"),
        )