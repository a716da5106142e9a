"""Parametric scalar density families used by the hypothesis-testing pipeline.

Every model exposes the same surface: pdf/cdf evaluation, derivatives of both
with respect to the distribution parameters, the pdf derivative in x, and an
exact seeded sampler.  Built-in families (Gaussian, Exponential) carry analytic
gradients; custom families register callables and may fall back to central
finite differences for the parameter derivatives.

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
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np
from scipy.special import ndtr

from .errors import CapabilityError, InvalidParameterError, SchemaError

_SQRT_2PI = math.sqrt(2.0 * math.pi)

# When enabled, model construction verifies by quadrature that the pdf
# integrates to one.  Off by default: it is a test/debug guard, far too slow
# for optimizer inner loops.
NORMALIZATION_CHECKS = False
NORMALIZATION_TOL = 1e-9


class Family(str, Enum):
    GAUSSIAN = "gaussian"
    EXPONENTIAL = "exponential"
    CUSTOM = "custom"


@dataclass(frozen=True)
class CustomDensity:
    """Registration record for a user-supplied density family.

    ``pdf``/``cdf``/``sampler`` are required.  Gradient hooks are optional;
    with ``fd_gradients`` enabled (the default) missing parameter gradients
    are approximated by central finite differences with step
    ``1e-6 * max(1, |theta_i|)``.  ``mean_scale`` supplies location/scale
    hints used to build default root-search intervals.

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
    fd_gradients: bool = True


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


@dataclass(frozen=True)
class DensityModel:
    """A named parametric scalar density with full evaluation capabilities."""

    family: Family
    params: tuple[float, ...]
    custom: CustomDensity | None = field(default=None, compare=False)

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
        if NORMALIZATION_CHECKS:
            err = abs(self.normalization_defect())
            if err > NORMALIZATION_TOL:
                raise InvalidParameterError(
                    f"pdf of {self.describe()} integrates to 1{err:+.3e}"
                )

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

    @property
    def has_gradients(self) -> bool:
        if self.family is Family.CUSTOM:
            return (
                self.custom.fd_gradients
                or (self.custom.grad_pdf is not None and self.custom.grad_cdf is not None)
            )
        return True

    def describe(self) -> str:
        pairs = ", ".join(f"{n}={v:g}" for n, v in zip(self.param_names, self.params))
        return f"{self.family.value}({pairs})"

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
        if self.family is Family.GAUSSIAN:
            mu, sigma = self.params
            with np.errstate(over="ignore"):  # far out z * z is inf: pdf 0
                z = (x - mu) / sigma
                out = np.exp(-0.5 * z * z) / (sigma * _SQRT_2PI)
        elif self.family is Family.EXPONENTIAL:
            lam = self.params[0]
            with np.errstate(over="ignore"):
                out = np.where(x >= 0.0, lam * np.exp(-lam * np.where(x >= 0.0, x, 0.0)), 0.0)
        else:
            out = np.asarray(self.custom.pdf(x, np.asarray(self.params)), dtype=float)
            lo, hi = self.custom.support
            out = np.where((x >= lo) & (x <= hi), out, 0.0)
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
        if self.family is Family.GAUSSIAN:
            mu, sigma = self.params
            with np.errstate(over="ignore"):  # far out z is +-inf: cdf 0 or 1
                out = ndtr((x - mu) / sigma)
        elif self.family is Family.EXPONENTIAL:
            lam = self.params[0]
            out = np.where(x >= 0.0, -np.expm1(-lam * np.where(x >= 0.0, x, 0.0)), 0.0)
        else:
            out = np.asarray(self.custom.cdf(x, np.asarray(self.params)), dtype=float)
            lo, hi = self.custom.support
            out = np.where(x < lo, 0.0, np.where(x > hi, 1.0, out))
        out = np.asarray(out)
        return out if out.ndim else float(out)

    def pdf_dx(self, x):
        """d pdf / dx.  For the exponential family the right-derivative is
        used at the support edge x = 0."""
        x = np.asarray(x, dtype=float)
        if self.family is Family.GAUSSIAN:
            mu, sigma = self.params
            with np.errstate(over="ignore"):  # a width past 1e154 squares to inf: slope 0
                out = -((x - mu) / np.float64(sigma) ** 2) * self.pdf(x)
            out = np.where(np.isinf(x), 0.0, out)
        elif self.family is Family.EXPONENTIAL:
            lam = self.params[0]
            out = np.where(x >= 0.0, -lam * np.asarray(self.pdf(x)), 0.0)
        else:
            if self.custom.pdf_dx is not None:
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
        if not self.custom.fd_gradients:
            raise CapabilityError(
                f"custom model {self.custom.name!r} has no pdf parameter gradients"
            )
        return _fd_param_grad(self.custom.pdf, x, np.asarray(self.params, dtype=float))

    def grad_cdf_params(self, x) -> np.ndarray:
        """d cdf(x) / d theta, shape ``(n_params,) + shape(x)``.

        Vanishes identically at the +-inf sentinels: the cdf saturates there
        regardless of the parameters.
        """
        x = np.asarray(x, dtype=float)
        if self.family is Family.GAUSSIAN:
            mu, sigma = self.params
            f = np.asarray(self.pdf(x))  # 0 at the sentinels
            with np.errstate(over="ignore", invalid="ignore"):  # far out: inf * 0
                z_f = np.where(f == 0.0, 0.0, (x - mu) / sigma * f)
            return np.stack([-f, -z_f], axis=0)
        if self.family is Family.EXPONENTIAL:
            lam = self.params[0]
            with np.errstate(over="ignore", invalid="ignore"):
                d_lam = np.where(
                    (x >= 0.0) & np.isfinite(x), x * np.exp(-lam * x), 0.0
                )
            return d_lam[None, ...]
        if self.custom.grad_cdf is not None:
            return np.asarray(self.custom.grad_cdf(x, np.asarray(self.params)), dtype=float)
        if not self.custom.fd_gradients:
            raise CapabilityError(
                f"custom model {self.custom.name!r} has no cdf parameter gradients"
            )
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

    def normalization_defect(self, rtol: float = 1e-11) -> float:
        """Quadrature check: integral of the pdf over the support, minus one."""
        from scipy.integrate import quad

        lo, hi = self.support
        total, _ = quad(lambda t: float(self.pdf(t)), lo, hi, limit=200, epsabs=1e-12, epsrel=rtol)
        return total - 1.0

    # ---- serialization ----

    def to_dict(self) -> dict:
        return {
            "family": self.family.value,
            "params": {n: v for n, v in zip(self.param_names, self.params)},
        }

    @staticmethod
    def from_dict(obj: dict, custom_registry: dict[str, CustomDensity] | None = None) -> "DensityModel":
        if not isinstance(obj, dict):
            raise SchemaError(f"density spec must be an object, got {type(obj).__name__}")
        unknown = set(obj) - {"family", "params", "name"}
        if unknown:
            raise SchemaError(f"unknown key {sorted(unknown)[0]!r} in density spec")
        try:
            family = Family(obj["family"])
        except KeyError:
            raise SchemaError("density spec missing key 'family'") from None
        except ValueError:
            raise SchemaError(f"unknown family {obj['family']!r}") from None
        params = obj.get("params")
        if not isinstance(params, dict):
            raise SchemaError("density spec key 'params' must be an object")
        if family is Family.CUSTOM:
            name = obj.get("name")
            if custom_registry is None or name not in custom_registry:
                raise SchemaError(f"custom density {name!r} is not registered")
            spec = custom_registry[name]
            names = spec.param_names
        else:
            spec = None
            names = ("mu", "sigma") if family is Family.GAUSSIAN else ("rate",)
        unknown = set(params) - set(names)
        if unknown:
            raise SchemaError(f"unknown parameter {sorted(unknown)[0]!r} for family {family.value!r}")
        missing = set(names) - set(params)
        if missing:
            raise SchemaError(f"missing parameter {sorted(missing)[0]!r} for family {family.value!r}")
        values = []
        for n in names:
            try:
                values.append(float(params[n]))
            except (TypeError, ValueError):
                raise SchemaError(
                    f"parameter {n!r} for family {family.value!r} holds a non-numeric "
                    f"value {params[n]!r}"
                ) from None
        return DensityModel(family, tuple(values), spec)


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
    def models(self) -> tuple[DensityModel, DensityModel]:
        return (self.h0, self.h1)

    @property
    def theta(self) -> np.ndarray:
        """Stacked parameter vector [theta0; theta1]."""
        return np.asarray(self.h0.params + self.h1.params, dtype=float)

    @property
    def theta_names(self) -> tuple[str, ...]:
        return tuple(f"h0.{n}" for n in self.h0.param_names) + tuple(
            f"h1.{n}" for n in self.h1.param_names
        )

    @property
    def split(self) -> int:
        """Index where the stacked vector switches from theta0 to theta1."""
        return len(self.h0.params)

    def with_theta(self, theta) -> "HypothesisPair":
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (len(self.theta),):
            raise InvalidParameterError(
                f"theta must have shape ({len(self.theta)},), got {theta.shape}"
            )
        k = self.split
        return HypothesisPair(
            self.h0.with_params(theta[:k]), self.h1.with_params(theta[k:]), self.p0
        )

    def digest(self) -> str:
        """Stable short fingerprint of the problem definition."""
        import hashlib

        payload = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()[:12]

    def to_dict(self) -> dict:
        return {"h0": self.h0.to_dict(), "h1": self.h1.to_dict(), "p0": self.p0}

    @staticmethod
    def from_dict(obj: dict, custom_registry: dict[str, CustomDensity] | None = None) -> "HypothesisPair":
        if not isinstance(obj, dict):
            raise SchemaError(f"problem spec must be an object, got {type(obj).__name__}")
        unknown = set(obj) - {"h0", "h1", "p0"}
        if unknown:
            raise SchemaError(f"unknown key {sorted(unknown)[0]!r} in problem spec")
        for key in ("h0", "h1"):
            if key not in obj:
                raise SchemaError(f"problem spec missing key {key!r}")
        p0 = obj.get("p0", 0.5)
        if not isinstance(p0, (int, float)) or isinstance(p0, bool):
            raise SchemaError("problem spec key 'p0' must be a number")
        return HypothesisPair(
            DensityModel.from_dict(obj["h0"], custom_registry),
            DensityModel.from_dict(obj["h1"], custom_registry),
            float(p0),
        )

    @staticmethod
    def from_json(text: str, custom_registry: dict[str, CustomDensity] | None = None) -> "HypothesisPair":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON: {exc}") from None
        return HypothesisPair.from_dict(obj, custom_registry)
