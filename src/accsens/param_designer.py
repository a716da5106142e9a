"""Distribution-parameter design: minimum sensitivity at prescribed accuracy.

Given a box of admissible Gaussian parameters and a target accuracy gamma,
``design_params`` finds the parameter vector whose maximum-accuracy
classifier attains exactly gamma with the smallest sensitivity.

The solver is exact and deterministic.  The accuracy of the maximum-accuracy
classifier depends only on the shape (d, r) = ((mu1 - mu0) / sigma0,
sigma1 / sigma0): it is invariant under translation and positive scaling,
even in d, and nondecreasing in |d|.  Every sensitivity component scales as
1 / sigma0 at a fixed shape.  So for each width ratio r the separation |d| is
the root of A(|d|, r) = gamma, the best design of that shape takes the
largest sigma0 the box allows (a closed-form linear program in
(mu0, sigma0)), and the design is a one-dimensional minimization over r: a
geometric scan of r polished by bounded Brent.

The module also provides the closed-form accuracy/sensitivity laws for two
analytically solvable families (equal-variance Gaussian and exponential),
used as oracles for the generic pipeline.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from .boundary_solver import _gaussian_ratio_roots, _phi_cdf, _phi_pdf
from .classifier import Norm, Orientation
from .densities import DensityModel, HypothesisPair
from .errors import InfeasibleTargetError, InvalidParameterError, SchemaError

#: Width ratios scanned per design, geometric over the box's range (r = 1 and
#: the maximum-accuracy ratio are added as exact grid points).
SCAN_POINTS = 400
#: Absolute tolerance of the separation root and of the Brent polish in r.
D_XTOL = 1e-13
R_XATOL = 1e-12


# ---- closed-form laws ----


def gaussian_equal_variance_law(delta_mu: float, sigma: float) -> tuple[float, float]:
    """Equal-variance Gaussian pair with equal priors, adversary acting on the
    means: accuracy and sensitivity of the maximum-accuracy classifier.

    The boundary sits at the midpoint, accuracy is Phi(dmu / 2 sigma), and the
    sensitivity is |d accuracy / d mu1| = phi(dmu / 2 sigma) / (2 sigma) --
    the derivative of the accuracy law itself, which also matches central
    finite differences of the generic pipeline.
    """
    if delta_mu < 0:
        raise InvalidParameterError(f"mean separation must be >= 0, got {delta_mu}")
    if not sigma > 0:
        raise InvalidParameterError(f"sigma must be > 0, got {sigma}")
    z = delta_mu / (2.0 * sigma)
    return _phi_cdf(z), _phi_pdf(z) / (2.0 * sigma)


@dataclass(frozen=True)
class ExponentialLaw:
    accuracy: float
    sensitivity: float
    boundary: float
    orientation: Orientation

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "sensitivity": self.sensitivity,
            "boundary": self.boundary,
            "orientation": self.orientation.value,
        }


def exponential_law(r: float, lambda0: float) -> ExponentialLaw:
    """Exponential pair with rates (lambda0, r * lambda0), equal priors,
    adversary acting on the second rate.

    The unit-threshold boundary is log(r) / (lambda0 (r - 1)); the steeper
    density wins below it, so the configuration is H1-first.  Closed forms:

        accuracy    = 1/2 + 1/2 (r - 1) r^(-r/(r-1))
        sensitivity = log(r) / (2 lambda0 (r - 1)) * r^(-r/(r-1))
    """
    if not r > 1.0:
        raise InvalidParameterError(f"rate ratio must be > 1 (swap the rates otherwise), got {r}")
    if not lambda0 > 0:
        raise InvalidParameterError(f"lambda0 must be > 0, got {lambda0}")
    power = r ** (-r / (r - 1.0))
    boundary = math.log(r) / (lambda0 * (r - 1.0))
    accuracy = 0.5 + 0.5 * (r - 1.0) * power
    sensitivity = math.log(r) / (2.0 * lambda0 * (r - 1.0)) * power
    return ExponentialLaw(accuracy, sensitivity, boundary, Orientation.H1_FIRST)


# ---- inner evaluation: max-accuracy classifier of a Gaussian pair ----


def _gaussian_ml_eval(theta, p0: float, norm: Norm) -> tuple[float, float, tuple[float, ...]]:
    """(accuracy, sensitivity, boundaries) of the unit-threshold classifier.

    Scalar math only: this sits in the innermost loop of the design solver.
    """
    mu0, s0, mu1, s1 = theta
    p1 = 1.0 - p0
    roots, h0_first = _gaussian_ratio_roots(mu0, s0, mu1, s1, math.log(p1 / p0))
    if not roots:
        # single region: the ratio never crosses one
        return (p0 if h0_first else p1), 0.0, ()

    if len(roots) == 1:
        (y,) = roots
        z0, z1 = (y - mu0) / s0, (y - mu1) / s1
        f0, f1 = _phi_pdf(z0) / s0, _phi_pdf(z1) / s1
        acc = p0 * _phi_cdf(z0) + p1 * (1.0 - _phi_cdf(z1))
        g = (-p0 * f0, -p0 * z0 * f0, p1 * f1, p1 * z1 * f1)
    else:
        y1, y2 = roots
        z01, z02 = (y1 - mu0) / s0, (y2 - mu0) / s0
        z11, z12 = (y1 - mu1) / s1, (y2 - mu1) / s1
        f01, f02 = _phi_pdf(z01) / s0, _phi_pdf(z02) / s0
        f11, f12 = _phi_pdf(z11) / s1, _phi_pdf(z12) / s1
        acc = p0 * (_phi_cdf(z01) - _phi_cdf(z02) + 1.0) + p1 * (_phi_cdf(z12) - _phi_cdf(z11))
        g = (
            p0 * (f02 - f01),
            p0 * (z02 * f02 - z01 * f01),
            p1 * (f11 - f12),
            p1 * (z11 * f11 - z12 * f12),
        )
    if not h0_first:
        acc = 1.0 - acc
    if norm is Norm.INF:
        sens = max(abs(v) for v in g)
    else:
        sens = math.sqrt(sum(v * v for v in g))
    return acc, sens, roots


# ---- design problem ----


@dataclass(frozen=True)
class ParamDesignProblem:
    """Box of admissible Gaussian parameters and the target accuracy.

    ``bounds`` are per-component (lo, hi) for (mu0, sigma0, mu1, sigma1).
    ``mean_gap_max`` optionally caps |mu0 - mu1|; ``ordered_sigmas`` demands
    sigma1 <= sigma0.  ``p0`` is the prior probability of H0.
    """

    bounds: tuple[tuple[float, float], ...]
    gamma: float
    norm: Norm = Norm.INF
    mean_gap_max: float | None = None
    ordered_sigmas: bool = False
    p0: float = 0.5

    def __post_init__(self) -> None:
        if len(self.bounds) != 4:
            raise InvalidParameterError("bounds must cover (mu0, sigma0, mu1, sigma1)")
        for bound in self.bounds:
            if len(bound) != 2:
                raise InvalidParameterError(f"bound {bound} is not a (lo, hi) pair")
            lo, hi = bound
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise InvalidParameterError(f"bound ({lo}, {hi}) is not finite")
            if not lo <= hi:
                raise InvalidParameterError(f"empty bound ({lo}, {hi})")
        if not (self.bounds[1][0] > 0 and self.bounds[3][0] > 0):
            raise InvalidParameterError("sigma bounds must be positive")
        if not 0.5 <= self.gamma <= 1.0:
            raise InvalidParameterError(f"gamma must lie in [0.5, 1], got {self.gamma}")
        if not 0.0 < self.p0 < 1.0:
            raise InvalidParameterError(f"p0 must lie in (0, 1), got {self.p0}")
        if self.mean_gap_max is not None and not self.mean_gap_max >= 0.0:
            raise InvalidParameterError(f"mean_gap_max must be >= 0, got {self.mean_gap_max}")
        r_lo, r_hi = self._ratio_range()
        if r_lo > r_hi:
            raise InvalidParameterError("no sigma1 <= sigma0 lies inside the width bounds")
        gap_lo, gap_hi = self._gap_range()
        if gap_lo > gap_hi:
            raise InvalidParameterError("mean_gap_max excludes every mean pair inside the bounds")

    def _ratio_range(self) -> tuple[float, float]:
        """Range of the width ratio sigma1 / sigma0 over the box."""
        (s0_lo, s0_hi), (s1_lo, s1_hi) = self.bounds[1], self.bounds[3]
        hi = s1_hi / s0_lo
        if self.ordered_sigmas:
            hi = min(hi, 1.0)
        return s1_lo / s0_hi, hi

    def _gap_range(self) -> tuple[float, float]:
        """Range of the mean difference mu1 - mu0 over the box."""
        (m0_lo, m0_hi), (m1_lo, m1_hi) = self.bounds[0], self.bounds[2]
        lo, hi = m1_lo - m0_hi, m1_hi - m0_lo
        if self.mean_gap_max is not None:
            lo, hi = max(lo, -self.mean_gap_max), min(hi, self.mean_gap_max)
        return lo, hi

    def _width_range(self, r: float) -> tuple[float, float]:
        """Range of sigma0 with sigma0 and r * sigma0 inside their bounds."""
        (s0_lo, s0_hi), (s1_lo, s1_hi) = self.bounds[1], self.bounds[3]
        return max(s0_lo, s1_lo / r), min(s0_hi, s1_hi / r)

    def _place(self, d: float, r: float, sigma0: float) -> tuple[float, float, float, float]:
        """The design of shape (d, r) and width sigma0, at the lowest
        admissible mu0; mu1 and sigma1 are clamped against float rounding."""
        (m0_lo, _), (m1_lo, m1_hi), (s1_lo, s1_hi) = self.bounds[0], self.bounds[2], self.bounds[3]
        gap = d * sigma0
        mu0 = max(m0_lo, m1_lo - gap)
        mu1 = min(max(mu0 + gap, m1_lo), m1_hi)
        if self.mean_gap_max is not None:
            mu1 = min(max(mu1, mu0 - self.mean_gap_max), mu0 + self.mean_gap_max)
        sigma1 = min(max(r * sigma0, s1_lo), s1_hi)
        if self.ordered_sigmas:
            sigma1 = min(sigma1, sigma0)
        return (mu0, sigma0, mu1, sigma1)

    def to_dict(self) -> dict:
        return {
            "bounds": [list(b) for b in self.bounds],
            "gamma": self.gamma,
            "norm": self.norm.value,
            "mean_gap_max": self.mean_gap_max,
            "ordered_sigmas": self.ordered_sigmas,
            "p0": self.p0,
        }

    @staticmethod
    def from_dict(obj: dict, gamma: float | None = None, norm: Norm = Norm.INF) -> "ParamDesignProblem":
        if not isinstance(obj, dict):
            raise SchemaError("design box spec must be an object")
        known = {"bounds", "gamma", "norm", "mean_gap_max", "ordered_sigmas", "p0"}
        unknown = set(obj) - known
        if unknown:
            raise SchemaError(f"unknown key {sorted(unknown)[0]!r} in design box spec")
        if "bounds" not in obj:
            raise SchemaError("design box spec missing key 'bounds'")
        if gamma is None and "gamma" not in obj:
            raise SchemaError("design box spec missing key 'gamma'")
        if not isinstance(obj.get("ordered_sigmas", False), bool):
            raise SchemaError("design box key 'ordered_sigmas' must be true or false")

        def number(key: str, value) -> float:
            try:
                return float(value)
            except (TypeError, ValueError):
                raise SchemaError(f"design box key {key!r} holds a non-numeric value {value!r}") from None

        raw = obj["bounds"]
        if not isinstance(raw, list) or not all(isinstance(b, list) and len(b) == 2 for b in raw):
            raise SchemaError("design box key 'bounds' must be a list of [lo, hi] pairs")
        try:
            box_norm = Norm(obj["norm"]) if "norm" in obj and gamma is None else norm
        except ValueError:
            raise SchemaError(f"design box key 'norm' holds an unknown norm {obj['norm']!r}") from None
        gap = obj.get("mean_gap_max")
        return ParamDesignProblem(
            bounds=tuple(tuple(number("bounds", v) for v in b) for b in raw),
            gamma=number("gamma", obj["gamma"]) if gamma is None else float(gamma),
            norm=box_norm,
            mean_gap_max=None if gap is None else number("mean_gap_max", gap),
            ordered_sigmas=obj.get("ordered_sigmas", False),
            p0=number("p0", obj.get("p0", 0.5)),
        )


def fig3_box(gamma: float, norm: Norm = Norm.INF) -> ParamDesignProblem:
    """The reference design box: mean gap up to 40, widths in [0.1, 15] with
    sigma1 <= sigma0, first mean pinned at zero (the problem is translation
    invariant)."""
    return ParamDesignProblem(
        bounds=((0.0, 0.0), (0.1, 15.0), (0.0, 40.0), (0.1, 15.0)),
        gamma=gamma,
        norm=norm,
        mean_gap_max=40.0,
        ordered_sigmas=True,
    )


@dataclass(frozen=True)
class DesignScan:
    """How the width-ratio scan found a design: the optimum's shape
    (d, r) = ((mu1 - mu0) / sigma0, sigma1 / sigma0), the number of scanned
    ratios, and how many of them reach gamma inside the box."""

    d: float
    r: float
    points: int
    feasible: int

    def to_dict(self) -> dict:
        return {"d": self.d, "r": self.r, "points": self.points, "feasible": self.feasible}


@dataclass(frozen=True)
class DesignResult:
    theta: tuple[float, ...]
    sensitivity: float
    accuracy: float
    boundaries: tuple[float, ...]
    gamma: float
    norm: Norm
    p0: float
    scan: DesignScan

    @property
    def pair(self) -> HypothesisPair:
        return HypothesisPair(
            DensityModel.gaussian(self.theta[0], self.theta[1]),
            DensityModel.gaussian(self.theta[2], self.theta[3]),
            self.p0,
        )

    def to_dict(self) -> dict:
        return {
            "theta": list(self.theta),
            "sensitivity": self.sensitivity,
            "accuracy": self.accuracy,
            "boundaries": list(self.boundaries),
            "gamma": self.gamma,
            "norm": self.norm.value,
            "scan": self.scan.to_dict(),
        }


# ---- the exact solver: a scan over the width ratio ----


def _shape_eval(problem: ParamDesignProblem, d: float, r: float) -> tuple[float, float, tuple[float, ...]]:
    """Accuracy, sensitivity and boundaries of the unit-width design of shape (d, r)."""
    return _gaussian_ml_eval((0.0, 1.0, d, r), problem.p0, problem.norm)


def _reach(problem: ParamDesignProblem, r: float) -> float:
    """Largest |d| the box allows at width ratio r (narrowest sigma0)."""
    gap_lo, gap_hi = problem._gap_range()
    return max(gap_hi, -gap_lo, 0.0) / problem._width_range(r)[0]


def _ratio_grid(problem: ParamDesignProblem, extra: tuple[float, ...] = ()) -> list[float]:
    lo, hi = problem._ratio_range()
    grid = np.geomspace(lo, hi, SCAN_POINTS).tolist() if lo < hi else []
    points = {lo, hi, *grid, *extra}
    if lo <= 1.0 <= hi:
        points.add(1.0)
    return sorted(points)


def _scan_min(fn, grid: list[float]) -> tuple[float, float, int]:
    """Minimum of ``fn`` over the ratio grid, polished by bounded Brent
    between the best point's neighbours: (value, r, finite grid values).

    The minimum can sit on a kink where the binding box constraint switches,
    so the better of the grid point and the Brent result is kept.  Brent runs
    on the offset from the grid point: its tolerance has a term relative to
    the variable, which would otherwise stop it about 1e-8 r short of a kink.
    """
    values = [fn(r) for r in grid]
    i = min(range(len(grid)), key=values.__getitem__)
    best, r_best = values[i], grid[i]
    if math.isfinite(best) and len(grid) > 1:
        lo, hi = grid[max(i - 1, 0)] - r_best, grid[min(i + 1, len(grid) - 1)] - r_best
        # An infeasible neighbour reads inf; Brent then takes golden-section
        # steps, after numpy warns about the inf - inf in its parabola.
        with np.errstate(invalid="ignore"):
            res = minimize_scalar(
                lambda t: fn(r_best + t), bounds=(lo, hi), method="bounded",
                options={"xatol": R_XATOL},
            )
        if res.fun < best:
            best, r_best = float(res.fun), r_best + float(res.x)
    return best, r_best, sum(math.isfinite(v) for v in values)


def _max_accuracy_shape(problem: ParamDesignProblem) -> tuple[float, float]:
    """(max accuracy, its width ratio): max over r of A(reach(r), r)."""
    neg, r, _ = _scan_min(lambda r: -_shape_eval(problem, _reach(problem, r), r)[0], _ratio_grid(problem))
    return -neg, r


def max_accuracy(problem: ParamDesignProblem) -> float:
    """Largest accuracy any design inside the box attains (feasibility
    certificate)."""
    return _max_accuracy_shape(problem)[0]


def _design_at_ratio(problem: ParamDesignProblem, r: float) -> tuple[float, float, float] | None:
    """(sensitivity, d, sigma0) of the least sensitive design with width
    ratio r, or None when no design of that ratio reaches gamma in the box."""
    gamma = problem.gamma

    def defect(d: float) -> float:
        return _shape_eval(problem, d, r)[0] - gamma

    at_zero = defect(0.0)
    if at_zero > 0.0:
        return None
    reach = _reach(problem, r)
    if at_zero == 0.0:
        d = 0.0
    else:
        at_reach = defect(reach)
        if at_reach < 0.0:
            return None
        d = reach if at_reach == 0.0 else brentq(defect, 0.0, reach, xtol=D_XTOL)

    # Largest sigma0 with sigma0, r sigma0 and the mean gap d sigma0 inside
    # the box, over both signs of d (accuracy and sensitivity are even in d).
    s_lo, s_hi = problem._width_range(r)
    gap_lo, gap_hi = problem._gap_range()
    best: tuple[float, float] | None = None
    for signed in ((d, -d) if d > 0.0 else (d,)):
        if signed > 0.0:
            lo, hi = max(s_lo, gap_lo / signed), min(s_hi, gap_hi / signed)
        elif signed < 0.0:
            lo, hi = max(s_lo, gap_hi / signed), min(s_hi, gap_lo / signed)
        elif gap_lo <= 0.0 <= gap_hi:
            lo, hi = s_lo, s_hi
        else:
            continue
        if lo <= hi and (best is None or hi > best[1]):
            best = (signed, hi)
    if best is None:
        return None
    d, sigma0 = best
    return _shape_eval(problem, d, r)[1] / sigma0, d, sigma0


def design_params(problem: ParamDesignProblem) -> DesignResult:
    """Minimum-sensitivity design at accuracy gamma (see the module docstring).

    Deterministic: the same problem gives bit-identical results.  Raises
    ``InfeasibleTargetError`` when no design inside the box reaches gamma.
    """
    attainable, r_top = _max_accuracy_shape(problem)
    if problem.gamma > attainable:
        raise InfeasibleTargetError(
            f"gamma={problem.gamma!r} exceeds the box's attainable accuracy {attainable!r}"
        )
    grid = _ratio_grid(problem, (r_top,))

    def sens_at(r: float) -> float:
        found = _design_at_ratio(problem, r)
        return math.inf if found is None else found[0]

    _, r, feasible = _scan_min(sens_at, grid)
    found = _design_at_ratio(problem, r)
    if found is None:
        raise InfeasibleTargetError(
            f"no design inside the box reaches accuracy {problem.gamma!r}"
        )
    _, d, sigma0 = found
    theta = problem._place(d, r, sigma0)
    acc, sens, roots = _gaussian_ml_eval(theta, problem.p0, problem.norm)
    return DesignResult(
        theta, sens, acc, roots, problem.gamma, problem.norm, problem.p0,
        DesignScan(d, r, len(grid), feasible),
    )


def gamma_sweep(box: ParamDesignProblem, gammas) -> list[DesignResult]:
    """Design at each accuracy level of a sweep, sharing the box."""
    return [design_params(dataclasses.replace(box, gamma=float(g))) for g in gammas]


def sweep_csv_text(results: list[DesignResult]) -> str:
    lines = ["gamma,sens_star,mu0,sigma0,mu1,sigma1"]
    for r in results:
        lines.append(
            ",".join(repr(float(v)) for v in (r.gamma, r.sensitivity, *r.theta))
        )
    return "\n".join(lines) + "\n"
