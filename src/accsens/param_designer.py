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
geometric scan of r polished by the shared zoom (``_roots._zoom``).  Both
run on arrays over r: one call of the shared ``_roots._newton`` finds the
separation roots of all ratios of a scan or zoom round together, a zoom
round's from the roots beside the last best ratio (``near``), with the
slope dA/dd that the envelope theorem gives at the fixed roots, and one
kernel gives the accuracy and sensitivity of every
shape: the classifier's ``_accuracies`` and ``_gradients``, at the
parameter vector (0, 1, d, r) of each shape's column.  The shapes' roots
come from the closed form of ``ml_boundaries``
(``boundary_solver._gaussian_roots``), and the design's own boundaries come
from it at the design's parameters, scored as the public ``accuracy`` and
``sensitivity`` score them: the solver has no accuracy formula of its own.

The module also provides the closed-form accuracy/sensitivity laws for two
analytically solvable families (equal-variance Gaussian and exponential),
used as oracles for the generic pipeline.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.special import ndtri

from ._records import plain, read_number, read_object
from ._roots import _newton, _zoom
from .boundary_solver import _gaussian_pair_roots, _gaussian_roots, _log_k
from .classifier import ACCURACY_TOL, Norm, Orientation, _accuracies, _alternating, _evaluate, _gradients, _norms
from .densities import DensityModel, HypothesisPair, _gaussian_score
from .errors import InfeasibleTargetError, InvalidParameterError, SchemaError, SolverFailureError

#: Width ratios scanned per design, geometric over the box's range (r = 1 and
#: the maximum-accuracy ratio are added as exact grid points).
SCAN_POINTS = 400
#: Absolute tolerance of the separation root.
D_XTOL = 1e-13
#: Box limits.  The solver is scale-free: it sees a box only through the
#: width ratio r = sigma1 / sigma0 and the separation d = gap / sigma0.
#: r must lie in [1 / RATIO_LIMIT, RATIO_LIMIT], the range the design solver
#: is tested on; the closed form itself stays exact beyond it.  |d| must
#: stay below SEPARATION_LIMIT: it bounds the brackets of the separation
#: roots, and so the halving fallback of their Newton solve.
#: 1 / sigma, sigma, |mu|, |mu| / sigma and |mu| / sigma^2 must stay below
#: SCALE_LIMIT over the box, the range the design solver is tested on.
RATIO_LIMIT = 1e6
SEPARATION_LIMIT = 1e40
SCALE_LIMIT = 1e100

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


# ---- closed-form laws ----


def gaussian_equal_variance_law(delta_mu: float, sigma: float) -> tuple[float, float]:
    """Equal-variance Gaussian pair with equal priors, adversary acting on the
    means: accuracy and sensitivity of the maximum-accuracy classifier.

    The boundary sits at the midpoint, accuracy is Phi(dmu / 2 sigma), and the
    sensitivity is |d accuracy / d mu1| = phi(dmu / 2 sigma) / (2 sigma) --
    the derivative of the accuracy law itself, which also matches central
    finite differences of the generic pipeline.
    """
    if not (math.isfinite(delta_mu) and math.isfinite(sigma)):
        raise InvalidParameterError(f"mean separation and sigma must be finite, got {delta_mu}, {sigma}")
    if delta_mu < 0:
        raise InvalidParameterError(f"mean separation must be >= 0, got {delta_mu}")
    if not sigma > 0:
        raise InvalidParameterError(f"sigma must be > 0, got {sigma}")
    z = delta_mu / (2.0 * sigma)
    return 0.5 * math.erfc(-z / math.sqrt(2.0)), _INV_SQRT_2PI * math.exp(-0.5 * z * z) / (2.0 * sigma)


@dataclass(frozen=True)
class ExponentialLaw:
    accuracy: float
    sensitivity: float
    boundary: float
    orientation: Orientation

    to_dict = plain


def exponential_law(r: float, lambda0: float) -> ExponentialLaw:
    """Exponential pair with rates (lambda0, r * lambda0), equal priors,
    adversary acting on the second rate.

    The unit-threshold boundary is log(r) / (lambda0 (r - 1)); the steeper
    density wins below it, so the configuration is H1-first.  Closed forms:

        accuracy    = 1/2 + 1/2 (r - 1) r^(-r/(r-1))
        sensitivity = log(r) / (2 lambda0 (r - 1)) * r^(-r/(r-1))
    """
    if not (math.isfinite(r) and math.isfinite(lambda0)):
        raise InvalidParameterError(f"rate ratio and lambda0 must be finite, got {r}, {lambda0}")
    if not r > 1.0:
        raise InvalidParameterError(f"rate ratio must be > 1 (swap the rates otherwise), got {r}")
    if not lambda0 > 0:
        raise InvalidParameterError(f"lambda0 must be > 0, got {lambda0}")
    power = r ** (-r / (r - 1.0))
    boundary = math.log(r) / (lambda0 * (r - 1.0))
    accuracy = 0.5 + 0.5 * (r - 1.0) * power
    sensitivity = math.log(r) / (2.0 * lambda0 * (r - 1.0)) * power
    return ExponentialLaw(accuracy, sensitivity, boundary, Orientation.H1_FIRST)


# ---- the shapes: max-accuracy classifier of N(0, 1) against N(d, r) ----


_UNIT = DensityModel.gaussian(0.0, 1.0)


def _shape(d, r, p0: float):
    """The maximum-accuracy classifier of every shape (d, r), on broadcast
    arrays, as the arguments of the shared kernel ``_accuracies`` /
    ``_gradients``: a Gaussian pair at prior p0, the boundary columns
    (lo, hi) of ``_gaussian_roots`` (a missing root +inf), the orientation
    h0_first = h0_outside and theta = (0, 1, d, r), at which the pair is
    N(0, 1) against N(d, r).  Its sensitivity is that of a design of width
    sigma0 = 1; at width sigma0 it is this one over sigma0."""
    pair = HypothesisPair(_UNIT, _UNIT, p0)
    lo, hi, h0_outside = _gaussian_roots(d, r, _log_k(pair, 1.0) - np.log(r))
    return pair, np.array((lo, hi)), h0_outside, (0.0, 1.0, d, r)


def _shape_accuracy(d, r, p0: float):
    """Accuracy of every shape (d, r), on broadcast arrays."""
    return _accuracies(*_shape(d, r, p0))


def _separation_residual(d, r, p0: float, gamma: float):
    """A(d, r) - gamma, its slope in d and its rounding scale, on broadcast
    arrays: the residual ``_newton`` solves for the separation root.

    The roots maximise the accuracy, so by the envelope theorem the slope is
    the derivative in d at fixed roots: the mu1 component of the gradient,
    exactly 0 where the ratio has no root.  It is that row of ``_gradients``
    alone, by the same operations: h1's density at each root, whose negative
    is the mu1 row of h1's cdf gradient.  A lies in [0.5, 1], and its
    rounding is of the order of eps.
    """
    pair, ys, h0_first, theta = _shape(d, r, p0)
    with np.errstate(over="ignore", invalid="ignore"):  # as in ``_grad_cdf``
        _, f1 = _gaussian_score(ys, d, r)
    slope = -pair.p1 * _alternating(-f1)
    return _accuracies(pair, ys, h0_first, theta) - gamma, np.where(h0_first, slope, -slope), 1.0


def _design_eval(theta, p0: float, norm: Norm) -> tuple[float, float, tuple[float, ...]]:
    """(accuracy, sensitivity, boundaries) of the maximum-accuracy classifier
    of the pair theta: the roots of the closed form ``ml_boundaries`` runs,
    scored as the public ``accuracy`` and ``sensitivity`` score them."""
    pair = HypothesisPair(DensityModel.gaussian(*theta[:2]), DensityModel.gaussian(*theta[2:]), p0)
    lo, hi, h0_first = _gaussian_pair_roots(*theta, _log_k(pair, 1.0))
    roots = tuple(float(y) for y in (lo, hi) if y != math.inf)
    (acc,), (sens,), _ = _evaluate(pair, [roots], np.atleast_1d(h0_first), norm)
    return float(acc), float(sens), roots


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
        if not (r_lo >= 1.0 / RATIO_LIMIT and r_hi <= RATIO_LIMIT):
            raise InvalidParameterError(
                f"width ratios from {r_lo:g} to {r_hi:g} leave [{1.0 / RATIO_LIMIT:g}, {RATIO_LIMIT:g}]"
            )
        gap_lo, gap_hi = self._gap_range()
        if gap_lo > gap_hi:
            raise InvalidParameterError("mean_gap_max excludes every mean pair inside the bounds")
        if not max(gap_hi, -gap_lo, 0.0) / self.bounds[1][0] <= SEPARATION_LIMIT:
            raise InvalidParameterError(f"mean gaps reach more than {SEPARATION_LIMIT:g} widths sigma0")
        (m0, s0, m1, s1) = self.bounds
        s_min, s_max, m = min(s0[0], s1[0]), max(s0[1], s1[1]), max(map(abs, (*m0, *m1)))
        if not max(1.0 / s_min, s_max, m, m / s_min, m / s_min / s_min) <= SCALE_LIMIT:
            raise InvalidParameterError(
                f"1/sigma, sigma, |mu|, |mu|/sigma or |mu|/sigma^2 exceeds {SCALE_LIMIT:g} inside the box"
            )

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

    def _width_range(self, r) -> tuple[np.ndarray, np.ndarray]:
        """Range of sigma0 with sigma0 and r * sigma0 inside their bounds, at
        every width ratio of the array r."""
        (s0_lo, s0_hi), (s1_lo, s1_hi) = self.bounds[1], self.bounds[3]
        return np.maximum(s0_lo, s1_lo / r), np.minimum(s0_hi, s1_hi / r)

    def _place(self, d: float, r: float, sigma0: float) -> tuple[float, float, float, float]:
        """The design of shape (d, r) and width sigma0, at the admissible mu0
        nearest 0, where mu0 + d sigma0 loses the least of the gap to
        rounding; mu0, mu1 and sigma1 are clamped against float rounding."""
        (m0_lo, m0_hi), (m1_lo, m1_hi), (s1_lo, s1_hi) = self.bounds[0], self.bounds[2], self.bounds[3]
        gap = d * sigma0
        lo, hi = max(m0_lo, m1_lo - gap), min(m0_hi, m1_hi - gap)
        mu0 = min(max(lo, min(0.0, hi)), m0_hi)
        mu1 = min(max(mu0 + gap, m1_lo), m1_hi)
        if self.mean_gap_max is not None:
            mu1 = min(max(mu1, mu0 - self.mean_gap_max), mu0 + self.mean_gap_max)
        sigma1 = min(max(r * sigma0, s1_lo), s1_hi)
        if self.ordered_sigmas:
            sigma1 = min(sigma1, sigma0)
        return (mu0, sigma0, mu1, sigma1)

    to_dict = plain

    @staticmethod
    def from_dict(obj: dict, gamma: float | None = None, norm: Norm = Norm.INF) -> "ParamDesignProblem":
        """A box from its ``to_dict`` form; a given ``gamma`` and ``norm`` replace the form's."""
        keys = ("bounds", "gamma", "norm", "mean_gap_max", "ordered_sigmas", "p0")
        read_object(obj, "design box spec", keys, ("bounds",) if gamma is not None else ("bounds", "gamma"))
        if not isinstance(obj.get("ordered_sigmas", False), bool):
            raise SchemaError("design box key 'ordered_sigmas' must be true or false")
        raw = obj["bounds"]
        if not isinstance(raw, list) or not all(isinstance(b, list) and len(b) == 2 for b in raw):
            raise SchemaError("design box key 'bounds' must be a list of [lo, hi] pairs")
        try:
            box_norm = Norm(obj["norm"]) if "norm" in obj and gamma is None else norm
        except ValueError:
            raise SchemaError(f"design box key 'norm' holds an unknown norm {obj['norm']!r}") from None
        gap = obj.get("mean_gap_max")
        return ParamDesignProblem(
            bounds=tuple(tuple(read_number(v, "design box key 'bounds'") for v in b) for b in raw),
            gamma=read_number(obj["gamma"], "design box key 'gamma'") if gamma is None else float(gamma),
            norm=box_norm,
            mean_gap_max=None if gap is None else read_number(gap, "design box key 'mean_gap_max'"),
            ordered_sigmas=obj.get("ordered_sigmas", False),
            p0=read_number(obj.get("p0", 0.5), "design box key 'p0'"),
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

    to_dict = plain


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
        """The fields but ``p0``, which the box of the design holds."""
        out = plain(self)
        del out["p0"]
        return out


# ---- the exact solver: a scan over the width ratio ----


def _reach(problem: ParamDesignProblem, r) -> np.ndarray:
    """Largest |d| the box allows at each width ratio r (narrowest sigma0)."""
    gap_lo, gap_hi = problem._gap_range()
    return max(gap_hi, -gap_lo, 0.0) / problem._width_range(r)[0]


def _ratio_grid(problem: ParamDesignProblem, extra: tuple[float, ...] = ()) -> np.ndarray:
    lo, hi = problem._ratio_range()
    points = [lo, hi, *extra]
    if lo <= 1.0 <= hi:
        points.append(1.0)
    if lo < hi:
        points.extend(np.geomspace(lo, hi, SCAN_POINTS).tolist())
    return np.unique(points)


def _scan_min(evaluate, grid: np.ndarray):
    """Minimum over the ratio grid, polished by ``_roots._zoom`` on one
    minimum, the ratio its fixed coordinate: (r, columns at r, finite grid
    values).  Each ``solve`` call of the zoom makes one ``evaluate`` call.

    ``evaluate(r, near)`` returns columns over the ratios r, the value to
    minimize first; ``near`` is None for the grid, and in each zoom round
    the columns of the last call at its best ratio and either side of it
    (the grid's, in round 1).  The minimum can sit on a kink where the
    binding box constraint switches, so the better of the grid point and
    the zoomed point is kept.
    """
    cols = evaluate(grid, None)
    i = int(np.argmin(cols[0]))
    r_best, best = grid[i], [c[i] for c in cols]
    finite = int(np.count_nonzero(np.isfinite(cols[0])))
    if math.isfinite(best[0]) and grid.size > 1:

        def solve(fixed):
            nonlocal cols
            j = int(cols[0].argmin())
            cols = evaluate(fixed[0, 0], [c[max(j - 1, 0) : j + 2] for c in cols])
            return cols[0][None], [*[c[None] for c in cols[1:]], fixed[0]]

        *zoomed, r = (v[0] for v in _zoom(solve, grid, (np.array([i]),)))
        if zoomed[0] < best[0]:
            r_best, best = r, zoomed
    return float(r_best), [float(v) for v in best], finite


def _max_accuracy_shape(problem: ParamDesignProblem) -> tuple[float, float]:
    """(max accuracy, its width ratio): max over r of A(reach(r), r)."""

    def neg_accuracy(r, near):
        return (-_shape_accuracy(_reach(problem, r), r, problem.p0),)

    r, (neg,), _ = _scan_min(neg_accuracy, _ratio_grid(problem))
    return -neg, r


def _widest(problem: ParamDesignProblem, d: np.ndarray, r: np.ndarray):
    """(sigma0, signed d): the largest sigma0 with sigma0, r sigma0 and the
    mean gap d sigma0 inside the box, over both signs of d (accuracy and
    sensitivity are even in d), + d on a tie; NaN where there is none."""
    s_lo, s_hi = problem._width_range(r)
    gap_lo, gap_hi = problem._gap_range()
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        lo_pos, hi_pos = np.maximum(s_lo, gap_lo / d), np.minimum(s_hi, gap_hi / d)
        lo_neg, hi_neg = np.maximum(s_lo, -gap_hi / d), np.minimum(s_hi, -gap_lo / d)
    pos = (d > 0.0) & (lo_pos <= hi_pos)
    neg = (d > 0.0) & (lo_neg <= hi_neg) & ~(pos & (hi_pos >= hi_neg))
    zero = (d == 0.0) & (gap_lo <= 0.0 <= gap_hi) & (s_lo <= s_hi)
    sigma0 = np.where(zero, s_hi, np.where(neg, hi_neg, np.where(pos, hi_pos, np.nan)))
    return sigma0, np.where(neg, -d, d)


def _designs(problem: ParamDesignProblem, r: np.ndarray, near=None):
    """(sensitivity, signed d, sigma0) of the least sensitive design at every
    width ratio r; inf and NaN where no design of that ratio reaches gamma
    inside the box.

    The separation root of A(d, r) = gamma is solved by ``_newton``, for all
    ratios together, with the envelope slope of ``_separation_residual``,
    where A(0) < gamma < A(reach(r)); A(0) > gamma or A(reach) < gamma
    leaves the ratio without a design, and an end that hits gamma exactly is
    the root.  The bracket is [0, reach] cut to [0, cap] where A(cap) >=
    gamma, cap = 2 (1 + r) Phi^-1(gamma): the one threshold with equal
    standard scores under both hypotheses is right with probability
    Phi(d / (1 + r)) <= A(d, r), so A passes gamma below cap by a margin
    above rounding, and a bracket of 1e40 is not left to the halving
    fallback.  Given ``near`` (ratios next to these, with their designs,
    from ``_scan_min``), the bracket is the range of their |d| widened by
    D_XTOL, at each ratio where A changes sign across it.  One kernel call
    scores all these ends, and the solve starts from their accuracies.
    """
    gamma, p0 = problem.gamma, problem.p0
    reach = _reach(problem, r)
    cap = np.minimum(reach, 2.0 * (1.0 + r) * ndtri(gamma))
    known = np.abs(near[1][np.isfinite(near[1])]) if near is not None else np.zeros(0)
    ends = [np.clip(v, 0.0, reach) for v in (known.min() - D_XTOL, known.max() + D_XTOL)] if known.size else []
    ds = np.array([np.zeros_like(r), reach, cap, *ends])
    at_zero, at_reach, at_cap, *at_ends = _shape_accuracy(ds, r, p0)
    capped = at_cap >= gamma
    lo, hi = np.zeros_like(r), np.where(capped, cap, reach)
    a_lo, a_hi = at_zero, np.where(capped, at_cap, at_reach)
    if known.size:
        (near_lo, near_hi), (acc_lo, acc_hi) = ends, at_ends
        inside = (acc_lo <= gamma) & (acc_hi >= gamma)
        lo, hi = np.where(inside, near_lo, lo), np.where(inside, near_hi, hi)
        a_lo, a_hi = np.where(inside, acc_lo, a_lo), np.where(inside, acc_hi, a_hi)
    below = at_zero < gamma
    d = np.where(at_zero == gamma, 0.0, np.where(below & (at_reach == gamma), reach, np.nan))
    solve = below & (at_reach > gamma)
    residual = partial(_separation_residual, p0=p0, gamma=gamma)
    d[solve] = _newton(
        residual, lo[solve], hi[solve], a_lo[solve] - gamma, a_hi[solve] - gamma, D_XTOL, r[solve]
    )
    sigma0, d = _widest(problem, d, r)
    ok = np.isfinite(sigma0)  # so d is finite: the kernel scores no ratio without a design
    sens = np.full(r.shape, np.inf)
    sens[ok] = _norms(_gradients(*_shape(d[ok], r[ok], p0)), problem.norm) / sigma0[ok]
    return sens, np.where(ok, d, np.nan), sigma0


def design_params(problem: ParamDesignProblem) -> DesignResult:
    """Minimum-sensitivity design at accuracy gamma (see the module docstring).

    Deterministic: the same problem gives bit-identical results.  Raises
    ``InfeasibleTargetError`` when no design inside the box reaches gamma,
    and ``SolverFailureError`` when the placed design misses gamma by more
    than ACCURACY_TOL: where the box pins |mu0| near 1 / eps widths from the
    origin, mu0 + d sigma0 rounds the gap away.
    """
    attainable, r_top = _max_accuracy_shape(problem)
    if problem.gamma > attainable:
        raise InfeasibleTargetError(
            f"gamma={problem.gamma!r} exceeds the box's attainable accuracy {attainable!r}"
        )
    grid = _ratio_grid(problem, (r_top,))
    r, (sens, d, sigma0), feasible = _scan_min(partial(_designs, problem), grid)
    if not math.isfinite(sens):
        raise InfeasibleTargetError(
            f"no design inside the box reaches accuracy {problem.gamma!r}"
        )
    theta = problem._place(d, r, sigma0)
    acc, sens, roots = _design_eval(theta, problem.p0, problem.norm)
    if not abs(acc - problem.gamma) <= ACCURACY_TOL:
        raise SolverFailureError(
            f"the design {theta!r} reaches accuracy {acc!r}, not {problem.gamma!r}: "
            "its mean gap is lost to rounding at this distance from the origin"
        )
    return DesignResult(
        theta, sens, acc, roots, problem.gamma, problem.norm, problem.p0,
        DesignScan(d, r, grid.size, feasible),
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
