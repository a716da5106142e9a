"""Decision-boundary computation for likelihood-ratio classifiers.

The boundaries of the ratio classifier at threshold eta are the roots of

    p1 * f1(x) - eta * p0 * f0(x) = 0.

For a pair of Gaussians this reduces to a quadratic with known coefficients
and is solved in closed form.  For arbitrary families the equation is scanned
on a grid in the log domain (underflow-proof) and every bracketed sign change
is refined by bisection; ``_ml_boundaries_many`` solves many thresholds at
once, bisecting all their sign changes together with the same steps.

Tangential (double) roots are excluded: they bound regions of zero measure,
change no probability, and destabilize downstream derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import islice

import numpy as np

from .classifier import BoundarySet, Orientation, region_accuracy
from .densities import Family, HypothesisPair
from .errors import EmptyIntervalError, InvalidParameterError, NoRootError

#: Relative residual bound every reported root must satisfy.
RESIDUAL_RTOL = 1e-10
_RESIDUAL_FLOOR = 1e-300

#: Below this relative spread two Gaussian widths are treated as equal and the
#: quadratic degenerates to its linear branch (the a -> 0 limit is unstable).
EQUAL_SIGMA_RTOL = 1e-9

DEFAULT_GRID = 4096
SCALE_SPAN = 8.0
BISECTION_WIDTH = 1e-12
BISECTION_STEPS = 200

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class RootMethod(str, Enum):
    GAUSSIAN_QUADRATIC = "gaussian_quadratic"
    GRID_BISECTION = "grid_bisection"


@dataclass(frozen=True)
class LikelihoodRootReport:
    """Roots of the ratio equation plus the induced region orientation.

    ``orientation`` identifies the hypothesis winning left of the first root
    (or, with no roots, everywhere).  ``residuals`` hold the absolute defect
    |p1 f1(r) - eta p0 f0(r)| at each root.
    """

    roots: tuple[float, ...]
    method: RootMethod
    orientation: Orientation
    residuals: tuple[float, ...]
    eta: float
    warnings: tuple[str, ...] = field(default=())

    def boundary_set(self) -> BoundarySet:
        if not self.roots:
            raise NoRootError("report holds no roots; the classifier is a single region")
        return BoundarySet(self.roots, self.orientation)

    def to_dict(self) -> dict:
        return {
            "roots": list(self.roots),
            "method": self.method.value,
            "orientation": self.orientation.value,
            "residuals": list(self.residuals),
            "eta": self.eta,
            "warnings": list(self.warnings),
        }


def log_ratio_gap(pair: HypothesisPair, eta: float, x):
    """log(p1 f1(x)) - log(eta p0 f0(x)); positive where H1 wins."""
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (
            float(np.log(pair.p1))
            + np.asarray(pair.h1.log_pdf(x))
            - math.log(eta)
            - float(np.log(pair.p0))
            - np.asarray(pair.h0.log_pdf(x))
        )
    return out if out.ndim else float(out)


def _check_residuals(pair, eta, roots) -> tuple[float, ...]:
    """|p1 f1(r) - eta p0 f0(r)| at each root, checked against a bound
    relative to the larger weighted density; one pdf call per density."""
    residuals = []
    for r in roots:
        f0, f1 = float(pair.h0.pdf(r)), float(pair.h1.pdf(r))
        res = abs(pair.p1 * f1 - eta * pair.p0 * f0)
        bound = RESIDUAL_RTOL * max(pair.p0 * f0, pair.p1 * f1, _RESIDUAL_FLOOR)
        if res > bound:
            raise InvalidParameterError(
                f"root {r!r} fails the residual bound ({res:.3e} > {bound:.3e})"
            )
        residuals.append(res)
    return tuple(residuals)


def default_search_interval(pair: HypothesisPair) -> tuple[float, float]:
    """Span of both models out to 8 scale units, clipped to the support union."""
    (m0, s0) = pair.h0.mean_scale()
    (m1, s1) = pair.h1.mean_scale()
    lo = min(m0 - SCALE_SPAN * s0, m1 - SCALE_SPAN * s1)
    hi = max(m0 + SCALE_SPAN * s0, m1 + SCALE_SPAN * s1)
    sup0, sup1 = pair.h0.support, pair.h1.support
    lo = max(lo, min(sup0[0], sup1[0]))
    hi = min(hi, max(sup0[1], sup1[1]))
    if not lo < hi:
        raise EmptyIntervalError(f"degenerate search interval [{lo}, {hi}]")
    return (lo, hi)


def _phi_cdf(z: float) -> float:
    """Standard normal cdf of a Python float, for scalar inner loops."""
    return 0.5 * math.erfc(-z / _SQRT2)


def _phi_pdf(z: float) -> float:
    """Standard normal pdf of a Python float, for scalar inner loops."""
    return _INV_SQRT_2PI * math.exp(-0.5 * z * z)


def _ratio_quadratic(
    mu0: float, sig0: float, mu1: float, sig1: float, log_k: float
) -> tuple[float, float, float]:
    """(a, b, c) of a y^2 + b y + c, the log ratio gap of two Gaussians with
    log_k = log(p1 / (eta p0))."""
    a = 0.5 * (1.0 / sig0**2 - 1.0 / sig1**2)
    b = mu1 / sig1**2 - mu0 / sig0**2
    c = (
        math.log(sig0 / sig1)
        + log_k
        + mu0**2 / (2.0 * sig0**2)
        - mu1**2 / (2.0 * sig1**2)
    )
    return a, b, c


def _gaussian_ratio_roots(
    mu0: float, sig0: float, mu1: float, sig1: float, log_k: float
) -> tuple[tuple[float, ...], bool]:
    """Sorted roots of the Gaussian ratio equation and whether H0 wins left of
    the first root (everywhere, when there is none).

    Scalar math only: the design solver calls this in its innermost loop.
    Root cases: two simple roots, a single root when the widths coincide
    within EQUAL_SIGMA_RTOL, and no root when the parabola never crosses
    (including the tangential double root, which is dropped as zero-measure).
    """
    if abs(sig0 - sig1) <= EQUAL_SIGMA_RTOL * max(sig0, sig1):
        # Equal widths: the quadratic term vanishes and the gap is linear,
        #   (mu1 - mu0) (y - midpoint) / (sig0 sig1) + log(sig0 / sig1) + log_k,
        # written in the mean difference so that close means do not cancel.
        # Left of the root the gap has the sign opposite to mu1 - mu0.
        delta = mu1 - mu0
        level = math.log(sig0 / sig1) + log_k
        root = 0.5 * (mu0 + mu1) - sig0 * sig1 * level / delta if delta != 0.0 else math.inf
        if math.isfinite((root - mu0) / sig0):
            return (root,), delta > 0
        # No root, or one past the float range of the standard score: a
        # single region, won as at the mean mu0.
        return (), level - 0.5 * delta * delta / (sig0 * sig1) < 0
    a, b, c = _ratio_quadratic(mu0, sig0, mu1, sig1, log_k)
    disc = b * b - 4.0 * a * c
    if disc <= 0.0:
        # A non-crossing parabola carries the sign of its leading coefficient.
        return (), a < 0
    sq = math.sqrt(disc)
    q = -(b + sq) / 2.0 if b >= 0.0 else -(b - sq) / 2.0
    roots = []
    for r in sorted((q / a, c / q)):
        slope = 2.0 * a * r + b
        if slope != 0.0:  # one Newton polish pass against float rounding
            r = r - (a * r * r + b * r + c) / slope
        roots.append(r)
    # Outside the outer roots the parabola carries the sign of a.
    return tuple(roots), a < 0


def _log_k(pair: HypothesisPair, eta: float) -> float:
    return math.log(pair.p1 / pair.p0) - math.log(eta)


def gaussian_quadratic_coefficients(
    pair: HypothesisPair, eta: float
) -> tuple[float, float, float]:
    """Coefficients (a, b, c) of the quadratic the Gaussian boundaries satisfy."""
    return _ratio_quadratic(*pair.h0.params, *pair.h1.params, _log_k(pair, eta))


def _prior_only_report(pair: HypothesisPair, eta: float, method: RootMethod) -> LikelihoodRootReport:
    """A zero prior leaves one hypothesis: a single region at any threshold."""
    orient = Orientation.H1_FIRST if pair.p0 == 0.0 else Orientation.H0_FIRST
    return LikelihoodRootReport((), method, orient, (), eta)


def ml_boundaries_gaussian(pair: HypothesisPair, eta: float = 1.0) -> LikelihoodRootReport:
    """Closed-form boundaries for a Gaussian pair (see ``_gaussian_ratio_roots``)."""
    if pair.h0.family is not Family.GAUSSIAN or pair.h1.family is not Family.GAUSSIAN:
        raise InvalidParameterError("ml_boundaries_gaussian requires two Gaussian models")
    if not eta > 0:
        raise InvalidParameterError(f"eta must be > 0, got {eta}")
    if pair.p0 in (0.0, 1.0):
        return _prior_only_report(pair, eta, RootMethod.GAUSSIAN_QUADRATIC)

    roots, h0_first = _gaussian_ratio_roots(*pair.h0.params, *pair.h1.params, _log_k(pair, eta))
    orient = Orientation.H0_FIRST if h0_first else Orientation.H1_FIRST
    residuals = _check_residuals(pair, eta, roots)
    return LikelihoodRootReport(roots, RootMethod.GAUSSIAN_QUADRATIC, orient, residuals, eta)


def _bisect(fn, lo, hi, level, rising, tol: float, *args) -> np.ndarray:
    """Solve fn(x, *args) = level on every bracket [lo, hi] at once, fn
    monotone on each.

    ``lo`` and ``hi`` are one-dimensional, the other arguments broadcast
    with them, and fn acts on x and ``args`` elementwise; ``rising`` marks
    the brackets on which fn increases.  Each bracket is halved until its
    own width is below ``tol``, at most BISECTION_STEPS times, so its root
    does not depend on the other brackets; a bracket whose floats run out
    first keeps its last two neighbouring floats.  Brackets of one count,
    such as the cells of one grid, take the same steps on the whole arrays;
    otherwise they are ordered by their count, most first, and each step
    works on the prefix still halving.  A NaN value counts as below
    ``level``: the ratio gap is NaN where both densities vanish.
    """
    steps = np.minimum(np.ceil(np.log2(np.maximum(hi - lo, tol) / tol)), BISECTION_STEPS).astype(int)
    counts = np.unique(steps).tolist()
    order = None
    if len(counts) > 1:  # most halvings first
        order = np.argsort(-steps, kind="stable")
        lo, hi, level, rising, *args = (
            np.broadcast_to(v, steps.shape)[order] for v in (lo, hi, level, rising, *args)
        )
        steps = steps[order]
    a, b, done, roots = lo, hi, 0, []
    for count in counts:
        for _ in range(count - done):
            mid = 0.5 * (a + b)
            right = (fn(mid, *args) >= level) != rising  # the root lies right of mid
            a = np.where(right, mid, a)
            b = np.where(right, b, mid)
        done = count
        if order is not None:  # the brackets of this count are done; they sit last
            m = int(np.count_nonzero(steps > count))
            roots.append(0.5 * (a[m:] + b[m:]))
            a, b, level, rising, *args = (v[:m] for v in (a, b, level, rising, *args))
    if order is None:
        return 0.5 * (a + b)
    x = np.empty(steps.shape)
    x[order] = np.concatenate(roots[::-1])
    return x


def _search_grid(
    pair: HypothesisPair, interval: tuple[float, float] | None, grid: int
) -> np.ndarray:
    lo, hi = interval if interval is not None else default_search_interval(pair)
    if not lo < hi:
        raise EmptyIntervalError(f"empty search interval [{lo}, {hi}]")
    return np.linspace(lo, hi, grid)


@dataclass(frozen=True)
class _GridScan:
    """Sign pattern of one threshold's log ratio gap on the search grid:
    the bracketed sign changes, the exact grid hits and the end signs."""

    lo: np.ndarray
    hi: np.ndarray
    f_lo: np.ndarray
    hits: tuple[float, ...]
    ends_differ: bool
    first_sign: float


def _scan(xs: np.ndarray, gap: np.ndarray) -> _GridScan | None:
    """Scan one gap row; None when the ratio is undefined on the whole grid."""
    defined = ~np.isnan(gap)
    if not defined.any():
        return None
    xs_d = xs[defined]
    gap_d = gap[defined]
    signs = np.sign(gap_d)
    i = np.nonzero(signs[:-1] * signs[1:] < 0)[0]
    nonzero = signs[signs != 0]
    return _GridScan(
        xs_d[i],
        xs_d[i + 1],
        gap_d[i],
        tuple(float(x) for x in xs_d[signs == 0]),
        bool(nonzero[0] != nonzero[-1]) if nonzero.size else False,
        nonzero[0] if nonzero.size else -1.0,
    )


def _undefined_report(eta: float) -> LikelihoodRootReport:
    return LikelihoodRootReport(
        (), RootMethod.GRID_BISECTION, Orientation.H0_FIRST, (), eta,
        ("log ratio undefined on the whole interval",),
    )


def _grid_report(
    pair: HypothesisPair, eta: float, scan: _GridScan, bisected
) -> LikelihoodRootReport:
    """Report of one scanned threshold from its bisected bracket roots."""
    roots = sorted([float(r) for r in bisected] + list(scan.hits))
    warnings: list[str] = []
    if len(roots) % 2 != (1 if scan.ends_differ else 0):
        warnings.append(
            "root count parity disagrees with the interval end signs; "
            "the grid may be too coarse for this pair"
        )
    orient = Orientation.H0_FIRST if scan.first_sign < 0 else Orientation.H1_FIRST
    residuals = _check_residuals(pair, eta, roots)
    return LikelihoodRootReport(
        tuple(roots), RootMethod.GRID_BISECTION, orient, residuals, eta, tuple(warnings)
    )


def _grid_solve(
    pair: HypothesisPair, etas, interval: tuple[float, float] | None, grid: int
) -> tuple[LikelihoodRootReport, ...]:
    """Grid-scan plus bisection reports at every threshold of ``etas``.

    Both log densities are evaluated on the grid once, each threshold's gap
    row is formed with the operation order of ``log_ratio_gap`` and scanned,
    and the sign changes of all thresholds are bisected together with one
    array ``log_pdf`` call per density per step.
    """
    etas = [float(eta) for eta in etas]
    for eta in etas:
        if not eta > 0:
            raise InvalidParameterError(f"eta must be > 0, got {eta}")
    if grid < 2:
        raise InvalidParameterError(f"grid resolution must be >= 2, got {grid}")
    if pair.p0 in (0.0, 1.0):
        return tuple(_prior_only_report(pair, eta, RootMethod.GRID_BISECTION) for eta in etas)
    xs = _search_grid(pair, interval, grid)
    if pair.h0 == pair.h1 and pair.h0.custom is pair.h1.custom:
        # The gap is the constant log(p1 / (eta p0)): no crossing, only
        # rounding noise where the constant is 0.
        return tuple(
            LikelihoodRootReport(
                (), RootMethod.GRID_BISECTION,
                Orientation.H1_FIRST if pair.p1 > eta * pair.p0 else Orientation.H0_FIRST, (), eta,
            )
            for eta in etas
        )
    log_p1, log_p0 = float(np.log(pair.p1)), float(np.log(pair.p0))
    log_etas = np.asarray([math.log(eta) for eta in etas])
    with np.errstate(divide="ignore", invalid="ignore"):
        head = log_p1 + np.asarray(pair.h1.log_pdf(xs))
        log_f0 = np.asarray(pair.h0.log_pdf(xs))
        scans = [_scan(xs, head - log_eta - log_p0 - log_f0) for log_eta in log_etas]

    found = [s for s in scans if s is not None]
    lo, hi, f_lo = (
        np.concatenate([np.zeros(0)] + [getattr(s, f) for s in found]) for f in ("lo", "hi", "f_lo")
    )
    bracket_log_eta = np.repeat(log_etas, [0 if s is None else s.lo.size for s in scans])

    def gap(x: np.ndarray, log_eta: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            return (
                log_p1
                + np.asarray(pair.h1.log_pdf(x))
                - log_eta
                - log_p0
                - np.asarray(pair.h0.log_pdf(x))
            )

    roots = iter(_bisect(gap, lo, hi, 0.0, f_lo < 0, BISECTION_WIDTH, bracket_log_eta).tolist())
    return tuple(
        _undefined_report(eta) if scan is None
        else _grid_report(pair, eta, scan, list(islice(roots, scan.lo.size)))
        for eta, scan in zip(etas, scans)
    )


def ml_boundaries_generic(
    pair: HypothesisPair,
    eta: float = 1.0,
    interval: tuple[float, float] | None = None,
    grid: int = DEFAULT_GRID,
) -> LikelihoodRootReport:
    """Grid-scan plus bisection boundaries for arbitrary density pairs.

    The caller-supplied interval is the root-isolation contract: sign changes
    outside it are not seen.  The default interval spans both models out to 8
    scale units, beyond which the densities are numerically negligible.
    """
    return _grid_solve(pair, [eta], interval, grid)[0]


def _ml_boundaries_many(pair: HypothesisPair, etas) -> tuple[LikelihoodRootReport, ...]:
    """``ml_boundaries`` at every threshold of ``etas``, with the same reports:
    the closed form per threshold for Gaussian pairs, one grid solve of all
    thresholds otherwise."""
    if pair.h0.family is Family.GAUSSIAN and pair.h1.family is Family.GAUSSIAN:
        return tuple(ml_boundaries_gaussian(pair, float(eta)) for eta in etas)
    return _grid_solve(pair, etas, None, DEFAULT_GRID)


def ml_boundaries(
    pair: HypothesisPair,
    eta: float = 1.0,
    interval: tuple[float, float] | None = None,
    grid: int = DEFAULT_GRID,
) -> LikelihoodRootReport:
    """Closed form for Gaussian pairs, grid scan otherwise."""
    if pair.h0.family is Family.GAUSSIAN and pair.h1.family is Family.GAUSSIAN:
        return ml_boundaries_gaussian(pair, eta)
    return ml_boundaries_generic(pair, eta, interval, grid)


@dataclass(frozen=True)
class LinearOptimum:
    y: float
    orientation: Orientation
    accuracy: float

    def to_dict(self) -> dict:
        return {"y": self.y, "orientation": self.orientation.value, "accuracy": self.accuracy}


def optimal_linear_boundary(
    pair: HypothesisPair,
    interval: tuple[float, float] | None = None,
    grid: int = DEFAULT_GRID,
) -> LinearOptimum:
    """Best single-boundary classifier.

    Candidates are the unit-threshold ratio roots; each is scored under both
    orientations and the most accurate wins, ties resolved toward the smaller
    boundary and then toward H0-first.
    """
    report = ml_boundaries(pair, 1.0, interval, grid)
    if not report.roots:
        raise NoRootError("the unit-threshold ratio equation has no root for this pair")
    best: LinearOptimum | None = None
    for y in report.roots:
        for orient in (Orientation.H0_FIRST, Orientation.H1_FIRST):
            acc = region_accuracy(pair, (y,), orient)
            if best is None or acc > best.accuracy + 1e-15:
                best = LinearOptimum(y, orient, acc)
    return best
