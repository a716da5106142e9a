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


def _residual(pair: HypothesisPair, eta: float, r: float) -> float:
    t1 = pair.p1 * float(pair.h1.pdf(r))
    t0 = eta * pair.p0 * float(pair.h0.pdf(r))
    return abs(t1 - t0)


def _check_residuals(pair, eta, roots) -> tuple[float, ...]:
    residuals = []
    for r in roots:
        res = _residual(pair, eta, r)
        bound = RESIDUAL_RTOL * max(
            pair.p0 * float(pair.h0.pdf(r)), pair.p1 * float(pair.h1.pdf(r)), _RESIDUAL_FLOOR
        )
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


def _bisect(fn, lo: float, hi: float, f_lo: float) -> float:
    """Plain bisection to BISECTION_WIDTH interval width."""
    for _ in range(BISECTION_STEPS):
        if hi - lo <= BISECTION_WIDTH:
            break
        mid = 0.5 * (lo + hi)
        f_mid = fn(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0) == (f_lo > 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _bisect_many(fn, lo: np.ndarray, hi: np.ndarray, f_lo: np.ndarray) -> np.ndarray:
    """``_bisect`` on every bracket at once, step for step.

    ``fn(idx, x)`` evaluates the gap of brackets ``idx`` at points ``x``.
    Each bracket takes the midpoints, the width stop and the exact-zero
    return of the scalar loop, so every root is bit-identical to it.
    """
    lo, hi, f_lo = lo.copy(), hi.copy(), f_lo.copy()
    roots = np.empty_like(lo)
    active = np.arange(lo.size)
    for _ in range(BISECTION_STEPS):
        narrow = hi[active] - lo[active] <= BISECTION_WIDTH
        roots[active[narrow]] = 0.5 * (lo[active[narrow]] + hi[active[narrow]])
        active = active[~narrow]
        if not active.size:
            return roots
        mid = 0.5 * (lo[active] + hi[active])
        f_mid = fn(active, mid)
        zero = f_mid == 0.0
        roots[active[zero]] = mid[zero]
        active, mid, f_mid = active[~zero], mid[~zero], f_mid[~zero]
        left = (f_mid > 0) == (f_lo[active] > 0)
        lo[active[left]] = mid[left]
        f_lo[active[left]] = f_mid[left]
        hi[active[~left]] = mid[~left]
    roots[active] = 0.5 * (lo[active] + hi[active])
    return roots


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
    if not eta > 0:
        raise InvalidParameterError(f"eta must be > 0, got {eta}")
    if grid < 2:
        raise InvalidParameterError(f"grid resolution must be >= 2, got {grid}")
    if pair.p0 in (0.0, 1.0):
        return _prior_only_report(pair, eta, RootMethod.GRID_BISECTION)
    xs = _search_grid(pair, interval, grid)
    scan = _scan(xs, np.asarray(log_ratio_gap(pair, eta, xs)))
    if scan is None:
        return _undefined_report(eta)
    scalar_gap = lambda t: float(log_ratio_gap(pair, eta, t))
    bisected = [_bisect(scalar_gap, *bracket) for bracket in zip(scan.lo, scan.hi, scan.f_lo)]
    return _grid_report(pair, eta, scan, bisected)


def _ml_boundaries_many(pair: HypothesisPair, etas) -> tuple[LikelihoodRootReport, ...]:
    """``ml_boundaries`` at every threshold of ``etas``, with the same reports.

    Gaussian pairs use the closed form per threshold.  Otherwise, with more
    than one threshold, both log densities are evaluated on the grid once,
    each threshold's gap row is formed with the operation order of
    ``log_ratio_gap`` and scanned, and the sign changes of all thresholds are
    bisected together with one array ``log_pdf`` call per density per step.
    A single threshold keeps the scalar bisection, which is faster for it.
    """
    etas = [float(eta) for eta in etas]
    if len(etas) == 1 or (
        pair.h0.family is Family.GAUSSIAN and pair.h1.family is Family.GAUSSIAN
    ):
        return tuple(ml_boundaries(pair, eta) for eta in etas)
    for eta in etas:
        if not eta > 0:
            raise InvalidParameterError(f"eta must be > 0, got {eta}")
    if pair.p0 in (0.0, 1.0):
        return tuple(_prior_only_report(pair, eta, RootMethod.GRID_BISECTION) for eta in etas)
    xs = _search_grid(pair, None, DEFAULT_GRID)
    log_p1, log_p0 = float(np.log(pair.p1)), float(np.log(pair.p0))
    log_etas = np.asarray([math.log(eta) for eta in etas])
    with np.errstate(divide="ignore", invalid="ignore"):
        head = log_p1 + np.asarray(pair.h1.log_pdf(xs))
        log_f0 = np.asarray(pair.h0.log_pdf(xs))
        scans = [_scan(xs, head - log_eta - log_p0 - log_f0) for log_eta in log_etas]

    bracket_log_eta = np.repeat(log_etas, [0 if s is None else s.lo.size for s in scans])

    def gap(idx: np.ndarray, x: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            return (
                log_p1
                + np.asarray(pair.h1.log_pdf(x))
                - bracket_log_eta[idx]
                - log_p0
                - np.asarray(pair.h0.log_pdf(x))
            )

    found = [s for s in scans if s is not None]
    brackets = (
        np.concatenate([np.zeros(0)] + [getattr(s, f) for s in found]) for f in ("lo", "hi", "f_lo")
    )
    roots = iter(_bisect_many(gap, *brackets))
    return tuple(
        _undefined_report(eta) if scan is None
        else _grid_report(pair, eta, scan, list(islice(roots, scan.lo.size)))
        for eta, scan in zip(etas, scans)
    )


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
