"""Decision-boundary computation for likelihood-ratio classifiers.

The boundaries of the ratio classifier at threshold eta are the roots of

    p1 * f1(x) - eta * p0 * f0(x) = 0.

Two families have closed forms.  For a pair of Gaussians the equation
reduces to a quadratic, solved in the pair's shape coordinates by one array
function (``_gaussian_roots``), which also serves the design solver.  For a
pair of exponentials the log ratio gap is linear on the support x >= 0, so
each threshold has at most one root (``_exponential_solve``).  Both cover the
whole support, not a search interval.  For any other pair the equation is
scanned on a grid in the log domain (underflow-proof) and every bracketed
sign change is refined by safeguarded Newton steps.

All three families report only the changes of sign of the log ratio gap:
a touch (a tangential double root, or on the grid an exact 0 between two
points of one sign) bounds a region of zero measure, changes no
probability and destabilizes downstream derivatives.  The grid's only
warning is for a ratio undefined on the whole interval.

``_ml_solve_many`` is the one front door: it checks the thresholds
(positive and finite), answers a zero prior with no root, and checks the
roots of all thresholds in one ``_check_residuals`` call, for all three
families.  It also takes one parameter row per threshold, so that the
assumption audit's re-solves at perturbed parameters are one closed-form
call.  ``_ml_boundaries_many`` makes its reports, and ``ml_boundaries``,
``ml_boundaries_gaussian`` and ``ml_boundaries_generic`` are its
one-threshold calls; ``tradeoff.ml_curve`` reads the roots unreported.
The family solvers return only roots, orientations and warnings: the
closed forms in one call for all thresholds, the grid by solving all their
sign changes together in one Newton call.

That safeguarded Newton solver (``_newton``) is the one bracketed root
solver of the library: the grid's ratio roots, the frontier's level sets and
the design's separation roots share it, many brackets at once, each from its
regula falsi point, with a residual slope supplied by the caller.  A caller
that also supplies the residual's curvature (the frontier's level sets, whose
G' -> 0 beside a ratio root) gets a second-order step wherever Newton's
Kantorovich condition |r G''| <= G'^2 / 2 fails: the step to the root of the
local quadratic on the bracket's side, or to its vertex where it has none.
Where the condition holds, a Newton step h = r / G' whose error estimate
(|G''| h^2 / 2 + |c h^3|) / |G'| is within half the bracket's tolerance is
certified and taken as the root unevaluated, c the cubic term that fits the
residual at the bracket's far end: G'' alone reads nearly 0 at an inflection
point, where the step's error is cubic.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from enum import Enum
from itertools import islice

import numpy as np

from ._records import plain
from .classifier import BoundarySet, Orientation, _accuracies
from .densities import Family, HypothesisPair, _pdf, _pdf_dx
from .errors import (
    EmptyIntervalError,
    InvalidParameterError,
    NoRootError,
    UnresolvedClassifierError,
)

#: Relative residual bound every reported root must satisfy.
RESIDUAL_RTOL = 1e-10
_RESIDUAL_FLOOR = 1e-300

DEFAULT_GRID = 4096
SCALE_SPAN = 8.0
BISECTION_WIDTH = 1e-12
BISECTION_STEPS = 200
#: Doubling steps of the outward walk to the saturation points.
SATURATION_STEPS = 64


class RootMethod(str, Enum):
    GAUSSIAN_QUADRATIC = "gaussian_quadratic"
    EXPONENTIAL_LINEAR = "exponential_linear"
    # the grid path solves its brackets by Newton; the name is kept for the JSON outputs
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

    to_dict = plain


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


def _columns(pair: HypothesisPair, thetas):
    """The parameters of h0 and of h1, one entry per parameter: the pair's
    own, or one column of the parameter rows ``thetas`` each."""
    if thetas is None:
        return pair.h0.params, pair.h1.params
    k = pair.split
    return tuple(thetas[:, :k].T), tuple(thetas[:, k:].T)


def _density(model, params, x, slope: bool = False) -> np.ndarray:
    """The pdf of ``model`` at x, or with ``slope`` its derivative: at the
    model's own parameters where ``params`` is None, otherwise (a built-in
    family) at ``params`` broadcast against x."""
    if params is None:
        return np.asarray(model.pdf_dx(x) if slope else model.pdf(x))
    return (_pdf_dx if slope else _pdf)(model.family, x, params)


def _check_residuals(pair, etas, roots, thetas=None) -> list[tuple[float, ...]]:
    """|p1 f1(r) - eta p0 f0(r)| at the roots ``roots[k]`` of every ``etas[k]``,
    with the densities at the parameter row ``thetas[k]`` where rows are
    given (a closed-form family), one pdf call (and, where a root needs it,
    one pdf_dx call) per density, checked against RESIDUAL_RTOL of the
    larger weighted density or, where larger and finite, the defect's
    change over one ulp of the root.  A jump of the ratio at a support edge,
    a NaN root and a density past the float range are refused."""
    counts = [len(rs) for rs in roots]
    x = np.asarray([r for rs in roots for r in rs], dtype=float)
    eta = np.repeat(np.asarray(etas, dtype=float), counts)
    params0 = params1 = None
    if thetas is not None:
        params0, params1 = _columns(pair, np.repeat(thetas, counts, axis=0))
    f0, f1 = _density(pair.h0, params0, x), _density(pair.h1, params1, x)
    with np.errstate(all="ignore"):
        res = np.abs(pair.p1 * f1 - eta * pair.p0 * f0)
        bound = RESIDUAL_RTOL * np.maximum(np.maximum(pair.p0 * f0, pair.p1 * f1), _RESIDUAL_FLOOR)
        bad = ~((res <= bound) & (bound < math.inf))
        if bad.any():  # the slopes, needed only here; one past the float range does not count
            df0, df1 = _density(pair.h0, params0, x, True), _density(pair.h1, params1, x, True)
            ulp = np.spacing(np.abs(x)) * np.abs(pair.p1 * df1 - eta * pair.p0 * df0)
            bound = np.maximum(bound, np.where(ulp < math.inf, ulp, 0.0))
            bad = ~((res <= bound) & (bound < math.inf))
    if bad.any():
        i = int(np.argmax(bad))
        raise InvalidParameterError(
            f"root {x[i].item()!r} fails the residual bound (residual {res[i]:.3e}, bound {bound[i]:.3e})"
        )
    it = iter(res.tolist())
    return [tuple(islice(it, len(rs))) for rs in roots]


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


def _saturation_points(pair: HypothesisPair, lo: float, hi: float) -> tuple[float, float]:
    """(L*, H*) outside [lo, hi] where both cdfs read exactly 0 and exactly 1.

    The walk doubles its step outward from the interval and stops at a finite
    support edge.  A boundary pinned there adds no mass, so the pairs (y, H*)
    and (L*, y) are the single-boundary classifiers of both orientations, a
    boundary set followed by H* is the same classifier as the set alone, and
    one boundary at either point is a constant classifier.
    """
    span = hi - lo

    def walk(y: float, direction: float, level: float, edge: float) -> float:
        step = span
        for _ in range(SATURATION_STEPS):
            if pair.h0.cdf(y) == level and pair.h1.cdf(y) == level:
                break
            y += direction * step
            step *= 2.0
            if direction * (y - edge) >= 0.0:
                return edge
        return y

    edge_lo = min(pair.h0.support[0], pair.h1.support[0])
    edge_hi = max(pair.h0.support[1], pair.h1.support[1])
    return walk(lo, -1.0, 0.0, edge_lo), walk(hi, 1.0, 1.0, edge_hi)


def _gaussian_roots(d, r, level):
    """The closed form of every Gaussian pair: the roots lo <= hi of the
    ratio equation of N(0, 1) against N(d, r), with level = log(1/r) +
    log(p1 / (eta p0)), and whether H0 wins outside (lo, hi), on broadcast
    arrays; a missing root is +inf.

    In these shape coordinates the log ratio gap is a y^2 + b y + c with

        a = (r - 1)(r + 1) / (2 r^2),  b = d / r^2,  c = level - d^2 / (2 r^2),

    and its discriminant b^2 - 4ac is written d^2 / r^2 - 4a level, the
    same value with its d^2 terms cancelled by hand, so that a narrow second
    width loses nothing.  The roots are q / a and c / q, the stable pair,
    with no Newton pass: its residual a y^2 + b y + c would cancel terms of
    size d^2 / r^2 again.  Equal widths need no case of their own: a = 0
    puts q / a at -inf or +inf, which still bounds the region inside the
    roots.

    Outside the roots the gap has the sign of a, so H0 wins outside a
    crossing where a < 0; a parabola that does not cross (a tangential
    double root bounds no region) is won by H0 where a < 0, or c < 0 at
    a = 0.  Where a coefficient overflows, both roots are NaN.
    """
    with np.errstate(all="ignore"):
        rr2 = 2.0 * r * r
        a = (r - 1.0) * (r + 1.0) / rr2
        b = 2.0 * d / rr2
        c = level - d * d / rr2
        e, m2 = np.abs(d / r), 4.0 * a * level
        # where a level = 0 the root of the discriminant is |d| / r itself,
        # whose square may underflow
        sq = np.where(m2 == 0.0, e, np.sqrt(np.maximum(e * e - m2, 0.0)))
        q = -0.5 * (b + np.copysign(sq, b))
        y1, y2 = q / a, c / q
        crossing = sq > 0.0
        # 0, or NaN where a coefficient is not finite (sq is NaN where a is)
        overflow = 0.0 * (b + c + sq)
        lo = np.where(crossing, np.minimum(y1, y2), np.inf) + overflow
        hi = np.where(crossing, np.maximum(y1, y2), np.inf) + overflow
        h0_outside = np.where(crossing | (a != 0.0), a < 0.0, c < 0.0)
    return lo, hi, h0_outside


def _gaussian_pair_roots(mu0, sig0, mu1, sig1, log_k):
    """The boundaries of N(mu0, sig0) against N(mu1, sig1), lo <= hi with a
    missing root +inf, and whether H0 wins left of lo (everywhere, with no
    root), on broadcast arrays of all five arguments, one pair and log_k
    per entry.

    ``_gaussian_roots`` solves the shape d = (mu1 - mu0) / sig0,
    r = sig1 / sig0, on float64 so that no shape or root raises on
    overflow, and each root is mapped back as mu0 + sig0 y.  Where a square
    of the shape would leave the float range an equivalent shape is solved:
    in the narrower width's units for a ratio below 2^-500, with the ratio
    taken as 2^500 and d / r kept above it (a stays 1/2, the logarithm comes
    from the widths), and for y / s with s a power of two near max(|d|, |d|
    / r), which keeps the roots of a shape in range to the bit.  Equal
    widths with a separation so near 0 that the one root d / 2 - level / d
    passes the float range, while mu0 + sig0 y may not, are solved for
    y / t on level / t, t a power of two near |level / d| / 2^1000 (d^2
    underflows there, so the root scales with the level).  Each rescale
    is chosen entry by entry.  A root below the float range is dropped: H0
    then wins left of the first root kept where it wins inside the pair.
    """
    with np.errstate(all="ignore"):
        mu0, sig0, mu1, sig1, log_k = map(np.float64, (mu0, sig0, mu1, sig1, log_k))
        big = 2.0**500  # squares of shapes past it leave the float range
        swap = sig1 < sig0 / big
        mu0, sig0, mu1, sig1, log_k = (
            np.where(swap, b, a) for a, b in ((mu0, mu1), (sig0, sig1), (mu1, mu0), (sig1, sig0), (log_k, -log_k))
        )
        r, d = sig1 / sig0, (mu1 - mu0) / sig0
        level = log_k - np.where(r < np.inf, np.log(r), np.log(sig1) - np.log(sig0))
        wide = r > big
        r, d = np.where(wide, big, r), np.where(wide, (mu1 - mu0) / sig1 * big, d)
        s = np.ldexp(1.0, np.maximum(np.frexp(np.abs(d) / np.minimum(r, 1.0))[1] - 1, 0))
        # at equal widths the one root d / 2 - level / d, for y / t
        far = np.frexp(level)[1] - np.frexp(d)[1] - 1000
        t = np.where(r == 1.0, np.ldexp(1.0, np.where(level == 0.0, 0, np.maximum(far, 0))), 1.0)
        lo, hi, h0_outside = _gaussian_roots(d / s, r, level / (s * s) / t)
        lo, hi = mu0 + sig0 * s * t * lo, mu0 + sig0 * s * t * hi
        h0_outside = h0_outside != swap
    below_lo, below_hi = lo == -np.inf, hi == -np.inf
    return (
        np.where(below_lo, np.where(below_hi, np.inf, hi), lo),
        np.where(below_lo, np.inf, hi),
        h0_outside != (below_lo != below_hi),
    )


def _log_k(pair: HypothesisPair, eta: float) -> float:
    return math.log(pair.p1 / pair.p0) - math.log(eta)


def _no_crossing(pair: HypothesisPair, etas):
    """Roots, orientations and warnings of a pair whose log ratio gap is the
    constant log(p1 / (eta p0)): no root, and H1 wins where p1 > eta p0."""
    return [()] * len(etas), [not pair.p1 > eta * pair.p0 for eta in etas], [()] * len(etas)


def _gaussian_solve(pair: HypothesisPair, etas, thetas):
    """Closed-form roots and orientations at every threshold of ``etas``,
    each at its parameter row of ``thetas`` where rows are given, from one
    call of ``_gaussian_pair_roots`` on the array of their log_k."""
    log_k = np.asarray([_log_k(pair, eta) for eta in etas])
    (mu0, sig0), (mu1, sig1) = _columns(pair, thetas)
    lo, hi, h0_first = _gaussian_pair_roots(mu0, sig0, mu1, sig1, log_k)
    roots = [tuple(y for y in ends if y != math.inf) for ends in zip(lo.tolist(), hi.tolist())]
    return roots, h0_first.tolist(), [()] * len(etas)


def ml_boundaries_gaussian(pair: HypothesisPair, eta: float = 1.0) -> LikelihoodRootReport:
    """Closed-form boundaries for a Gaussian pair (see ``_gaussian_roots``)."""
    if pair.h0.family is not Family.GAUSSIAN or pair.h1.family is not Family.GAUSSIAN:
        raise InvalidParameterError("ml_boundaries_gaussian requires two Gaussian models")
    return _ml_boundaries_many(pair, [eta])[0]


def _log_rate_ratio(l0: float, l1: float) -> float:
    """log(l1 / l0) without cancellation: within a factor of 2 the difference
    l1 - l0 is exact and ``log1p`` keeps every digit of a ratio near 1; a
    ratio past the normal float range is taken as a difference of logs."""
    if 0.5 * l0 <= l1 <= 2.0 * l0:
        return math.log1p((l1 - l0) / l0)
    ratio = l1 / l0
    if sys.float_info.min <= ratio < math.inf:
        return math.log(ratio)
    return math.log(l1) - math.log(l0)


def _exponential_solve(pair: HypothesisPair, etas, thetas):
    """Closed-form roots and orientations of an exponential pair at every
    threshold of ``etas``, each at its parameter row of ``thetas`` where
    rows are given.

    On the support x >= 0 the log ratio gap of rates l0 against l1 is linear,
    c + (l0 - l1) x with c = log(p1 l1 / (eta p0 l0)), so each threshold has
    the one root -c / (l0 - l1), reported where it lies in (0, inf).  H0 wins
    left of it (everywhere, with no root) where the gap just right of 0 is
    negative: where c < 0, or at c = 0 where the slope is.  Equal rates
    leave a constant gap, with no root, won by H1 where p1 > eta p0 (as in
    ``_no_crossing``).
    """
    (l0,), (l1,) = _columns(pair, thetas)
    slope = np.subtract(l0, l1)
    log_ratio = [_log_rate_ratio(*rates) for rates in zip(np.atleast_1d(l0).tolist(), np.atleast_1d(l1).tolist())]
    c = np.asarray([_log_k(pair, eta) for eta in etas]) + log_ratio
    with np.errstate(divide="ignore", invalid="ignore"):  # equal rates: no root
        roots = [(x,) if 0.0 < x < math.inf else () for x in (-c / slope).tolist()]
    h0_first = np.where(c != 0.0, c < 0.0, slope < 0.0)
    if np.any(slope == 0.0):
        h0_first = np.where(slope == 0.0, [not pair.p1 > eta * pair.p0 for eta in etas], h0_first)
    return roots, h0_first.tolist(), [()] * len(etas)


def _falsi(lo, hi, r_lo, r_hi):
    """The regula falsi point of each bracket [lo, hi] whose ends read r_lo
    and r_hi, or its midpoint where that point is not in the bracket."""
    with np.errstate(all="ignore"):
        z = lo - r_lo * ((hi - lo) / (r_hi - r_lo))
    return np.where((z >= lo) & (z <= hi), z, 0.5 * (lo + hi))


def _fold_steps(step, z, r, slope, curvature, right) -> np.ndarray:
    """Replace in ``step`` the Newton point of every bracket where Newton's
    Kantorovich condition |r G''| <= G'^2 / 2 fails (r the residual at z, G'
    its slope and G'' its curvature) by z + h, h the root of the local
    quadratic r + G' h + G'' h^2 / 2 = 0 on the side of z where the root
    lies (``right``), or its vertex -G' / G'' where it has no real root.
    Where the condition fails, the quadratic has either no real root
    (r G'' > 0) or one on each side of z (r G'' < 0).  A NaN curvature
    keeps the Newton point.  Returns where the condition fails."""
    excess = r * curvature
    np.abs(excess, out=excess)
    excess *= 2.0
    fold = excess > slope * slope
    if not fold.any():
        return fold
    r, slope, curvature, right = r[fold], slope[fold], curvature[fold], right[fold]
    disc = slope * slope - 2.0 * r * curvature
    q = -0.5 * (slope + np.copysign(np.sqrt(np.maximum(disc, 0.0)), slope))
    far, near = 2.0 * q / curvature, r / q  # the two roots, q / a and c / q
    h = np.where(disc < 0.0, -slope / curvature, np.where((far > 0.0) == right, far, near))
    step[fold] = z[fold] + h
    return fold


def _newton(fn, lo, hi, r_lo, r_hi, tol: float, *args) -> np.ndarray:
    """Solve fn(x, *args) = 0 on every bracket [lo, hi] at once by
    safeguarded Newton steps; the residual is monotone on each bracket, and
    its end values r_lo and r_hi lie on either side of 0.  It solves the
    grid's ratio roots (``_grid_solve``), the frontier's level sets and the
    design's separation roots.

    ``fn`` returns the residual, its slope and its rounding scale at x, and
    optionally a fourth value, its curvature; it acts on x and ``args``
    elementwise.  ``lo``, ``hi``, ``r_lo``, ``r_hi`` and ``args`` are
    one-dimensional, one entry per bracket.  The first point is the
    bracket's regula falsi point, and each point evaluated replaces the
    bracket end on its side of 0.  The Newton step x - residual / slope,
    or, given a curvature, a second-order step where Newton's Kantorovich
    condition |residual * curvature| <= slope^2 / 2 fails (``_fold_steps``:
    next to a root where the slope tends to 0, as beside a double root,
    Newton converges only linearly), is taken when it lands inside the open
    bracket; otherwise (the slope is 0 or NaN, or the step leaves the bracket) the
    next point is the bracket's regula falsi point, or its midpoint once a
    fallback point has kept more than half of its bracket, until a Newton
    step lands again: a bracket that regula falsi shrinks from one side,
    such as one whose far end is flat, halves at every later fallback point.
    A bracket stops by one of four rules, tested at each point evaluated
    before the next point is made:

    * at the point, where its |residual| lies within its rounding band, 4 eps
      times the scale, and no float is a better root;
    * at the Newton point of a step shorter than ``tol`` that stays in the
      bracket;
    * given a curvature, at the Newton point of a certified step: a plain
      Newton step h = residual / slope (Kantorovich's condition holds, so
      ``_fold_steps`` kept it) that lands inside the open bracket and whose
      error estimate (|curvature| h^2 / 2 + |c h^3|) / |slope| is within
      ``tol`` / 2, c the cubic term of the local model that meets the
      residual at the bracket's far end, so the point that would confirm it
      is never evaluated; a NaN or infinite curvature certifies no step;
    * at its midpoint once it is narrower than ``tol``, or once it has taken
      BISECTION_STEPS points.

    Stopped brackets leave the arrays once half have stopped, before the
    next points are made, so a root does not depend on the other brackets.
    A NaN residual counts as below 0.
    """
    band = 4.0 * np.finfo(float).eps
    x = np.empty(lo.shape)
    lo, hi, r_lo, r_hi = (np.array(v, dtype=float) for v in (lo, hi, r_lo, r_hi))
    z, at, rising = _falsi(lo, hi, r_lo, r_hi), np.arange(lo.size), r_hi >= r_lo
    # fell_back: z is a fallback point; halve: the next fallback is the midpoint
    fell_back = halve = np.zeros(lo.shape, dtype=bool)
    live = np.ones(lo.shape, dtype=bool)
    for _ in range(BISECTION_STEPS):
        if not live.size:
            return x
        r, slope, scale, *curvature = fn(z, *args)
        right = (r >= 0.0) != rising  # the root lies right of z
        half = 0.5 * (hi - lo)
        np.copyto(lo, z, where=right)
        np.copyto(r_lo, r, where=right)
        np.copyto(hi, z, where=~right)
        np.copyto(r_hi, r, where=~right)
        with np.errstate(all="ignore"):
            h = r / slope
            step = z - h
            if curvature:
                g2 = curvature[0]
                fold = _fold_steps(step, z, r, slope, g2, right)
                # a plain step whose error estimate (|G''| h^2 / 2 + |c h^3|) / |G'|
                # is within tol / 2, c the cubic term that fits the residual at
                # the bracket's far end; a NaN or infinite curvature fails
                d = np.where(right, hi, lo) - z
                c = (np.where(right, r_hi, r_lo) - r - d * (slope + 0.5 * d * g2)) / (d * d * d)
                error = (0.5 * np.abs(g2) + np.abs(c * h)) * h * h
                certified = ~fold & (2.0 * error <= tol * np.abs(slope))
        newton = (step > lo) & (step < hi)  # NaN fails
        hit = np.abs(r) <= band * scale
        short = (step >= lo) & (step <= hi) & (np.abs(step - z) < tol)
        if curvature:
            short |= newton & certified
        width = hi - lo
        done = (hit | short | (width < tol)) & live
        if done.any():
            x[at[done]] = np.where(hit, z, np.where(short, step, 0.5 * (lo + hi)))[done]
            live &= ~done
            if 2 * np.count_nonzero(live) <= live.size:
                lo, hi, r_lo, r_hi, step, newton, width, half, at, rising, fell_back, halve, *args = (
                    v[live]
                    for v in (lo, hi, r_lo, r_hi, step, newton, width, half, at, rising, fell_back, halve, *args)
                )
                live = live[live]
        halve = (halve | fell_back & (width > half)) & ~newton
        fell_back = ~newton
        z = np.where(newton, step, 0.5 * (lo + hi))
        falsi = fell_back & ~halve & live
        if falsi.any():
            z[falsi] = _falsi(lo[falsi], hi[falsi], r_lo[falsi], r_hi[falsi])
    x[at[live]] = 0.5 * (lo + hi)[live]
    return x


def _search_grid(
    pair: HypothesisPair, interval: tuple[float, float] | None, grid: int
) -> np.ndarray:
    lo, hi = interval if interval is not None else default_search_interval(pair)
    if not lo < hi:
        raise EmptyIntervalError(f"empty search interval [{lo}, {hi}]")
    return np.linspace(lo, hi, grid)


def _scan(xs: np.ndarray, gap: np.ndarray):
    """Scan one gap row: the brackets of its sign changes and the gap at
    both ends, with the first sign, as ``(lo, hi, f_lo, f_hi, first_sign)``;
    None when the ratio is undefined on the whole grid.  A NaN or an exact 0
    carries no sign, and each pair of consecutive signed points of opposite
    signs brackets one root: a 0 where the gap keeps its sign (a touch), or
    at the end of the grid, is no root."""
    if np.isnan(gap).all():
        return None
    signed = (gap < 0.0) | (gap > 0.0)
    xs_s, gap_s = xs[signed], gap[signed]
    i = np.nonzero((gap_s[:-1] < 0.0) != (gap_s[1:] < 0.0))[0]
    return xs_s[i], xs_s[i + 1], gap_s[i], gap_s[i + 1], gap_s[0] if gap_s.size else -1.0


def _grid_solve(pair: HypothesisPair, etas, interval: tuple[float, float] | None, grid: int):
    """Grid-scan plus Newton roots, orientations and warnings at every
    threshold of ``etas``.

    Both log densities are evaluated on the grid once, each threshold's gap
    row is formed with the operation order of ``log_ratio_gap`` and scanned
    (``_scan``: a root is a change of sign, the rule of the closed forms),
    and the sign changes of all thresholds are solved together by one
    ``_newton`` call, from the gap at both ends of their brackets.  Its
    residual is the log ratio gap, its slope f1'/f1 - f0'/f0 and its
    rounding scale the sum of the gap's absolute terms, 0 where the gap is
    not finite, so that a jump at a support edge is never read as a root
    within rounding.  A threshold whose ratio is undefined on the whole grid
    has no root and H0 everywhere, with the grid's only warning.
    """
    xs = _search_grid(pair, interval, grid)
    if pair.h0 == pair.h1:
        # the gap is constant: no crossing, only rounding noise where it is 0
        return _no_crossing(pair, etas)
    log_p1, log_p0 = float(np.log(pair.p1)), float(np.log(pair.p0))
    log_etas = np.asarray([math.log(eta) for eta in etas])
    with np.errstate(divide="ignore", invalid="ignore"):
        head = log_p1 + np.asarray(pair.h1.log_pdf(xs))
        log_f0 = np.asarray(pair.h0.log_pdf(xs))
        scans = [_scan(xs, head - log_eta - log_p0 - log_f0) for log_eta in log_etas]

    found = [s for s in scans if s is not None]
    lo, hi, f_lo, f_hi = (np.concatenate([np.zeros(0)] + [s[k] for s in found]) for k in range(4))
    bracket_log_eta = np.repeat(log_etas, [0 if s is None else s[0].size for s in scans])

    def residual(x: np.ndarray, log_eta: np.ndarray):
        with np.errstate(all="ignore"):
            log_f1, log_f0 = np.asarray(pair.h1.log_pdf(x)), np.asarray(pair.h0.log_pdf(x))
            gap = log_p1 + log_f1 - log_eta - log_p0 - log_f0
            slope = pair.h1.pdf_dx(x) / pair.h1.pdf(x) - pair.h0.pdf_dx(x) / pair.h0.pdf(x)
            scale = abs(log_p1) + np.abs(log_f1) + np.abs(log_eta) + abs(log_p0) + np.abs(log_f0)
        return gap, slope, np.where(np.isfinite(gap), scale, 0.0)

    solved = iter(_newton(residual, lo, hi, f_lo, f_hi, BISECTION_WIDTH, bracket_log_eta).tolist())
    roots, h0_first, warnings = [], [], []
    for scan in scans:
        if scan is None:
            roots.append(())
            h0_first.append(True)
            warnings.append(("log ratio undefined on the whole interval",))
            continue
        roots.append(tuple(islice(solved, scan[0].size)))
        h0_first.append(scan[4] < 0)
        warnings.append(())
    return roots, h0_first, warnings


def ml_boundaries_generic(
    pair: HypothesisPair,
    eta: float = 1.0,
    interval: tuple[float, float] | None = None,
    grid: int = DEFAULT_GRID,
) -> LikelihoodRootReport:
    """Grid-scan plus Newton boundaries for arbitrary density pairs: every
    sign change of the log ratio gap on the grid is solved by ``_newton``.

    The caller-supplied interval is the root-isolation contract: sign changes
    outside it are not seen.  The default interval spans both models out to 8
    scale units, beyond which the densities are numerically negligible.
    """
    return _ml_boundaries_many(pair, [eta], interval, grid)[0]


def _ml_solve_many(
    pair: HypothesisPair,
    etas,
    interval: tuple[float, float] | None = None,
    grid: int | None = None,
    thetas=None,
):
    """What the reports of ``_ml_boundaries_many`` hold, before they are
    made: the root method, the thresholds as floats, and for each threshold
    its roots, whether H0 wins left of the first root, its warnings and the
    residuals of its roots.

    One closed-form call for a Gaussian or exponential pair, one grid solve
    otherwise, or for any pair given a ``grid`` (``ml_boundaries_generic``),
    on that grid over ``interval``.  The thresholds are checked, a zero
    prior is answered without a solve, and the roots of all thresholds pass
    one ``_check_residuals`` call.

    With ``thetas``, a stack of parameter rows, one per threshold, each
    threshold is solved for ``pair.with_theta`` of its row, which checks
    the row: the closed forms still in one call, on the columns of the
    rows, and any other pair by one grid solve, with its own residual
    check, per row.  The first row that fails, by its parameters or its
    roots, raises, as it would with one solve per row in turn.
    """
    etas = [float(eta) for eta in etas]
    for eta in etas:
        if not 0.0 < eta < math.inf:
            raise InvalidParameterError(f"eta must be positive and finite, got {eta}")
    if thetas is not None:
        thetas, pairs = np.asarray(thetas, dtype=float), []
        try:
            pairs.extend(pair.with_theta(theta) for theta in thetas)
        except InvalidParameterError:
            # the rows before the refused one are solved and checked first,
            # as one solve per row would
            _ml_solve_many(pair, etas[: len(pairs)], interval, grid, thetas[: len(pairs)])
            raise
    families = {pair.h0.family, pair.h1.family}
    if grid is None and families == {Family.GAUSSIAN}:
        method, solve, args = RootMethod.GAUSSIAN_QUADRATIC, _gaussian_solve, (thetas,)
    elif grid is None and families == {Family.EXPONENTIAL}:
        method, solve, args = RootMethod.EXPONENTIAL_LINEAR, _exponential_solve, (thetas,)
    else:
        grid = DEFAULT_GRID if grid is None else grid
        if grid < 2:
            raise InvalidParameterError(f"grid resolution must be >= 2, got {grid}")
        method, solve, args = RootMethod.GRID_BISECTION, _grid_solve, (interval, grid)
        if thetas is not None:  # one grid solve, and one residual check, per row
            rows = [_ml_solve_many(p, [eta], interval, grid) for p, eta in zip(pairs, etas)]
            roots, h0_first, warnings, residuals = ([row[k][0] for row in rows] for k in range(2, 6))
            return method, etas, roots, h0_first, warnings, residuals
    if pair.p0 in (0.0, 1.0):  # one hypothesis left: a single region at any threshold
        roots, h0_first, warnings = [()] * len(etas), [pair.p0 == 1.0] * len(etas), [()] * len(etas)
    else:
        roots, h0_first, warnings = solve(pair, etas, *args)
    return method, etas, roots, h0_first, warnings, _check_residuals(pair, etas, roots, thetas)


def _ml_boundaries_many(
    pair: HypothesisPair, etas, interval: tuple[float, float] | None = None, grid: int | None = None
) -> tuple[LikelihoodRootReport, ...]:
    """``ml_boundaries`` at every threshold of ``etas``, with the same
    reports, for every family: the reports of one ``_ml_solve_many`` call."""
    method, etas, roots, h0_first, warnings, residuals = _ml_solve_many(pair, etas, interval, grid)
    return tuple(
        LikelihoodRootReport(rs, method, Orientation.H0_FIRST if h0 else Orientation.H1_FIRST, res, eta, w)
        for eta, rs, h0, w, res in zip(etas, roots, h0_first, warnings, residuals)
    )


def ml_boundaries(pair: HypothesisPair, eta: float = 1.0) -> LikelihoodRootReport:
    """Closed form for Gaussian and exponential pairs, over the whole
    support; grid scan on the default interval and grid otherwise.  Use
    ``ml_boundaries_generic`` for another interval or grid."""
    return _ml_boundaries_many(pair, [eta])[0]


def _resolved(report: LikelihoodRootReport) -> LikelihoodRootReport:
    """``report``, a pair's unit-threshold ratio report, if it holds
    boundaries.  It is the maximum-accuracy classifier that the frontier and
    the assumption audit start from, so a ratio that never crosses 1 leaves
    them nothing to start from."""
    if not report.roots:
        raise UnresolvedClassifierError(
            "the unit-threshold classifier has no boundaries for this pair"
        )
    return report


@dataclass(frozen=True)
class LinearOptimum:
    y: float
    orientation: Orientation
    accuracy: float

    to_dict = plain


def optimal_linear_boundary(pair: HypothesisPair) -> LinearOptimum:
    """Best single-boundary classifier.

    Candidates are the unit-threshold ratio roots and the saturation points
    H* and L*, where one boundary makes a constant classifier whose accuracy
    is a prior.  Each is scored under both orientations and the most
    accurate wins, ties resolved toward the roots, then the smaller root,
    then H* (where the frontier puts its constant classifier), then
    H0-first.  A pair whose ratio has no root raises NoRootError.
    """
    report = ml_boundaries(pair, 1.0)
    if not report.roots:
        raise NoRootError("the unit-threshold ratio equation has no root for this pair")
    l_sat, h_sat = _saturation_points(pair, *default_search_interval(pair))
    # every candidate in both orientations, H0_FIRST first
    ys = np.repeat(report.roots + (h_sat, l_sat), 2)
    orients = (Orientation.H0_FIRST, Orientation.H1_FIRST) * (ys.size // 2)
    accs = _accuracies(pair, ys[None, :], np.arange(ys.size) % 2 == 0)
    best: LinearOptimum | None = None
    for y, orient, acc in zip(ys.tolist(), orients, accs.tolist()):
        if best is None or acc > best.accuracy + 1e-15:
            best = LinearOptimum(y, orient, acc)
    return best
