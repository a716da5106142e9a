"""Decision-boundary computation for likelihood-ratio classifiers.

The boundaries of the ratio classifier at threshold eta are the roots of

    p1 * f1(x) - eta * p0 * f0(x) = 0.

For a pair of Gaussians this reduces to a quadratic, solved in closed form
in the pair's shape coordinates by one array function (``_gaussian_roots``),
which also serves the design solver.  For arbitrary families the equation is
scanned on a grid in the log domain (underflow-proof) and every bracketed
sign change is refined by bisection.  ``_ml_boundaries_many`` solves many
thresholds at once: in one closed-form call, or by bisecting all their sign
changes together with the same steps.

Tangential (double) roots are excluded: they bound regions of zero measure,
change no probability, and destabilize downstream derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import islice

import numpy as np

from .classifier import BoundarySet, Orientation, _accuracies
from .densities import Family, HypothesisPair
from .errors import EmptyIntervalError, InvalidParameterError, NoRootError

#: Relative residual bound every reported root must satisfy.
RESIDUAL_RTOL = 1e-10
_RESIDUAL_FLOOR = 1e-300

DEFAULT_GRID = 4096
SCALE_SPAN = 8.0
BISECTION_WIDTH = 1e-12
BISECTION_STEPS = 200


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


def _check_residuals(pair, etas, roots) -> list[tuple[float, ...]]:
    """|p1 f1(r) - eta p0 f0(r)| at the roots ``roots[k]`` of every ``etas[k]``,
    one pdf call (and, where a root needs it, one pdf_dx call) per density,
    checked against RESIDUAL_RTOL of the larger weighted density or, where
    larger and finite, the defect's change over one ulp of the root.  A jump
    of the ratio at a support edge, a NaN root and a density past the float
    range are refused."""
    x = np.asarray([r for rs in roots for r in rs], dtype=float)
    eta = np.repeat(np.asarray(etas, dtype=float), [len(rs) for rs in roots])
    f0, f1 = np.asarray(pair.h0.pdf(x)), np.asarray(pair.h1.pdf(x))
    with np.errstate(all="ignore"):
        res = np.abs(pair.p1 * f1 - eta * pair.p0 * f0)
        bound = RESIDUAL_RTOL * np.maximum(np.maximum(pair.p0 * f0, pair.p1 * f1), _RESIDUAL_FLOOR)
        bad = ~((res <= bound) & (bound < math.inf))
        if bad.any():  # the slopes, needed only here; one past the float range does not count
            df0, df1 = np.asarray(pair.h0.pdf_dx(x)), np.asarray(pair.h1.pdf_dx(x))
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
    root), at every log_k of an array.

    ``_gaussian_roots`` solves the shape d = (mu1 - mu0) / sig0,
    r = sig1 / sig0, on float64 so that no shape or root raises on
    overflow, and each root is mapped back as mu0 + sig0 y.  Where a square
    of the shape would leave the float range an equivalent shape is solved:
    in the narrower width's units for a ratio below 2^-500, with the ratio
    taken as 2^500 and d / r kept above it (a stays 1/2, the logarithm comes
    from the widths), and for y / s with s a power of two near max(|d|, |d|
    / r), which keeps the roots of a shape in range to the bit.  A root
    below the float range is dropped: H0 then wins left of the first root
    kept where it wins inside the pair.
    """
    with np.errstate(all="ignore"):
        mu0, sig0, mu1, sig1 = map(np.float64, (mu0, sig0, mu1, sig1))
        big = 2.0**500  # squares of shapes past it leave the float range
        swap = bool(sig1 < sig0 / big)
        if swap:
            mu0, sig0, mu1, sig1, log_k = mu1, sig1, mu0, sig0, -np.asarray(log_k)
        r, d = sig1 / sig0, (mu1 - mu0) / sig0
        level = log_k - (np.log(r) if r < np.inf else np.log(sig1) - np.log(sig0))
        if r > big:
            r, d = big, (mu1 - mu0) / sig1 * big
        s = np.ldexp(1.0, max(np.frexp(abs(d) / min(r, 1.0))[1] - 1, 0))
        lo, hi, h0_outside = _gaussian_roots(d / s, r, level / (s * s))
        lo, hi = mu0 + sig0 * s * lo, mu0 + sig0 * s * hi
        if swap:
            h0_outside = ~h0_outside
    below_lo, below_hi = lo == -np.inf, hi == -np.inf
    return (
        np.where(below_lo, np.where(below_hi, np.inf, hi), lo),
        np.where(below_lo, np.inf, hi),
        h0_outside != (below_lo != below_hi),
    )


def _log_k(pair: HypothesisPair, eta: float) -> float:
    return math.log(pair.p1 / pair.p0) - math.log(eta)


def gaussian_quadratic_coefficients(
    pair: HypothesisPair, eta: float
) -> tuple[float, float, float]:
    """Coefficients (a, b, c) of the quadratic a x^2 + b x + c, the log ratio
    gap of a Gaussian pair, whose roots are the boundaries."""
    (mu0, sig0), (mu1, sig1) = pair.h0.params, pair.h1.params
    a = 0.5 * (1.0 / (sig0 * sig0) - 1.0 / (sig1 * sig1))
    b = mu1 / (sig1 * sig1) - mu0 / (sig0 * sig0)
    c = (
        math.log(sig0 / sig1)
        + _log_k(pair, eta)
        + mu0 * mu0 / (2.0 * (sig0 * sig0))
        - mu1 * mu1 / (2.0 * (sig1 * sig1))
    )
    return a, b, c


def _prior_only_report(pair: HypothesisPair, eta: float, method: RootMethod) -> LikelihoodRootReport:
    """A zero prior leaves one hypothesis: a single region at any threshold."""
    orient = Orientation.H1_FIRST if pair.p0 == 0.0 else Orientation.H0_FIRST
    return LikelihoodRootReport((), method, orient, (), eta)


def _check_etas(etas) -> list[float]:
    etas = [float(eta) for eta in etas]
    for eta in etas:
        if not eta > 0:
            raise InvalidParameterError(f"eta must be > 0, got {eta}")
    return etas


def _gaussian_solve(pair: HypothesisPair, etas) -> tuple[LikelihoodRootReport, ...]:
    """Closed-form reports at every threshold of ``etas``, from one call of
    ``_gaussian_pair_roots`` on the array of their log_k."""
    etas = _check_etas(etas)
    if pair.p0 in (0.0, 1.0):
        return tuple(_prior_only_report(pair, eta, RootMethod.GAUSSIAN_QUADRATIC) for eta in etas)
    log_k = np.asarray([_log_k(pair, eta) for eta in etas])
    lo, hi, h0_first = _gaussian_pair_roots(*pair.h0.params, *pair.h1.params, log_k)
    roots = [tuple(y for y in ends if y != math.inf) for ends in zip(lo.tolist(), hi.tolist())]
    orients = [Orientation.H0_FIRST if h0 else Orientation.H1_FIRST for h0 in h0_first.tolist()]
    return tuple(
        LikelihoodRootReport(rs, RootMethod.GAUSSIAN_QUADRATIC, orient, res, eta)
        for eta, rs, orient, res in zip(etas, roots, orients, _check_residuals(pair, etas, roots))
    )


def ml_boundaries_gaussian(pair: HypothesisPair, eta: float = 1.0) -> LikelihoodRootReport:
    """Closed-form boundaries for a Gaussian pair (see ``_gaussian_roots``)."""
    if pair.h0.family is not Family.GAUSSIAN or pair.h1.family is not Family.GAUSSIAN:
        raise InvalidParameterError("ml_boundaries_gaussian requires two Gaussian models")
    return _gaussian_solve(pair, [eta])[0]


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


def _grid_report(eta: float, scan: _GridScan, roots, residuals) -> LikelihoodRootReport:
    """Report of one scanned threshold from its sorted roots and their residuals."""
    warnings: list[str] = []
    if len(roots) % 2 != (1 if scan.ends_differ else 0):
        warnings.append(
            "root count parity disagrees with the interval end signs; "
            "the grid may be too coarse for this pair"
        )
    orient = Orientation.H0_FIRST if scan.first_sign < 0 else Orientation.H1_FIRST
    return LikelihoodRootReport(
        roots, RootMethod.GRID_BISECTION, orient, residuals, eta, tuple(warnings)
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
    etas = _check_etas(etas)
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

    bisected = iter(_bisect(gap, lo, hi, 0.0, f_lo < 0, BISECTION_WIDTH, bracket_log_eta).tolist())
    roots = [
        () if scan is None else tuple(sorted([*islice(bisected, scan.lo.size), *scan.hits]))
        for scan in scans
    ]
    return tuple(
        _undefined_report(eta) if scan is None else _grid_report(eta, scan, rs, res)
        for eta, scan, rs, res in zip(etas, scans, roots, _check_residuals(pair, etas, roots))
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
    one closed-form call for a Gaussian pair, one grid solve otherwise."""
    if pair.h0.family is Family.GAUSSIAN and pair.h1.family is Family.GAUSSIAN:
        return _gaussian_solve(pair, etas)
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
    # every root in both orientations, H0_FIRST first
    ys = np.repeat(report.roots, 2)
    orients = (Orientation.H0_FIRST, Orientation.H1_FIRST) * len(report.roots)
    accs = _accuracies(pair, ys[None, :], np.arange(ys.size) % 2 == 0)
    best: LinearOptimum | None = None
    for y, orient, acc in zip(ys.tolist(), orients, accs.tolist()):
        if best is None or acc > best.accuracy + 1e-15:
            best = LinearOptimum(y, orient, acc)
    return best
