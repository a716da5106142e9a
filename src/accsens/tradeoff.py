"""Accuracy-sensitivity frontier tracing for three classifier families.

Three sweeps produce comparable curves for one hypothesis pair:

* ``ml_curve``    - threshold sweep of the likelihood-ratio classifier; for
  non-Gaussian pairs the roots of every threshold are bisected together
  (``_ml_boundaries_many``), and the solver warnings go to the metadata;
* ``linear_curve`` - sweep of a single boundary, best orientation per point,
  evaluated on the whole grid with one cdf and one gradient call per density;
* ``general_curve`` - for each accuracy level zeta, the boundary set of the
  requested size with the smallest sensitivity subject to accuracy == zeta.

The constrained minimum is nonconvex.  For two boundaries it is solved by an
exact, deterministic scan of the accuracy level set's one-dimensional
branches.  With the orientation fixed, accuracy separates as G(y1) - G(y2),
and G is monotone between consecutive unit-threshold ratio roots; so for each
grid value of one boundary the other has at most one solution per segment.
Every branch is bisected at every grid point at once, in both
parametrizations (grid in y1 solving y2, grid in y2 solving y1), sensitivity
is evaluated on all branch points, and the grid minima of all branches are
refined together by a zoom: each round samples every branch around its best
point, solves all the partners in one array bisection, and shrinks each
window to the neighbouring samples of the best one.  The grid reaches out to the saturation points where both
cdfs read exactly 0 and 1, so every single-boundary classifier and every
matched ratio classifier lies on a scanned branch: neither curve can undercut
the general one.  For more than two boundaries a multistart penalty simplex
search is used instead and the result is flagged best-effort.

Every point on a returned curve satisfies its accuracy target to 1e-6;
points whose refinement misses the target are dropped and counted in the
curve metadata, never silently interpolated.  Curve points are ordered by
accuracy; below-chance points are discarded (the swapped orientation covers
them).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy.optimize import brentq

from .boundary_solver import (
    _ml_boundaries_many,
    default_search_interval,
    ml_boundaries,
)
from .classifier import (
    Norm,
    Orientation,
    _check_accuracy_range,
    apply_norm,
    region_accuracy,
    region_accuracy_gradient,
)
from .densities import HypothesisPair
from .errors import (
    InfeasibleTargetError,
    InvalidParameterError,
    SolverFailureError,
    UnresolvedClassifierError,
)

ACCURACY_TOL = 1e-6
RESTORE_XTOL = 1e-13
DEFAULT_ETA_GRID = (1e-3, 1e3, 400)
DEFAULT_Y_POINTS = 2001
DEFAULT_ZETA_POINTS = 60
#: Doubling steps of the outward walk to the saturation points.
SATURATION_STEPS = 64
#: Branch zoom: samples per branch and round, and rounds.  Each round
#: shrinks the window by ZOOM_POINTS // 2, from the two grid cells beside the
#: grid minimum down to about 1e-9 of a cell.
ZOOM_POINTS = 65
ZOOM_ROUNDS = 6


@dataclass(frozen=True)
class TradeoffPoint:
    accuracy: float
    sensitivity: float
    boundaries: tuple[float, ...]
    orientation: Orientation
    kind: str  # "ml" | "linear" | "constrained"
    parameter: float  # eta, y, or zeta

    @property
    def provenance(self) -> str:
        name = {"ml": "eta", "linear": "y", "constrained": "zeta"}[self.kind]
        return f"{self.kind}:{name}={self.parameter!r}"

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "sensitivity": self.sensitivity,
            "boundaries": list(self.boundaries),
            "orientation": self.orientation.value,
            "kind": self.kind,
            "parameter": self.parameter,
        }


@dataclass(frozen=True)
class TradeoffCurve:
    points: tuple[TradeoffPoint, ...]
    norm: Norm
    kind: str
    pair_digest: str
    metadata: dict = field(default_factory=dict)

    @property
    def accuracies(self) -> np.ndarray:
        return np.asarray([p.accuracy for p in self.points])

    @property
    def sensitivities(self) -> np.ndarray:
        return np.asarray([p.sensitivity for p in self.points])

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "norm": self.norm.value,
            "pair_digest": self.pair_digest,
            "metadata": self.metadata,
            "points": [p.to_dict() for p in self.points],
        }

    def to_csv_text(self) -> str:
        n = max((len(p.boundaries) for p in self.points), default=0)
        header = ["accuracy", "sensitivity"] + [f"y{i + 1}" for i in range(n)] + ["provenance"]
        lines = [",".join(header)]
        for p in self.points:
            cells = [repr(float(p.accuracy)), repr(float(p.sensitivity))]
            cells += [repr(float(b)) for b in p.boundaries]
            cells += [""] * (n - len(p.boundaries))
            cells.append(p.provenance)
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


def _assemble(
    points: list[TradeoffPoint],
    norm: Norm,
    kind: str,
    pair: HypothesisPair,
    metadata: dict,
) -> TradeoffCurve:
    """Order by accuracy, drop below-chance points, collapse exact accuracy
    ties to the lowest sensitivity, keep a single boundary count."""
    kept = [p for p in points if p.accuracy >= 0.5]
    metadata = dict(metadata)
    metadata["dropped_below_chance"] = len(points) - len(kept)
    if kept:
        counts = {}
        for p in kept:
            counts[len(p.boundaries)] = counts.get(len(p.boundaries), 0) + 1
        modal = max(sorted(counts), key=lambda k: counts[k])
        metadata["dropped_boundary_count"] = sum(
            1 for p in kept if len(p.boundaries) != modal
        )
        kept = [p for p in kept if len(p.boundaries) == modal]
    kept.sort(key=lambda p: (p.accuracy, p.sensitivity))
    collapsed: list[TradeoffPoint] = []
    for p in kept:
        if collapsed and abs(p.accuracy - collapsed[-1].accuracy) <= 1e-13:
            continue  # same accuracy: the sort already put the lower sensitivity first
        collapsed.append(p)
    metadata["collapsed_ties"] = len(kept) - len(collapsed)
    return TradeoffCurve(tuple(collapsed), norm, kind, pair.digest(), metadata)


def default_eta_grid() -> np.ndarray:
    lo, hi, n = DEFAULT_ETA_GRID
    return np.unique(np.append(np.geomspace(lo, hi, n), 1.0))


def ml_curve(
    pair: HypothesisPair, eta_grid: np.ndarray | None = None, norm: Norm = Norm.INF
) -> TradeoffCurve:
    """Accuracy/sensitivity locus of the ratio classifier over a threshold grid.

    Thresholds the ratio never crosses yield single-region classifiers with
    no representable boundary set; those grid points are dropped and counted.
    """
    grid = default_eta_grid() if eta_grid is None else np.asarray(eta_grid, dtype=float)
    if grid.size == 0:
        raise InvalidParameterError("eta grid is empty")
    if np.any(grid <= 0):
        raise InvalidParameterError("eta grid must be positive")
    points: list[TradeoffPoint] = []
    degenerate = 0
    reports = _ml_boundaries_many(pair, grid)
    for report in reports:
        if not report.roots:
            degenerate += 1
            continue
        grad = region_accuracy_gradient(pair, report.roots, report.orientation)
        points.append(
            TradeoffPoint(
                region_accuracy(pair, report.roots, report.orientation),
                apply_norm(grad, norm),
                report.roots,
                report.orientation,
                "ml",
                report.eta,
            )
        )
    metadata = {"eta_points": int(grid.size), "degenerate_etas": degenerate}
    warnings = list(dict.fromkeys(w for report in reports for w in report.warnings))
    if warnings:
        metadata["warnings"] = warnings
    return _assemble(points, norm, "ml", pair, metadata)


def default_y_grid(pair: HypothesisPair, n: int = DEFAULT_Y_POINTS) -> np.ndarray:
    lo, hi = default_search_interval(pair)
    grid = np.linspace(lo, hi, n)
    report = ml_boundaries(pair, 1.0)
    if report.roots:
        grid = np.unique(np.append(grid, report.roots))
    return grid


def linear_curve(
    pair: HypothesisPair, y_grid: np.ndarray | None = None, norm: Norm = Norm.INF
) -> TradeoffCurve:
    """Single-boundary sweep; for each position the orientation with accuracy
    at or above chance is kept."""
    grid = default_y_grid(pair) if y_grid is None else np.asarray(y_grid, dtype=float)
    if grid.size == 0:
        raise InvalidParameterError("boundary grid is empty")
    # region_accuracy(pair, (y,), orientation) on the whole grid, in its operation order
    f0, f1 = np.asarray(pair.h0.cdf(grid)), np.asarray(pair.h1.cdf(grid))
    acc0 = pair.p0 * f0 + pair.p1 * (1.0 - f1)
    _check_accuracy_range(acc0.tolist())
    h0_first = acc0 >= 0.5
    acc = np.where(h0_first, acc0, pair.p0 * (1.0 - f0) + pair.p1 * f1)
    # the cdf gradients vanish at +inf, so the pair (y, inf) has the gradient of (y,)
    sens = _sens_many(pair, grid, np.full_like(grid, np.inf), norm)
    points = [
        TradeoffPoint(a, s, (y,), Orientation.H0_FIRST if first else Orientation.H1_FIRST, "linear", y)
        for a, s, y, first in zip(acc.tolist(), sens.tolist(), grid.tolist(), h0_first.tolist())
    ]
    return _assemble(points, norm, "linear", pair, {"y_points": int(grid.size)})


# ---- constrained minimum for two boundaries ----
#
# For a fixed orientation the two-boundary accuracy separates:
#
#     acc(y1, y2) = base + s (G(y1) - G(y2)),    G(y) = p0 F0(y) - p1 F1(y),
#
# with s = +1, base = p0 for H0_FIRST and s = -1, base = p1 for H1_FIRST.
# G' = p0 f0 - p1 f1 changes sign only at the unit-threshold ratio roots, so G
# is monotone between consecutive roots: for a fixed partner, the level set
# G(y1) - G(y2) = d has at most one point per such segment.  Sensitivity is
# the norm of the parameter gradient, which the orientation only negates.


def _gap(pair: HypothesisPair, y: np.ndarray) -> np.ndarray:
    """G(y) = p0 F0(y) - p1 F1(y) on an array, one cdf call per density."""
    return pair.p0 * np.asarray(pair.h0.cdf(y)) - pair.p1 * np.asarray(pair.h1.cdf(y))


def _sens_many(pair: HypothesisPair, y1: np.ndarray, y2: np.ndarray, norm: Norm) -> np.ndarray:
    """Sensitivity of the boundary pairs (y1, y2), either orientation."""
    g0 = np.atleast_2d(pair.h0.grad_cdf_params(y1)) - np.atleast_2d(pair.h0.grad_cdf_params(y2))
    g1 = np.atleast_2d(pair.h1.grad_cdf_params(y1)) - np.atleast_2d(pair.h1.grad_cdf_params(y2))
    grad = np.concatenate([pair.p0 * g0, pair.p1 * g1], axis=0)
    if norm is Norm.INF:
        return np.max(np.abs(grad), axis=0)
    return np.sqrt(np.sum(grad * grad, axis=0))


def _saturation_points(pair: HypothesisPair, lo: float, hi: float) -> tuple[float, float]:
    """(L*, H*) outside [lo, hi] where both cdfs read exactly 0 and exactly 1.

    The walk doubles its step outward from the interval and stops at a finite
    support edge.  A boundary pinned there adds no mass, so the pairs (y, H*)
    and (L*, y) are the single-boundary classifiers of both orientations.
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


def _bisect_level(pair, lo, hi, g_lo, g_hi, target, scale):
    """Solve G(x) = target on every bracket [lo, hi] at once, G monotone on each.

    The arguments broadcast together.  Every bracket takes the number of
    halvings that brings the widest one below 2 eps * scale.  NaN where the
    bracket is empty or G does not cross the target on it.
    """
    lo, hi, g_lo, g_hi, target = np.broadcast_arrays(lo, hi, g_lo, g_hi, target)
    ok = (lo < hi) & ((g_lo - target) * (g_hi - target) <= 0.0)
    a, b, rising, level = lo[ok], hi[ok], g_hi[ok] >= g_lo[ok], target[ok]
    tol = 2.0 * np.finfo(float).eps * scale
    width = float(np.max(b - a, initial=0.0))
    for _ in range(math.ceil(math.log2(width / tol)) if width > tol else 0):
        mid = 0.5 * (a + b)
        right = (_gap(pair, mid) < level) == rising  # the root lies right of mid
        a = np.where(right, mid, a)
        b = np.where(right, b, mid)
    x = np.full(ok.shape, np.nan)
    x[ok] = 0.5 * (a + b)
    return x


def _level_set(pair, d, scale, norm, fixed, side, seg_lo, seg_hi):
    """Level-set points G(y1) - G(y2) = d with one boundary fixed.

    Side 0 fixes y1 and solves y2 >= y1, side 1 fixes y2 and solves y1 <= y2,
    on the segment [seg_lo, seg_hi] of G.  The array arguments broadcast
    together; G is evaluated on them unbroadcast, so the bracket check costs
    one evaluation per fixed value and per segment end.
    Returns y1, y2 and the sensitivity, which reads inf where the segment
    holds no level-set point.
    """
    g = _gap(pair, fixed)
    first = side == 0
    lo = np.where(first, np.maximum(fixed, seg_lo), seg_lo)
    hi = np.where(first, seg_hi, np.minimum(fixed, seg_hi))
    g_lo = np.where(first & (fixed > seg_lo), g, _gap(pair, seg_lo))
    g_hi = np.where(~first & (fixed < seg_hi), g, _gap(pair, seg_hi))
    x = _bisect_level(pair, lo, hi, g_lo, g_hi, g + np.where(first, -d, d), scale)
    y1, y2 = np.where(first, fixed, x), np.where(first, x, fixed)
    ok = ~np.isnan(x)
    s = np.full(x.shape, math.inf)
    s[ok] = _sens_many(pair, y1[ok], y2[ok], norm)
    return y1, y2, s


def _runs(mask: np.ndarray) -> list[tuple[int, int]]:
    """Half-open index ranges of the consecutive True entries."""
    edges = np.diff(np.concatenate(([0], mask.astype(np.int8), [0])))
    return list(zip(np.nonzero(edges == 1)[0].tolist(), np.nonzero(edges == -1)[0].tolist()))


def _zoom(solve, ys, i, side, seg_lo, seg_hi):
    """Refine the branch minima found at the grid points ys[i], all at once.

    Each round samples every branch at ZOOM_POINTS values of its fixed
    boundary, offset 0 at the current best point and each half spanning its
    own window side (the grid is not uniform where ratio roots are inserted).
    The window starts at the neighbouring grid points and then shrinks to the
    neighbouring samples of the best one.  A sample whose partner leaves the
    segment reads inf, so a branch that ends inside a cell is refined up to
    its end.  Returns the sensitivity, y1 and y2 of each branch's best sample.
    """
    lo_end = ys[np.maximum(i - 1, 0)][:, None]
    hi_end = ys[np.minimum(i + 1, ys.size - 1)][:, None]
    centre = ys[i][:, None]
    below, above = centre - lo_end, hi_end - centre
    u = np.linspace(-1.0, 1.0, ZOOM_POINTS)
    half = ZOOM_POINTS // 2
    for _ in range(ZOOM_ROUNDS):
        fixed = np.clip(centre + u * np.where(u < 0.0, below, above), lo_end, hi_end)
        y1, y2, s = solve(fixed, side[:, None], seg_lo[:, None], seg_hi[:, None])
        j = np.argmin(s, axis=1, keepdims=True)
        centre = np.take_along_axis(fixed, j, axis=1)
        # the sample spacings on either side of the best sample
        below, above = (
            np.where(j <= half, below, above) / half,
            np.where(j >= half, above, below) / half,
        )
    return tuple(np.take_along_axis(v, j, axis=1)[:, 0] for v in (s, y1, y2))


def constrained_min_sensitivity(
    pair: HypothesisPair, zeta: float, norm: Norm = Norm.INF
) -> TradeoffPoint:
    """Minimum-sensitivity two-boundary classifier with accuracy == zeta.

    The level set is solved on every branch at every grid point, in both
    parametrizations (each misses the points where its branches turn
    vertical); the grid minima of all branches are refined together by a
    shrinking-window zoom, and the better of grid point and zoom is kept.
    """
    base = ml_boundaries(pair, 1.0)
    if not base.roots:
        raise UnresolvedClassifierError("no maximum-accuracy boundaries for this pair")
    orientation = base.orientation
    acc_max = region_accuracy(pair, base.roots, orientation)
    if zeta > acc_max + 1e-9:
        raise InfeasibleTargetError(
            f"accuracy target {zeta!r} exceeds the attainable maximum {acc_max!r}"
        )
    lo, hi = default_search_interval(pair)
    l_sat, h_sat = _saturation_points(pair, lo, hi)

    def point(y1: float, y2: float) -> TradeoffPoint:
        bounds = (float(y1), float(y2))
        acc = region_accuracy(pair, bounds, orientation)
        if abs(acc - zeta) > ACCURACY_TOL:
            raise SolverFailureError(
                f"refined point misses accuracy target: |{acc!r} - {zeta!r}| > {ACCURACY_TOL}"
            )
        sens = apply_norm(region_accuracy_gradient(pair, bounds, orientation), norm)
        return TradeoffPoint(acc, sens, bounds, orientation, "constrained", zeta)

    # Saturated targets have exact closed answers: at or above the maximum
    # accuracy (within the feasibility slack), the maximum-accuracy point
    # itself (a single root keeps its orientation with its partner at H*);
    # at the single-region accuracy, a coincident pair whose gradient cancels
    # identically.  Just below the maximum the level set is a small loop whose
    # minimum moves like the square root of the accuracy gap, so those
    # targets are solved.
    if len(base.roots) <= 2 and zeta >= acc_max:
        return point(*base.roots) if len(base.roots) == 2 else point(base.roots[0], h_sat)
    degenerate_acc = pair.p0 if orientation is Orientation.H0_FIRST else pair.p1
    if abs(zeta - degenerate_acc) <= 1e-12:
        mid = 0.5 * (lo + hi)
        return TradeoffPoint(
            degenerate_acc, 0.0, (mid, mid), orientation, "constrained", zeta
        )

    grid = default_y_grid(pair)
    ys = np.unique(np.concatenate([grid[(grid > l_sat) & (grid < h_sat)], [l_sat, h_sat]]))
    cuts = np.searchsorted(ys, [l_sat, *(r for r in base.roots if l_sat < r < h_sat), h_sat])
    d = (zeta - degenerate_acc) * (1.0 if orientation is Orientation.H0_FIRST else -1.0)
    solve = partial(_level_set, pair, d, hi - lo, norm)
    # shape (side, grid point, segment)
    y1, y2, s = solve(ys[:, None], np.arange(2)[:, None, None], ys[cuts[:-1]], ys[cuts[1:]])
    found = np.isfinite(s)
    if not found.any():
        raise SolverFailureError(f"no point of the accuracy level set found for target {zeta!r}")
    minima = [
        (side, start + int(np.argmin(s[side, start:stop, k])), k)
        for side in range(2)
        for k in range(cuts.size - 1)
        for start, stop in _runs(found[side, :, k])
    ]
    side, i, k = np.asarray(minima).T
    grid_minima = (s[side, i, k], y1[side, i, k], y2[side, i, k])
    zoomed = _zoom(solve, ys, i, side, ys[cuts[k]], ys[cuts[k + 1]])
    sens, b1, b2 = (np.concatenate(c) for c in zip(grid_minima, zoomed))
    best = int(np.argmin(sens))
    return point(b1[best], b2[best])


def _penalty_min_sensitivity(
    pair: HypothesisPair,
    zeta: float,
    n_boundaries: int,
    norm: Norm,
    restarts: int = 20,
    seed: int = 0,
) -> TradeoffPoint | None:
    """Multistart penalty simplex search for n > 2 boundaries (best effort)."""
    from scipy.optimize import minimize

    base = ml_boundaries(pair, 1.0)
    if not base.roots:
        raise UnresolvedClassifierError("no maximum-accuracy boundaries for this pair")
    orientation = base.orientation
    lo, hi = default_search_interval(pair)
    rng = np.random.default_rng(seed)
    span = hi - lo
    base_y = np.asarray(base.roots)
    starts = []
    for _ in range(restarts):
        fill = rng.uniform(lo, hi, size=n_boundaries)
        fill[: min(n_boundaries, base_y.size)] = base_y[: min(n_boundaries, base_y.size)]
        starts.append(np.sort(fill + rng.normal(0.0, 0.02 * span, size=n_boundaries)))

    def objective(y: np.ndarray, rho: float) -> float:
        ys = np.sort(np.clip(y, lo, hi))
        acc = region_accuracy(pair, ys, orientation)
        grad = region_accuracy_gradient(pair, ys, orientation)
        return apply_norm(grad, norm) + rho * (acc - zeta) ** 2

    best = None
    for y0 in starts:
        y = y0
        for rho in (1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8):
            res = minimize(
                objective, y, args=(rho,), method="Nelder-Mead",
                options={"maxiter": 200 * n_boundaries, "xatol": 1e-10, "fatol": 1e-12},
            )
            y = res.x
        ys = np.sort(np.clip(y, lo, hi))
        # one-dimensional restoration on the most accuracy-sensitive boundary
        from .classifier import region_accuracy_boundary_gradient

        slopes = region_accuracy_boundary_gradient(pair, ys, orientation)
        k = int(np.argmax(np.abs(slopes)))

        def gap(t: float) -> float:
            trial = ys.copy()
            trial[k] = t
            return region_accuracy(pair, np.sort(trial), orientation) - zeta

        t_lo = ys[k - 1] if k > 0 else lo
        t_hi = ys[k + 1] if k + 1 < ys.size else hi
        try:
            g_lo, g_hi = gap(t_lo), gap(t_hi)
            if g_lo * g_hi < 0:
                ys[k] = brentq(gap, t_lo, t_hi, xtol=RESTORE_XTOL)
                ys = np.sort(ys)
        except ValueError:
            pass
        acc = region_accuracy(pair, ys, orientation)
        if abs(acc - zeta) > ACCURACY_TOL:
            continue
        s = apply_norm(region_accuracy_gradient(pair, ys, orientation), norm)
        if best is None or s < best.sensitivity:
            best = TradeoffPoint(
                float(acc), float(s), tuple(float(y) for y in ys), orientation, "constrained", zeta
            )
    return best


def general_curve(
    pair: HypothesisPair,
    zeta_grid: np.ndarray | None = None,
    n_boundaries: int = 2,
    norm: Norm = Norm.INF,
) -> TradeoffCurve:
    """Fundamental frontier: minimum sensitivity at each accuracy target."""
    if n_boundaries < 1:
        raise InvalidParameterError(f"n_boundaries must be >= 1, got {n_boundaries}")
    base = ml_boundaries(pair, 1.0)
    if not base.roots:
        raise UnresolvedClassifierError("no maximum-accuracy boundaries for this pair")
    acc_max = region_accuracy(pair, base.roots, base.orientation)
    if zeta_grid is None:
        zeta_grid = np.linspace(0.5, acc_max, DEFAULT_ZETA_POINTS)
    zeta_grid = np.asarray(zeta_grid, dtype=float)
    if zeta_grid.size == 0:
        raise InvalidParameterError("zeta grid is empty")

    metadata = {
        "zeta_points": int(zeta_grid.size),
        "n_boundaries": n_boundaries,
        "failed_zetas": [],
    }
    points: list[TradeoffPoint] = []
    if n_boundaries == 2:
        for zeta in sorted(zeta_grid, reverse=True):
            try:
                pt = constrained_min_sensitivity(pair, float(zeta), norm)
            except (SolverFailureError, InfeasibleTargetError) as exc:
                metadata["failed_zetas"].append({"zeta": float(zeta), "error": str(exc)})
                continue
            points.append(pt)
    else:
        metadata["best_effort"] = True
        for zeta in sorted(zeta_grid, reverse=True):
            pt = _penalty_min_sensitivity(pair, float(zeta), n_boundaries, norm)
            if pt is None:
                metadata["failed_zetas"].append({"zeta": float(zeta), "error": "infeasible"})
                continue
            points.append(pt)
    return _assemble(points, norm, "general", pair, metadata)
