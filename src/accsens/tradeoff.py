"""Accuracy-sensitivity frontier tracing for three classifier families.

Three sweeps produce comparable curves for one hypothesis pair:

* ``ml_curve``    - threshold sweep of the likelihood-ratio classifier; the
  roots of every threshold come from one call (``_ml_boundaries_many``), the
  classifiers are evaluated with one array call per root count, and the
  solver warnings go to the metadata;
* ``linear_curve`` - sweep of a single boundary, best orientation per point,
  both orientations of the whole grid evaluated in one array call;
* ``general_curve`` - for each accuracy level zeta, the boundary set of the
  requested size with the smallest sensitivity subject to accuracy == zeta;
  all targets are solved in one call of the solver behind
  ``constrained_min_sensitivity``, which is its one-target case.

The constrained minimum is nonconvex.  For 1, 2 or 3 boundaries in the
orientation of the maximum-accuracy classifier it is found by a deterministic
scan of the accuracy level set (see ``constrained_min_sensitivity``): with all
boundaries but one fixed on a grid, the free one is bisected on each segment
where the accuracy is monotone in it, by the array bisection that also solves
the ratio roots (``boundary_solver._bisect``), and the grid minima are refined
together by an array zoom.  A curve makes the pair's set-up (ratio roots,
saturation points, top accuracy, grid and G = p0 F0 - p1 F1 on the grid)
once, scans each target on its own, refines the minima of every target
in one zoom and evaluates every target's point in one call.  Every bisection starts from a bracket already known and halves
it to its own width: in the scan the grid cell where G crosses the level,
found by a search of G on the grid; in a zoom round after the first, the
free boundaries of the last round's samples around the new window.  A
bracket that misses falls back to the whole segment, so no level-set point
is lost.  The scan only ranks grid points for the zoom, which solves the
grid point itself again, so it stops at a ranking tolerance (SCAN_RTOL); one
boundary has no zoom and is scanned to full precision.  The grid
reaches out to the saturation points where both cdfs read exactly 0 and 1, so
every single-boundary classifier and every matched ratio classifier lies on a
scanned two-boundary branch: neither curve can undercut the two-boundary one,
and the three-boundary minimum, which takes the two-boundary one as a
candidate, never lies above it.

The default targets (``default_zeta_grid``) end at the best accuracy the
boundary count reaches in that orientation: the ratio classifier's, or for
one boundary against two or more ratio roots, the best of a single root
and the two saturation points (where the accuracy is a prior).

Every point on a returned curve satisfies its accuracy target to 1e-6;
points whose refinement misses the target are dropped and counted in the
curve metadata, never silently interpolated.  Curve points are ordered by
accuracy; below-chance points are discarded (the swapped orientation covers
them), a frontier point by its target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .boundary_solver import (
    _bisect,
    _ml_boundaries_many,
    default_search_interval,
    ml_boundaries,
)
from .classifier import (
    Norm,
    Orientation,
    _accuracies,
    _evaluate,
    _gap,
    _gradients,
    _norms,
    region_accuracy,
)
from .densities import HypothesisPair
from .errors import (
    InfeasibleTargetError,
    InvalidParameterError,
    SolverFailureError,
    UnresolvedClassifierError,
)

ACCURACY_TOL = 1e-6
DEFAULT_ETA_GRID = (1e-3, 1e3, 400)
DEFAULT_Y_POINTS = 2001
DEFAULT_ZETA_POINTS = 60
#: Doubling steps of the outward walk to the saturation points.
SATURATION_STEPS = 64
#: Branch zoom, by the number of fixed boundaries: samples per fixed
#: boundary, sample spacings kept on either side of the best sample, rounds.
#: One fixed boundary: each round shrinks the window by a factor 32, from the
#: two grid cells beside the grid minimum down to about 1e-9 of a cell.  Two:
#: a factor 8/3 per round, down to about 2e-11 of a cell; a window of one
#: spacing either side loses the inf-norm minima that lie on a ridge where two
#: gradient components tie and the ridge crosses the sample grid diagonally.
ZOOM = {1: (65, 1, 6), 2: (17, 3, 25)}
#: Three boundaries: the two fixed boundaries run over all sorted pairs of
#: every PAIR_STRIDE-th grid point.
PAIR_STRIDE = 8
#: Tolerance, relative to the search interval, of the level-set scan that a
#: zoom follows: the scan only picks the grid points to zoom, and the zoom
#: solves the grid point itself again to 2 eps.
SCAN_RTOL = 1e-9


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
    ties to the lowest sensitivity, keep a single boundary count.

    A constrained point is below chance when its target is: one that meets
    the target 0.5 may read an accuracy one rounding below it.
    """
    kept = [p for p in points if (p.parameter if p.kind == "constrained" else p.accuracy) >= 0.5]
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
    reports = _ml_boundaries_many(pair, grid)
    solved = [report for report in reports if report.roots]
    acc, sens = _evaluate(pair, [(r.roots, r.orientation) for r in solved], norm)
    points = [
        TradeoffPoint(a, s, r.roots, r.orientation, "ml", r.eta)
        for a, s, r in zip(acc.tolist(), sens.tolist(), solved)
    ]
    metadata = {"eta_points": int(grid.size), "degenerate_etas": len(reports) - len(solved)}
    warnings = list(dict.fromkeys(w for report in reports for w in report.warnings))
    if warnings:
        metadata["warnings"] = warnings
    return _assemble(points, norm, "ml", pair, metadata)


def _y_grid(lo: float, hi: float, roots: tuple[float, ...], n: int = DEFAULT_Y_POINTS) -> np.ndarray:
    """n points spanning [lo, hi] with the unit-threshold ratio roots inserted."""
    grid = np.linspace(lo, hi, n)
    if roots:
        grid = np.unique(np.append(grid, roots))
    return grid


def default_y_grid(pair: HypothesisPair, n: int = DEFAULT_Y_POINTS) -> np.ndarray:
    return _y_grid(*default_search_interval(pair), ml_boundaries(pair, 1.0).roots, n)


def linear_curve(
    pair: HypothesisPair, y_grid: np.ndarray | None = None, norm: Norm = Norm.INF
) -> TradeoffCurve:
    """Single-boundary sweep; for each position the orientation with accuracy
    at or above chance is kept."""
    grid = default_y_grid(pair) if y_grid is None else np.asarray(y_grid, dtype=float)
    if grid.size == 0:
        raise InvalidParameterError("boundary grid is empty")
    # both orientations of every boundary in one call
    both = _accuracies(pair, np.tile(grid, 2)[None, :], np.arange(2 * grid.size) < grid.size)
    h0_first = both[: grid.size] >= 0.5
    acc = np.where(h0_first, both[: grid.size], both[grid.size :])
    sens = _norms(_gradients(pair, grid[None, :], h0_first), norm)
    points = [
        TradeoffPoint(a, s, (y,), Orientation.H0_FIRST if first else Orientation.H1_FIRST, "linear", y)
        for a, s, y, first in zip(acc.tolist(), sens.tolist(), grid.tolist(), h0_first.tolist())
    ]
    return _assemble(points, norm, "linear", pair, {"y_points": int(grid.size)})


# ---- constrained minimum ----
#
# For a fixed orientation the accuracy of n boundaries is base + s (G(y_1) -
# G(y_2) + G(y_3) - ...) with G = p0 F0 - p1 F1 (see ``classifier``).
# G' = p0 f0 - p1 f1 changes sign only at the unit-threshold ratio roots, so
# G is monotone between consecutive roots: with all boundaries but one
# fixed, the level set has at most one point per such segment.  The
# orientation only negates the parameter gradient, so the level-set solves
# rank sensitivities in H0_FIRST.


def _saturation_points(pair: HypothesisPair, lo: float, hi: float) -> tuple[float, float]:
    """(L*, H*) outside [lo, hi] where both cdfs read exactly 0 and exactly 1.

    The walk doubles its step outward from the interval and stops at a finite
    support edge.  A boundary pinned there adds no mass, so the pairs (y, H*)
    and (L*, y) are the single-boundary classifiers of both orientations, and
    a boundary set followed by H* is the same classifier as the set alone.
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


def _bisect_level(pair, lo, hi, g_lo, g_hi, target, tol, near=None):
    """Solve G(x) = target on every bracket [lo, hi] at once, G monotone on each.

    The arguments broadcast together, and each bracket is bisected until it
    is narrower than ``tol``.  NaN where the bracket is empty or G does not
    cross the target on it.  ``near``, when given, is called with the
    targets of the brackets where G crosses and the mask ``ok`` of those
    brackets, and returns narrower brackets (lo', hi', G(lo'), G(hi'))
    expected to hold their roots; each is cut to its [lo, hi] and bisected
    where G crosses the target on it, the whole bracket elsewhere, so the
    brackets that yield a root are the same with or without ``near``.
    """
    lo, hi, g_lo, g_hi, target = np.broadcast_arrays(lo, hi, g_lo, g_hi, target)
    ok = (lo < hi) & ((g_lo - target) * (g_hi - target) <= 0.0)
    lo, hi, g_lo, g_hi, target = (v[ok] for v in (lo, hi, g_lo, g_hi, target))
    rising = g_hi >= g_lo
    if near is not None:
        n_lo, n_hi, gn_lo, gn_hi = near(target, ok)
        inside_lo, inside_hi = n_lo > lo, n_hi < hi
        n_lo, gn_lo = np.where(inside_lo, n_lo, lo), np.where(inside_lo, gn_lo, g_lo)
        n_hi, gn_hi = np.where(inside_hi, n_hi, hi), np.where(inside_hi, gn_hi, g_hi)
        narrow = (n_lo <= n_hi) & ((gn_lo - target) * (gn_hi - target) <= 0.0)
        lo, hi = np.where(narrow, n_lo, lo), np.where(narrow, n_hi, hi)
    x = np.full(ok.shape, np.nan)
    x[ok] = _bisect(partial(_gap, pair), lo, hi, target, rising, tol)
    return x


def _level_set(pair, d, tol, norm, fixed, free, seg_lo, seg_hi, near=None):
    """Level-set points G(y_1) - G(y_2) + G(y_3) - ... = d, one boundary free.

    ``fixed`` holds the other n - 1 boundaries in order; boundary ``free``
    (counted from 0) is solved to ``tol`` between its fixed neighbours on
    the segment [seg_lo, seg_hi] of G, from the narrower brackets of
    ``near`` where they hold the point (see ``_bisect_level``).  The
    accuracy offset ``d`` is one target's scalar in the scan and a column of
    per-minimum offsets in the zoom, which refines the minima of several
    targets at once.  The array arguments broadcast together; G is
    evaluated on them unbroadcast, so the bracket check costs one evaluation
    per fixed value and per segment end.
    Returns the sensitivity and the n boundaries.  The sensitivity reads inf
    where the segment holds no level-set point or the fixed boundaries are
    out of order.
    """
    n = len(fixed) + 1
    # G(y_free) = (-1)^free (d - rest), rest the signed sum of the fixed terms
    rest, lower, upper, g_lower, g_upper = 0.0, -math.inf, math.inf, 0.0, 0.0
    for k, y in enumerate(fixed):
        g = _gap(pair, y)
        rest = rest + np.where((free <= k) == (k % 2 == 0), -g, g)  # boundary k or k + 1
        lower, g_lower = np.where(free == k + 1, y, lower), np.where(free == k + 1, g, g_lower)
        upper, g_upper = np.where(free == k, y, upper), np.where(free == k, g, g_upper)
    lo, hi = np.maximum(lower, seg_lo), np.minimum(upper, seg_hi)
    g_lo = np.where(lower > seg_lo, g_lower, _gap(pair, seg_lo))
    g_hi = np.where(upper < seg_hi, g_upper, _gap(pair, seg_hi))
    x = _bisect_level(pair, lo, hi, g_lo, g_hi, np.where(free % 2 == 0, d - rest, rest - d), tol, near)
    ys = []
    for i in range(n):
        y = x
        if i < n - 1:
            y = np.where(free > i, fixed[i], y)
        if i > 0:
            y = np.where(free < i, fixed[i - 1], y)
        ys.append(y)
    ok = ~np.isnan(x)
    for a, b in zip(fixed, fixed[1:]):
        ok = ok & (a <= b)
    s = np.full(x.shape, math.inf)
    s[ok] = _norms(_gradients(pair, np.asarray([y[ok] for y in ys]), True), norm)
    return s, ys


def _taken(bracket, target, ok):
    """``near`` of brackets known before the targets: each array broadcast to
    the shape of ``ok`` and taken where it is set."""
    return tuple(np.broadcast_to(v, ok.shape)[ok] for v in bracket)


def _runs(mask: np.ndarray) -> list[tuple[int, int]]:
    """Half-open index ranges of the consecutive True entries."""
    edges = np.diff(np.concatenate(([0], mask.astype(np.int8), [0])))
    return list(zip(np.nonzero(edges == 1)[0].tolist(), np.nonzero(edges == -1)[0].tolist()))


def _zoom(solve, gap, tol, ys, idx, free, seg_lo, seg_hi):
    """Refine the minima found at the grid points ys[idx], all at once.

    ``idx`` holds one array of grid indices per fixed boundary.  Each round
    samples every minimum on a grid of offsets of its fixed boundaries,
    offset 0 at the current best point and each half spanning its own window
    side (the grid is not uniform where ratio roots are inserted).  The
    window starts at the neighbouring grid points and then shrinks around
    the best sample (see ZOOM), never past the starting window.  A sample
    whose free boundary leaves the segment reads inf, so a branch that ends
    inside a cell is refined up to its end.  Returns the sensitivity and the
    boundaries of each minimum's best sample.

    The first round solves the free boundary on its whole segment.  Along a
    branch it is monotone in each fixed boundary, so a later round brackets
    it by the free boundaries of the last round's samples that span the new
    window, widened by their spread where one of those samples is off the
    branch, and by ``tol``, the precision ``solve`` solves them to; it falls
    back to the segment where that bracket misses.  ``gap`` is G.
    """
    points, keep, rounds = ZOOM[len(idx)]
    shape = (points,) * len(idx)
    u = np.linspace(-1.0, 1.0, points)
    sample_pos = np.indices(shape).reshape(len(idx), -1)
    offsets = [u[k] for k in sample_pos]
    half = points // 2
    lo_end = [ys[np.maximum(i - 1, 0)][:, None] for i in idx]
    hi_end = [ys[np.minimum(i + 1, ys.size - 1)][:, None] for i in idx]
    centre = [ys[i][:, None] for i in idx]
    below = [c - e for c, e in zip(centre, lo_end)]
    above = [e - c for c, e in zip(centre, hi_end)]
    seg_lo, seg_hi, near = seg_lo[:, None], seg_hi[:, None], None
    for _ in range(rounds):
        fixed = tuple(
            np.clip(c + o * np.where(o < 0.0, b, a), e0, e1)
            for c, o, b, a, e0, e1 in zip(centre, offsets, below, above, lo_end, hi_end)
        )
        s, bounds = solve(fixed, free[:, None], seg_lo, seg_hi, near)
        j = np.argmin(s, axis=1, keepdims=True)
        centre = [np.take_along_axis(f, j, axis=1) for f in fixed]
        # `keep` sample spacings on either side of the best sample
        pos = np.unravel_index(j, shape)
        below, above = (
            [np.where(p <= half, b, a) * (keep / half) for p, b, a in zip(pos, below, above)],
            [np.where(p >= half, a, b) * (keep / half) for p, b, a in zip(pos, below, above)],
        )
        # the free boundaries of the samples within `keep` of the best one;
        # near the window's edge some of them lie outside it
        x = np.choose(free[:, None], bounds)
        span = np.all([np.abs(q - p) <= keep for q, p in zip(sample_pos, pos)], axis=0)
        on = span & ~np.isnan(x)
        x_lo = np.min(np.where(on, x, math.inf), axis=1, keepdims=True)
        x_hi = np.max(np.where(on, x, -math.inf), axis=1, keepdims=True)
        off = np.any(span & ~on, axis=1, keepdims=True)
        off |= np.any([(p < keep) | (p >= points - keep) for p in pos], axis=0)
        spread = tol + np.where(off, x_hi - x_lo, 0.0)
        # clipped to the segment, so that G is evaluated on finite points
        b_lo = np.clip(x_lo - spread, seg_lo, seg_hi)
        b_hi = np.clip(x_hi + spread, seg_lo, seg_hi)
        near = partial(_taken, (b_lo, b_hi, gap(b_lo), gap(b_hi)))
    return tuple(np.take_along_axis(v, j, axis=1)[:, 0] for v in (s, *bounds))


def _check_boundary_count(n_boundaries: int) -> None:
    if not 1 <= n_boundaries <= 3:
        raise InvalidParameterError(
            f"n_boundaries must be >= 1 and <= 3, got {n_boundaries}"
        )


def _ml_base(pair: HypothesisPair):
    """The unit-threshold ratio report, which must hold boundaries."""
    base = ml_boundaries(pair, 1.0)
    if not base.roots:
        raise UnresolvedClassifierError("no maximum-accuracy boundaries for this pair")
    return base


def _top(pair: HypothesisPair, base, n_boundaries: int, saturation):
    """(accuracy, boundaries) of the most accurate n boundaries in the
    orientation of ``base``: the ratio roots when there are at most n of
    them.  One boundary against more roots peaks at a root or at one of the
    saturation points (L*, H*), where the accuracy is a prior.  Otherwise
    the boundaries are None and the accuracy is that of the ratio
    classifier, an upper bound.
    """
    if n_boundaries == 1 < len(base.roots):
        ys = np.asarray(base.roots + tuple(saturation))
        accs = _accuracies(pair, ys[None, :], base.orientation is Orientation.H0_FIRST)
        j = int(np.argmax(accs))
        return float(accs[j]), (float(ys[j]),)
    acc_max = region_accuracy(pair, base.roots, base.orientation)
    return acc_max, (base.roots if len(base.roots) <= n_boundaries else None)


def default_zeta_grid(
    pair: HypothesisPair, n_boundaries: int, steps: int = DEFAULT_ZETA_POINTS
) -> np.ndarray:
    """Accuracy targets from chance up to the best accuracy of n boundaries
    in the orientation of the maximum-accuracy classifier."""
    _check_boundary_count(n_boundaries)
    saturation = _saturation_points(pair, *default_search_interval(pair))
    top, _ = _top(pair, _ml_base(pair), n_boundaries, saturation)
    return np.linspace(0.5, top, steps)


def _check_targets(zetas) -> np.ndarray:
    """The accuracy targets as a one-dimensional float array of numbers in [0, 1]."""
    try:
        zetas = np.asarray(zetas, dtype=float)
    except (TypeError, ValueError):
        raise InvalidParameterError(f"accuracy targets must be numbers, got {zetas!r}") from None
    if zetas.ndim != 1:
        raise InvalidParameterError(f"zeta grid must be one-dimensional, got shape {zetas.shape}")
    if zetas.size == 0:
        raise InvalidParameterError("zeta grid is empty")
    bad = ~((zetas >= 0.0) & (zetas <= 1.0))  # NaN and +-inf included
    if bad.any():
        raise InvalidParameterError(
            f"accuracy target {float(zetas[bad][0])!r} is not a finite number in [0, 1]"
        )
    return zetas


def _attempt(fn, *args):
    """fn(*args), or the error that refuses one target."""
    try:
        return fn(*args)
    except (SolverFailureError, InfeasibleTargetError) as exc:
        return exc


def _constrained_minima(pair: HypothesisPair, zetas, norm: Norm, n_boundaries: int):
    """Solve every accuracy target of ``zetas`` (see constrained_min_sensitivity).

    The pair's set-up (the ratio roots, the saturation points, the top
    accuracy, the boundary grid, G on it and its segments) is made once.
    Each target is scanned on its own, so the scan's (free boundary, grid
    point or pair, segment) arrays do not grow with the target count; then
    the branch minima of all targets are refined by one zoom, each minimum
    with its own accuracy offset.  For three boundaries the two-boundary
    candidates come from one call for all scanned targets.

    Returns the validated targets, one outcome per target (a TradeoffPoint,
    or the SolverFailureError or InfeasibleTargetError that refuses it), and
    the number of branch minima the zoom refined, the two-boundary
    candidates' included.
    """
    _check_boundary_count(n_boundaries)
    zetas = _check_targets(zetas)
    base = _ml_base(pair)
    orientation = base.orientation
    lo, hi = default_search_interval(pair)
    l_sat, h_sat = _saturation_points(pair, lo, hi)
    try:
        top, top_bounds = _top(pair, base, n_boundaries, (l_sat, h_sat))
    except SolverFailureError as exc:  # an accuracy outside [0, 1] refuses every target
        return zetas, [exc] * zetas.size, 0
    h0_first = orientation is Orientation.H0_FIRST
    base_acc = pair.p0 if h0_first == (n_boundaries % 2 == 0) else pair.p1

    def evaluated(outcomes: list) -> list:
        """The outcomes with each boundary set chosen for a target replaced by
        its point, all evaluated in one call; a point that misses its target
        by more than ACCURACY_TOL, or an accuracy outside [0, 1], refuses it."""
        chosen = [t for t, outcome in enumerate(outcomes) if isinstance(outcome, tuple)]
        ys = np.asarray([outcomes[t] for t in chosen]).reshape(-1, n_boundaries).T
        try:
            accs = _accuracies(pair, ys, h0_first).tolist()
        except SolverFailureError as exc:
            return [exc if isinstance(outcome, tuple) else outcome for outcome in outcomes]
        sens = _norms(_gradients(pair, ys, h0_first), norm).tolist()
        for t, acc, s in zip(chosen, accs, sens):
            zeta = targets[t]
            outcomes[t] = TradeoffPoint(acc, s, outcomes[t], orientation, "constrained", zeta)
            if abs(acc - zeta) > ACCURACY_TOL:
                outcomes[t] = SolverFailureError(
                    f"refined point misses accuracy target: |{acc!r} - {zeta!r}| > {ACCURACY_TOL}"
                )
        return outcomes

    def closed(zeta: float) -> TradeoffPoint | tuple[float, ...] | None:
        """The answer of a target that needs no scan: a point, or the
        boundary set to evaluate; None for a target to scan.

        Saturated targets have exact closed answers: at or above the top
        accuracy of n boundaries (within the feasibility slack), the top
        point itself, padded with H* (a boundary there adds no mass); at the
        accuracy of the class that owns the rightmost region, coincident
        pairs (and L* for an odd count) whose gradients cancel identically.
        Just below the maximum the level set is a small loop whose minimum
        moves like the square root of the accuracy gap, so those targets are
        solved.
        """
        if zeta > top + 1e-9:
            raise InfeasibleTargetError(
                f"accuracy target {zeta!r} exceeds the attainable maximum {top!r}"
            )
        if top_bounds is not None and zeta >= top:
            return top_bounds + (h_sat,) * (n_boundaries - len(top_bounds))
        if abs(zeta - base_acc) <= 1e-12:
            mid = 0.5 * (lo + hi)
            bounds = (l_sat,) * (n_boundaries % 2) + (mid,) * (n_boundaries - n_boundaries % 2)
            return TradeoffPoint(base_acc, 0.0, bounds, orientation, "constrained", zeta)
        return None

    targets = zetas.tolist()
    outcomes = [_attempt(closed, zeta) for zeta in targets]
    scanned = [t for t, outcome in enumerate(outcomes) if outcome is None]
    if not scanned:
        return zetas, evaluated(outcomes), 0

    grid = _y_grid(lo, hi, base.roots)
    ys = np.unique(np.concatenate([grid[(grid > l_sat) & (grid < h_sat)], [l_sat, h_sat]]))
    cuts = np.searchsorted(ys, [l_sat, *(r for r in base.roots if l_sat < r < h_sat), h_sat])
    # one array of grid indices per fixed boundary
    if n_boundaries == 3:
        keep = np.unique(np.concatenate([np.arange(0, ys.size, PAIR_STRIDE), cuts]))
        ys, cuts = ys[keep], np.searchsorted(keep, cuts)
        scan = np.triu_indices(ys.size)
    else:
        scan = (np.arange(ys.size),) * (n_boundaries - 1)
    seg_lo, seg_hi = ys[cuts[:-1]], ys[cuts[1:]]
    fixed = tuple(ys[i][:, None] for i in scan)
    g_ys = _gap(pair, ys)
    # (first grid index, direction, G times the direction) of every segment
    segments = []
    for a, b in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
        direction = 1.0 if g_ys[b] >= g_ys[a] else -1.0
        segments.append((a, direction, direction * g_ys[a:b + 1]))

    def cells(target, ok):
        """The grid cell where G crosses each target on its segment, the last axis of ``ok``."""
        seg = np.nonzero(ok)[-1]
        c = np.empty(target.shape, dtype=np.intp)
        for k, (a, direction, g) in enumerate(segments):
            on = seg == k
            c[on] = a + np.searchsorted(g, direction * target[on])
        c = c.clip(1, ys.size - 1)
        return ys[c - 1], ys[c], g_ys[c - 1], g_ys[c]

    # the scan only ranks the grid points that a zoom refines
    eps_tol = 2.0 * np.finfo(float).eps * (hi - lo)
    scan_tol = SCAN_RTOL * (hi - lo) if scan else eps_tol
    # the last boundary is the first one solved: the row order decides ties
    # between equal minima
    free = np.arange(n_boundaries)[::-1]
    sign = 1.0 if h0_first else -1.0
    candidates = {t: [] for t in scanned}
    minima = []  # (target, offset d, free boundary row, grid point or pair, segment)
    for t in scanned:
        d = (targets[t] - base_acc) * sign
        # shape (free boundary, grid point or pair, segment)
        s, bounds = _level_set(
            pair, d, scan_tol, norm, fixed, free[:, None, None], seg_lo, seg_hi, cells
        )
        found = np.isfinite(s)
        # the grid minimum of every branch (n = 2) or of every free boundary and segment
        rik = [
            (r, start + int(np.argmin(s[r, start:stop, k])), k)
            for r in range(n_boundaries)
            for k in range(cuts.size - 1)
            for start, stop in (_runs(found[r, :, k]) if n_boundaries == 2 else [(0, found.shape[1])])
            if found[r, start:stop, k].any()
        ]
        if rik and scan:
            minima += [(t, d, *m) for m in rik]
        elif rik:  # one boundary: the scan is exact and final
            r, i, k = np.asarray(rik).T
            candidates[t].append((s[r, i, k], *(y[r, i, k] for y in bounds)))
    refined = 0
    if minima:
        owner, d, r, i, k = (np.asarray(column) for column in zip(*minima))
        solve = partial(_level_set, pair, d[:, None], eps_tol, norm)
        idx = tuple(j[i] for j in scan)
        zoomed = _zoom(solve, partial(_gap, pair), eps_tol, ys, idx, free[r], seg_lo[k], seg_hi[k])
        refined = int(owner.size)
        for t in np.unique(owner).tolist():
            candidates[t].append(tuple(v[owner == t] for v in zoomed))
    if n_boundaries == 3:
        # a two-boundary set followed by H* is a three-boundary set with the
        # same accuracy, so the two-boundary minimum is a candidate too
        _, twos, two_refined = _constrained_minima(pair, zetas[scanned], norm, 2)
        refined += two_refined
        for t, two in zip(scanned, twos):
            if isinstance(two, TradeoffPoint):
                candidates[t].append(([two.sensitivity], *([y] for y in two.boundaries + (h_sat,))))
            else:
                outcomes[t] = two
    for t in scanned:
        if outcomes[t] is not None:
            continue
        if not candidates[t]:
            outcomes[t] = SolverFailureError(
                f"no point of the accuracy level set found for target {targets[t]!r}"
            )
            continue
        sens, *best = (np.concatenate(c) for c in zip(*candidates[t]))
        j = int(np.argmin(sens))
        outcomes[t] = tuple(float(y[j]) for y in best)
    return zetas, evaluated(outcomes), refined


def constrained_min_sensitivity(
    pair: HypothesisPair, zeta: float, norm: Norm = Norm.INF, n_boundaries: int = 2
) -> TradeoffPoint:
    """Minimum-sensitivity classifier of 1, 2 or 3 boundaries with accuracy == zeta.

    The orientation is that of the maximum-accuracy classifier; a target
    above the best accuracy n boundaries reach in it (the top of
    ``default_zeta_grid``) is infeasible, and one at it returns that
    classifier.  One boundary:
    the level set is the finite set of roots of acc(y) = zeta, at most one per
    segment of G, and the best root is exact.  Two: the level set is solved
    on every branch at every grid point, in both parametrizations (each
    misses the points where its branches turn vertical), and the grid minima
    of all branches are refined by the zoom.  Three: each boundary in turn is
    solved with the other two on all sorted pairs of every PAIR_STRIDE-th grid
    point (the ratio roots and saturation points among them), and the best
    point of each free boundary and segment is refined by the zoom over both
    fixed boundaries.  That zoom is a local search: at an inf-norm minimum on
    a long ridge where two gradient components tie it can stop above the
    true minimum.  The best zoom result is kept; the zoom's first round
    solves each grid minimum itself again, so the scan, which only ranks the
    grid points, never gives the answer.  Three boundaries also take the
    two-boundary minimum as a candidate.

    This is the one-target case of the solver that ``general_curve`` runs on
    its whole grid.  A target that is not a finite number in [0, 1] raises
    InvalidParameterError.
    """
    _, (outcome,), _ = _constrained_minima(pair, [zeta], norm, n_boundaries)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def general_curve(
    pair: HypothesisPair,
    zeta_grid: np.ndarray | None = None,
    n_boundaries: int = 2,
    norm: Norm = Norm.INF,
) -> TradeoffCurve:
    """Fundamental frontier: the minimum sensitivity of 1, 2 or 3 boundaries
    at each accuracy target, all targets solved together by the solver of
    constrained_min_sensitivity, with the same points.

    Targets that cannot be met are listed under ``failed_zetas``, from the
    highest down; ``refined_minima`` counts the branch minima the zoom
    refined, summed over the targets.  A target that is not a finite number
    in [0, 1], or a grid that is not one-dimensional, raises
    InvalidParameterError.
    """
    _check_boundary_count(n_boundaries)
    if zeta_grid is None:
        zeta_grid = default_zeta_grid(pair, n_boundaries)
    zetas, outcomes, refined = _constrained_minima(pair, zeta_grid, norm, n_boundaries)
    metadata = {
        "zeta_points": int(zetas.size),
        "n_boundaries": n_boundaries,
        "failed_zetas": [],
        "refined_minima": refined,
    }
    points: list[TradeoffPoint] = []
    # highest target first; the sort is stable, so equal targets keep their order
    for zeta, outcome in sorted(zip(zetas.tolist(), outcomes), key=lambda z: -z[0]):
        if isinstance(outcome, TradeoffPoint):
            points.append(outcome)
        else:
            metadata["failed_zetas"].append({"zeta": zeta, "error": str(outcome)})
    return _assemble(points, norm, "general", pair, metadata)
