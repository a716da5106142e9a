"""Accuracy-sensitivity frontier tracing for three classifier families.

Three sweeps produce comparable curves for one hypothesis pair:

* ``ml_curve``    - threshold sweep of the likelihood-ratio classifier; the
  roots of every threshold come from one call (``_ml_solve_many``), the
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
boundaries but one fixed on a grid, the free one is solved on each segment
where the accuracy is monotone in it, and the grid minima are refined
together by an array zoom.  A curve makes the pair's set-up (ratio roots,
saturation points, top accuracy, grid, G = p0 F0 - p1 F1 on the grid and
the scan's brackets) once, scans each target on its own, refines the minima
of every target in one zoom and evaluates every target's point in one call.
The scan's brackets run between grid points, so G at their ends and at the
fixed boundaries is read from the grid by index; a target solves only the
brackets on which G crosses its level, and array operations pick each
branch's grid minimum.  Every
level-set solve, in the scan and in every zoom round, starts from one
bracket rule: the grid cell of its segment where G crosses the level, found
by a search of G on the grid.  A cell that misses (a rounding of G) falls
back to the free boundary's whole bracket on the segment, so no level-set
point is lost.  From the cell's regula falsi point, safeguarded Newton steps
on G, whose slope G' = p0 f0 - p1 f1 is the accuracy's boundary gradient,
solve every bracket of a call at once (``boundary_solver._newton``, the
solver the grid's ratio roots and the design's separation roots share).
The residual also carries G's curvature G'' = p0 f0' - p1 f1', so that
beside a ratio root, where G' -> 0, the step is second order, and
elsewhere a Newton step h = r / G' whose error estimate, its curvature
term |G''| h^2 / (2 |G'|) and a cubic term fitted at the bracket's far end,
is within half the tolerance is the root, unevaluated (``_newton``'s
certified step); a step that leaves its bracket falls back to regula
falsi, and to midpoints once a regula falsi point keeps more than half of
its bracket.
The scan only
ranks grid points for the zoom, which solves the grid point itself again,
so it stops at a ranking tolerance (SCAN_RTOL); one boundary has no zoom
and is scanned to full precision.  A reported boundary where both cdfs
read exactly 1 (or 0) lies at H* (or L*).  The grid
reaches out to the saturation points where both cdfs read exactly 0 and 1, so
every single-boundary classifier and every matched ratio classifier lies on a
scanned two-boundary branch: neither curve can undercut the two-boundary one,
and the three-boundary minimum, which takes the two-boundary one as a
candidate, never lies above it.

The default targets (``default_zeta_grid``) end at the best accuracy the
boundary count reaches in that orientation: the ratio classifier's, or for
one boundary against two or more ratio roots, the best of a single root
and the two saturation points (where the accuracy is a prior).

The frontier solver keeps each target as one row of its columns from
start to end.  Targets with closed answers are boolean masks over the
target array: above the top accuracy (by more than 1e-9) refused, at or
above it the top point padded with H* (where its boundaries are known), at
the chance accuracy coincident boundaries with sensitivity 0.  The scan,
zoom and (for three boundaries) two-boundary candidates of the other
targets are flat arrays of (target, sensitivity, boundaries), and each
target keeps its first lowest candidate.  A target is refused, with one
exception per target, when it has no candidate, when its point misses it,
or, for three boundaries, when the two-boundary solve refuses it.

Every point on a returned curve satisfies its accuracy target to 1e-6;
points whose refinement misses the target are dropped and listed in the
curve metadata, never silently interpolated.  Curve points are ordered by
accuracy; below-chance points are discarded (the swapped orientation covers
them), a frontier point by its target.

A curve is held as columns (``TradeoffCurve``): accuracy, sensitivity, a
boundary matrix, orientation flags and the sweep parameter, one entry per
point.  Each sweep fills the columns with array calls, and ``_assemble``
orders, filters and collapses them with array operations; the writers read
the columns, and ``points`` builds TradeoffPoint records from them only
when it is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from ._records import _plain, plain
from .boundary_solver import (
    _ml_solve_many,
    _newton,
    _resolved,
    _saturation_points,
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
from .densities import HypothesisPair, _cdf_pdf_dx
from .errors import InfeasibleTargetError, InvalidParameterError, SolverFailureError

ACCURACY_TOL = 1e-6
DEFAULT_ETA_GRID = (1e-3, 1e3, 400)
DEFAULT_Y_POINTS = 2001
DEFAULT_ZETA_POINTS = 60
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
        return f"{self.kind}:{_PARAMETER[self.kind]}={self.parameter!r}"

    to_dict = plain


#: The kind of a curve's points, by the kind of the curve, and the name of
#: the parameter of a point, by its kind.
_POINT_KIND = {"ml": "ml", "linear": "linear", "general": "constrained"}
_PARAMETER = {"ml": "eta", "linear": "y", "constrained": "zeta"}


#: The orientation of a point, indexed by whether H0 owns its leftmost region.
_ORIENTATION = (Orientation.H1_FIRST, Orientation.H0_FIRST)


@dataclass(frozen=True, eq=False)
class TradeoffCurve:
    """A curve held as read-only columns, one entry per point in accuracy
    order: the accuracy, the sensitivity, the boundaries (a matrix with one
    row per point and one column per boundary, all points of a curve having
    the same count), whether H0 owns the leftmost region, and the parameter
    of the sweep (eta, y or zeta).  ``points`` holds the same points as
    TradeoffPoint records, built from the columns on first access; the
    writers read the columns."""

    accuracies: np.ndarray
    sensitivities: np.ndarray
    boundaries: np.ndarray
    h0_first: np.ndarray
    parameters: np.ndarray
    norm: Norm
    kind: str
    pair_digest: str
    metadata: dict = field(default_factory=dict)

    def _rows(self):
        """The columns as Python values, one list each."""
        return (
            self.accuracies.tolist(),
            self.sensitivities.tolist(),
            self.boundaries.tolist(),
            self.h0_first.tolist(),
            self.parameters.tolist(),
        )

    @cached_property
    def points(self) -> tuple[TradeoffPoint, ...]:
        kind = _POINT_KIND[self.kind]
        return tuple(
            TradeoffPoint(a, s, tuple(b), _ORIENTATION[first], kind, t)
            for a, s, b, first, t in zip(*self._rows())
        )

    def to_dict(self) -> dict:
        """The written form: the points, in TradeoffPoint's field order, then
        the norm, the kind, the pair digest and the metadata."""
        kind = _POINT_KIND[self.kind]
        points = [
            {
                "accuracy": a,
                "sensitivity": s,
                "boundaries": b,
                "orientation": _ORIENTATION[first].value,
                "kind": kind,
                "parameter": t,
            }
            for a, s, b, first, t in zip(*self._rows())
        ]
        return {
            "points": points,
            "norm": self.norm.value,
            "kind": self.kind,
            "pair_digest": self.pair_digest,
            "metadata": _plain(self.metadata),
        }

    def to_csv_text(self) -> str:
        n = self.boundaries.shape[1]
        header = ["accuracy", "sensitivity"] + [f"y{i + 1}" for i in range(n)] + ["provenance"]
        kind = _POINT_KIND[self.kind]
        provenance = f"{kind}:{_PARAMETER[kind]}="
        acc, sens, bounds, _, params = self._rows()
        lines = [",".join(header)]
        lines += [
            ",".join([repr(a), repr(s), *map(repr, b), provenance + repr(t)])
            for a, s, b, t in zip(acc, sens, bounds, params)
        ]
        return "\n".join(lines) + "\n"


def _assemble(columns, counts, norm: Norm, kind: str, pair: HypothesisPair, metadata: dict) -> TradeoffCurve:
    """The curve of the points in ``columns``: order by accuracy, drop
    below-chance points, collapse accuracy ties to the lowest sensitivity,
    keep a single boundary count.

    ``columns`` are the accuracy, sensitivity, boundary matrix (one row per
    point, ``counts`` boundaries of it used, the rest padding), orientation
    and parameter columns of the points.  A constrained point is below chance
    when its target is: one that meets the target 0.5 may read an accuracy
    one rounding below it.  The boundary count kept is the most common one,
    the smallest on a tie.  The order is stable in (accuracy, sensitivity).
    A point within 1e-13 in accuracy of the last point kept is a tie and
    dropped: a chain of such steps keeps its first point and then the first
    point past 1e-13 from it, and so on.  A step wider than 1e-13 always
    keeps its point, so only the runs of steps within 1e-13 are walked point
    by point.
    """
    acc, sens = columns[0], columns[1]
    metadata = dict(metadata)
    kept = np.flatnonzero((columns[4] if kind == "general" else acc) >= 0.5)
    metadata["dropped_below_chance"] = acc.size - kept.size
    width = 0
    if kept.size:
        tally = np.bincount(counts[kept])
        width = int(np.argmax(tally))  # the first maximum: the smallest count
        metadata["dropped_boundary_count"] = kept.size - int(tally[width])
        kept = kept[counts[kept] == width]
    order = kept[np.lexsort((sens[kept], acc[kept]))]
    a = acc[order]
    tie = np.abs(np.diff(a)) <= 1e-13
    # the runs of ties: points s to e, each within 1e-13 of the one before
    runs = np.flatnonzero(np.diff(np.concatenate(([False], tie, [False])).astype(np.int8))).reshape(-1, 2)
    values, collapsed = a.tolist(), []
    for s, e in runs.tolist():
        last = values[s]
        for i in range(s + 1, e + 1):
            if values[i] - last > 1e-13:
                last = values[i]
            else:
                collapsed.append(i)
    metadata["collapsed_ties"] = len(collapsed)
    order = np.delete(order, collapsed)
    acc, sens, bounds, h0_first, parameters = (c[order] for c in columns)
    bounds = bounds[:, :width]
    for c in (acc, sens, bounds, h0_first, parameters):
        c.flags.writeable = False
    return TradeoffCurve(acc, sens, bounds, h0_first, parameters, norm, kind, pair.digest(), metadata)


def _check_grid(values, grid: str, item: str, span: tuple[float, float] | None = None) -> np.ndarray:
    """A sweep's grid (``grid`` names it, ``item`` one of its values) as a
    one-dimensional, non-empty float array of numbers; with a ``span``
    (lo, hi), every value finite and in [lo, hi] as well."""
    try:
        values = np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        raise InvalidParameterError(f"{item}s must be numbers, got {values!r}") from None
    if values.ndim != 1:
        raise InvalidParameterError(f"{grid} must be one-dimensional, got shape {values.shape}")
    if values.size == 0:
        raise InvalidParameterError(f"{grid} is empty")
    if span is not None:
        lo, hi = span
        bad = ~(np.isfinite(values) & (values >= lo) & (values <= hi))
        if bad.any():
            within = f" in [{lo:g}, {hi:g}]" if hi - lo < math.inf else ""
            raise InvalidParameterError(f"{item} {float(values[bad][0])!r} is not a finite number{within}")
    return values


def default_eta_grid() -> np.ndarray:
    lo, hi, n = DEFAULT_ETA_GRID
    return np.unique(np.append(np.geomspace(lo, hi, n), 1.0))


def ml_curve(
    pair: HypothesisPair, eta_grid: np.ndarray | None = None, norm: Norm = Norm.INF
) -> TradeoffCurve:
    """Accuracy/sensitivity locus of the ratio classifier over a threshold grid.

    Thresholds the ratio never crosses yield single-region classifiers with
    no representable boundary set; those grid points are dropped and counted.
    The roots are evaluated by ``classifier._evaluate``, one array call per
    boundary count.
    """
    grid = _check_grid(default_eta_grid() if eta_grid is None else eta_grid, "eta grid", "threshold")
    _, etas, roots, h0_first, warnings, _ = _ml_solve_many(pair, grid)
    solved = [i for i, rs in enumerate(roots) if rs]
    roots = [roots[i] for i in solved]
    h0_first = np.asarray(h0_first, dtype=bool)[solved]
    acc, sens, bounds = _evaluate(pair, roots, h0_first, norm)
    counts = np.asarray([len(rs) for rs in roots], dtype=np.intp)
    metadata = {"eta_points": int(grid.size), "degenerate_etas": len(etas) - len(solved)}
    warnings = list(dict.fromkeys(w for ws in warnings for w in ws))
    if warnings:
        metadata["warnings"] = warnings
    columns = (acc, sens, bounds, h0_first, np.asarray(etas, dtype=float)[solved])
    return _assemble(columns, counts, norm, "ml", pair, metadata)


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
    y_grid = default_y_grid(pair) if y_grid is None else y_grid
    grid = _check_grid(y_grid, "boundary grid", "boundary position", (-math.inf, math.inf))
    # both orientations of every boundary in one call
    both = _accuracies(pair, np.tile(grid, 2)[None, :], np.arange(2 * grid.size) < grid.size)
    h0_first = both[: grid.size] >= 0.5
    acc = np.where(h0_first, both[: grid.size], both[grid.size :])
    sens = _norms(_gradients(pair, grid[None, :], h0_first), norm)
    columns = (acc, sens, grid[:, None], h0_first, grid)
    counts = np.ones(grid.size, dtype=np.intp)
    return _assemble(columns, counts, norm, "linear", pair, {"y_points": int(grid.size)})


# ---- constrained minimum ----
#
# For a fixed orientation the accuracy of n boundaries is base + s (G(y_1) -
# G(y_2) + G(y_3) - ...) with G = p0 F0 - p1 F1 (see ``classifier``).
# G' = p0 f0 - p1 f1 changes sign only at the unit-threshold ratio roots, so
# G is monotone between consecutive roots: with all boundaries but one
# fixed, the level set has at most one point per such segment.  The
# orientation only negates the parameter gradient, so the level-set solves
# rank sensitivities in H0_FIRST.


def _segments(g_ys, cuts):
    """The rows that ``_cells`` searches, one per segment k of the grid, from
    ys[cuts[k]] to ys[cuts[k + 1]]: the index a of its first point, its
    number of cells, its direction (1.0 where G rises on it, -1.0 where G
    falls) and G on its points times the direction, which rises."""
    segments = []
    for a, b in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
        direction = 1.0 if g_ys[b] >= g_ys[a] else -1.0
        segments.append((a, b - a, direction, direction * g_ys[a:b + 1]))
    return segments


def _cells(grid, seg, target):
    """The grid cell [ys[c - 1], ys[c]] of segment ``seg`` in which G crosses
    each target, and G at its ends.

    ``grid`` is (ys, G(ys), cuts, segments): segment k runs from
    ys[cuts[k]] to ys[cuts[k + 1]], G is monotone on it, and ``segments[k]``
    holds its row of G signed to rise (see ``_segments``).  A target that G
    does not reach on its segment gets the segment's end cell on its side.
    """
    ys, g_ys, _, segments = grid
    c = np.empty(target.shape, dtype=np.intp)
    for k, (a, cells, direction, row) in enumerate(segments):
        on = seg == k
        i = np.searchsorted(row, direction * target[on])
        np.maximum(i, 1, out=i)
        np.minimum(i, cells, out=i)
        c[on] = a + i
    return ys[c - 1], ys[c], g_ys[c - 1], g_ys[c]


def _level_residual(pair, z, target):
    """G(z) - target, its slope G' = p0 f0 - p1 f1, its rounding scale
    p0 F0 + p1 F1 + |target| and its curvature G'' = p0 f0' - p1 f1': the
    residual ``_newton`` solves on a level set, from one density kernel call
    per density."""
    p0, p1 = pair.p0, pair.p1
    f0, slope, curvature = _cdf_pdf_dx(pair.h0, z)
    f1, pdf1, dx1 = _cdf_pdf_dx(pair.h1, z)
    # in place, to the floats p0 * F0 - p1 * F1 - target and the like read:
    # the arrays are large, and each temporary costs a pass through memory
    for a, b in ((f0, f1), (slope, pdf1), (curvature, dx1)):
        a *= p0
        b *= p1
    r = f0 - f1
    r -= target
    slope -= pdf1
    curvature -= dx1
    f0 += f1
    f0 += np.abs(target)
    return r, slope, f0, curvature


def _crossing(lo, hi, g_lo, g_hi, target):
    """Where the bracket [lo, hi] is non-empty and G, reading g_lo and g_hi
    at its ends, crosses the target on it."""
    return (lo < hi) & ((g_lo - target) * (g_hi - target) <= 0.0)


def _level_root(pair, grid, lo, hi, g_lo, g_hi, target, seg, tol):
    """Solve G(x) = target on every bracket [lo, hi] at once, G monotone on each.

    The arguments are one-dimensional, one entry per bracket, and each
    bracket is non-empty, lies on the segment ``seg`` of ``grid`` (see
    ``_cells``) and holds a level-set point (see ``_crossing``).  Each
    bracket is cut to the grid cell of its segment where G crosses the
    target and solved there by ``_newton`` on ``_level_residual`` to
    ``tol``; where G does not cross the target on the cut bracket (a
    rounding of G can do that), the whole bracket is solved, so no
    level-set point is lost.
    """
    c_lo, c_hi, gc_lo, gc_hi = _cells(grid, seg, target)
    inside_lo, inside_hi = c_lo > lo, c_hi < hi
    c_lo, gc_lo = np.where(inside_lo, c_lo, lo), np.where(inside_lo, gc_lo, g_lo)
    c_hi, gc_hi = np.where(inside_hi, c_hi, hi), np.where(inside_hi, gc_hi, g_hi)
    cut = (c_lo <= c_hi) & ((gc_lo - target) * (gc_hi - target) <= 0.0)
    lo, g_lo = np.where(cut, c_lo, lo), np.where(cut, gc_lo, g_lo)
    hi, g_hi = np.where(cut, c_hi, hi), np.where(cut, gc_hi, g_hi)
    return _newton(partial(_level_residual, pair), lo, hi, g_lo - target, g_hi - target, tol, target)


def _fixed_sum(g_fixed, free):
    """The signed sum ``rest`` of the fixed terms of the level set
    G(y_1) - G(y_2) + G(y_3) - ... = d, with G at the n - 1 fixed boundaries
    in ``g_fixed``: boundary ``free`` (counted from 0) lies where
    G = (-1)^free (d - rest), d - rest for an even ``free`` and rest - d for
    an odd one."""
    rest = 0.0
    for k, g in enumerate(g_fixed):
        rest = rest + np.where((free <= k) == (k % 2 == 0), -g, g)  # boundary k or k + 1
    return rest


def _with_free(x, fixed, free):
    """The n boundaries: the free one at x, the fixed ones around it in order."""
    ys = []
    for i in range(len(fixed) + 1):
        y = x
        if i < len(fixed):
            y = np.where(free > i, fixed[i], y)
        if i > 0:
            y = np.where(free < i, fixed[i - 1], y)
        ys.append(y)
    return ys


def _level_set(pair, grid, d, tol, norm, fixed, free, seg):
    """The zoom's level-set points G(y_1) - G(y_2) + G(y_3) - ... = d, one
    boundary free: the frontier's ``solve`` for ``_zoom``, all but ``fixed``
    bound.  ``fixed`` holds the other n - 1 boundaries in order, samples off
    the grid; boundary ``free`` (counted from 0) is solved to ``tol``
    between its fixed neighbours on the segment ``seg`` of ``grid``, in the
    cell where its level set crosses (see ``_level_root``).  ``d``, ``free``
    and ``seg`` are columns, one entry per minimum.  The array arguments
    broadcast together; G is evaluated on them unbroadcast, so the bracket
    check costs one evaluation per fixed value.  Returns the sensitivity
    and the n boundaries.  The sensitivity reads inf where the segment holds
    no level-set point (so a branch that ends inside a cell is refined up
    to its end) or the fixed boundaries are out of order.
    """
    points, g_points, cuts, _ = grid
    seg_lo, seg_hi = points[cuts[seg]], points[cuts[seg + 1]]
    g_fixed = [_gap(pair, y) for y in fixed]
    lower, upper, g_lower, g_upper = -math.inf, math.inf, 0.0, 0.0
    for k, (y, g) in enumerate(zip(fixed, g_fixed)):
        lower, g_lower = np.where(free == k + 1, y, lower), np.where(free == k + 1, g, g_lower)
        upper, g_upper = np.where(free == k, y, upper), np.where(free == k, g, g_upper)
    lo, hi = np.maximum(lower, seg_lo), np.minimum(upper, seg_hi)
    g_lo = np.where(lower > seg_lo, g_lower, g_points[cuts[seg]])
    g_hi = np.where(upper < seg_hi, g_upper, g_points[cuts[seg + 1]])
    rest = _fixed_sum(g_fixed, free)
    target = np.where(free % 2 == 0, d - rest, rest - d)
    brackets = np.broadcast_arrays(lo, hi, g_lo, g_hi, target, seg)
    ok = _crossing(*brackets[:5])
    x = np.full(ok.shape, np.nan)
    x[ok] = _level_root(pair, grid, *(v[ok] for v in brackets), tol)
    ys = _with_free(x, fixed, free)
    ok = ~np.isnan(x)
    for a, b in zip(fixed, fixed[1:]):
        ok = ok & (a <= b)
    s = np.full(x.shape, math.inf)
    s[ok] = _norms(_gradients(pair, np.asarray([y[ok] for y in ys]), True), norm)
    return s, ys


def _brackets(grid, scan, free):
    """The scan's brackets, the same for every target.

    ``scan`` holds one array of grid indices per fixed boundary (none for one
    boundary), and row r of the scan solves boundary ``free[r]``.  Each
    (row, fixed index or pair, segment) entry is a bracket [ys[a], ys[b]]
    between grid points: the free boundary's fixed neighbours cut to the
    segment.  So G at the bracket ends and at the fixed boundaries comes
    from the grid by index.  Returns the non-empty brackets, ordered by row,
    segment and index: their row, fixed index, segment, a, b, G at both
    ends, the signed sum of the fixed terms (see ``_fixed_sum``) and whether
    the free boundary is even.
    """
    ys, g_ys, cuts, _ = grid
    n = len(free)
    rows = []
    for r, f in enumerate(free.tolist()):
        lower = scan[f - 1] if f > 0 else 0
        upper = scan[f] if f < n - 1 else ys.size - 1
        # shape (segment, fixed index or pair)
        a, b = np.broadcast_arrays(np.maximum(lower, cuts[:-1, None]), np.minimum(upper, cuts[1:, None]))
        k, p = np.nonzero(a < b)
        rest = np.atleast_1d(_fixed_sum([g_ys[i] for i in scan], f))
        rows.append((np.full(k.size, r), p, k, a[k, p], b[k, p], rest[p]))
    r, p, k, a, b, rest = (np.concatenate(v) for v in zip(*rows))
    return r, p, k, a, b, g_ys[a], g_ys[b], rest, free[r] % 2 == 0


def _scan(pair, grid, brackets, d, tol, norm, scan, free):
    """The grid minimum of every level-set branch of one accuracy offset ``d``.

    Only the ``brackets`` (see ``_brackets``) on which G crosses its target
    are solved, by ``_level_root`` to ``tol``.  A branch is a run of
    consecutive fixed indices of one row and segment with a level-set point
    for two boundaries, and all the fixed indices or pairs of one row and
    segment otherwise; its minimum is its lowest sensitivity, the first
    index on a tie.
    Returns the row, fixed index, segment, sensitivity and the n boundaries
    of every branch minimum, ordered by row, segment and index.
    """
    ys = grid[0]
    r, p, k, a, b, g_a, g_b, rest, even = brackets
    target = np.where(even, d - rest, rest - d)
    live = np.flatnonzero(_crossing(a, b, g_a, g_b, target))
    r, p, k, a, b, g_a, g_b, target = (v[live] for v in (r, p, k, a, b, g_a, g_b, target))
    x = _level_root(pair, grid, ys[a], ys[b], g_a, g_b, target, k, tol)
    bounds = _with_free(x, [ys[i[p]] for i in scan], free[r])
    s = _norms(_gradients(pair, np.asarray(bounds), True), norm)
    found = np.isfinite(s)
    r, p, k, s, *bounds = (v[found] for v in (r, p, k, s, *bounds))
    starts = np.ones(r.size, dtype=bool)
    starts[1:] = (r[1:] != r[:-1]) | (k[1:] != k[:-1])
    if len(scan) == 1:  # two boundaries
        starts[1:] |= p[1:] != p[:-1] + 1
    # by branch, then by sensitivity, ties in index order: each branch keeps
    # its slots, so the first slot of a branch holds its minimum
    best = np.lexsort((s, np.cumsum(starts)))[starts]
    return r[best], p[best], k[best], s[best], [y[best] for y in bounds]


def _zoom_samples(points, dims):
    """A zoom's samples over ``dims`` coordinates: their offsets in [-1, 1],
    0 at the middle sample of each axis, and whether the window's new below
    and above sides come from its above side when a sample is the best (the
    second: whether the above side scales the sample's offset)."""
    k = np.indices((points,) * dims).reshape(dims, -1)
    return np.linspace(-1.0, 1.0, points)[k], np.stack([k > points // 2, k >= points // 2], axis=-1)


_ZOOM_SAMPLES = {dims: _zoom_samples(points, dims) for dims, (points, _, _) in ZOOM.items()}


def _zoom(solve, ys, idx):
    """Refine the minima found at the grid points ys[idx], all at once.

    ``idx`` holds one array of grid indices per fixed coordinate, one entry
    per minimum.  Each round samples every minimum on a grid of offsets of
    its fixed coordinates, offset 0 at the current best point and each half
    spanning its own window side (the grid need not be uniform).
    ``solve(fixed)`` takes the samples, shape (coordinate, minimum, sample),
    and returns their values and a list of columns to report, each of shape
    (minimum, sample).  The window starts at the neighbouring grid points
    and then shrinks around the best sample, the first on a tie (see ZOOM),
    never past the starting window, so no result exceeds the value at its
    starting grid point.  Returns the value and the columns of each
    minimum's best sample.
    """
    points, keep, rounds = ZOOM[len(idx)]
    offsets, sides = _ZOOM_SAMPLES[len(idx)]
    step = keep / (points // 2)
    idx = np.array(idx)
    rows = np.arange(idx.shape[1])
    lo_end, hi_end = ys[np.maximum(idx - 1, 0)][:, :, None], ys[np.minimum(idx + 1, ys.size - 1)][:, :, None]
    centre = ys[idx][:, :, None]
    # (coordinate, minimum, side): the window's below and above sides
    window = np.concatenate([centre - lo_end, hi_end - centre], axis=-1)
    offsets, up = offsets[:, None], sides[:, None, :, 1]
    for _ in range(rounds):
        below, above = window[..., :1], window[..., 1:]
        fixed = centre + offsets * np.where(up, above, below)
        np.maximum(fixed, lo_end, out=fixed)
        np.minimum(fixed, hi_end, out=fixed)
        s, cols = solve(fixed)
        j = s.argmin(axis=1)
        # a coordinate that stays at the centre (its samples clipped onto it
        # at a grid end) keeps both its sides
        best = fixed[:, rows, j, None]
        window = np.where(np.where(best == centre, [False, True], sides[:, j]), above, below) * step
        centre = best
    return tuple(v[rows, j] for v in (s, *cols))


def _check_boundary_count(n_boundaries) -> None:
    """Refuse a boundary count that is not an integer in [1, 3]; a boolean is not one."""
    count = isinstance(n_boundaries, (int, np.integer)) and not isinstance(n_boundaries, bool)
    if not (count and 1 <= n_boundaries <= 3):
        raise InvalidParameterError(
            f"n_boundaries must be >= 1 and <= 3 and an integer, got {n_boundaries}"
        )


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
    top, _ = _top(pair, _resolved(ml_boundaries(pair, 1.0)), n_boundaries, saturation)
    return np.linspace(0.5, top, steps)


def _constrained_minima(pair: HypothesisPair, zetas, norm: Norm, n_boundaries: int):
    """Solve every accuracy target of ``zetas`` (see constrained_min_sensitivity).

    Each target is one row of the result columns from start to end.  The
    closed answers are boolean masks over the targets: a target above the
    top accuracy by more than 1e-9 is refused; one at or above it, where
    the top boundaries are known, gets them, padded with H*; the chance
    target (the base accuracy, of the class that owns the rightmost region)
    gets coincident boundaries, the base accuracy and sensitivity 0.  The
    other targets are scanned.

    The pair's set-up (the ratio roots, the saturation points, the top
    accuracy, the boundary grid, G on it, its segments and the scan's
    non-empty (free boundary, grid point or pair, segment) brackets, see
    ``_brackets``) is made once.  Each target is scanned on its own
    (``_scan``): it solves only the brackets on which G crosses its level,
    so the scan's arrays do not grow with the target count.  Then the
    branch minima of all targets are refined by one zoom, each minimum with
    its own accuracy offset.  For three boundaries the two-boundary minima
    of all scanned targets come from one call; a target that call refuses
    is refused with its error.  The candidates are flat arrays of (target,
    sensitivity, boundaries): the scan's (one boundary), the zoom's, then
    the two-boundary ones padded with H*.  Each target keeps its first
    lowest candidate (one stable sort by target and sensitivity), and a
    target with none is refused.  The top points and the kept candidates
    are evaluated in one call, and a point that misses its target by more
    than ACCURACY_TOL, or an accuracy outside [0, 1], refuses its target.

    Returns the validated targets; the columns of their points (see
    ``_assemble``: accuracy, sensitivity, boundaries, orientation and the
    target), accuracy and sensitivity NaN at a refused target; one refusal
    per target (None, or the SolverFailureError or InfeasibleTargetError
    that refuses it); and the number of branch minima the zoom refined,
    the two-boundary candidates' included.
    """
    _check_boundary_count(n_boundaries)
    zetas = _check_grid(zetas, "zeta grid", "accuracy target", (0.0, 1.0))
    base = _resolved(ml_boundaries(pair, 1.0))
    lo, hi = default_search_interval(pair)
    l_sat, h_sat = _saturation_points(pair, lo, hi)
    h0_first = base.orientation is Orientation.H0_FIRST
    acc, sens = np.full(zetas.size, np.nan), np.full(zetas.size, np.nan)
    bounds = np.full((zetas.size, n_boundaries), np.nan)
    columns = (acc, sens, bounds, np.full(zetas.size, h0_first), zetas)
    try:
        top, top_bounds = _top(pair, base, n_boundaries, (l_sat, h_sat))
    except SolverFailureError as exc:  # an accuracy outside [0, 1] refuses every target
        return zetas, columns, [exc] * zetas.size, 0
    base_acc = pair.p0 if h0_first == (n_boundaries % 2 == 0) else pair.p1
    targets = zetas.tolist()
    refusals = [None] * zetas.size

    # Saturated targets have exact closed answers: the top point (a boundary
    # at H* adds no mass), and at the base accuracy coincident pairs (and L*
    # for an odd count) whose gradients cancel identically.  Just below the
    # top the level set is a small loop whose minimum moves like the square
    # root of the accuracy gap, so those targets are scanned.
    above = zetas > top + 1e-9
    for t in np.flatnonzero(above).tolist():
        refusals[t] = InfeasibleTargetError(
            f"accuracy target {targets[t]!r} exceeds the attainable maximum {top!r}"
        )
    at_top = np.zeros(zetas.size, dtype=bool)
    if top_bounds is not None:
        at_top = ~above & (zetas >= top)
        bounds[at_top] = top_bounds + (h_sat,) * (n_boundaries - len(top_bounds))
    chance = ~above & ~at_top & (np.abs(zetas - base_acc) <= 1e-12)
    acc[chance], sens[chance] = base_acc, 0.0
    bounds[chance] = (l_sat,) * (n_boundaries % 2) + (0.5 * (lo + hi),) * (n_boundaries - n_boundaries % 2)
    scanned = np.flatnonzero(~(above | at_top | chance))

    # the candidates: one row each of owner target, sensitivity, boundaries
    owner, cand_sens, cand_bounds = np.empty(0, dtype=np.intp), np.empty(0), np.empty((0, n_boundaries))
    refined = 0
    if scanned.size:
        points = _y_grid(lo, hi, base.roots)
        ys = np.unique(np.concatenate([points[(points > l_sat) & (points < h_sat)], [l_sat, h_sat]]))
        cuts = np.searchsorted(ys, [l_sat, *(r for r in base.roots if l_sat < r < h_sat), h_sat])
        # one array of grid indices per fixed boundary
        if n_boundaries == 3:
            keep = np.unique(np.concatenate([np.arange(0, ys.size, PAIR_STRIDE), cuts]))
            ys, cuts = ys[keep], np.searchsorted(keep, cuts)
            scan = np.triu_indices(ys.size)
        else:
            scan = (np.arange(ys.size),) * (n_boundaries - 1)
        g_ys = _gap(pair, ys)
        grid = (ys, g_ys, cuts, _segments(g_ys, cuts))

        # the scan only ranks the grid points that a zoom refines
        eps_tol = 2.0 * np.finfo(float).eps * (hi - lo)
        scan_tol = SCAN_RTOL * (hi - lo) if scan else eps_tol
        # the last boundary is the first one solved: the row order decides ties
        # between equal minima
        free = np.arange(n_boundaries)[::-1]
        offsets = (zetas[scanned] - base_acc) * (1.0 if h0_first else -1.0)
        brackets = _brackets(grid, scan, free)
        found = [_scan(pair, grid, brackets, d, scan_tol, norm, scan, free) for d in offsets.tolist()]
        sizes = [f[0].size for f in found]
        owner = np.repeat(scanned, sizes)
        # per branch minimum: free boundary row, grid point or pair, segment;
        # one boundary has no zoom, its scan is exact and final
        r, i, k, cand_sens = (np.concatenate(v) for v in zip(*(f[:4] for f in found)))
        cand_bounds = np.column_stack([np.concatenate(v) for v in zip(*(f[4] for f in found))])
        if scan and owner.size:
            d = np.repeat(offsets, sizes)[:, None]
            solve = partial(_level_set, pair, grid, d, eps_tol, norm, free=free[r][:, None], seg=k[:, None])
            cand_sens, *zoomed = _zoom(solve, ys, tuple(j[i] for j in scan))
            cand_bounds = np.column_stack(zoomed)
            refined = int(owner.size)
        if n_boundaries == 3:
            # a two-boundary set followed by H* is a three-boundary set with the
            # same accuracy, so the two-boundary minimum is a candidate too; a
            # target the two-boundary call refuses is refused, its rows dropped
            _, (_, two_sens, two_bounds, _, _), twos, two_refined = _constrained_minima(
                pair, zetas[scanned], norm, 2
            )
            refined += two_refined
            for t, two in zip(scanned.tolist(), twos):
                refusals[t] = two
            owner = np.concatenate([owner, scanned])
            cand_sens = np.concatenate([cand_sens, two_sens])
            padded = np.column_stack([two_bounds, np.full(scanned.size, h_sat)])
            cand_bounds = np.concatenate([cand_bounds, padded])

    # each target that is not refused keeps its first lowest candidate: the
    # sort is stable
    live = np.asarray([refusal is None for refusal in refusals], dtype=bool)
    order = np.lexsort((cand_sens, owner))
    order = order[live[owner[order]]]
    first = order[np.diff(owner[order], prepend=-1) != 0]
    bounds[owner[first]] = cand_bounds[first]
    chosen = at_top.copy()
    chosen[owner[first]] = True
    for t in scanned.tolist():
        if live[t] and not chosen[t]:
            refusals[t] = SolverFailureError(f"no point of the accuracy level set found for target {targets[t]!r}")

    # A boundary where both cdfs read exactly 1 is reported at H*, and one
    # where both read exactly 0 at L*: G is flat there, so the solver may
    # leave it anywhere in the run, and the pinned set is the same
    # classifier.  The boundaries stay in order.
    rows = np.flatnonzero(chosen)
    ys = bounds[rows].T
    f0, f1 = np.asarray(pair.h0.cdf(ys)), np.asarray(pair.h1.cdf(ys))
    ys = np.where((f0 == 1.0) & (f1 == 1.0), h_sat, np.where((f0 == 0.0) & (f1 == 0.0), l_sat, ys))
    try:
        accs = _accuracies(pair, ys, h0_first)
    except SolverFailureError as exc:
        for t in rows.tolist():
            refusals[t] = exc
        return zetas, columns, refusals, refined
    acc[rows], sens[rows], bounds[rows] = accs, _norms(_gradients(pair, ys, h0_first), norm), ys.T
    miss = np.abs(accs - zetas[rows]) > ACCURACY_TOL
    for t, a in zip(rows[miss].tolist(), accs[miss].tolist()):
        refusals[t] = SolverFailureError(
            f"refined point misses accuracy target: |{a!r} - {targets[t]!r}| > {ACCURACY_TOL}"
        )
    acc[rows[miss]] = sens[rows[miss]] = np.nan
    return zetas, columns, refusals, refined


def constrained_min_sensitivity(
    pair: HypothesisPair, zeta: float, norm: Norm = Norm.INF, n_boundaries: int = 2
) -> TradeoffPoint:
    """Minimum-sensitivity classifier of 1, 2 or 3 boundaries with accuracy == zeta.

    The orientation is that of the maximum-accuracy classifier; a target
    above the best accuracy n boundaries reach in it (the top of
    ``default_zeta_grid``) by more than 1e-9 is infeasible, one at or above
    it returns that classifier (padded with H*) where its boundaries are
    known, and the chance target returns coincident boundaries with
    sensitivity 0.  One boundary:
    the level set is the finite set of roots of acc(y) = zeta, at most one per
    segment of G, and the best root is exact.  Two: the level set is solved
    on every branch at every grid point, in both parametrizations (each
    misses the points where its branches turn vertical), and the grid minima
    of all branches are refined by the zoom.  Three: each boundary in turn is
    solved with the other two on all sorted pairs of every PAIR_STRIDE-th grid
    point (the ratio roots and saturation points among them), and the best
    point of each free boundary and segment is refined by the zoom over both
    fixed boundaries.  The scan solves a grid point or pair only on the
    segments where the level set crosses between its fixed neighbours,
    which G on the grid shows without a solve.  The zoom is a local search:
    at an inf-norm minimum on a long ridge where two gradient components tie
    it can stop above the true minimum.  The best zoom result is kept, the
    first of equal ones; the zoom's first round solves each grid minimum
    itself again, so the scan, which only ranks the grid points, never gives
    the answer.  Three boundaries also take the two-boundary minimum as a
    candidate, after the zoom's, and a target the two-boundary solve refuses
    is refused with its error.  Every level-set point, in the scan
    and in every zoom round, is solved by safeguarded Newton steps from one
    grid cell: the cell of its segment where the accuracy crosses the
    target.  A boundary where both cdfs read exactly 1 (or 0), in the flat
    tail where the solver may leave it anywhere, is reported at H* (or L*).

    This is the one-target case of the solver that ``general_curve`` runs on
    its whole grid.  A target that is not a finite number in [0, 1], or a
    boundary count that is not an integer in [1, 3], raises
    InvalidParameterError.
    """
    _, columns, (refusal,), _ = _constrained_minima(pair, [zeta], norm, n_boundaries)
    if refusal is not None:
        raise refusal
    (a,), (s,), (bounds,), (first,), (target,) = (c.tolist() for c in columns)
    return TradeoffPoint(a, s, tuple(bounds), _ORIENTATION[first], "constrained", target)


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
    zetas, columns, refusals, refined = _constrained_minima(pair, zeta_grid, norm, n_boundaries)
    # highest target first; the sort is stable, so equal targets keep their order
    order = np.argsort(-zetas, kind="stable").tolist()
    metadata = {
        "zeta_points": int(zetas.size),
        "n_boundaries": int(n_boundaries),
        "failed_zetas": [
            {"zeta": zetas[t].item(), "error": str(refusals[t])} for t in order if refusals[t] is not None
        ],
        "refined_minima": refined,
    }
    solved = np.asarray([t for t in order if refusals[t] is None], dtype=np.intp)
    counts = np.full(solved.size, n_boundaries, dtype=np.intp)
    return _assemble(tuple(c[solved] for c in columns), counts, norm, "general", pair, metadata)
