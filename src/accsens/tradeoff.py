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
is evaluated on all branch points, and each branch's grid minimum is polished
by bounded Brent.  The grid reaches out to the saturation points where both
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

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from .boundary_solver import (
    _ml_boundaries_many,
    _phi_cdf,
    _phi_pdf,
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
from .densities import Family, HypothesisPair
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
#: Brent polish along a branch: tolerance of the first run relative to the
#: polished cells, and absolute tolerance of the second run (in the offset).
COARSE_XTOL = 1e-6
POLISH_XATOL = 1e-12
_SQRT_EPS = math.sqrt(np.finfo(float).eps)


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
    # region_accuracy(pair, (y,), H0_FIRST) on the whole grid, in its operation order
    acc0 = pair.p0 * np.asarray(pair.h0.cdf(grid)) + pair.p1 * (1.0 - np.asarray(pair.h1.cdf(grid)))
    _check_accuracy_range(acc0.tolist())
    h0_first = acc0 >= 0.5
    acc = np.where(h0_first, acc0, 1.0 - acc0)
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


def _scalar_kernels(pair: HypothesisPair, norm: Norm):
    """Scalar G(y) and sensitivity(y1, y2) for the polish.  Gaussian pairs use
    plain float math with the formulas of the array path."""
    if not (pair.h0.family is Family.GAUSSIAN and pair.h1.family is Family.GAUSSIAN):
        return (
            lambda y: float(_gap(pair, y)),
            lambda y1, y2: float(_sens_many(pair, np.asarray([y1]), np.asarray([y2]), norm)[0]),
        )
    p0, p1 = pair.p0, pair.p1
    mu0, s0 = pair.h0.params
    mu1, s1 = pair.h1.params

    def gap(y: float) -> float:
        return p0 * _phi_cdf((y - mu0) / s0) - p1 * _phi_cdf((y - mu1) / s1)

    def sens(y1: float, y2: float) -> float:
        z01, z02 = (y1 - mu0) / s0, (y2 - mu0) / s0
        z11, z12 = (y1 - mu1) / s1, (y2 - mu1) / s1
        f01, f02 = _phi_pdf(z01) / s0, _phi_pdf(z02) / s0
        f11, f12 = _phi_pdf(z11) / s1, _phi_pdf(z12) / s1
        g = (
            p0 * (f02 - f01),
            p0 * (z02 * f02 - z01 * f01),
            p1 * (f11 - f12),
            p1 * (z11 * f11 - z12 * f12),
        )
        if norm is Norm.INF:
            return max(abs(v) for v in g)
        return math.sqrt(sum(v * v for v in g))

    return gap, sens


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
    """Bisect G(x) = target on all brackets at once; G is monotone on each."""
    rising = g_hi >= g_lo
    tol = 2.0 * np.finfo(float).eps
    while np.any(hi - lo > tol * (np.abs(lo) + np.abs(hi) + scale)):
        mid = 0.5 * (lo + hi)
        right = (_gap(pair, mid) < target) == rising  # the root lies right of mid
        lo = np.where(right, mid, lo)
        hi = np.where(right, hi, mid)
    return 0.5 * (lo + hi)


def _branch_points(pair, ys, gs, cuts, d, scale):
    """Level-set points G(y1) - G(y2) = d over the grid, both parametrizations.

    Side 0 fixes y1 = ys[i] and solves y2 >= y1 on segment k; side 1 fixes
    y2 = ys[i] and solves y1 <= y2.  Returns the boundary pairs and their
    mask, each of shape (2, len(ys), segments).
    """
    i = np.arange(ys.size)[:, None]
    seg_lo, seg_hi = cuts[None, :-1], cuts[None, 1:]
    shape = (ys.size, cuts.size - 1)
    a = np.stack([np.maximum(i, seg_lo), np.broadcast_to(seg_lo, shape)])
    b = np.stack([np.broadcast_to(seg_hi, shape), np.minimum(i, seg_hi)])
    target = np.broadcast_to(gs[None, :, None] + np.array([-d, d])[:, None, None], a.shape)
    ok = (a < b) & ((gs[a] - target) * (gs[b] - target) <= 0.0)
    x = np.zeros(a.shape)
    x[ok] = _bisect_level(pair, ys[a[ok]], ys[b[ok]], gs[a[ok]], gs[b[ok]], target[ok], scale)
    fixed = np.broadcast_to(ys[:, None], shape)
    return np.stack([fixed, x[1]]), np.stack([x[0], fixed]), ok


def _runs(mask: np.ndarray) -> list[tuple[int, int]]:
    """Half-open index ranges of the consecutive True entries."""
    edges = np.diff(np.concatenate(([0], mask.astype(np.int8), [0])))
    return list(zip(np.nonzero(edges == 1)[0].tolist(), np.nonzero(edges == -1)[0].tolist()))


def _polish_branch(kernels, ys, partners, run, i, side, segment, d):
    """Bounded Brent along one branch over the grid cells beside point i.

    ``partners`` holds the branch's solved coordinate at each grid point of
    the run.  Past the run's last grid point the branch goes on until its
    partner reaches a segment end; the polish covers that part of the cell
    too, so a branch shorter than one cell is polished as well.  Within a
    cell the partner is monotone, so brentq brackets it by its values at the
    ends of the polished part, else by the whole segment.  Returns
    (sensitivity, y1, y2), or None when the branch is a single point.
    """
    gap, sens = kernels
    start, stop = run
    y0, x0 = ys[i], partners[i]
    seg_lo, seg_hi = segment
    sign = 1.0 if side else -1.0  # the partner's G is G(fixed) + sign * d

    def reach(nb: int) -> tuple[float, float]:
        """Offset towards grid point nb where the branch ends, and the
        partner there."""
        if start <= nb < stop:
            return ys[nb] - y0, partners[nb]
        if 0 <= nb < ys.size:
            for end in segment:
                level = gap(end) - sign * d
                cell = sorted((y0, ys[nb]))
                try:
                    fixed = brentq(lambda v: gap(v) - level, *cell, xtol=RESTORE_XTOL)
                except ValueError:
                    continue
                return fixed - y0, end
        return 0.0, x0

    (t_lo, x_lo), (t_hi, x_hi) = reach(i - 1), reach(i + 1)
    if t_lo == t_hi:
        return None

    def ordered(fixed: float, v: float) -> tuple[float, float]:
        return (fixed, v) if side == 0 else (v, fixed)

    def solve(t: float) -> tuple[float, float] | None:
        fixed = y0 + t
        level = gap(fixed) + sign * d
        end = x_lo if t < 0 else x_hi
        whole = (max(fixed, seg_lo), seg_hi) if side == 0 else (seg_lo, min(fixed, seg_hi))
        for a, b in ((min(x0, end), max(x0, end)), whole):
            try:
                return ordered(fixed, brentq(lambda v: gap(v) - level, a, b, xtol=RESTORE_XTOL))
            except ValueError:
                continue
        return None

    def objective(t: float) -> float:
        pt = solve(t)
        return math.inf if pt is None else sens(*pt)

    # Brent runs on the offset from a reference point, because its tolerance
    # has a term relative to the variable: a coarse run over the cells from
    # the grid point, then a fine one from the coarse result (the fine
    # tolerance matters at the kinks of the inf norm).  An unsolvable offset
    # reads inf; Brent then takes golden-section steps, after numpy warns
    # about the inf - inf in its parabola.
    t, value = 0.0, math.inf
    bounds, xatol = (t_lo, t_hi), COARSE_XTOL * (t_hi - t_lo)
    for _ in range(2):
        center = t
        with np.errstate(invalid="ignore"):
            res = minimize_scalar(
                lambda u: objective(center + u), bounds=(bounds[0] - center, bounds[1] - center),
                method="bounded", options={"xatol": xatol},
            )
        if res.fun < value:
            t, value = center + float(res.x), float(res.fun)
        width = 4.0 * (_SQRT_EPS * abs(t - center) + xatol / 3.0)
        bounds, xatol = (max(t_lo, t - width), min(t_hi, t + width)), POLISH_XATOL
    pt = solve(t)
    return None if pt is None else (value, *pt)


def constrained_min_sensitivity(
    pair: HypothesisPair, zeta: float, norm: Norm = Norm.INF
) -> TradeoffPoint:
    """Minimum-sensitivity two-boundary classifier with accuracy == zeta.

    The level set is solved on every branch at every grid point, in both
    parametrizations (each misses the points where its branches turn
    vertical); each branch's grid minimum is polished by bounded Brent and
    the better of the two is kept.
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
    gs = _gap(pair, ys)
    cuts = np.searchsorted(ys, [l_sat, *(r for r in base.roots if l_sat < r < h_sat), h_sat])
    d = (zeta - degenerate_acc) * (1.0 if orientation is Orientation.H0_FIRST else -1.0)
    y1, y2, ok = _branch_points(pair, ys, gs, cuts, d, hi - lo)
    if not ok.any():
        raise SolverFailureError(f"no point of the accuracy level set found for target {zeta!r}")
    s = np.full(ok.shape, math.inf)
    s[ok] = _sens_many(pair, y1[ok], y2[ok], norm)

    kernels = _scalar_kernels(pair, norm)
    best = (math.inf, 0.0, 0.0)
    for side, partners in ((0, y2), (1, y1)):
        for k in range(cuts.size - 1):
            for run in _runs(ok[side, :, k]):
                i = run[0] + int(np.argmin(s[side, run[0]:run[1], k]))
                grid_pt = (s[side, i, k], y1[side, i, k], y2[side, i, k])
                segment = (ys[cuts[k]], ys[cuts[k + 1]])
                polished = _polish_branch(
                    kernels, ys, partners[side, :, k], run, i, side, segment, d
                )
                for cand in (grid_pt, polished):
                    if cand is not None and cand[0] < best[0]:
                        best = cand
    return point(best[1], best[2])


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
