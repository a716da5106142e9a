"""Accuracy-sensitivity frontier tracing for three classifier families.

Three sweeps produce comparable curves for one hypothesis pair:

* ``ml_curve``    - threshold sweep of the likelihood-ratio classifier;
* ``linear_curve`` - sweep of a single boundary, best orientation per point;
* ``general_curve`` - for each accuracy level zeta, the boundary set of the
  requested size with the smallest sensitivity subject to accuracy == zeta.

The constrained minimum is nonconvex.  For two boundaries it is solved
deterministically in two stages: a dense accuracy grid over (y1, y2) whose
level set is extracted by marching-squares edge interpolation, then projected
coordinate descent from the best contour vertices (perturb one boundary,
restore the accuracy equality by one-dimensional root finding on the other,
accept on sensitivity decrease).  Matched-accuracy candidates from the ratio
and single-boundary families are seeded in as well, so their curves can never
undercut the general one.  For more than two boundaries a multistart penalty
simplex search is used instead and the result is flagged best-effort.

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
from scipy.optimize import brentq

from .boundary_solver import _phi_cdf, _phi_pdf, default_search_interval, ml_boundaries
from .classifier import (
    Norm,
    Orientation,
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
DEFAULT_STAGE1 = (600, 600)
REFINE_CANDIDATES = 5
DESCENT_MAX_ITERS = 200
DESCENT_MIN_STEP = 1e-10


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
    for eta in grid:
        report = ml_boundaries(pair, float(eta))
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
                float(eta),
            )
        )
    return _assemble(points, norm, "ml", pair, {"eta_points": int(grid.size), "degenerate_etas": degenerate})


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
    points: list[TradeoffPoint] = []
    for y in grid:
        acc0 = region_accuracy(pair, (y,), Orientation.H0_FIRST)
        orientation = Orientation.H0_FIRST if acc0 >= 0.5 else Orientation.H1_FIRST
        acc = acc0 if acc0 >= 0.5 else 1.0 - acc0
        grad = region_accuracy_gradient(pair, (y,), orientation)
        points.append(TradeoffPoint(acc, apply_norm(grad, norm), (float(y),), orientation, "linear", float(y)))
    return _assemble(points, norm, "linear", pair, {"y_points": int(grid.size)})


# ---- constrained minimum for two boundaries ----


class _PairGrid:
    """Precomputed axis cdfs and the accuracy surface over (y1, y2).

    For Gaussian pairs the scalar accuracy/sensitivity evaluations used by
    the inner descent loop bypass the array machinery; the formulas are the
    same ones the generic path evaluates, so the fast path never changes the
    result beyond float rounding.
    """

    def __init__(self, pair: HypothesisPair, orientation: Orientation, lo: float, hi: float, shape):
        self.pair = pair
        self.orientation = orientation
        self.lo, self.hi = lo, hi
        nx = shape[0]
        self.axis = np.linspace(lo, hi, nx)
        f0 = np.atleast_1d(pair.h0.cdf(self.axis))
        f1 = np.atleast_1d(pair.h1.cdf(self.axis))
        acc = pair.p0 * (f0[:, None] - f0[None, :] + 1.0) + pair.p1 * (f1[None, :] - f1[:, None])
        if orientation is Orientation.H1_FIRST:
            acc = 1.0 - acc
        self.acc = acc  # acc[i, j] for y1 = axis[i] <= y2 = axis[j]
        self.valid = np.triu(np.ones_like(acc, dtype=bool))
        self._gauss = (
            pair.h0.family is Family.GAUSSIAN and pair.h1.family is Family.GAUSSIAN
        )

    def accuracy(self, y1: float, y2: float) -> float:
        if self._gauss:
            mu0, s0 = self.pair.h0.params
            mu1, s1 = self.pair.h1.params
            c0 = _phi_cdf((y1 - mu0) / s0) - _phi_cdf((y2 - mu0) / s0) + 1.0
            c1 = _phi_cdf((y2 - mu1) / s1) - _phi_cdf((y1 - mu1) / s1)
            acc = self.pair.p0 * c0 + self.pair.p1 * c1
            return acc if self.orientation is Orientation.H0_FIRST else 1.0 - acc
        return region_accuracy(self.pair, (y1, y2), self.orientation)

    def sens_many(self, y1: np.ndarray, y2: np.ndarray, norm: Norm) -> np.ndarray:
        g0a = np.atleast_2d(self.pair.h0.grad_cdf_params(y1))
        g0b = np.atleast_2d(self.pair.h0.grad_cdf_params(y2))
        g1a = np.atleast_2d(self.pair.h1.grad_cdf_params(y1))
        g1b = np.atleast_2d(self.pair.h1.grad_cdf_params(y2))
        grad = np.concatenate(
            [self.pair.p0 * (g0a - g0b), -self.pair.p1 * (g1a - g1b)], axis=0
        )
        if self.orientation is Orientation.H1_FIRST:
            grad = -grad
        if norm is Norm.INF:
            return np.max(np.abs(grad), axis=0)
        return np.sqrt(np.sum(grad * grad, axis=0))

    def sensitivity(self, y1: float, y2: float, norm: Norm) -> float:
        if self._gauss:
            p0, p1 = self.pair.p0, self.pair.p1
            mu0, s0 = self.pair.h0.params
            mu1, s1 = self.pair.h1.params
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
        return float(self.sens_many(np.asarray([y1]), np.asarray([y2]), norm)[0])

    def level_vertices(self, zeta: float) -> tuple[np.ndarray, np.ndarray]:
        """Marching-squares edge crossings of the accuracy level set."""
        d = self.acc - zeta
        y1s: list[np.ndarray] = []
        y2s: list[np.ndarray] = []
        dx = self.axis[1] - self.axis[0]
        # horizontal edges: (i, j) -> (i, j+1)
        cross = (d[:, :-1] * d[:, 1:] < 0) & self.valid[:, :-1] & self.valid[:, 1:]
        ii, jj = np.nonzero(cross)
        if ii.size:
            t = d[ii, jj] / (d[ii, jj] - d[ii, jj + 1])
            y1s.append(self.axis[ii])
            y2s.append(self.axis[jj] + t * dx)
        # vertical edges: (i, j) -> (i+1, j)
        cross = (d[:-1, :] * d[1:, :] < 0) & self.valid[:-1, :] & self.valid[1:, :]
        ii, jj = np.nonzero(cross)
        if ii.size:
            t = d[ii, jj] / (d[ii, jj] - d[ii + 1, jj])
            y1s.append(self.axis[ii] + t * dx)
            y2s.append(self.axis[jj])
        if not y1s:
            return np.empty(0), np.empty(0)
        y1 = np.concatenate(y1s)
        y2 = np.concatenate(y2s)
        keep = y1 <= y2
        return y1[keep], y2[keep]

    def restore(self, zeta: float, y1: float, y2_init: float, fix_y1: bool = True):
        """Re-solve the accuracy equality in one coordinate near the start.

        Returns the restored (y1, y2) or None when no bracket exists within
        the grid interval.
        """
        if fix_y1:
            fn = lambda t: self.accuracy(y1, t) - zeta
            t0, t_lo, t_hi = y2_init, y1, self.hi
        else:
            fn = lambda t: self.accuracy(t, y2_init) - zeta
            t0, t_lo, t_hi = y1, self.lo, y2_init
        f0 = fn(t0)
        if f0 == 0.0:
            root = t0
        else:
            root = None
            step = max(1e-9, (self.hi - self.lo) * 1e-6)
            a = b = t0
            fa = fb = f0
            while step <= (self.hi - self.lo):
                moved = False
                if b < t_hi:
                    nb = min(b + step, t_hi)
                    fnb = fn(nb)
                    if fnb == 0.0 or fnb * fb < 0:
                        root = brentq(fn, b, nb, xtol=RESTORE_XTOL)
                        break
                    b, fb, moved = nb, fnb, True
                if a > t_lo:
                    na = max(a - step, t_lo)
                    fna = fn(na)
                    if fna == 0.0 or fna * fa < 0:
                        root = brentq(fn, na, a, xtol=RESTORE_XTOL)
                        break
                    a, fa, moved = na, fna, True
                step *= 2.0
                if not moved and (a <= t_lo and b >= t_hi):
                    break
            if root is None:
                return None
        pt = (y1, float(root)) if fix_y1 else (float(root), y2_init)
        if pt[0] > pt[1]:
            return None
        return pt


def _matched_eta_candidates(pair: HypothesisPair, zeta: float, orientation: Orientation):
    """Boundary pairs of the ratio classifier whose accuracy equals zeta.

    Accuracy rises toward the unit threshold from either side, so each branch
    is bisected independently on log-eta.
    """
    out = []

    def acc_of(log_eta: float) -> float | None:
        report = ml_boundaries(pair, math.exp(log_eta))
        if len(report.roots) != 2 or report.orientation is not orientation:
            return None
        return region_accuracy(pair, report.roots, report.orientation)

    for side in (-1.0, 1.0):
        lo_l, hi_l = 0.0, 0.0
        value = acc_of(0.0)
        if value is None or value < zeta:
            continue
        # walk outward until accuracy drops below zeta or the roots vanish
        step = 0.5
        edge = None
        while abs(hi_l) < 60.0:
            hi_l = hi_l + side * step
            value = acc_of(hi_l)
            if value is None or value < zeta:
                edge = hi_l
                break
            lo_l = hi_l
        if edge is None:
            continue

        def gap(log_eta: float) -> float:
            value = acc_of(log_eta)
            return (value - zeta) if value is not None else -1.0

        try:
            root = brentq(gap, min(lo_l, edge), max(lo_l, edge), xtol=1e-12)
        except ValueError:
            continue
        report = ml_boundaries(pair, math.exp(root))
        if len(report.roots) == 2 and report.orientation is orientation:
            out.append(report.roots)
    return out


def _matched_linear_candidates(grid: _PairGrid, zeta: float) -> list[tuple[float, float]]:
    """Near-single-boundary pairs at accuracy zeta: one boundary pinned at an
    interval edge, where the other interval's density mass is negligible."""
    out = []
    axis = grid.axis
    for pinned_hi in (True, False):
        if pinned_hi:
            acc_line = grid.acc[:, -1]  # y2 at hi, sweep y1
        else:
            acc_line = grid.acc[0, :]  # y1 at lo, sweep y2
        d = acc_line - zeta
        for i in np.nonzero(d[:-1] * d[1:] < 0)[0]:
            if pinned_hi:
                fn = lambda t: grid.accuracy(t, grid.hi) - zeta
            else:
                fn = lambda t: grid.accuracy(grid.lo, t) - zeta
            try:
                root = brentq(fn, axis[i], axis[i + 1], xtol=RESTORE_XTOL)
            except ValueError:
                continue
            out.append((float(root), grid.hi) if pinned_hi else (grid.lo, float(root)))
    return out


def _coordinate_descent(
    grid: _PairGrid, zeta: float, start: tuple[float, float], norm: Norm
) -> tuple[float, float, float]:
    """Projected descent along the accuracy level set."""
    y1, y2 = start
    best = grid.sensitivity(y1, y2, norm)
    h = 0.02 * (grid.hi - grid.lo)
    iters = 0
    while h > DESCENT_MIN_STEP and iters < DESCENT_MAX_ITERS:
        iters += 1
        improved = False
        for move_y1, delta in ((True, h), (True, -h), (False, h), (False, -h)):
            if move_y1:
                cand = grid.restore(zeta, min(max(y1 + delta, grid.lo), grid.hi), y2, fix_y1=True)
            else:
                cand = grid.restore(zeta, y1, min(max(y2 + delta, grid.lo), grid.hi), fix_y1=False)
            if cand is None:
                continue
            s = grid.sensitivity(cand[0], cand[1], norm)
            if s < best - 1e-16:
                y1, y2 = cand
                best = s
                improved = True
                break
        if not improved:
            h *= 0.5
    return y1, y2, best


def constrained_min_sensitivity(
    pair: HypothesisPair,
    zeta: float,
    norm: Norm = Norm.INF,
    grid: _PairGrid | None = None,
    stage1_shape=DEFAULT_STAGE1,
    refine_k: int = REFINE_CANDIDATES,
    extra_seeds: list[tuple[float, float]] | None = None,
) -> TradeoffPoint:
    """Minimum-sensitivity two-boundary classifier with accuracy == zeta."""
    base = ml_boundaries(pair, 1.0)
    if not base.roots:
        raise UnresolvedClassifierError("no maximum-accuracy boundaries for this pair")
    orientation = base.orientation
    acc_max = region_accuracy(pair, base.roots, orientation)
    if zeta > acc_max + 1e-9:
        raise InfeasibleTargetError(
            f"accuracy target {zeta!r} exceeds the attainable maximum {acc_max!r}"
        )
    if grid is None:
        lo, hi = default_search_interval(pair)
        grid = _PairGrid(pair, orientation, lo, hi, stage1_shape)

    # Saturated targets have exact closed answers: the maximum-accuracy point
    # itself, and (at the single-region accuracy) a coincident pair whose
    # gradient cancels identically.
    if len(base.roots) == 2 and abs(zeta - acc_max) <= 1e-9:
        y1, y2 = base.roots
        return TradeoffPoint(
            acc_max, grid.sensitivity(y1, y2, norm), (y1, y2), orientation, "constrained", zeta
        )
    degenerate_acc = pair.p0 if orientation is Orientation.H0_FIRST else pair.p1
    if abs(zeta - degenerate_acc) <= 1e-12:
        mid = 0.5 * (grid.lo + grid.hi)
        return TradeoffPoint(
            degenerate_acc, 0.0, (mid, mid), orientation, "constrained", zeta
        )

    y1v, y2v = grid.level_vertices(zeta)
    cand1 = [(float(a), float(b)) for a, b in zip(y1v, y2v)]
    seeds = list(extra_seeds or [])
    if len(base.roots) == 2:
        seeds += [tuple(r) for r in _matched_eta_candidates(pair, zeta, orientation)]
    seeds += _matched_linear_candidates(grid, zeta)
    restored = []
    for c in cand1 + seeds:
        fixed = grid.restore(zeta, c[0], c[1], fix_y1=True)
        if fixed is None:
            fixed = grid.restore(zeta, c[0], c[1], fix_y1=False)
        if fixed is not None:
            restored.append(fixed)
    if not restored:
        raise SolverFailureError(f"no feasible candidate found for accuracy target {zeta!r}")

    ys = np.asarray(restored)
    sens = grid.sens_many(ys[:, 0], ys[:, 1], norm)
    order = np.argsort(sens, kind="stable")[: max(1, refine_k)]
    best_pt = None
    best_s = math.inf
    for idx in order:
        y1, y2, s = _coordinate_descent(grid, zeta, (ys[idx, 0], ys[idx, 1]), norm)
        if s < best_s:
            best_s = s
            best_pt = (y1, y2)
    acc = float(grid.accuracy(best_pt[0], best_pt[1]))
    if abs(acc - zeta) > ACCURACY_TOL:
        raise SolverFailureError(
            f"refined point misses accuracy target: |{acc!r} - {zeta!r}| > {ACCURACY_TOL}"
        )
    return TradeoffPoint(
        acc, float(best_s), (float(best_pt[0]), float(best_pt[1])), orientation, "constrained", zeta
    )


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
    stage1_shape=DEFAULT_STAGE1,
    interval: tuple[float, float] | None = None,
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
        if interval is None:
            interval = default_search_interval(pair)
        grid = _PairGrid(pair, base.orientation, interval[0], interval[1], stage1_shape)
        metadata["stage1_shape"] = list(stage1_shape)
        carry: tuple[float, float] | None = None
        for zeta in sorted(zeta_grid, reverse=True):  # warm-start downward in accuracy
            try:
                pt = constrained_min_sensitivity(
                    pair, float(zeta), norm, grid=grid,
                    extra_seeds=[carry] if carry else None,
                )
            except (SolverFailureError, InfeasibleTargetError) as exc:
                metadata["failed_zetas"].append({"zeta": float(zeta), "error": str(exc)})
                continue
            points.append(pt)
            if len(pt.boundaries) == 2:
                carry = (pt.boundaries[0], pt.boundaries[1])
    else:
        metadata["best_effort"] = True
        for zeta in sorted(zeta_grid, reverse=True):
            pt = _penalty_min_sensitivity(pair, float(zeta), n_boundaries, norm)
            if pt is None:
                metadata["failed_zetas"].append({"zeta": float(zeta), "error": "infeasible"})
                continue
            points.append(pt)
    return _assemble(points, norm, "general", pair, metadata)
