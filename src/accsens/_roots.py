"""The numerics that the ratio roots, the frontier and the design share: one
bracketed root solver and one window zoom, on numpy alone.

``_newton`` solves many monotone brackets at once by safeguarded Newton
steps from a residual, its slope, its rounding scale and optionally its
curvature, which the caller supplies; its docstring holds the stop rules.
``_zoom`` refines grid minima of an objective the caller supplies, under
the schedule ``ZOOM``.
"""

from __future__ import annotations

import numpy as np

#: Points a bracket of ``_newton`` takes at most; it then stops at its midpoint.
NEWTON_STEPS = 200

#: The zoom's schedule, by the number of fixed coordinates: samples per
#: coordinate, sample spacings kept on either side of the best sample, rounds.
#: One coordinate: each round shrinks the window by a factor 32, from the
#: two grid cells beside the grid minimum down to about 1e-6 of a cell, and
#: one interpolation step then ends the zoom (see ``_interpolation_points``):
#: a parabola's vertex finds a smooth minimum and two secant lines an
#: inf-norm kink far below that spacing.  Two: a factor 8/3 per round, down
#: to about 2e-11 of a cell; a window of one spacing either side loses the
#: inf-norm minima that lie on a ridge where two gradient components tie and
#: the ridge crosses the sample grid diagonally.
ZOOM = {1: (65, 1, 4), 2: (17, 3, 25)}


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
    (r G'' > 0) or one on each side of z (r G'' < 0).  A curvature that
    is not finite keeps the Newton point: the quadratic's step would be 0
    or NaN.  Returns where the condition fails for a finite curvature."""
    excess = r * curvature
    np.abs(excess, out=excess)
    excess *= 2.0
    fold = excess > slope * slope
    if not fold.any():
        return fold
    fold &= np.isfinite(curvature)
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
    grid's ratio roots (``boundary_solver._grid_solve``), the frontier's
    level sets and the design's separation roots.

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
      residual at the bracket's far end (the curvature alone reads nearly 0
      at an inflection point, where the step's error is cubic), so the point
      that would confirm it is never evaluated; a NaN or infinite curvature
      certifies no step;
    * at its midpoint once it is narrower than ``tol``, or once it has taken
      NEWTON_STEPS points.

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
    for _ in range(NEWTON_STEPS):
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


def _zoom_samples(points, dims):
    """A zoom's samples over ``dims`` coordinates: their offsets in [-1, 1],
    0 at the middle sample of each axis, and whether the window's new below
    and above sides come from its above side when a sample is the best (the
    second: whether the above side scales the sample's offset)."""
    k = np.indices((points,) * dims).reshape(dims, -1)
    return np.linspace(-1.0, 1.0, points)[k], np.stack([k > points // 2, k >= points // 2], axis=-1)


_ZOOM_SAMPLES = {dims: _zoom_samples(points, dims) for dims, (points, _, _) in ZOOM.items()}


def _interpolation_points(x, s, j):
    """The interpolation step of a one-coordinate zoom: five points for each
    row of the samples x (minimum, sample), which read s and are best at j.

    The stencil is j and two samples on either side of it, its centre j
    clipped to [2, samples - 3]; with the stencil's samples numbered 0 to 4,
    the points are the vertices of the parabolas through samples 1, 2 and 3
    of s and of s squared (Brent's parabolic step, for a smooth minimum; the
    square is smooth also where a two-norm bottoms out near zero and s
    turns like a hyperbola, sharper than any parabola of s at this
    spacing), and where the secant line through samples 0 and 1, or 1 and
    2, crosses the one through samples 3 and 4, or 2 and 3 (for a kink,
    where the lines of its two sides cross), but not the pair (1, 2) and
    (2, 3), whose crossing is sample 2.  The crossings with a line through
    sample 2 find the kinks near a grid end, where the samples past it,
    clipped onto it, leave sample 0 on sample 1 (or 4 on 3).  A point that
    is not finite (samples that tie or coincide, an infinite value) is the
    centre x_2, and each point is clipped to [x_1, x_3].  Returns the
    points, shape (minimum, 5).
    """
    at = np.clip(j, 2, x.shape[1] - 3)[:, None] + np.arange(-2, 3)
    (x0, x1, x2, x3, x4), (f0, f1, f2, f3, f4) = (np.take_along_axis(v, at, axis=1).T for v in (x, s))

    def vertex(g1, g2, g3):
        p, q = (x2 - x1) * (g2 - g3), (x2 - x3) * (g2 - g1)
        return x2 - 0.5 * ((x2 - x1) * p - (x2 - x3) * q) / (p - q)

    with np.errstate(all="ignore"):
        m01, m12, m23, m34 = (f1 - f0) / (x1 - x0), (f2 - f1) / (x2 - x1), (f3 - f2) / (x3 - x2), (f4 - f3) / (x4 - x3)
        points = np.stack(
            [
                vertex(f1, f2, f3),
                vertex(f1 * f1, f2 * f2, f3 * f3),
                x1 + (f3 - f1 - m34 * (x3 - x1)) / (m01 - m34),
                x2 + (f3 - f2 - m34 * (x3 - x2)) / (m12 - m34),
                x1 + (f2 - f1 - m23 * (x2 - x1)) / (m01 - m23),
            ],
            axis=-1,
        )
    points = np.where(np.isfinite(points), points, x2[:, None])
    return np.minimum(np.maximum(points, x1[:, None]), x3[:, None])


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
    starting grid point.  One coordinate ends with an interpolation step:
    the five points of ``_interpolation_points`` around the last round's
    best sample, all minima in one more ``solve`` call, and the lowest of
    them, the first on a tie, replaces that sample only where it is strictly
    lower.  Returns the value and the columns of each minimum's best
    sample.
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
    best = [v[rows, j] for v in (s, *cols)]
    if len(idx) == 1:
        points = _interpolation_points(fixed[0], s, j)
        s, cols = solve(points[None])
        k = s.argmin(axis=1)
        lower = s[rows, k] < best[0]
        best = [np.where(lower, v[rows, k], b) for v, b in zip((s, *cols), best)]
    return tuple(best)
