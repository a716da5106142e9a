"""Numerical verification of the technical assumptions behind the
accuracy/sensitivity tradeoff at the maximum-accuracy configuration.

The three assumptions, for the unit-threshold ratio classifier with
boundaries y*:

* A1 - the accuracy gradient in the distribution parameters has a unique
  largest absolute component (index j).  Near-ties are flagged as fragile:
  they are the qualitative failure mode, and they also degrade the inf-norm
  derivative numerically.
* A2 - at least one boundary responds to theta_j and carries a nonvanishing
  second derivative of accuracy: w_i(y_i*) * d y_i*/d theta_j != 0.
* A3 - the boundary response to the threshold is not orthogonal to the
  sensitivity gradient in the boundaries.

The implicit-function derivatives (d y*/d theta, d y/d eta) are finite
differences of re-solves of the boundary equation under perturbation;
``WitnessResult.identity_defect``, the defect of the mixed-derivative
identity (``_identity_defect``), guards the theta responses.  Everything
else is exact: the accuracy gradient g = dA/dtheta, the curvature weights w
and the Jacobian J = dg/dy (``_boundary_jacobian``), from which the
sensitivity slope dS/dy is sign(g_j) J[j] (inf norm) or g J / ||g|| (two norm).

The verdicts are about the pair alone: every check takes its finite-difference
steps and tolerances from the module constants below, and every
``AssumptionReport`` records them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from ._records import plain
from .boundary_solver import (
    LikelihoodRootReport,
    _ml_boundaries_many,
    _ml_solve_many,
    _resolved,
    ml_boundaries,
)
from .classifier import (
    Norm,
    Orientation,
    _accuracies,
    _gradients,
    _norms,
    boundary_signs,
    region_accuracy_gradient,
)
from .densities import HypothesisPair
from .errors import SolverFailureError

A1_GAP_TOL = 1e-6
A2_PRODUCT_TOL = 1e-8
A3_INNER_TOL = 1e-8
THETA_FD_STEP = 1e-5
ETA_FD_STEP = 1e-5
WITNESS_TOL = 1e-7
IDENTITY_TOL = 1e-5
DESCENT_STEP = 1e-3


class Verdict(str, Enum):
    NONZERO = "nonzero"
    ZERO = "zero"
    WITHHELD = "withheld"  # inf-norm derivative undefined: A1 does not hold


@dataclass(frozen=True)
class A1Result:
    holds: bool
    gap: float
    index: int
    fragile: bool
    gradient: tuple[float, ...]

    to_dict = plain


def check_a1(pair: HypothesisPair) -> A1Result:
    """Uniqueness of the largest absolute accuracy-gradient component."""
    base = _resolved(ml_boundaries(pair, 1.0))
    return _check_a1(region_accuracy_gradient(pair, base.roots, base.orientation))


def _check_a1(grad: np.ndarray) -> A1Result:
    mags = np.abs(grad)
    order = np.argsort(mags)[::-1]
    gap = float(mags[order[0]] - mags[order[1]]) if len(mags) > 1 else float(mags[order[0]])
    holds = gap > A1_GAP_TOL
    return A1Result(holds, gap, int(order[0]), not holds, tuple(grad))


def _theta_responses(
    pair: HypothesisPair, base: LikelihoodRootReport, components=None
) -> tuple[np.ndarray, list[tuple[str, ...]]]:
    """d y_i*/d theta_j for every component j of ``components`` (by default
    all m), one row each, by re-solving the boundary equation at
    theta + h e_j and at theta - h e_j, h = ``THETA_FD_STEP``.  All the
    re-solves are one ``_ml_solve_many`` call on a stack of parameter rows,
    in the order of the components with + before -, so that the first
    failing re-solve is the one a solve per row meets first.  Returns the
    response rows and the re-solves' warnings, in that order.

    Roots are matched to the unperturbed ones by proximity; a root that
    survives on one side only falls back to a one-sided difference.
    """
    components = list(range(pair.theta.size) if components is None else components)
    k = np.arange(len(components))
    thetas = np.repeat(pair.theta[None, :], 2 * k.size, axis=0)
    thetas[2 * k, components] += THETA_FD_STEP
    thetas[2 * k + 1, components] -= THETA_FD_STEP
    _, _, roots, _, warnings, _ = _ml_solve_many(pair, [1.0] * (2 * k.size), thetas=thetas)

    def nearest(roots: tuple[float, ...], r: float) -> float | None:
        if not roots:
            return None
        cand = min(roots, key=lambda t: abs(t - r))
        window = max(1.0, abs(r)) * 0.5
        return cand if abs(cand - r) < window else None

    out = np.empty((k.size, len(base.roots)))
    for row, (j, plus, minus) in enumerate(zip(components, roots[::2], roots[1::2])):
        for i, r in enumerate(base.roots):
            r_plus, r_minus = nearest(plus, r), nearest(minus, r)
            if r_plus is not None and r_minus is not None:
                out[row, i] = (r_plus - r_minus) / (2.0 * THETA_FD_STEP)
            elif r_plus is not None:
                out[row, i] = (r_plus - r) / THETA_FD_STEP
            elif r_minus is not None:
                out[row, i] = (r - r_minus) / THETA_FD_STEP
            else:
                raise SolverFailureError(
                    f"boundary {r!r} vanished under both theta perturbations of component {j}"
                )
    return out, warnings


def curvature_weights(
    pair: HypothesisPair, boundaries, orientation: Orientation
) -> np.ndarray:
    """Diagonal of the second derivative of accuracy in the boundaries:
    w_i = s_i * (p0 f0'(y_i) - p1 f1'(y_i)) with the alternating sign s_i."""
    b = np.asarray(boundaries, dtype=float)
    signs = boundary_signs(b.size, orientation)
    return signs * (
        pair.p0 * np.atleast_1d(pair.h0.pdf_dx(b)) - pair.p1 * np.atleast_1d(pair.h1.pdf_dx(b))
    )


@dataclass(frozen=True)
class A2Result:
    holds: bool
    witness_index: int
    witness_value: float
    products: tuple[float, ...]
    theta_index: int
    step: float

    to_dict = plain


def check_a2(pair: HypothesisPair, j: int | None = None) -> A2Result:
    """Nonvanishing boundary response: any |w_i(y_i*) dy_i*/dtheta_j| >
    ``A2_PRODUCT_TOL``; j defaults to A1's index."""
    base = _resolved(ml_boundaries(pair, 1.0))
    if j is None:
        j = _check_a1(region_accuracy_gradient(pair, base.roots, base.orientation)).index
    w = curvature_weights(pair, base.roots, base.orientation)
    return _check_a2(w, j, _theta_responses(pair, base, [j])[0][0])


def _check_a2(w: np.ndarray, j: int, dy: np.ndarray) -> A2Result:
    products = w * dy
    witness = int(np.argmax(np.abs(products)))
    return A2Result(
        bool(np.abs(products[witness]) > A2_PRODUCT_TOL),
        witness,
        float(products[witness]),
        tuple(products),
        j,
        THETA_FD_STEP,
    )


def _boundary_jacobian(pair: HypothesisPair, report: LikelihoodRootReport) -> np.ndarray:
    """J = d(dA/dtheta)/dy at the boundaries of ``report``, shape (m, n): rows
    theta components, columns boundaries.  Analytic: the parameter gradients
    of the pdfs with the alternating interval signs."""
    y = np.asarray(report.roots, dtype=float)
    g0 = np.atleast_2d(pair.h0.grad_pdf_params(y))  # (m0, n)
    g1 = np.atleast_2d(pair.h1.grad_pdf_params(y))  # (m1, n)
    return boundary_signs(y.size, report.orientation) * np.concatenate(
        [pair.p0 * g0, -pair.p1 * g1]
    )


def _slope(grad: np.ndarray, jac: np.ndarray, norm: Norm) -> np.ndarray:
    """dS/dy for S = ||grad||, from the Jacobian ``jac`` = d grad/dy."""
    if norm is Norm.INF:
        # at a tie (A1 fails) np.argmax takes the first largest component
        j = int(np.argmax(np.abs(grad)))
        return np.sign(grad[j]) * jac[j]
    size = float(np.linalg.norm(grad))
    return grad @ jac / size if size > 0.0 else np.zeros(jac.shape[1])


def sensitivity_boundary_gradient(
    pair: HypothesisPair,
    report: LikelihoodRootReport,
    norm: Norm = Norm.INF,
) -> np.ndarray:
    """Exact d S/d y_i at the given boundaries.

    With the inf norm this is the slope of the first largest absolute
    gradient component; where another component ties it (A1 fails), that is
    one of the two one-sided derivatives.  With the two norm it is 0 where
    the gradient vanishes.
    """
    grad = region_accuracy_gradient(pair, report.roots, report.orientation)
    return _slope(grad, _boundary_jacobian(pair, report), norm)


@dataclass(frozen=True)
class A3Result:
    holds: bool
    inner_product: float
    eta_response: tuple[float, ...]
    sens_gradient: tuple[float, ...]

    to_dict = plain


def check_a3(pair: HypothesisPair, norm: Norm = Norm.INF) -> A3Result:
    """Non-orthogonality of the threshold response and the sensitivity slope."""
    base, stencil = _eta_stencil(pair)
    return _check_a3(base, stencil, sensitivity_boundary_gradient(pair, base, norm))


def _eta_stencil(
    pair: HypothesisPair,
) -> tuple[LikelihoodRootReport, tuple[LikelihoodRootReport, ...]]:
    """The unit-threshold boundaries and those at thresholds 1 + h and
    1 - h, h = ``ETA_FD_STEP``, from one ``_ml_boundaries_many`` call."""
    base, plus, minus = _ml_boundaries_many(pair, (1.0, 1.0 + ETA_FD_STEP, 1.0 - ETA_FD_STEP))
    return _resolved(base), (plus, minus)


def _check_a3(
    base: LikelihoodRootReport, stencil: tuple[LikelihoodRootReport, ...], ds_dy: np.ndarray
) -> A3Result:
    plus, minus = stencil
    if len(plus.roots) != len(base.roots) or len(minus.roots) != len(base.roots):
        raise SolverFailureError("boundary count changed inside the eta stencil")
    dy_deta = (np.asarray(plus.roots) - np.asarray(minus.roots)) / (2.0 * ETA_FD_STEP)
    ip = float(np.dot(dy_deta, ds_dy))
    return A3Result(bool(abs(ip) > A3_INNER_TOL), ip, tuple(dy_deta), tuple(ds_dy))


@dataclass(frozen=True)
class WitnessResult:
    """Nonzero-slope witness for the sensitivity at the accuracy optimum,
    plus the mixed-derivative identity audit and a descent probe."""

    verdict: Verdict
    gradient: tuple[float, ...]
    gradient_norm: float
    identity_ok: bool
    identity_defect: float
    descent_found: bool
    descent_sensitivity_drop: float
    descent_accuracy_change: float
    norm: Norm

    to_dict = plain


def _identity_defect(jac: np.ndarray, w: np.ndarray, dy) -> float:
    """Max componentwise defect of the identity

        d/dy_i (dA/dtheta_j) |_{y*}  =  - w_i(y_i*) * d y_i*/d theta_j

    at the unit-threshold optimum: the left side is the exact Jacobian
    ``jac``, the right side uses the re-solve response rows
    dy[j] = d y*/d theta_j.
    """
    return float(np.max(np.abs(jac + w * np.asarray(dy)), initial=0.0))


def sensitivity_slope_witness(pair: HypothesisPair, norm: Norm = Norm.INF) -> WitnessResult:
    """Certify a strictly-decreasing sensitivity direction at the optimum.

    Reports the exact slope of the sensitivity in the boundaries
    at the maximum-accuracy configuration, audits the mixed-derivative
    identity, and probes one descent step: sensitivity must drop strictly
    while accuracy cannot rise (the optimum already maximizes it).

    With the inf norm the verdict is withheld when A1 fails: the norm is not
    differentiable at a tied maximum.
    """
    base = _resolved(ml_boundaries(pair, 1.0))
    dy, _ = _theta_responses(pair, base)
    grad = region_accuracy_gradient(pair, base.roots, base.orientation)
    jac = _boundary_jacobian(pair, base)
    w = curvature_weights(pair, base.roots, base.orientation)
    return _witness(
        pair, base, _check_a1(grad), _slope(grad, jac, norm), _identity_defect(jac, w, dy), norm
    )


def _witness(
    pair: HypothesisPair,
    report: LikelihoodRootReport,
    a1: A1Result,
    grad: np.ndarray,
    defect: float,
    norm: Norm,
) -> WitnessResult:
    gnorm = float(np.max(np.abs(grad))) if grad.size else 0.0

    if norm is Norm.INF and not a1.holds:
        verdict = Verdict.WITHHELD
    else:
        verdict = Verdict.NONZERO if gnorm > WITNESS_TOL else Verdict.ZERO

    descent_found = False
    drop = 0.0
    dacc = 0.0
    size = float(np.linalg.norm(grad))
    if size > 0.0:  # 0 also for a slope below 1e-154, whose squares underflow
        direction = -grad / size
        y = np.asarray(report.roots, dtype=float)
        # the optimum and the descent step, evaluated together
        ys = np.stack([y, np.sort(y + DESCENT_STEP * direction)], axis=1)
        h0_first = report.orientation is Orientation.H0_FIRST
        s0, s1 = _norms(_gradients(pair, ys, h0_first), norm).tolist()
        a0, a1_val = _accuracies(pair, ys, h0_first).tolist()
        drop, dacc = s0 - s1, a1_val - a0
        descent_found = drop > 0.0 and dacc <= 1e-12

    return WitnessResult(
        verdict,
        tuple(grad),
        gnorm,
        bool(defect <= IDENTITY_TOL),
        defect,
        descent_found,
        drop,
        dacc,
        norm,
    )


@dataclass(frozen=True)
class AssumptionReport:
    """Bundle of all assumption checks for one pair, with the steps and
    tolerances that produced the verdicts.

    ``warnings`` holds the distinct warnings of the boundary solves behind
    the checks, in first-seen order; ``to_dict`` lists them only when a
    solve warned, so the report of a clean pair keeps its plain form.
    """

    a1: A1Result
    a2: A2Result
    a3: A3Result
    witness: WitnessResult
    steps: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    warnings: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        out = plain(self)
        if not self.warnings:
            del out["warnings"]
        return out


def run_all_checks(pair: HypothesisPair, norm: Norm = Norm.INF) -> AssumptionReport:
    """All checks, with the steps and tolerances recorded on the report.

    Each boundary problem is solved once and shared: the base solve, the
    theta re-solves (A2 and the identity audit) and the eta stencil (A3),
    1 + 2m + 2 solves for m distribution parameters, in two front-door
    calls.  The base and the eta stencil come from one
    ``_ml_boundaries_many`` call: one closed-form call for a Gaussian or
    exponential pair, or one grid scan otherwise, for all three thresholds.
    The 2m theta re-solves come from one ``_ml_solve_many`` call on their
    parameter rows (``_theta_responses``): one closed-form call for a
    Gaussian or exponential pair, one grid scan per row otherwise.  The
    boundary derivatives are evaluated once each at
    the base: the accuracy gradient g (A1), the curvature weights w (A2 and
    the identity) and the Jacobian J = dg/dy (the identity, and with g the
    sensitivity slope of A3 and the witness).
    """
    base, stencil = _eta_stencil(pair)
    dy, theta_warnings = _theta_responses(pair, base)
    grad = region_accuracy_gradient(pair, base.roots, base.orientation)
    jac = _boundary_jacobian(pair, base)
    weights = curvature_weights(pair, base.roots, base.orientation)
    slope = _slope(grad, jac, norm)
    a1 = _check_a1(grad)
    a2 = _check_a2(weights, a1.index, dy[a1.index])
    a3 = _check_a3(base, stencil, slope)
    witness = _witness(pair, base, a1, slope, _identity_defect(jac, weights, dy), norm)
    solves = (base.warnings, *theta_warnings, *(report.warnings for report in stencil))
    return AssumptionReport(
        a1,
        a2,
        a3,
        witness,
        steps={"theta_fd": THETA_FD_STEP, "eta_fd": ETA_FD_STEP, "descent": DESCENT_STEP},
        tolerances={
            "a1_gap": A1_GAP_TOL,
            "a2_product": A2_PRODUCT_TOL,
            "a3_inner": A3_INNER_TOL,
            "witness": WITNESS_TOL,
            "identity": IDENTITY_TOL,
        },
        warnings=tuple(dict.fromkeys(w for warnings in solves for w in warnings)),
    )
