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

All implicit-function derivatives (d y*/d theta, d y/d eta) are computed by
re-solving the boundary equation under perturbation rather than symbolically;
the mixed-derivative identity check below guards their correctness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .boundary_solver import LikelihoodRootReport, _ml_boundaries_many, ml_boundaries
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
from .errors import SolverFailureError, UnresolvedClassifierError

A1_GAP_TOL = 1e-6
A2_PRODUCT_TOL = 1e-8
A3_INNER_TOL = 1e-8
THETA_FD_STEP = 1e-5
ETA_FD_STEP = 1e-5
SENS_FD_STEP = 1e-6
WITNESS_TOL = 1e-7
IDENTITY_TOL = 1e-5
DESCENT_STEP = 1e-3


class Verdict(str, Enum):
    NONZERO = "nonzero"
    ZERO = "zero"
    WITHHELD = "withheld"  # inf-norm derivative undefined: A1 does not hold


def _ml_optimum(pair: HypothesisPair) -> LikelihoodRootReport:
    return _resolved(ml_boundaries(pair, 1.0))


def _resolved(report: LikelihoodRootReport) -> LikelihoodRootReport:
    if not report.roots:
        raise UnresolvedClassifierError(
            "the unit-threshold classifier has no boundaries for this pair"
        )
    return report


@dataclass(frozen=True)
class A1Result:
    holds: bool
    gap: float
    index: int
    fragile: bool
    gradient: tuple[float, ...]

    def to_dict(self) -> dict:
        return {
            "holds": self.holds,
            "gap": self.gap,
            "index": self.index,
            "fragile": self.fragile,
            "gradient": list(self.gradient),
        }


def check_a1(pair: HypothesisPair, tol: float = A1_GAP_TOL) -> A1Result:
    """Uniqueness of the largest absolute accuracy-gradient component."""
    return _check_a1(pair, _ml_optimum(pair), tol)


def _check_a1(pair: HypothesisPair, base: LikelihoodRootReport, tol: float) -> A1Result:
    grad = region_accuracy_gradient(pair, base.roots, base.orientation)
    mags = np.abs(grad)
    order = np.argsort(mags)[::-1]
    gap = float(mags[order[0]] - mags[order[1]]) if len(mags) > 1 else float(mags[order[0]])
    holds = gap > tol
    return A1Result(holds, gap, int(order[0]), not holds, tuple(grad))


def boundary_theta_response(
    pair: HypothesisPair, j: int, h: float = THETA_FD_STEP
) -> np.ndarray:
    """d y_i*/d theta_j by re-solving the boundary equation at theta +- h e_j.

    Roots are matched to the unperturbed ones by proximity; a root that
    survives on one side only falls back to a one-sided difference.
    """
    base = _ml_optimum(pair)
    return _theta_response(base, _theta_resolves(pair, j, h), j, h)


def _theta_resolves(pair: HypothesisPair, j: int, h: float) -> tuple[LikelihoodRootReport, ...]:
    """The unit-threshold boundaries at theta + h e_j and theta - h e_j."""
    reports = []
    for sign in (+1.0, -1.0):
        shifted = pair.theta.copy()
        shifted[j] += sign * h
        reports.append(ml_boundaries(pair.with_theta(shifted), 1.0))
    return tuple(reports)


def _theta_responses(
    pair: HypothesisPair, base: LikelihoodRootReport, h: float
) -> tuple[list[np.ndarray], list[LikelihoodRootReport]]:
    """Every response row d y*/d theta_j, plus the 2m re-solves behind them."""
    rows, solves = [], []
    for j in range(pair.theta.size):
        reports = _theta_resolves(pair, j, h)
        rows.append(_theta_response(base, reports, j, h))
        solves.extend(reports)
    return rows, solves


def _theta_response(
    base: LikelihoodRootReport, reports: tuple[LikelihoodRootReport, ...], j: int, h: float
) -> np.ndarray:
    def nearest(roots: tuple[float, ...], r: float) -> float | None:
        if not roots:
            return None
        cand = min(roots, key=lambda t: abs(t - r))
        window = max(1.0, abs(r)) * 0.5
        return cand if abs(cand - r) < window else None

    out = np.empty(len(base.roots))
    for i, r in enumerate(base.roots):
        r_plus = nearest(reports[0].roots, r)
        r_minus = nearest(reports[1].roots, r)
        if r_plus is not None and r_minus is not None:
            out[i] = (r_plus - r_minus) / (2.0 * h)
        elif r_plus is not None:
            out[i] = (r_plus - r) / h
        elif r_minus is not None:
            out[i] = (r - r_minus) / h
        else:
            raise SolverFailureError(
                f"boundary {r!r} vanished under both theta perturbations of component {j}"
            )
    return out


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

    def to_dict(self) -> dict:
        return {
            "holds": self.holds,
            "witness_index": self.witness_index,
            "witness_value": self.witness_value,
            "products": list(self.products),
            "theta_index": self.theta_index,
            "step": self.step,
        }


def check_a2(
    pair: HypothesisPair,
    j: int | None = None,
    h: float = THETA_FD_STEP,
    tol: float = A2_PRODUCT_TOL,
) -> A2Result:
    """Nonvanishing boundary response: any |w_i(y_i*) dy_i*/dtheta_j| > tol."""
    base = _ml_optimum(pair)
    if j is None:
        j = _check_a1(pair, base, A1_GAP_TOL).index
    dy = _theta_response(base, _theta_resolves(pair, j, h), j, h)
    return _check_a2(pair, base, j, dy, h, tol)


def _check_a2(
    pair: HypothesisPair,
    base: LikelihoodRootReport,
    j: int,
    dy: np.ndarray,
    h: float,
    tol: float,
) -> A2Result:
    w = curvature_weights(pair, base.roots, base.orientation)
    products = w * dy
    witness = int(np.argmax(np.abs(products)))
    return A2Result(
        bool(np.abs(products[witness]) > tol),
        witness,
        float(products[witness]),
        tuple(products),
        j,
        h,
    )


def sensitivity_boundary_gradient(
    pair: HypothesisPair,
    report: LikelihoodRootReport,
    norm: Norm = Norm.INF,
    h: float = SENS_FD_STEP,
) -> np.ndarray:
    """Finite-difference d S/d y_i at the given boundaries.

    With the inf norm the derivative is only one-sided wherever the arg-max
    component switches inside the stencil; the difference then falls back to
    the side on which the center's arg-max survives.  The 2n + 1 stencil
    columns (the center, then each boundary stepped up, then down) are
    evaluated in one call.
    """
    y = np.asarray(report.roots, dtype=float)
    n = y.size
    step = h * np.maximum(1.0, np.abs(y))
    shifts = np.concatenate([np.zeros((n, 1)), np.diag(step), np.diag(-step)], axis=1)
    grads = _gradients(pair, y[:, None] + shifts, report.orientation is Orientation.H0_FIRST)
    s = _norms(grads, norm)
    s_center, s_plus, s_minus = s[0], s[1 : n + 1], s[n + 1 :]
    out = (s_plus - s_minus) / (2.0 * step)
    if norm is Norm.INF:
        j = np.argmax(np.abs(grads), axis=0)
        ok_plus, ok_minus = j[1 : n + 1] == j[0], j[n + 1 :] == j[0]
        out = np.where(ok_plus & ~ok_minus, (s_plus - s_center) / step, out)
        out = np.where(ok_minus & ~ok_plus, (s_center - s_minus) / step, out)
    return out


@dataclass(frozen=True)
class A3Result:
    holds: bool
    inner_product: float
    eta_response: tuple[float, ...]
    sens_gradient: tuple[float, ...]

    def to_dict(self) -> dict:
        return {
            "holds": self.holds,
            "inner_product": self.inner_product,
            "eta_response": list(self.eta_response),
            "sens_gradient": list(self.sens_gradient),
        }


def check_a3(
    pair: HypothesisPair,
    norm: Norm = Norm.INF,
    h_eta: float = ETA_FD_STEP,
    tol: float = A3_INNER_TOL,
) -> A3Result:
    """Non-orthogonality of the threshold response and the sensitivity slope."""
    base, stencil = _eta_stencil(pair, h_eta)
    return _check_a3(pair, base, stencil, norm, h_eta, tol)


def _eta_stencil(
    pair: HypothesisPair, h_eta: float
) -> tuple[LikelihoodRootReport, tuple[LikelihoodRootReport, ...]]:
    """The unit-threshold boundaries and those at thresholds 1 + h_eta and
    1 - h_eta, from one ``_ml_boundaries_many`` call."""
    base, plus, minus = _ml_boundaries_many(pair, (1.0, 1.0 + h_eta, 1.0 - h_eta))
    return _resolved(base), (plus, minus)


def _check_a3(
    pair: HypothesisPair,
    base: LikelihoodRootReport,
    stencil: tuple[LikelihoodRootReport, ...],
    norm: Norm,
    h_eta: float,
    tol: float,
) -> A3Result:
    plus, minus = stencil
    if len(plus.roots) != len(base.roots) or len(minus.roots) != len(base.roots):
        raise SolverFailureError("boundary count changed inside the eta stencil")
    dy_deta = (np.asarray(plus.roots) - np.asarray(minus.roots)) / (2.0 * h_eta)
    ds_dy = sensitivity_boundary_gradient(pair, base, norm)
    ip = float(np.dot(dy_deta, ds_dy))
    return A3Result(bool(abs(ip) > tol), ip, tuple(dy_deta), tuple(ds_dy))


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

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "gradient": list(self.gradient),
            "gradient_norm": self.gradient_norm,
            "identity_ok": self.identity_ok,
            "identity_defect": self.identity_defect,
            "descent_found": self.descent_found,
            "descent_sensitivity_drop": self.descent_sensitivity_drop,
            "descent_accuracy_change": self.descent_accuracy_change,
            "norm": self.norm.value,
        }


def mixed_derivative_identity_defect(
    pair: HypothesisPair, report: LikelihoodRootReport, h: float = THETA_FD_STEP
) -> float:
    """Max componentwise defect of the identity

        d/dy_i (dA/dtheta_j) |_{y*}  =  - w_i(y_i*) * d y_i*/d theta_j.

    The left side is analytic (parameter gradients of the pdfs with the
    alternating interval signs); the right side uses the re-solve response.
    """
    dy, _ = _theta_responses(pair, _ml_optimum(pair), h)
    return _identity_defect(pair, report, dy)


def _identity_defect(pair: HypothesisPair, report: LikelihoodRootReport, dy) -> float:
    """The identity defect, given the response rows dy[j] = d y*/d theta_j."""
    y = np.asarray(report.roots, dtype=float)
    signs = boundary_signs(y.size, report.orientation)
    g0 = np.atleast_2d(pair.h0.grad_pdf_params(y))  # (m0, n)
    g1 = np.atleast_2d(pair.h1.grad_pdf_params(y))  # (m1, n)
    lhs = np.concatenate(
        [pair.p0 * (signs[None, :] * g0), -pair.p1 * (signs[None, :] * g1)], axis=0
    )  # (m, n): rows theta components, columns boundaries
    w = curvature_weights(pair, y, report.orientation)
    defect = 0.0
    for j in range(lhs.shape[0]):
        rhs = -w * dy[j]
        defect = max(defect, float(np.max(np.abs(lhs[j] - rhs))))
    return defect


def sensitivity_slope_witness(
    pair: HypothesisPair,
    norm: Norm = Norm.INF,
    grad_tol: float = WITNESS_TOL,
    identity_tol: float = IDENTITY_TOL,
    descent_step: float = DESCENT_STEP,
) -> WitnessResult:
    """Certify a strictly-decreasing sensitivity direction at the optimum.

    Reports the finite-difference slope of the sensitivity in the boundaries
    at the maximum-accuracy configuration, audits the mixed-derivative
    identity, and probes one descent step: sensitivity must drop strictly
    while accuracy cannot rise (the optimum already maximizes it).

    With the inf norm the verdict is withheld when A1 fails: the norm is not
    differentiable at a tied maximum.
    """
    base = _ml_optimum(pair)
    dy, _ = _theta_responses(pair, base, THETA_FD_STEP)
    return _witness(
        pair,
        base,
        _check_a1(pair, base, A1_GAP_TOL),
        sensitivity_boundary_gradient(pair, base, norm),
        _identity_defect(pair, base, dy),
        norm,
        grad_tol,
        identity_tol,
        descent_step,
    )


def _witness(
    pair: HypothesisPair,
    report: LikelihoodRootReport,
    a1: A1Result,
    grad: np.ndarray,
    defect: float,
    norm: Norm,
    grad_tol: float,
    identity_tol: float,
    descent_step: float,
) -> WitnessResult:
    gnorm = float(np.max(np.abs(grad))) if grad.size else 0.0

    if norm is Norm.INF and not a1.holds:
        verdict = Verdict.WITHHELD
    else:
        verdict = Verdict.NONZERO if gnorm > grad_tol else Verdict.ZERO

    descent_found = False
    drop = 0.0
    dacc = 0.0
    if gnorm > 0.0:
        direction = -grad / float(np.linalg.norm(grad))
        y = np.asarray(report.roots, dtype=float)
        # the optimum and the descent step, evaluated together
        ys = np.stack([y, np.sort(y + descent_step * direction)], axis=1)
        h0_first = report.orientation is Orientation.H0_FIRST
        s0, s1 = _norms(_gradients(pair, ys, h0_first), norm).tolist()
        a0, a1_val = _accuracies(pair, ys, h0_first).tolist()
        drop, dacc = s0 - s1, a1_val - a0
        descent_found = drop > 0.0 and dacc <= 1e-12

    return WitnessResult(
        verdict,
        tuple(grad),
        gnorm,
        bool(defect <= identity_tol),
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
        out = {
            "a1": self.a1.to_dict(),
            "a2": self.a2.to_dict(),
            "a3": self.a3.to_dict(),
            "witness": self.witness.to_dict(),
            "steps": self.steps,
            "tolerances": self.tolerances,
        }
        if self.warnings:
            out["warnings"] = list(self.warnings)
        return out


def run_all_checks(pair: HypothesisPair, norm: Norm = Norm.INF) -> AssumptionReport:
    """All checks with the default steps and tolerances.

    Each boundary problem is solved once and shared: the base solve, the
    theta re-solves (A2 and the identity audit) and the eta stencil (A3),
    1 + 2m + 2 solves for m distribution parameters.  The base and the eta
    stencil come from one ``_ml_boundaries_many`` call: one closed-form call
    or one grid scan for all three thresholds.  The witness reuses
    A1 and A3's sensitivity slope, which it would compute identically.
    """
    base, stencil = _eta_stencil(pair, ETA_FD_STEP)
    dy, theta_solves = _theta_responses(pair, base, THETA_FD_STEP)
    a1 = _check_a1(pair, base, A1_GAP_TOL)
    a2 = _check_a2(pair, base, a1.index, dy[a1.index], THETA_FD_STEP, A2_PRODUCT_TOL)
    a3 = _check_a3(pair, base, stencil, norm, ETA_FD_STEP, A3_INNER_TOL)
    witness = _witness(
        pair,
        base,
        a1,
        np.asarray(a3.sens_gradient),
        _identity_defect(pair, base, dy),
        norm,
        WITNESS_TOL,
        IDENTITY_TOL,
        DESCENT_STEP,
    )
    solves = (base, *theta_solves, *stencil)
    return AssumptionReport(
        a1,
        a2,
        a3,
        witness,
        steps={
            "theta_fd": THETA_FD_STEP,
            "eta_fd": ETA_FD_STEP,
            "sensitivity_fd": SENS_FD_STEP,
            "descent": DESCENT_STEP,
        },
        tolerances={
            "a1_gap": A1_GAP_TOL,
            "a2_product": A2_PRODUCT_TOL,
            "a3_inner": A3_INNER_TOL,
            "witness": WITNESS_TOL,
            "identity": IDENTITY_TOL,
        },
        warnings=tuple(dict.fromkeys(w for report in solves for w in report.warnings)),
    )
