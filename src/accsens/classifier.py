"""Boundary-set classifiers with exact accuracy and sensitivity evaluation.

A classifier is an ordered set of finite boundary points partitioning the
real line into intervals whose class labels alternate.  The orientation flag
says which hypothesis owns the leftmost (unbounded) interval.  Likelihood
ratio ("ml") and single-boundary ("linear") classifiers are views onto the
same machinery.

Accuracy is the prior-weighted probability of a correct label.  For n >= 0
boundaries y_1 <= ... <= y_n it is base + s (G(y_1) - G(y_2) + G(y_3) - ...)
with G = p0 F0 - p1 F1, s = +1 for H0_FIRST and -1 for H1_FIRST, and base
the prior of the class that owns the rightmost region.  Coincident boundaries
denote an empty region: their terms cancel.  Sensitivity is the norm (inf or
2) of the accuracy's gradient in the stacked distribution parameters at fixed
boundaries, the same signed sum of cdf gradients, so the two orientations of
one set have accuracies that sum to 1 and gradients that are exact negatives.

One function each computes accuracy, gradient and norm (``_accuracies``,
``_gradients``, ``_norms``) for K sets at once, the columns of an (n, K)
array with an orientation each, with one cdf (or cdf gradient) call per
density; for built-in families the first two also score the K sets at K
parameter vectors (the design's shapes).  A column's value does not depend on
the others, so the one-set public functions, their K = 1 case, give the same
floats as any batch, and a column at its own theta those of its own pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import Sequence, Union

import numpy as np

from ._records import plain
from .densities import HypothesisPair, _cdf, _grad_cdf
from .errors import InvalidParameterError, SolverFailureError, UnresolvedClassifierError

#: How far the accuracy of a solved frontier point or design may miss its target.
ACCURACY_TOL = 1e-6


class Label(IntEnum):
    H0 = 0
    H1 = 1


class Orientation(str, Enum):
    """Which hypothesis is assigned to the leftmost interval."""

    H0_FIRST = "h0_first"
    H1_FIRST = "h1_first"


class Norm(str, Enum):
    INF = "inf"
    TWO = "two"


def apply_norm(vec: np.ndarray, norm: Norm) -> float:
    return float(_norms(np.asarray(vec, dtype=float)[:, None], norm)[0])


@dataclass(frozen=True)
class BoundarySet:
    """Sorted finite boundary points plus region orientation.

    Implicit sentinels at -inf and +inf bound the outer intervals; they are
    never stored.  n >= 1; equal consecutive boundaries encode empty regions.
    """

    boundaries: tuple[float, ...]
    orientation: Orientation = Orientation.H0_FIRST

    def __post_init__(self) -> None:
        if len(self.boundaries) < 1:
            raise InvalidParameterError("a boundary set needs at least one boundary")
        if not all(math.isfinite(b) for b in self.boundaries):
            raise InvalidParameterError(f"boundaries must be finite, got {self.boundaries}")
        if any(a > b for a, b in zip(self.boundaries, self.boundaries[1:])):
            raise InvalidParameterError(f"boundaries must be sorted, got {self.boundaries}")

    to_dict = plain


@dataclass(frozen=True)
class GeneralSpec:
    boundary_set: BoundarySet


@dataclass(frozen=True)
class MLSpec:
    """Likelihood-ratio classifier: decide H1 where p1*f1(x) >= eta * p0*f0(x)."""

    eta: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.eta < math.inf:
            raise InvalidParameterError(f"threshold eta must be positive and finite, got {self.eta}")


@dataclass(frozen=True)
class LinearSpec:
    """Single-boundary classifier; a general classifier with n = 1."""

    y: float
    orientation: Orientation = Orientation.H0_FIRST

    def __post_init__(self) -> None:
        if not math.isfinite(self.y):
            raise InvalidParameterError(f"linear boundary must be finite, got {self.y}")


ClassifierSpec = Union[GeneralSpec, MLSpec, LinearSpec]


def spec_to_dict(spec: ClassifierSpec) -> dict:
    if isinstance(spec, GeneralSpec):
        return {"kind": "general", **spec.boundary_set.to_dict()}
    return {"kind": "ml" if isinstance(spec, MLSpec) else "linear", **plain(spec)}


# ---- evaluation of boundary sets (see the module docstring) ----


def boundary_signs(n: int, orientation: Orientation) -> np.ndarray:
    """Per-boundary sign s (-1)^i of the H0 cdf term in the accuracy sum;
    the H1 term always takes the opposite sign."""
    s = 1.0 if orientation is Orientation.H0_FIRST else -1.0
    return np.where(np.arange(n) % 2 == 0, s, -s)


def _gap(pair: HypothesisPair, y, theta=None) -> np.ndarray:
    """G(y) = p0 F0(y) - p1 F1(y) on an array, one cdf call per density, at
    ``pair.theta`` or at the rows of ``theta`` broadcast against y."""
    if theta is None:
        f0, f1 = pair.h0.cdf(y), pair.h1.cdf(y)
    else:
        k = pair.split
        f0, f1 = _cdf(pair.h0.family, y, theta[:k]), _cdf(pair.h1.family, y, theta[k:])
    return pair.p0 * np.asarray(f0) - pair.p1 * np.asarray(f1)


def _gap_slope(pair: HypothesisPair, y) -> np.ndarray:
    """G'(y) = p0 f0(y) - p1 f1(y) on an array, one pdf call per density."""
    return pair.p0 * np.asarray(pair.h0.pdf(y)) - pair.p1 * np.asarray(pair.h1.pdf(y))


def _alternating(terms: np.ndarray) -> np.ndarray:
    """terms[0] - terms[1] + terms[2] - ..., summed in that order over the
    first axis, so that a column's sum does not depend on the others."""
    total = terms[0] if len(terms) else np.zeros(terms.shape[1:])
    for i in range(1, len(terms)):
        total = total - terms[i] if i % 2 else total + terms[i]
    return total


def _accuracies(pair: HypothesisPair, ys, h0_first, theta=None) -> np.ndarray:
    """Accuracy of the boundary sets ys[:, k] of an (n, K) array, ``h0_first``
    broadcast against K, at ``pair.theta`` or (built-in families) at the
    stacked ``theta``, rows broadcast against K.  An accuracy outside [0, 1]
    beyond rounding (cdfs that are not distribution functions), NaN
    included, refuses the whole call."""
    ys = np.asarray(ys, dtype=float)
    total = _alternating(_gap(pair, ys, theta))
    # base + s * total (see the module docstring), base the prior of the class
    # owning the rightmost region under each orientation
    right_h0, right_h1 = (pair.p0, pair.p1) if ys.shape[0] % 2 == 0 else (pair.p1, pair.p0)
    acc = np.where(h0_first, right_h0 + total, right_h1 - total)
    ok = (acc >= -1e-12) & (acc <= 1.0 + 1e-12)  # NaN fails
    if not ok.all():
        raise SolverFailureError(
            f"accuracy {float(acc[~ok][0])!r} escaped [0, 1]; the model cdfs are inconsistent"
        )
    return acc


def _gradients(pair: HypothesisPair, ys, h0_first, theta=None) -> np.ndarray:
    """d accuracy / d theta of the sets ys[:, k] at fixed boundaries, over
    stacked [theta0; theta1]: shape (m, K), one column per set, at
    ``pair.theta`` or at the stacked ``theta`` as in ``_accuracies``."""
    ys = np.asarray(ys, dtype=float)
    if theta is None:
        g0, g1 = pair.h0.grad_cdf_params(ys), pair.h1.grad_cdf_params(ys)
    else:
        k = pair.split
        g0, g1 = _grad_cdf(pair.h0.family, ys, theta[:k]), _grad_cdf(pair.h1.family, ys, theta[k:])
    grads = np.concatenate([
        pair.p0 * _alternating(g0.swapaxes(0, 1)),
        -pair.p1 * _alternating(g1.swapaxes(0, 1)),
    ])
    return np.where(h0_first, grads, -grads)


def _norms(grads: np.ndarray, norm: Norm) -> np.ndarray:
    """The norm of every column of ``grads``."""
    if norm is Norm.INF:
        return np.maximum.reduce(np.abs(grads), axis=0, initial=0.0)
    with np.errstate(over="ignore"):  # components past 1e154 square to inf
        squares = grads * grads
    # a running sum down the rows, so that a column's sum does not depend on the others
    two = np.sqrt(np.add.accumulate(squares)[-1] if len(squares) else np.zeros(squares.shape[1:]))
    if two.max(initial=0.0) == math.inf:
        # one 1-D column leaves a numpy scalar: np.array makes it a 0-d array that
        # takes item assignment, and indexing by its 0-d mask keeps the column
        two, past = np.array(two), two == math.inf
        two[past] = [math.hypot(*column) for column in grads[:, past].T.tolist()]
    return two


def _evaluate(pair: HypothesisPair, roots, h0_first: np.ndarray, norm: Norm):
    """Accuracy, sensitivity and boundaries of every boundary set ``roots[i]``
    (a tuple) in its orientation ``h0_first[i]``, with one array call per
    boundary count; the boundaries are one row per set, padded with NaN."""
    counts = np.asarray([len(rs) for rs in roots], dtype=np.intp)
    acc, sens = np.empty(counts.size), np.empty(counts.size)
    bounds = np.full((counts.size, counts.max(initial=0)), np.nan)
    for n in np.unique(counts).tolist():
        (k,) = np.nonzero(counts == n)
        ys = np.asarray([roots[i] for i in k.tolist()], dtype=float).reshape(k.size, n)
        bounds[k, :n] = ys
        acc[k] = _accuracies(pair, ys.T, h0_first[k])
        sens[k] = _norms(_gradients(pair, ys.T, h0_first[k]), norm)
    return acc, sens, bounds


def region_accuracy(pair: HypothesisPair, boundaries: Sequence[float], orientation: Orientation) -> float:
    """Exact correct-classification probability of the induced partition."""
    ys = np.asarray(boundaries, dtype=float)[:, None]
    return float(_accuracies(pair, ys, orientation is Orientation.H0_FIRST)[0])


def region_accuracy_gradient(
    pair: HypothesisPair, boundaries: Sequence[float], orientation: Orientation
) -> np.ndarray:
    """d accuracy / d theta at fixed boundaries, over stacked [theta0; theta1]."""
    ys = np.asarray(boundaries, dtype=float)[:, None]
    return _gradients(pair, ys, orientation is Orientation.H0_FIRST)[:, 0]


def region_accuracy_boundary_gradient(
    pair: HypothesisPair, boundaries: Sequence[float], orientation: Orientation
) -> np.ndarray:
    """d accuracy / d y_i at fixed parameters."""
    b = np.asarray(boundaries, dtype=float)
    return boundary_signs(b.size, orientation) * _gap_slope(pair, b)


# ---- public operations ----


def resolve(spec: ClassifierSpec, pair: HypothesisPair) -> BoundarySet:
    """Resolve a classifier spec to an explicit boundary set.

    Raises UnresolvedClassifierError for a likelihood-ratio spec whose
    threshold admits no boundary (single-region classifier).
    """
    if isinstance(spec, GeneralSpec):
        return spec.boundary_set
    if isinstance(spec, LinearSpec):
        return BoundarySet((spec.y,), spec.orientation)
    from .boundary_solver import ml_boundaries

    report = ml_boundaries(pair, spec.eta)
    if not report.roots:
        raise UnresolvedClassifierError(
            f"likelihood ratio never crosses eta={spec.eta:g}; "
            "the classifier degenerates to a single region"
        )
    return report.boundary_set()


def classify(spec: ClassifierSpec, pair: HypothesisPair, x):
    """Label observations.  Scalar in, Label out; array in, int array out."""
    x_arr = np.asarray(x, dtype=float)
    if isinstance(spec, MLSpec):
        from .boundary_solver import log_ratio_gap

        s = np.asarray(log_ratio_gap(pair, spec.eta, x_arr))
        labels = np.where(np.isnan(s), 0, (s >= 0).astype(int))
    else:
        labels = classify_boundaries(resolve(spec, pair), x_arr)
    if np.ndim(x) == 0:
        return Label(int(labels))
    return labels


def classify_boundaries(bset: BoundarySet, x: np.ndarray) -> np.ndarray:
    """Vectorized labeling against an explicit boundary set."""
    idx = np.searchsorted(np.asarray(bset.boundaries), np.asarray(x, dtype=float), side="right")
    even = idx % 2 == 0
    return np.where(even == (bset.orientation is Orientation.H0_FIRST), 0, 1)


def count_h0_labels(bset: BoundarySet, x: np.ndarray) -> int:
    """Number of samples ``classify_boundaries`` labels H0, without labelling.

    Region j holds the samples left of boundary j but not of boundary j - 1,
    so one ``count_nonzero(x < b)`` per boundary gives every region's size.
    A sample on a boundary goes right and NaN past the last boundary, as with
    ``searchsorted(side="right")``.
    """
    x = np.asarray(x, dtype=float)
    left = [int(np.count_nonzero(x < b)) for b in bset.boundaries] + [x.size]
    h0_first = bset.orientation is Orientation.H0_FIRST
    count = prev = 0
    for j, n_left in enumerate(left):
        if (j % 2 == 0) == h0_first:
            count += n_left - prev
        prev = n_left
    return count


def accuracy(spec: ClassifierSpec, pair: HypothesisPair) -> float:
    bset = resolve(spec, pair)
    return region_accuracy(pair, bset.boundaries, bset.orientation)


def accuracy_gradient(spec: ClassifierSpec, pair: HypothesisPair) -> np.ndarray:
    """Gradient of accuracy in the distribution parameters, boundaries fixed.

    For a likelihood-ratio spec the boundaries are resolved first and then
    treated as constants; the partial derivative does not track the movement
    of the optimal boundaries with theta.
    """
    bset = resolve(spec, pair)
    return region_accuracy_gradient(pair, bset.boundaries, bset.orientation)


def sensitivity(spec: ClassifierSpec, pair: HypothesisPair, norm: Norm = Norm.INF) -> float:
    return apply_norm(accuracy_gradient(spec, pair), norm)
