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
density.  A column's value does not depend on the others, so the one-set
public functions, their K = 1 case, give the same floats as any batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import Sequence, Union

import numpy as np

from .densities import HypothesisPair
from .errors import (
    InvalidParameterError,
    SchemaError,
    SolverFailureError,
    UnresolvedClassifierError,
)


class Label(IntEnum):
    H0 = 0
    H1 = 1


class Orientation(str, Enum):
    """Which hypothesis is assigned to the leftmost interval."""

    H0_FIRST = "h0_first"
    H1_FIRST = "h1_first"

    @property
    def swapped(self) -> "Orientation":
        return Orientation.H1_FIRST if self is Orientation.H0_FIRST else Orientation.H0_FIRST


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

    @property
    def n(self) -> int:
        return len(self.boundaries)

    def to_dict(self) -> dict:
        return {"boundaries": list(self.boundaries), "orientation": self.orientation.value}


@dataclass(frozen=True)
class GeneralSpec:
    boundary_set: BoundarySet


@dataclass(frozen=True)
class MLSpec:
    """Likelihood-ratio classifier: decide H1 where p1*f1(x) >= eta * p0*f0(x)."""

    eta: float = 1.0

    def __post_init__(self) -> None:
        if not self.eta > 0:
            raise InvalidParameterError(f"threshold eta must be > 0, got {self.eta}")


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
    if isinstance(spec, MLSpec):
        return {"kind": "ml", "eta": spec.eta}
    return {"kind": "linear", "y": spec.y, "orientation": spec.orientation.value}


def _orientation(obj: dict) -> Orientation:
    value = obj.get("orientation", "h0_first")
    try:
        return Orientation(value)
    except ValueError:
        raise SchemaError(
            f"unknown orientation {value!r} in classifier spec (expected h0_first|h1_first)"
        ) from None


def _number(value, what: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise SchemaError(f"non-numeric {what} {value!r} in classifier spec") from None


def spec_from_dict(obj: dict) -> ClassifierSpec:
    if not isinstance(obj, dict):
        raise SchemaError("classifier spec must be an object")
    kind = obj.get("kind")
    if kind == "general":
        unknown = set(obj) - {"kind", "boundaries", "orientation"}
        if unknown:
            raise SchemaError(f"unknown key {sorted(unknown)[0]!r} in classifier spec")
        raw = obj.get("boundaries", ())
        if not isinstance(raw, (list, tuple)):
            raise SchemaError("classifier spec key 'boundaries' must be a list")
        boundaries = tuple(_number(b, "boundary") for b in raw)
        return GeneralSpec(BoundarySet(boundaries, _orientation(obj)))
    if kind == "ml":
        unknown = set(obj) - {"kind", "eta"}
        if unknown:
            raise SchemaError(f"unknown key {sorted(unknown)[0]!r} in classifier spec")
        return MLSpec(_number(obj.get("eta", 1.0), "threshold"))
    if kind == "linear":
        unknown = set(obj) - {"kind", "y", "orientation"}
        if unknown:
            raise SchemaError(f"unknown key {sorted(unknown)[0]!r} in classifier spec")
        if "y" not in obj:
            raise SchemaError("linear classifier spec missing key 'y'")
        return LinearSpec(_number(obj["y"], "boundary"), _orientation(obj))
    raise SchemaError(f"unknown classifier kind {kind!r}")


# ---- evaluation of boundary sets (see the module docstring) ----


def boundary_signs(n: int, orientation: Orientation) -> np.ndarray:
    """Per-boundary sign s (-1)^i of the H0 cdf term in the accuracy sum;
    the H1 term always takes the opposite sign."""
    s = 1.0 if orientation is Orientation.H0_FIRST else -1.0
    return np.where(np.arange(n) % 2 == 0, s, -s)


def _gap(pair: HypothesisPair, y) -> np.ndarray:
    """G(y) = p0 F0(y) - p1 F1(y) on an array, one cdf call per density."""
    return pair.p0 * np.asarray(pair.h0.cdf(y)) - pair.p1 * np.asarray(pair.h1.cdf(y))


def _alternating(terms: np.ndarray) -> np.ndarray:
    """terms[0] - terms[1] + terms[2] - ..., summed in that order over the
    first axis, so that a column's sum does not depend on the others."""
    total = terms[0] if len(terms) else np.zeros(terms.shape[1:])
    for i in range(1, len(terms)):
        total = total - terms[i] if i % 2 else total + terms[i]
    return total


def _accuracies(pair: HypothesisPair, ys, h0_first) -> np.ndarray:
    """Accuracy of the boundary sets ys[:, k] of an (n, K) array, ``h0_first``
    broadcast against K.  An accuracy outside [0, 1] beyond rounding (cdfs
    that are not distribution functions) refuses the whole call."""
    ys = np.asarray(ys, dtype=float)
    base = np.where(np.equal(h0_first, ys.shape[0] % 2 == 0), pair.p0, pair.p1)
    sign = np.where(h0_first, 1.0, -1.0)
    acc = base + sign * _alternating(_gap(pair, ys.ravel()).reshape(ys.shape))
    bad = ~((acc >= -1e-12) & (acc <= 1.0 + 1e-12))  # NaN included
    if bad.any():
        raise SolverFailureError(
            f"accuracy {float(acc[bad][0])!r} escaped [0, 1]; the model cdfs are inconsistent"
        )
    return acc


def _gradients(pair: HypothesisPair, ys, h0_first) -> np.ndarray:
    """d accuracy / d theta of the sets ys[:, k] at fixed boundaries, over
    stacked [theta0; theta1]: shape (m, K), one column per set."""
    ys = np.asarray(ys, dtype=float)

    def signed_sum(model, weight: float) -> np.ndarray:
        g = np.asarray(model.grad_cdf_params(ys.ravel())).reshape((len(model.params),) + ys.shape)
        return weight * _alternating(g.swapaxes(0, 1))

    sign = np.where(h0_first, 1.0, -1.0)
    return sign * np.concatenate([signed_sum(pair.h0, pair.p0), signed_sum(pair.h1, -pair.p1)])


def _norms(grads: np.ndarray, norm: Norm) -> np.ndarray:
    """The norm of every column of ``grads``."""
    if norm is Norm.INF:
        return np.maximum.reduce(np.abs(grads), axis=0, initial=0.0)
    with np.errstate(over="ignore"):  # components past 1e154 square to inf
        squares = grads * grads
    # a running sum down the rows, so that a column's sum does not depend on the others
    two = np.sqrt(np.add.accumulate(squares)[-1] if len(squares) else np.zeros(squares.shape[1:]))
    if two.max(initial=0.0) == math.inf:
        past = two == math.inf
        two[past] = [math.hypot(*column) for column in grads[:, past].T.tolist()]
    return two


def _evaluate(pair: HypothesisPair, sets, norm: Norm) -> tuple[np.ndarray, np.ndarray]:
    """Accuracy and sensitivity of every (boundaries, orientation) of
    ``sets``, with one array call per boundary count."""
    counts = np.asarray([len(b) for b, _ in sets], dtype=int)
    acc, sens = np.empty(counts.size), np.empty(counts.size)
    for n in np.unique(counts).tolist():
        (k,) = np.nonzero(counts == n)
        ys = np.asarray([sets[i][0] for i in k], dtype=float).reshape(k.size, n).T
        h0_first = np.asarray([sets[i][1] is Orientation.H0_FIRST for i in k])
        acc[k] = _accuracies(pair, ys, h0_first)
        sens[k] = _norms(_gradients(pair, ys, h0_first), norm)
    return acc, sens


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
    return boundary_signs(b.size, orientation) * (pair.p0 * pair.h0.pdf(b) - pair.p1 * pair.h1.pdf(b))


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
