"""Boundary-set classifiers with exact accuracy and sensitivity evaluation.

A classifier is an ordered set of finite boundary points partitioning the
real line into intervals whose class labels alternate.  The orientation flag
says which hypothesis owns the leftmost (unbounded) interval.  Likelihood
ratio ("ml") and single-boundary ("linear") classifiers are views onto the
same machinery.

Accuracy is the prior-weighted probability of a correct label, computed
exactly from the model cdfs interval by interval; this one code path covers
any boundary count (odd or even) and both orientations.  Coincident
boundaries are legal and denote an empty region: their contributions cancel.

Sensitivity is the norm (inf or 2) of the derivative of accuracy with respect
to the stacked distribution parameters, taken at fixed boundaries.
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
    vec = np.asarray(vec, dtype=float)
    if norm is Norm.INF:
        return float(np.max(np.abs(vec))) if vec.size else 0.0
    with np.errstate(over="ignore"):  # components past 1e154 square to inf
        two = float(np.linalg.norm(vec))
    return two if two < math.inf else math.hypot(*vec.tolist())


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


# ---- core interval arithmetic over explicit boundary sequences ----
#
# These accept a possibly-empty boundary sequence so degenerate single-region
# classifiers (e.g. a likelihood-ratio classifier whose threshold admits no
# boundary) remain evaluable.  The public BoundarySet type requires n >= 1.


def _interval_is_h0(index: int, orientation: Orientation) -> bool:
    return (index % 2 == 0) == (orientation is Orientation.H0_FIRST)


def boundary_signs(n: int, orientation: Orientation) -> np.ndarray:
    """Per-boundary sign of the H0 cdf term in the accuracy sum.

    Boundary i (0-based) contributes +p0*F0(y_i) when the interval to its
    left is labeled H0, and -p0*F0(y_i) otherwise; the H1 term always takes
    the opposite sign.
    """
    signs = np.empty(n)
    for i in range(n):
        signs[i] = 1.0 if _interval_is_h0(i, orientation) else -1.0
    return signs


def region_accuracy(pair: HypothesisPair, boundaries: Sequence[float], orientation: Orientation) -> float:
    """Exact correct-classification probability of the induced partition."""
    b = np.asarray(boundaries, dtype=float)
    f0 = np.concatenate(([0.0], np.atleast_1d(pair.h0.cdf(b)), [1.0]))
    f1 = np.concatenate(([0.0], np.atleast_1d(pair.h1.cdf(b)), [1.0]))
    mass0 = np.diff(f0)
    mass1 = np.diff(f1)
    h0_first = orientation is Orientation.H0_FIRST
    start0 = 0 if h0_first else 1
    acc = pair.p0 * float(np.sum(mass0[start0::2])) + pair.p1 * float(
        np.sum(mass1[1 - start0 :: 2])
    )
    _check_accuracy_range((acc,))
    return acc


def _check_accuracy_range(accs: Sequence[float]) -> None:
    """Refuse accuracies outside [0, 1] beyond rounding."""
    for acc in accs:
        if not -1e-12 <= acc <= 1.0 + 1e-12:
            raise SolverFailureError(
                f"accuracy {acc!r} escaped [0, 1]; the model cdfs are inconsistent"
            )


def region_accuracy_gradient(
    pair: HypothesisPair, boundaries: Sequence[float], orientation: Orientation
) -> np.ndarray:
    """d accuracy / d theta at fixed boundaries, over stacked [theta0; theta1]."""
    b = np.asarray(boundaries, dtype=float)
    if b.size == 0:
        return np.zeros(len(pair.theta))
    signs = boundary_signs(b.size, orientation)
    g0 = np.atleast_2d(pair.h0.grad_cdf_params(b))
    g1 = np.atleast_2d(pair.h1.grad_cdf_params(b))
    grad0 = pair.p0 * (g0 @ signs)
    grad1 = -pair.p1 * (g1 @ signs)
    return np.concatenate([grad0, grad1])


def region_accuracy_boundary_gradient(
    pair: HypothesisPair, boundaries: Sequence[float], orientation: Orientation
) -> np.ndarray:
    """d accuracy / d y_i at fixed parameters."""
    b = np.asarray(boundaries, dtype=float)
    if b.size == 0:
        return np.zeros(0)
    signs = boundary_signs(b.size, orientation)
    return signs * (
        pair.p0 * np.atleast_1d(pair.h0.pdf(b)) - pair.p1 * np.atleast_1d(pair.h1.pdf(b))
    )


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
