"""Squared distance measures between gene vectors.

All measures return squared distances: the diversity penalty consumes
r^2 directly, so no square root is ever taken. Measures are symmetric,
non-negative and zero on identical vectors; user-supplied measures are
expected to satisfy the same contract and are spot-checked for symmetry.
"""

from __future__ import annotations

import numpy as np

from .errors import LengthMismatchError, PopulationTooSmallError, ZeroGenesError
from .genome import CATEGORICAL, GeneSpec

DEFAULT_EPSILON = 1e-15


def _check_lengths(a, b):
    if len(a) != len(b):
        raise LengthMismatchError(
            f"gene vectors differ in length: {len(a)} vs {len(b)}")


class DistanceMeasure:
    """Squared distance, written once in the one-vs-many form to_point.

    Calling a measure on two gene vectors applies to_point to one row;
    a string counts as the sequence of its characters.
    """

    name = "custom"
    dtype = float

    def __call__(self, a, b) -> float:
        _check_lengths(a, b)
        a, b = (np.array(list(v), dtype=self.dtype) for v in (a, b))
        return float(self.to_point(a[None, :], b)[0])

    def to_point(self, matrix: np.ndarray, point: np.ndarray) -> np.ndarray:
        """Squared distances from every row of matrix to point."""
        raise NotImplementedError


class EuclideanSq(DistanceMeasure):
    """Sum of squared per-gene differences."""

    name = "euclidean"

    def to_point(self, matrix, point):
        d = matrix - point
        return np.einsum("ij,ij->i", d, d)


class DynamicSq(DistanceMeasure):
    """Scale-normalized squared distance.

    Each squared difference is divided by (|a_k| + |b_k| + epsilon)^2,
    so genes living on very different scales contribute comparably.
    The epsilon keeps the ratio finite when both entries are zero.
    """

    name = "dynamic"

    def __init__(self, epsilon: float = DEFAULT_EPSILON):
        self.epsilon = epsilon

    def to_point(self, matrix, point):
        scale = np.abs(matrix) + np.abs(point) + self.epsilon
        d = (matrix - point) / scale
        return np.einsum("ij,ij->i", d, d)


class HammingSq(DistanceMeasure):
    """Fraction of positions at which two label vectors disagree;
    to_point compares labels or category codes alike."""

    name = "hamming"
    dtype = object

    def __call__(self, a, b) -> float:
        if len(a) == len(b) == 0:
            raise ZeroGenesError("empty gene vectors")
        return super().__call__(a, b)

    def to_point(self, matrix, point):
        return np.mean(matrix != point, axis=1).astype(float)


class CustomMeasure(DistanceMeasure):
    """Wraps a user-supplied callable (a, b) -> squared distance."""

    def __init__(self, fn):
        self.fn = fn
        self.name = getattr(fn, "__name__", "custom")

    def __call__(self, a, b) -> float:
        return float(self.fn(a, b))

    def to_point(self, matrix, point):
        return np.array([self(row, point) for row in matrix])


def euclidean_sq(a, b) -> float:
    """Sum of squared per-gene differences."""
    return EuclideanSq()(a, b)


def dynamic_sq(a, b, epsilon: float = DEFAULT_EPSILON) -> float:
    """Scale-normalized squared distance (see DynamicSq)."""
    return DynamicSq(epsilon)(a, b)


def hamming_sq(a, b) -> float:
    """Fraction of positions at which the two label vectors disagree."""
    return HammingSq()(a, b)


_NAMED = {
    "euclidean": EuclideanSq,
    "dynamic": DynamicSq,
    "hamming": HammingSq,
}


def get_measure(measure, spec: GeneSpec | None = None) -> DistanceMeasure:
    """Resolve a measure name, callable or instance to a DistanceMeasure.

    None picks the default for the genome kind: Euclidean for numeric,
    Hamming for categorical.
    """
    if measure is None:
        if spec is not None and spec.kind == CATEGORICAL:
            return HammingSq()
        return EuclideanSq()
    if isinstance(measure, DistanceMeasure):
        return measure
    if callable(measure):
        return CustomMeasure(measure)
    name = str(measure).lower()
    if name not in _NAMED:
        raise ValueError(
            f"unknown distance measure {measure!r}; "
            f"choose from {sorted(_NAMED)} or pass a callable")
    return _NAMED[name]()


def default_r0(genes: np.ndarray, measure: DistanceMeasure) -> float:
    """One tenth of the root mean squared inter-individual distance.

    genes is a gene matrix, one row per individual. The mean runs over
    all unordered pairs of distinct rows. Returns 0.0 when every pair
    coincides; callers must substitute a usable radius in that case.
    """
    return float(np.sqrt(mean_pairwise(genes, measure))) / 10.0


def mean_pairwise(rows: np.ndarray, measure: DistanceMeasure) -> float:
    """Mean of measure over all unordered pairs of distinct rows."""
    n = len(rows)
    if n < 2:
        raise PopulationTooSmallError("need at least two rows to pair")
    total = 0.0
    for i in range(n - 1):
        total += float(np.sum(measure.to_point(rows[i + 1:], rows[i])))
    return total / (n * (n - 1) / 2)
