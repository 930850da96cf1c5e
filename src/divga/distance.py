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


def euclidean_sq(a, b) -> float:
    """Sum of squared per-gene differences."""
    _check_lengths(a, b)
    d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    return float(np.dot(d, d))


def dynamic_sq(a, b, epsilon: float = DEFAULT_EPSILON) -> float:
    """Scale-normalized squared distance.

    Each squared difference is divided by (|a_k| + |b_k| + epsilon)^2,
    so genes living on very different scales contribute comparably.
    The epsilon keeps the ratio finite when both entries are zero.
    """
    _check_lengths(a, b)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = np.abs(a) + np.abs(b) + epsilon
    d = (a - b) / scale
    return float(np.dot(d, d))


def hamming_sq(a, b) -> float:
    """Fraction of positions at which the two label vectors disagree."""
    _check_lengths(a, b)
    if len(a) == 0:
        raise ZeroGenesError("empty gene vectors")
    differ = sum(1 for x, y in zip(a, b) if x != y)
    return differ / len(a)


class DistanceMeasure:
    """Callable squared distance with a vectorized one-vs-many form."""

    name = "custom"

    def __call__(self, a, b) -> float:
        raise NotImplementedError

    def to_point(self, matrix: np.ndarray, point: np.ndarray) -> np.ndarray:
        """Squared distances from every row of matrix to point."""
        return np.array([self(row, point) for row in matrix])


class EuclideanSq(DistanceMeasure):
    name = "euclidean"

    def __call__(self, a, b) -> float:
        return euclidean_sq(a, b)

    def to_point(self, matrix, point):
        d = matrix - point
        return np.einsum("ij,ij->i", d, d)


class DynamicSq(DistanceMeasure):
    name = "dynamic"

    def __init__(self, epsilon: float = DEFAULT_EPSILON):
        self.epsilon = epsilon

    def __call__(self, a, b) -> float:
        return dynamic_sq(a, b, self.epsilon)

    def to_point(self, matrix, point):
        scale = np.abs(matrix) + np.abs(point) + self.epsilon
        d = (matrix - point) / scale
        return np.einsum("ij,ij->i", d, d)


class HammingSq(DistanceMeasure):
    """Hamming fraction; to_point compares labels or category codes alike."""

    name = "hamming"

    def __call__(self, a, b) -> float:
        return hamming_sq(a, b)

    def to_point(self, matrix, point):
        return np.mean(matrix != point, axis=1).astype(float)


class CustomMeasure(DistanceMeasure):
    """Wraps a user-supplied callable (a, b) -> squared distance."""

    def __init__(self, fn):
        self.fn = fn
        self.name = getattr(fn, "__name__", "custom")

    def __call__(self, a, b) -> float:
        return float(self.fn(a, b))


_NAMED = {
    "euclidean": EuclideanSq,
    "dynamic": DynamicSq,
    "hamming": HammingSq,
}


def get_measure(measure, spec: GeneSpec | None = None,
                epsilon: float = DEFAULT_EPSILON) -> DistanceMeasure:
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
    if name == "dynamic":
        return DynamicSq(epsilon)
    return _NAMED[name]()


def default_r0(genes: np.ndarray, measure: DistanceMeasure) -> float:
    """One tenth of the root mean squared inter-individual distance.

    genes is a gene matrix, one row per individual. The mean runs over
    all unordered pairs of distinct rows. Returns 0.0 when every pair
    coincides; callers must substitute a usable radius in that case.
    """
    n = len(genes)
    if n < 2:
        raise PopulationTooSmallError(
            "need at least two individuals to set a diversity radius")
    total = 0.0
    for i in range(n - 1):
        total += float(np.sum(measure.to_point(genes[i + 1:], genes[i])))
    mean_sq = total / (n * (n - 1) / 2)
    return float(np.sqrt(mean_sq)) / 10.0
