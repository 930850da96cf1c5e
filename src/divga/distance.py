"""Squared distance measures between gene vectors.

All measures return squared distances: the diversity penalty consumes
r^2 directly, so no square root is ever taken. Measures are symmetric,
non-negative and zero on identical vectors; user-supplied measures are
expected to satisfy the same contract and are spot-checked for symmetry.

The one-vs-many form to_point(matrix, point, out=None) fills out when
it is given. The numeric measures sum the per-gene terms in gene order,
left to right, so each distance equals its scalar formula evaluated in
Python bit for bit, whatever the number of genes and the memory order
of the matrix.

Selection measures one pool against its own rows, pick after pick:
prepare(matrix) returns a PreparedRows whose rows_to(i, out) writes the
distances from row i to every row into out, bit for bit what
to_point(matrix, matrix[i], out) gives. The built-in measures keep the
layout and the work buffers they need across those calls; any other
measure goes through to_point.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError


class DistanceMeasure:
    """Squared distance, written once in the one-vs-many form to_point.

    Calling a measure on two gene vectors applies to_point to one row;
    a string counts as the sequence of its characters.
    """

    name = "custom"
    dtype = float

    def __call__(self, a, b) -> float:
        if len(a) != len(b):
            raise ConfigError(
                f"gene vectors differ in length: {len(a)} vs {len(b)}")
        a, b = (np.array(list(v), dtype=self.dtype) for v in (a, b))
        return float(self.to_point(a[None, :], b)[0])

    def to_point(self, matrix: np.ndarray, point: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
        """Squared distances from every row of matrix to point, written
        into out (a float vector, one entry per row) when it is given.
        Returns out, or a new array when out is None."""
        raise NotImplementedError

    def prepare(self, matrix: np.ndarray) -> "PreparedRows":
        """matrix made ready for repeated rows_to calls (see PreparedRows).

        This default calls to_point for each row, so a measure that
        defines only to_point works; the built-in measures use it too
        when a subclass overrides their to_point.
        """
        return PreparedRows(self, matrix)


class PreparedRows:
    """Squared distances from one row of a fixed matrix to all its rows.

    What DistanceMeasure.prepare returns; matrix is the array rows_to
    reads. This base class goes through the measure's to_point.
    """

    def __init__(self, measure: DistanceMeasure, matrix: np.ndarray):
        self.measure = measure
        self.matrix = matrix

    def rows_to(self, i: int, out: np.ndarray) -> np.ndarray:
        """Squared distances from row i to every row, written into out
        (a float vector, one entry per row); returns out, bit for bit
        to_point(matrix, matrix[i], out)."""
        return self.measure.to_point(self.matrix, self.matrix[i], out)


def _sum_genes(terms: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """Row sums of the column-major (n, g) terms, each added gene by
    gene from the left.

    Reducing the gene axis of a column-major matrix adds one whole
    column at a time, so every row is summed in gene order. A single
    row is one contiguous run, which numpy would sum pairwise; it is
    accumulated in order instead.
    """
    if len(terms) == 1:
        terms = np.add.accumulate(terms, axis=1)[:, -1:]
    return np.add.reduce(terms, axis=1, out=out)


class EuclideanSq(DistanceMeasure):
    """Sum of squared per-gene differences."""

    name = "euclidean"

    def to_point(self, matrix, point, out=None):
        d = np.subtract(matrix, point, order="F", dtype=float)
        d *= d
        return _sum_genes(d, out)

    def prepare(self, matrix):
        if type(self).to_point is not EuclideanSq.to_point:
            return super().prepare(matrix)
        return _EuclideanRows(self, matrix)


class _EuclideanRows(PreparedRows):
    """rows_to on one column-major float copy of the matrix, through one
    column-major (n, g) difference buffer: the to_point operations with
    no per-call allocation and no transposing of a row-major pool. The
    gene axis of a column-major matrix reduces one column at a time, in
    gene order, for any g. (A single row, which numpy would sum
    pairwise, is measured only against itself, where every term is 0
    or NaN in any order.)"""

    def __init__(self, measure, matrix):
        super().__init__(measure, np.asfortranarray(matrix, dtype=float))
        self._diff = np.empty_like(self.matrix, order="F")

    def rows_to(self, i, out):
        matrix, diff = self.matrix, self._diff
        np.subtract(matrix, matrix[i], out=diff)
        diff *= diff
        return np.add.reduce(diff, axis=1, out=out)


class DynamicSq(DistanceMeasure):
    """Scale-normalized squared distance.

    Each squared difference is divided by (|a_k| + |b_k| + epsilon)^2,
    so genes living on very different scales contribute comparably.
    The epsilon keeps the ratio finite when both entries are zero.
    """

    name = "dynamic"
    epsilon = 1e-15

    def to_point(self, matrix, point, out=None):
        scale = np.abs(matrix, order="F", dtype=float)
        scale += np.abs(point)
        scale += self.epsilon
        d = np.subtract(matrix, point, order="F", dtype=float)
        d /= scale
        d *= d
        return _sum_genes(d, out)

    def prepare(self, matrix):
        if type(self).to_point is not DynamicSq.to_point:
            return super().prepare(matrix)
        return _DynamicRows(self, matrix)


class _DynamicRows(_EuclideanRows):
    """The dynamic to_point on _EuclideanRows's layout; the absolute
    values of the matrix are taken once, and each call fills one more
    column-major buffer with the scales."""

    def __init__(self, measure, matrix):
        super().__init__(measure, matrix)
        self._abs = np.abs(self.matrix)
        self._scale = np.empty_like(self._diff)

    def rows_to(self, i, out):
        matrix, diff, scale, magnitude = (self.matrix, self._diff,
                                          self._scale, self._abs)
        np.add(magnitude, magnitude[i], out=scale)
        scale += self.measure.epsilon
        np.subtract(matrix, matrix[i], out=diff)
        diff /= scale
        diff *= diff
        return np.add.reduce(diff, axis=1, out=out)


class HammingSq(DistanceMeasure):
    """Fraction of positions at which two label vectors disagree;
    to_point compares labels or category codes alike.

    to_point counts the mismatches of each row with a matrix-vector
    product. A count is an exact integer in float64 whatever order the
    product sums in, so the result equals the mean of the mismatch
    matrix bit for bit. The mismatch matrix keeps the memory order of
    the codes: a column-major copy makes the product slower.
    """

    name = "hamming"
    dtype = object

    def __call__(self, a, b) -> float:
        if len(a) == len(b) == 0:
            raise ConfigError("empty gene vectors")
        return super().__call__(a, b)

    def to_point(self, matrix, point, out=None):
        g = matrix.shape[1]
        counts = np.matmul(matrix != point, np.ones(g), out=out)
        counts /= g
        return counts

    def prepare(self, matrix):
        if type(self).to_point is not HammingSq.to_point:
            return super().prepare(matrix)
        return _HammingRows(self, matrix)


class _HammingRows(PreparedRows):
    """The Hamming to_point on the caller's codes or labels, with the
    mismatches written into one reused row-major float (n, g) buffer
    and counted against one prepared vector of ones."""

    def __init__(self, measure, matrix):
        super().__init__(measure, matrix)
        self._mismatch = np.empty(matrix.shape)
        self._ones = np.ones(matrix.shape[1])

    def rows_to(self, i, out):
        matrix, mismatch = self.matrix, self._mismatch
        np.not_equal(matrix, matrix[i], out=mismatch)
        counts = np.matmul(mismatch, self._ones, out=out)
        counts /= len(self._ones)
        return counts


class CustomMeasure(DistanceMeasure):
    """Wraps a user-supplied callable (a, b) -> squared distance."""

    def __init__(self, fn):
        self.fn = fn
        self.name = getattr(fn, "__name__", "custom")

    def __call__(self, a, b) -> float:
        return float(self.fn(a, b))

    def to_point(self, matrix, point, out=None):
        values = np.array([self(row, point) for row in matrix])
        if out is None:
            return values
        out[:] = values
        return out


_NAMED = {
    "euclidean": EuclideanSq,
    "dynamic": DynamicSq,
    "hamming": HammingSq,
}


def get_measure(measure, labels: bool = False) -> DistanceMeasure:
    """Resolve a measure name, callable or instance to a DistanceMeasure
    for label genes (labels true) or numeric genes.

    None picks the default: Hamming for labels, Euclidean otherwise. A
    Euclidean or dynamic measure subtracts genes, so it raises
    ConfigError on labels.
    """
    if measure is None:
        measure = HammingSq() if labels else EuclideanSq()
    elif callable(measure) and not isinstance(measure, DistanceMeasure):
        measure = CustomMeasure(measure)
    elif not isinstance(measure, DistanceMeasure):
        name = str(measure).lower()
        if name not in _NAMED:
            raise ConfigError(
                f"unknown distance measure {measure!r}; "
                f"choose from {sorted(_NAMED)} or pass a callable")
        measure = _NAMED[name]()
    if labels and isinstance(measure, (EuclideanSq, DynamicSq)):
        raise ConfigError(f"the {measure.name} measure needs numeric genes; "
                          f"use hamming or a callable on labels")
    return measure


def default_r0(genes: np.ndarray, measure: DistanceMeasure) -> float:
    """One tenth of the root mean squared inter-individual distance.

    genes is a gene matrix, one row per individual. The mean runs over
    all unordered pairs of distinct rows. Returns 0.0 when every pair
    coincides; callers must substitute a usable radius in that case.
    """
    return float(np.sqrt(mean_pairwise(genes, measure))) / 10.0


def _to_later_rows(rows: np.ndarray, measure: DistanceMeasure):
    """measure from each row to every row after it, one array per row."""
    return (measure.to_point(rows[i + 1:], rows[i])
            for i in range(len(rows) - 1))


def mean_pairwise(rows: np.ndarray, measure: DistanceMeasure) -> float:
    """Mean of measure over all unordered pairs of distinct rows."""
    n = len(rows)
    if n < 2:
        raise ConfigError("need at least two rows to pair")
    total = sum(float(np.sum(r_sq)) for r_sq in _to_later_rows(rows, measure))
    return total / (n * (n - 1) / 2)


def spread(points) -> float:
    """Mean Euclidean distance over all unordered pairs of points."""
    pts = np.asarray(list(points), dtype=float)
    if len(pts) < 2:
        raise ConfigError("spread needs at least two points")
    r_sq = np.concatenate(tuple(_to_later_rows(pts, EuclideanSq())))
    return float(np.sqrt(r_sq).mean())


def hamming_spread(sequences) -> float:
    """Mean pairwise fraction of differing positions (labels or strings)."""
    rows = np.array([list(row) for row in sequences], dtype=object)
    return mean_pairwise(rows, HammingSq())
