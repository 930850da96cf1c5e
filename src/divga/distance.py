"""Squared distance measures between gene vectors.

All measures return squared distances: the diversity penalty consumes
r^2 directly, so no square root is ever taken. Measures are symmetric,
non-negative and zero on identical vectors.

Each built-in measure writes its formula once, in a kernel: a
PreparedRows subclass that holds the matrix in the layout the formula
wants, with its work buffers, and whose to(point, out) writes the
distances from every row to point. prepare(matrix) builds the kernel,
and its rows_to(i, out) measures against row i: selection measures one
pool against its own rows this way, pick after pick, with no
allocation per pick. The one-vs-many to_point(matrix, point, out=None)
builds a kernel for one call. The Euclidean and dynamic kernels also
measure a (b, g) block of points at once, block_to(points, out), by
the same formula on one more axis; selection builds its penalty matrix
this way. The numeric measures sum the per-gene terms in gene order,
left to right, so each distance equals its scalar formula evaluated in
Python bit for bit, whatever the number of genes and the memory order
of the matrix.

One rule, _through_to_point, says how a measure reads genes. A kernel
reads the run's genes, numbers or Hamming's category codes. A measure
with no kernel, or that overrides a built-in to_point, is measured
through that to_point everywhere, on the genes the fitness sees
(labels for a categorical genome), and a run spot-checks it for
symmetry. Only the Euclidean and dynamic kernels reject labels.

The one scalar form, measure(a, b), is to_point on a one-row matrix.
It reads both vectors by the rule a run uses for genes: numbers become
a float64 vector, anything else (a string's characters, labels) an
object array, labels being told as select_diverse tells them (dtype
kind O, S or U; a numpy vector keeps its dtype). Vectors of different
or zero length raise ConfigError, and the measure is resolved by
get_measure with labels set accordingly. So a subclass whose to_point
reads labels measures labels, the Euclidean and dynamic measures reject
strings ("needs numeric genes") as a run does, and a callable gets
numpy vectors, as inside a run.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError


class DistanceMeasure:
    """Squared distance in the one-vs-many form to_point.

    A built-in measure names its kernel, from which to_point follows;
    any other measure defines to_point. Calling a measure on two gene
    vectors is the one scalar form: to_point on a one-row matrix, after
    get_measure's checks (see the module).
    """

    name = "custom"
    kernel: type[PreparedRows] | None = None

    def __call__(self, a, b) -> float:
        a, b = (np.array(list(v), getattr(v, "dtype", None)) for v in (a, b))
        if len(a) != len(b):
            raise ConfigError(
                f"gene vectors differ in length: {len(a)} vs {len(b)}")
        if len(a) == 0:
            raise ConfigError("empty gene vectors")
        labels = a.dtype.kind in "OSU" or b.dtype.kind in "OSU"
        a, b = (v.astype(object if labels else float) for v in (a, b))
        measure = get_measure(self, labels=labels)
        return float(measure.to_point(a[None, :], b)[0])

    def to_point(self, matrix: np.ndarray, point: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
        """Squared distances from every row of matrix to point, written
        into out (a float vector, one entry per row) when it is given.
        Returns out, or a new array when out is None."""
        if self.kernel is None:
            raise NotImplementedError
        return self.kernel(self, matrix).to(point, out)

    def prepare(self, matrix: np.ndarray) -> PreparedRows:
        """matrix made ready for repeated rows_to calls: the measure's
        kernel, or a PreparedRows that calls to_point (_through_to_point)."""
        if _through_to_point(self):
            return PreparedRows(self, matrix)
        return self.kernel(self, matrix)


def _through_to_point(measure: DistanceMeasure) -> bool:
    """Whether measure is measured through its own to_point: it has no
    kernel, or it overrides a built-in to_point (see the module)."""
    return (measure.kernel is None
            or type(measure).to_point is not DistanceMeasure.to_point)


class PreparedRows:
    """Squared distances from a point, or from one of its rows, to every
    row of a fixed matrix.

    What DistanceMeasure.prepare returns; matrix is the array the
    distances are measured on. This base class goes through the
    measure's to_point; a built-in measure's kernel overrides to.
    """

    def __init__(self, measure: DistanceMeasure, matrix: np.ndarray):
        self.measure = measure
        self.matrix = matrix

    def to(self, point: np.ndarray,
           out: np.ndarray | None = None) -> np.ndarray:
        """Squared distances from every row to point, as to_point."""
        return self.measure.to_point(self.matrix, point, out)

    def rows_to(self, i: int, out: np.ndarray) -> np.ndarray:
        """Squared distances from row i to every row, written into out
        (a float vector, one entry per row); returns out, bit for bit
        to_point(matrix, matrix[i], out)."""
        return self.to(self.matrix[i], out)


def _sum_genes(terms: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """Sums over the gene axis, the second last, of the (g, n) or
    (b, g, n) terms, each added gene by gene from the left.

    Each gene's terms are one contiguous run of n, so reducing the gene
    axis adds one whole run at a time and every sum is taken in gene
    order. With n = 1 the gene axis is the contiguous one, which numpy
    would sum pairwise; it is accumulated in order instead.
    """
    if terms.shape[-1] == 1:
        terms = np.add.accumulate(terms, axis=-2)[..., -1:, :]
    return np.add.reduce(terms, axis=-2, out=out)


class _EuclideanRows(PreparedRows):
    """The Euclidean kernel. It holds one column-major float copy of the
    matrix, read as its (g, n) transpose, and one (g, n) difference
    buffer, so no call to to or rows_to allocates and a row-major pool
    is transposed once. block_to measures b points at once, through
    the same formula on (b, g, n) buffers."""

    def __init__(self, measure, matrix):
        super().__init__(measure, np.asfortranarray(matrix, dtype=float))
        self._genes = self.matrix.T
        self._work = self._buffers(self._genes.shape)

    @staticmethod
    def _buffers(shape):
        return np.empty(shape)

    def to(self, point, out=None):
        return self._distances(point[:, None], out, self._work)

    def block_to(self, points: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Squared distances from each row of the (b, g) points to every
        row, written into the (b, n) out; returns out, whose row k is bit
        for bit to(points[k], out[k])."""
        points = points[:, :, None]
        return self._distances(points, out,
                               self._buffers(points.shape[:2]
                                             + self._genes.shape[1:]))

    def _distances(self, points, out, diff):
        """The formula: squared distances from each point of the
        (g, 1) or (b, g, 1) points to every row, with diff a (g, n) or
        (b, g, n) buffer for the terms."""
        diff = np.subtract(self._genes, points, out=diff)
        diff *= diff
        return _sum_genes(diff, out)


class EuclideanSq(DistanceMeasure):
    """Sum of squared per-gene differences."""

    name = "euclidean"
    kernel = _EuclideanRows


class _DynamicRows(_EuclideanRows):
    """The dynamic kernel on _EuclideanRows's layout, with one more
    buffer for the scales. The absolute values of the matrix are taken
    once."""

    def __init__(self, measure, matrix):
        super().__init__(measure, matrix)
        self._abs = np.abs(self._genes)

    @staticmethod
    def _buffers(shape):
        return np.empty(shape), np.empty(shape)

    def _distances(self, points, out, work):
        diff, scale = work
        scale = np.add(self._abs, np.abs(points), out=scale)
        scale += self.measure.epsilon
        diff = np.subtract(self._genes, points, out=diff)
        diff /= scale
        diff *= diff
        return _sum_genes(diff, out)


class DynamicSq(DistanceMeasure):
    """Scale-normalized squared distance.

    Each squared difference is divided by (|a_k| + |b_k| + epsilon)^2,
    so genes living on very different scales contribute comparably.
    The epsilon keeps the ratio finite when both entries are zero.
    """

    name = "dynamic"
    epsilon = 1e-15
    kernel = _DynamicRows


class _HammingRows(PreparedRows):
    """The Hamming kernel on the caller's codes or labels. The
    mismatches go into one reused row-major float (n, g) buffer and are
    counted with a matrix-vector product against one vector of ones. A
    count is an exact integer in float64 whatever order the product sums
    in, so the result equals the mean of the mismatch matrix bit for
    bit. The buffer is row-major whatever the order of the codes: a
    column-major one makes the product slower."""

    def __init__(self, measure, matrix):
        super().__init__(measure, matrix)
        self._mismatch = np.empty(matrix.shape)
        self._ones = np.ones(matrix.shape[1])

    def to(self, point, out=None):
        mismatch = np.not_equal(self.matrix, point, out=self._mismatch)
        counts = np.matmul(mismatch, self._ones, out=out)
        counts /= len(self._ones)
        return counts


class HammingSq(DistanceMeasure):
    """Fraction of positions at which two label vectors disagree;
    to_point compares labels or category codes alike."""

    name = "hamming"
    kernel = _HammingRows


class CustomMeasure(DistanceMeasure):
    """Wraps a user-supplied callable (a, b) -> squared distance."""

    def __init__(self, fn):
        self.fn = fn
        self.name = getattr(fn, "__name__", "custom")

    def to_point(self, matrix, point, out=None):
        values = np.array([float(self.fn(row, point)) for row in matrix])
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
    class (pass an instance) raises ConfigError, as does a measure with
    neither a kernel nor a to_point of its own. The Euclidean and
    dynamic kernels subtract genes, so a measure they measure (see
    _through_to_point) raises ConfigError on labels.
    """
    if isinstance(measure, type):
        raise ConfigError(f"measure {measure.__name__} is a class; pass an "
                          f"instance, {measure.__name__}()")
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
    if (measure.kernel is None
            and type(measure).to_point is DistanceMeasure.to_point):
        raise ConfigError(f"measure {type(measure).__name__} has no formula; "
                          f"define to_point in a subclass or pass a callable")
    if (labels and not _through_to_point(measure)
            and issubclass(measure.kernel, _EuclideanRows)):
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
    """measure from each row of the 2-D rows to every row after it, one
    array per row."""
    if rows.ndim != 2:
        raise ConfigError(f"expected a 2-D array with one row per point, "
                          f"not one of shape {rows.shape}")
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
    try:
        pts = np.asarray(list(points), dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"spread needs points of numbers: {exc}") from None
    if len(pts) < 2:
        raise ConfigError("spread needs at least two points")
    r_sq = np.concatenate(tuple(_to_later_rows(pts, EuclideanSq())))
    return float(np.sqrt(r_sq).mean())


def hamming_spread(sequences) -> float:
    """Mean pairwise fraction of differing positions (labels or strings)."""
    try:
        rows = np.array([list(row) for row in sequences], dtype=object)
    except TypeError as exc:
        raise ConfigError(f"hamming_spread needs sequences of labels: "
                          f"{exc}") from None
    return mean_pairwise(rows, HammingSq())
