"""Genome specification and the gene matrix.

A genome is either numeric (every gene is a float drawn from a bounded
range) or categorical (every gene is a label from one shared category
set), as its GeneSpec's numeric_ranges or categories field says. A
GeneSpec checks and normalizes itself when it is built, whichever
constructor builds it, and is frozen, so every spec in use is valid,
holds tuples and hashes, and nothing downstream checks it again. A
range bound is a real number: a string or a bool is not one.

A population is a gene matrix, one row per individual. Numeric genes
are float64. Categorical genes are integer codes into spec.categories,
stored in the smallest signed integer type that holds every code
(GeneSpec.gene_dtype): int8 up to 128 categories, then int16, and so
on. Variation keeps the dtype of the matrix it is given, and mutate
takes only floating point numeric genes and integer codes. GeneSpec.decode
turns codes into the label arrays that fitness functions, custom
distance measures, CSV rows and the run history (divga.engine.RunRecord)
see, and GeneSpec.encode turns user-given label vectors into codes.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


def _check_integer(name: str, value, least: int):
    """ConfigError unless value is a Python or numpy integer (bool is
    not one) and value >= least."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < least):
        raise ConfigError(
            f"{name} must be an integer of at least {least}, not {value!r}")


def _check_rng(rng):
    """ConfigError unless rng is a numpy.random.Generator."""
    if not isinstance(rng, np.random.Generator):
        raise ConfigError(
            f"rng must be a numpy.random.Generator, not {rng!r}")


def _check_real(name: str, value):
    """ConfigError unless value is a real number (numbers.Real, numpy
    floats and integers included); bool is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a number, not {value!r}")


def _number_pairs(ranges) -> tuple:
    """ranges as a tuple of float (lower, upper) pairs; ConfigError when
    they are not pairs of real numbers (see _check_real)."""
    try:
        pairs = tuple((lo, hi) for lo, hi in ranges)
        for bound in (b for pair in pairs for b in pair):
            _check_real("bound", bound)  # its ConfigError is a ValueError
        return tuple((float(lo), float(hi)) for lo, hi in pairs)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"ranges must be (lower, upper) number pairs, "
                          f"not {ranges!r}") from None


@dataclass(frozen=True)
class GeneSpec:
    """Declares the shape and admissible values of a genome.

    Exactly one of numeric_ranges (a numeric genome) and categories (a
    categorical one) is given. Every instance is checked and normalized
    when built, by the raw constructor, which :meth:`numeric` and
    :meth:`categorical` call.

    Attributes:
        numeric_ranges: per-gene (lower, upper) bounds of a numeric
            genome, stored as a tuple of float pairs.
        categories: shared label set of a categorical genome, stored as
            a tuple with a repeated label kept once, where it first
            appears, so that each label has exactly one code.
        number_of_genes: length of every gene vector, an integer of at
            least 1.
    """

    numeric_ranges: tuple[tuple[float, float], ...] | None = None
    categories: tuple = None
    number_of_genes: int = 0

    def __post_init__(self):
        """Stores the fields as the class docstring says. Raises
        ConfigError: neither or both of numeric_ranges and categories
        given; number_of_genes not an integer (bool is not one, numpy
        integers are) or below 1; ranges that are not real number pairs,
        or not number_of_genes of them; a range not finite or with
        lower >= upper; unhashable labels, or fewer than two distinct."""
        if (self.numeric_ranges is None) == (self.categories is None):
            raise ConfigError(
                "a genome needs exactly one of numeric_ranges and categories")
        _check_integer("number_of_genes", self.number_of_genes, 1)
        if self.is_numeric:
            ranges = _number_pairs(self.numeric_ranges)
            object.__setattr__(self, "numeric_ranges", ranges)
            if len(ranges) != self.number_of_genes:
                raise ConfigError(
                    "number_of_genes does not match the number of ranges")
            for lo, hi in ranges:
                if not (math.isfinite(lo) and math.isfinite(hi)):
                    raise ConfigError(f"gene range ({lo}, {hi}) is not finite")
                if not lo < hi:
                    raise ConfigError(f"empty gene range ({lo}, {hi})")
            return
        try:
            categories = tuple(dict.fromkeys(self.categories))
        except TypeError:
            raise ConfigError(f"categories must be hashable labels, not "
                              f"{self.categories!r}") from None
        object.__setattr__(self, "categories", categories)
        if len(categories) < 2:
            raise ConfigError(
                "categorical genome needs at least two distinct labels")

    @classmethod
    def numeric(cls, ranges) -> "GeneSpec":
        """Numeric genome with one (lower, upper) range per gene; ranges
        may be any iterable of pairs."""
        ranges = _number_pairs(ranges)
        return cls(numeric_ranges=ranges, number_of_genes=len(ranges))

    @classmethod
    def categorical(cls, categories, number_of_genes: int) -> "GeneSpec":
        """Categorical genome of given length over one shared label set."""
        return cls(categories=categories, number_of_genes=number_of_genes)

    @property
    def is_numeric(self) -> bool:
        return self.numeric_ranges is not None

    def range_widths(self) -> np.ndarray:
        """Per-gene range widths (numeric genomes only)."""
        return np.array([hi - lo for lo, hi in self.numeric_ranges])

    @property
    def gene_dtype(self) -> np.dtype:
        """dtype of a gene matrix: float64 for numeric genomes, else the
        smallest signed integer type that holds every category code."""
        if self.is_numeric:
            return np.dtype(float)
        return np.min_scalar_type(-len(self.categories))

    def encode(self, rows) -> np.ndarray:
        """Gene matrix of the given gene vectors, one row each.

        Numeric vectors become float rows; label vectors become rows of
        codes into categories. Raises ConfigError when a vector has the
        wrong length, or holds a non-number or an unknown label.
        """
        try:
            if not self.is_numeric:
                code = {label: k for k, label in enumerate(self.categories)}
                rows = [[code[label] for label in row] for row in rows]
            genes = np.array(rows, dtype=self.gene_dtype)
            return genes.reshape(len(rows), self.number_of_genes)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(
                f"not a vector of {self.number_of_genes} genes of this "
                f"genome: {exc!r}")

    def decode(self, genes: np.ndarray) -> np.ndarray:
        """Genes as users see them: unchanged if numeric, else labels."""
        if self.is_numeric:
            return genes
        labels = np.fromiter(self.categories, dtype=object,
                             count=len(self.categories))
        return labels[genes]


def seed_population(spec: GeneSpec, size: int,
                    rng: np.random.Generator,
                    init_genes=None) -> np.ndarray:
    """Gene matrix of generation zero, (size, number_of_genes).

    Provided init_genes vectors are used first (validated against the
    spec), then the remaining rows are drawn in one batch: numeric genes
    uniform over their ranges, categorical genes uniform over the
    category codes. Codes are drawn as intp, then cast to the spec's
    gene_dtype, so the random stream does not depend on that dtype.
    Extra vectors beyond size are dropped with a warning. rng must be a
    numpy.random.Generator.
    """
    _check_rng(rng)
    _check_integer("size", size, 1)
    given = list(init_genes) if init_genes is not None else []
    if len(given) > size:
        warnings.warn(
            f"{len(given)} initial gene vectors for a population "
            f"of {size}; extra vectors are ignored")
        given = given[:size]
    fixed = spec.encode(given)
    shape = (size - len(given), spec.number_of_genes)
    if spec.is_numeric:
        lows, highs = np.array(spec.numeric_ranges).T
        drawn = rng.uniform(lows, highs, size=shape)
    else:
        drawn = rng.integers(0, len(spec.categories), size=shape,
                             dtype=np.intp).astype(spec.gene_dtype)
    return np.concatenate([fixed, drawn])
