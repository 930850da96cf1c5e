"""Genome specification and the gene matrix.

A genome is either numeric (every gene is a float drawn from a bounded
range) or categorical (every gene is a label from one shared category
set). Mixed genomes are rejected up front.

A population is a gene matrix, one row per individual. Numeric genes
are float64. Categorical genes are integer codes into spec.categories;
GeneSpec.decode turns codes into the label arrays that fitness
functions, custom distance measures, CSV rows and the run history
(divga.engine.RunRecord) see, and GeneSpec.encode turns user-given
label vectors into codes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyRangeError,
    MixedKindsError,
    ShapeMismatchError,
    TooFewCategoriesError,
    ZeroGenesError,
)

NUMERIC = "numeric"
CATEGORICAL = "categorical"


@dataclass(frozen=True)
class GeneSpec:
    """Declares the shape and admissible values of a genome.

    Build instances through :meth:`numeric` or :meth:`categorical`; the
    raw constructor does not validate.

    Attributes:
        kind: "numeric" or "categorical".
        numeric_ranges: per-gene (lower, upper) bounds, numeric kind only.
        categories: shared label set, categorical kind only.
        number_of_genes: length of every gene vector.
    """

    kind: str
    numeric_ranges: tuple[tuple[float, float], ...] | None = None
    categories: tuple = None
    number_of_genes: int = 0

    @classmethod
    def numeric(cls, ranges) -> "GeneSpec":
        """Numeric genome with one (lower, upper) range per gene."""
        ranges = tuple((float(lo), float(hi)) for lo, hi in ranges)
        return validate_spec(cls(NUMERIC, numeric_ranges=ranges,
                                 number_of_genes=len(ranges)))

    @classmethod
    def categorical(cls, categories, number_of_genes: int) -> "GeneSpec":
        """Categorical genome of given length over one shared label set.

        Repeated labels are kept once, in order of first appearance, so
        that each label has exactly one code.
        """
        return validate_spec(cls(CATEGORICAL,
                                 categories=tuple(dict.fromkeys(categories)),
                                 number_of_genes=int(number_of_genes)))

    @property
    def is_numeric(self) -> bool:
        return self.kind == NUMERIC

    def range_widths(self) -> np.ndarray:
        """Per-gene range widths (numeric genomes only)."""
        return np.array([hi - lo for lo, hi in self.numeric_ranges])

    def encode(self, rows) -> np.ndarray:
        """Gene matrix of the given gene vectors, one row each.

        Numeric vectors become float rows; label vectors become rows of
        codes into categories. Raises ShapeMismatchError when a vector
        has the wrong length, or holds a non-number or an unknown label.
        """
        try:
            if self.is_numeric:
                genes = np.array(rows, dtype=float)
            else:
                code = {label: k for k, label in enumerate(self.categories)}
                genes = np.array([[code[label] for label in row]
                                  for row in rows], dtype=np.intp)
            return genes.reshape(len(rows), self.number_of_genes)
        except (KeyError, TypeError, ValueError) as exc:
            raise ShapeMismatchError(
                f"not a vector of {self.number_of_genes} genes of this "
                f"genome: {exc!r}")

    def decode(self, genes: np.ndarray) -> np.ndarray:
        """Genes as users see them: unchanged if numeric, else labels."""
        if self.is_numeric:
            return genes
        labels = np.fromiter(self.categories, dtype=object,
                             count=len(self.categories))
        return labels[genes]


def validate_spec(spec: GeneSpec) -> GeneSpec:
    """Check a GeneSpec and return it unchanged, or raise.

    Raises:
        MixedKindsError: both ranges and categories given, or kind
            inconsistent with the populated fields.
        ZeroGenesError: no genes declared.
        EmptyRangeError: some numeric range has lower >= upper.
        TooFewCategoriesError: fewer than two distinct labels.
    """
    if spec.numeric_ranges is not None and spec.categories is not None:
        raise MixedKindsError("genome cannot be both numeric and categorical")
    if spec.kind == NUMERIC:
        if spec.numeric_ranges is None:
            raise MixedKindsError("numeric genome needs numeric_ranges")
        if spec.number_of_genes < 1 or len(spec.numeric_ranges) < 1:
            raise ZeroGenesError("genome must have at least one gene")
        if len(spec.numeric_ranges) != spec.number_of_genes:
            raise ShapeMismatchError(
                "number_of_genes does not match the number of ranges")
        for lo, hi in spec.numeric_ranges:
            if not lo < hi:
                raise EmptyRangeError(f"empty gene range ({lo}, {hi})")
    elif spec.kind == CATEGORICAL:
        if spec.categories is None:
            raise MixedKindsError("categorical genome needs categories")
        if spec.number_of_genes < 1:
            raise ZeroGenesError("genome must have at least one gene")
        if len(set(spec.categories)) < 2:
            raise TooFewCategoriesError(
                "categorical genome needs at least two distinct labels")
    else:
        raise MixedKindsError(f"unknown genome kind {spec.kind!r}")
    return spec


def seed_population(spec: GeneSpec, size: int,
                    rng: np.random.Generator,
                    init_genes=None) -> np.ndarray:
    """Gene matrix of generation zero, (size, number_of_genes).

    Provided init_genes vectors are used first (validated against the
    spec), then the remaining rows are drawn in one batch: numeric genes
    uniform over their ranges, categorical genes uniform over the
    category codes. Extra vectors beyond size are dropped with a warning.
    """
    validate_spec(spec)
    if size < 1:
        raise ValueError("population size must be positive")
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
                             dtype=np.intp)
    return np.concatenate([fixed, drawn])
