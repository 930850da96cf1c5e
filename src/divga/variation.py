"""Offspring creation: pairing, crossover and mutation.

Every operator works on a whole generation at once: parents and
children are gene matrices, one row per individual (float genes, or
category codes for categorical genomes). Everything here is pure given
an explicit random generator (a numpy.random.Generator; anything else
is a ConfigError), so callers control determinism by controlling the
generator. Within one call to produce_offspring with k children of g
genes the draw order is fixed:

1. pairing: for "random" pairs, k first-parent indices, then k
   second-parent offsets; "all" pairs and crossover "none" draw nothing;
2. crossover: "eitheror" draws a (k, g) matrix of coin flips, "between"
   a (k, g) matrix of uniforms, the others draw nothing;
3. mutation: a (k, g) matrix deciding which genes fire; then, for a
   categorical genome, one code per fired gene; for a numeric genome in
   "random" mode a (k, g) matrix choosing additive or multiplicative
   per gene, then one normal per fired additive gene, then one per
   fired multiplicative gene; in "additive" and "multiplicative" modes
   one normal per fired gene. Fired genes are visited in row-major
   order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError
from .genome import GeneSpec, _check_integer, _check_real, _check_rng

MIDPOINT = "midpoint"
EITHER_OR = "eitheror"
BETWEEN = "between"
NONE = "none"
CROSSOVER_METHODS = (MIDPOINT, EITHER_OR, BETWEEN, NONE)

ALL_PAIRS = "all"
RANDOM_PAIRS = "random"
PAIRING_STRATEGIES = (ALL_PAIRS, RANDOM_PAIRS)

ADDITIVE = "additive"
MULTIPLICATIVE = "multiplicative"
RANDOM_MODE = "random"
MUTATION_MODES = (ADDITIVE, MULTIPLICATIVE, RANDOM_MODE)


@dataclass(frozen=True)
class MutationConfig:
    """Per-gene mutation settings.

    rate None resolves to 1 / number_of_genes. mode applies to numeric
    genomes only, None resolving to "additive"; a categorical genome
    takes no mode, since its genes are always redrawn. Mutated numeric
    genes may leave their initial ranges unless clip_to_ranges is set.
    Frozen, and checked when built (ConfigError): rate None or a number
    in [0, 1], mode None or one of MUTATION_MODES, clip_to_ranges a
    bool (numpy's included).
    """

    rate: float | None = None
    mode: str | None = None
    clip_to_ranges: bool = False

    def __post_init__(self):
        rate = self.rate
        if rate is not None:
            _check_real("mutation rate", rate)
            if not 0.0 <= rate <= 1.0:
                raise ConfigError(f"mutation rate {rate} outside [0, 1]")
        if self.mode is not None and self.mode not in MUTATION_MODES:
            raise ConfigError(f"unknown mutation mode {self.mode!r}")
        if not isinstance(self.clip_to_ranges, (bool, np.bool_)):
            raise ConfigError(f"clip_to_ranges must be a bool, "
                              f"not {self.clip_to_ranges!r}")


def resolve_mutation(config: MutationConfig | None,
                     spec: GeneSpec) -> MutationConfig:
    """Fill in the genome's defaults; a categorical genome takes no mode."""
    if config is None:
        config = MutationConfig()
    if not spec.is_numeric and config.mode is not None:
        raise ConfigError(f"categorical genomes take no mutation mode, "
                          f"not {config.mode!r}")
    rate = 1.0 / spec.number_of_genes if config.rate is None else config.rate
    mode = config.mode or (ADDITIVE if spec.is_numeric else None)
    return replace(config, rate=rate, mode=mode)


def resolve_crossover(method: str | None, spec: GeneSpec) -> str:
    """method, or for None the kind default: "between" for numeric
    genomes, "eitheror" for categorical ones, which reject midpoint and
    between."""
    if method is None:
        return BETWEEN if spec.is_numeric else EITHER_OR
    if method not in CROSSOVER_METHODS:
        raise ConfigError(f"unknown crossover method {method!r}")
    if not spec.is_numeric and method in (MIDPOINT, BETWEEN):
        raise ConfigError(
            f"{method} crossover is undefined for categorical genomes")
    return method


def crossover(parents_a: np.ndarray, parents_b: np.ndarray, method: str,
              rng: np.random.Generator) -> np.ndarray:
    """Cross row i of parents_a with row i of parents_b, one child each.

    midpoint: per-gene average of the parents.
    eitheror: per gene take parent_b's value with probability 1/2,
        otherwise parent_a's, independently per gene.
    between: per gene uniform on the closed interval spanned by the
        two parent values.
    none: copy of parent_a, parent_b ignored.

    midpoint and between only make sense on numeric genes. The parents
    must be two gene matrices of one shape (arrays or nested lists).
    """
    _check_rng(rng)
    if method not in CROSSOVER_METHODS:
        raise ConfigError(f"unknown crossover method {method!r}")
    a, b = np.asarray(parents_a), np.asarray(parents_b)
    if a.ndim != 2 or a.shape != b.shape:
        raise ConfigError(f"parents of shapes {a.shape} and {b.shape} are "
                          f"not two gene matrices of one shape")
    if method == NONE:
        return a.copy()
    if method == MIDPOINT:
        return (a + b) / 2.0
    if method == EITHER_OR:
        return np.where(rng.random(a.shape) < 0.5, b, a)
    return rng.uniform(np.minimum(a, b), np.maximum(a, b))


def mutate(genes: np.ndarray, spec: GeneSpec, config: MutationConfig | None,
           rng: np.random.Generator) -> np.ndarray:
    """Return a mutated copy of a gene matrix of the genome spec.

    config is resolved against spec first (see resolve_mutation; None
    means the defaults). Each gene independently mutates with
    probability config.rate. Additive mutation adds Gaussian noise with
    sigma one tenth of the gene's range width, multiplicative scales by
    N(1, 0.5), random picks one of the two per mutated gene with equal
    probability. A mutated categorical gene is redrawn uniformly from the
    full category set (so it can redraw the current label). genes must
    be a matrix (an array or nested lists) of spec.number_of_genes
    columns, of integer codes in [0, len(spec.categories)) for a
    categorical genome; it is checked before any draw.
    """
    _check_rng(rng)
    config = resolve_mutation(config, spec)
    genes = np.array(genes)
    if genes.ndim != 2 or genes.shape[1] != spec.number_of_genes:
        raise ConfigError(f"genes of shape {genes.shape} are not rows of "
                          f"{spec.number_of_genes} genes")
    if not spec.is_numeric and (
            genes.dtype.kind not in "iu" or genes.min(initial=0) < 0
            or genes.max(initial=0) >= len(spec.categories)):
        raise ConfigError(f"genes of a categorical genome must be integer "
                          f"codes in [0, {len(spec.categories)})")
    fires = rng.random(genes.shape) < config.rate
    if not spec.is_numeric:
        genes[fires] = rng.integers(0, len(spec.categories),
                                    size=int(fires.sum()))
        return genes
    if config.mode == RANDOM_MODE:
        go_additive = rng.random(genes.shape) < 0.5
    else:
        go_additive = np.bool_(config.mode == ADDITIVE)
    # Outside "random" mode one mask is empty, and an empty normal draw
    # takes nothing from the stream.
    additive, multiplicative = fires & go_additive, fires & ~go_additive
    sigma = np.broadcast_to(spec.range_widths() / 10.0, genes.shape)
    genes[additive] += rng.normal(0.0, sigma[additive])
    genes[multiplicative] *= rng.normal(1.0, 0.5,
                                        size=int(multiplicative.sum()))
    if config.clip_to_ranges:
        lows, highs = np.array(spec.numeric_ranges).T
        np.clip(genes, lows, highs, out=genes)
    return genes


def make_pairs(n: int, strategy: str, rng: np.random.Generator) -> np.ndarray:
    """Parent index pairs for a population of n, as a (k, 2) array.

    "all" enumerates every unordered pair (i < j, in row-major order),
    n(n-1)/2 of them. "random" draws n pairs with distinct indices,
    independently and with replacement across draws.
    """
    _check_rng(rng)
    _check_integer("n", n)
    if n < 2:
        raise ConfigError("pairing needs at least two parents")
    if strategy == ALL_PAIRS:
        return np.column_stack(np.triu_indices(n, k=1))
    if strategy != RANDOM_PAIRS:
        raise ConfigError(f"unknown pairing strategy {strategy!r}")
    first = rng.integers(0, n, size=n)
    second = rng.integers(0, n - 1, size=n)
    return np.column_stack([first, second + (second >= first)])


def produce_offspring(genes: np.ndarray, spec: GeneSpec, method: str | None,
                      strategy: str, mutation: MutationConfig | None,
                      rng: np.random.Generator) -> np.ndarray:
    """One generation's children as a gene matrix, crossed and mutated.

    With crossover "none" the pairing strategy is ignored and every
    parent contributes exactly one mutated copy, n children in total.
    Otherwise the pairing strategy decides the number of children:
    n(n-1)/2 for "all", n for "random".
    """
    _check_rng(rng)
    method = resolve_crossover(method, spec)
    if method == NONE:
        return mutate(genes, spec, mutation, rng)
    pairs = make_pairs(len(genes), strategy, rng)
    children = crossover(genes[pairs[:, 0]], genes[pairs[:, 1]], method, rng)
    return mutate(children, spec, mutation, rng)
