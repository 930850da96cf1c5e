"""Offspring creation: pairing, crossover and mutation.

Every operator works on a whole generation at once: parents and
children are gene matrices, one row per individual (float genes, or
category codes for categorical genomes). Everything here is pure given
an explicit random generator, so callers control determinism by
controlling the generator. Within one call to produce_offspring with k
children of g genes the draw order is fixed:

1. pairing: for "random" pairs, k first-parent indices, then k
   second-parent offsets; "all" pairs and crossover "none" draw nothing;
2. crossover: "eitheror" draws a (k, g) matrix of coin flips, "between"
   a (k, g) matrix of uniforms, the others draw nothing;
3. mutation: a (k, g) matrix deciding which genes fire; then, for
   "categorical" mode, one code per fired gene; for "random" mode a
   (k, g) matrix choosing additive or multiplicative per gene, then one
   normal per fired additive gene and one per fired multiplicative gene;
   for "additive" and "multiplicative" modes one normal per fired gene.
   Fired genes are visited in row-major order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    ConfigError,
    IllegalMethodError,
    PopulationTooSmallError,
)
from .genome import GeneSpec

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
CATEGORICAL_MODE = "categorical"
MUTATION_MODES = (ADDITIVE, MULTIPLICATIVE, RANDOM_MODE, CATEGORICAL_MODE)


@dataclass
class MutationConfig:
    """Per-gene mutation settings.

    rate None resolves to 1 / number_of_genes, mode None to "additive"
    for numeric genomes and "categorical" for categorical ones. The spec
    supplies gene ranges (additive noise scale is one tenth of the range
    width) and the category set. Mutated numeric genes may leave their
    initial ranges unless clip_to_ranges is set.
    """

    rate: float | None = None
    mode: str | None = None
    spec: GeneSpec | None = None
    clip_to_ranges: bool = False


def resolve_mutation(config: MutationConfig | None,
                     spec: GeneSpec) -> MutationConfig:
    """Fill in defaults and validate against the genome kind."""
    if config is None:
        config = MutationConfig()
    rate = config.rate
    if rate is None:
        rate = 1.0 / spec.number_of_genes
    if not 0.0 <= rate <= 1.0:
        raise ConfigError(f"mutation rate {rate} outside [0, 1]")
    mode = config.mode
    if mode is None:
        mode = ADDITIVE if spec.is_numeric else CATEGORICAL_MODE
    if mode not in MUTATION_MODES:
        raise ConfigError(f"unknown mutation mode {mode!r}")
    if spec.is_numeric and mode == CATEGORICAL_MODE:
        raise ConfigError("categorical mutation needs a categorical genome")
    if not spec.is_numeric and mode != CATEGORICAL_MODE:
        raise ConfigError("categorical genomes only support categorical mutation")
    return replace(config, rate=rate, mode=mode, spec=spec)


def resolve_crossover(method: str | None, spec: GeneSpec) -> str:
    """method, or for None the kind default: "between" for numeric
    genomes, "eitheror" for categorical ones, which reject midpoint and
    between."""
    if method is None:
        return BETWEEN if spec.is_numeric else EITHER_OR
    if method not in CROSSOVER_METHODS:
        raise IllegalMethodError(f"unknown crossover method {method!r}")
    if not spec.is_numeric and method in (MIDPOINT, BETWEEN):
        raise IllegalMethodError(
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

    midpoint and between only make sense on numeric genes.
    """
    if method not in CROSSOVER_METHODS:
        raise IllegalMethodError(f"unknown crossover method {method!r}")
    a, b = parents_a, parents_b
    if method == NONE:
        return a.copy()
    if method == MIDPOINT:
        return (a + b) / 2.0
    if method == EITHER_OR:
        return np.where(rng.random(a.shape) < 0.5, b, a)
    return rng.uniform(np.minimum(a, b), np.maximum(a, b))


def mutate(genes: np.ndarray, config: MutationConfig,
           rng: np.random.Generator) -> np.ndarray:
    """Return a mutated copy of a gene matrix.

    Each gene independently mutates with probability config.rate.
    Additive mutation adds Gaussian noise with sigma one tenth of the
    gene's range width, multiplicative scales by N(1, 0.5), random picks
    one of the two per mutated gene with equal probability, categorical
    redraws the code uniformly from the full category set (so it can
    redraw the current label).
    """
    spec = config.spec
    if spec is None:
        raise ConfigError("mutation config is not bound to a genome spec")
    genes = genes.copy()
    fires = rng.random(genes.shape) < config.rate
    if config.mode == CATEGORICAL_MODE:
        genes[fires] = rng.integers(0, len(spec.categories),
                                    size=int(fires.sum()))
        return genes
    if config.mode == ADDITIVE:
        additive, multiplicative = fires, None
    elif config.mode == MULTIPLICATIVE:
        additive, multiplicative = None, fires
    else:
        go_additive = rng.random(genes.shape) < 0.5
        additive = fires & go_additive
        multiplicative = fires & ~go_additive
    if additive is not None:
        sigma = np.broadcast_to(spec.range_widths() / 10.0, genes.shape)
        genes[additive] += rng.normal(0.0, sigma[additive])
    if multiplicative is not None:
        genes[multiplicative] *= rng.normal(
            1.0, 0.5, size=int(multiplicative.sum()))
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
    if n < 2:
        raise PopulationTooSmallError("pairing needs at least two parents")
    if strategy == ALL_PAIRS:
        return np.column_stack(np.triu_indices(n, k=1))
    if strategy != RANDOM_PAIRS:
        raise ConfigError(f"unknown pairing strategy {strategy!r}")
    first = rng.integers(0, n, size=n)
    second = rng.integers(0, n - 1, size=n)
    return np.column_stack([first, second + (second >= first)])


def produce_offspring(genes: np.ndarray, method: str, strategy: str,
                      mutation: MutationConfig,
                      rng: np.random.Generator) -> np.ndarray:
    """One generation's children as a gene matrix, crossed and mutated.

    With crossover "none" the pairing strategy is ignored and every
    parent contributes exactly one mutated copy, n children in total.
    Otherwise the pairing strategy decides the number of children:
    n(n-1)/2 for "all", n for "random".
    """
    if mutation.spec is None:
        raise ConfigError("mutation config is not bound to a genome spec")
    method = resolve_crossover(method, mutation.spec)
    if method == NONE:
        return mutate(genes, mutation, rng)
    pairs = make_pairs(len(genes), strategy, rng)
    children = crossover(genes[pairs[:, 0]], genes[pairs[:, 1]], method, rng)
    return mutate(children, mutation, rng)
