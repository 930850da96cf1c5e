"""Survivor selection.

Diversity-enhanced selection repeatedly takes the candidate with the
highest working fitness and then lowers the working fitness of everyone
still in the pool by a penalty that decays with squared distance to the
new survivor:

    penalty = d0 * exp(-r^2 / r0^2)

Candidates sitting on top of an already chosen survivor lose the full
d0, candidates far away lose nothing. Penalties accumulate over the
picks of one selection pass and are discarded afterwards. With d0 = 0
the procedure degenerates to plain truncation selection (top-N), and
the engine runs DiversityEnhanced(d0=0) as select_top_n: the same
picks from one stable argsort.

Both selectors take the whole candidate pool as arrays (a gene matrix
and a fitness vector, one row per candidate) and return the indices of
the survivors in selection order. A fitness of +inf ranks first and
-inf ranks last; NaN marks an unevaluated candidate and is rejected.
The d0, r0 and measure of diversity-enhanced selection come from a
DiversityEnhanced (see divga.engine).
"""

from __future__ import annotations

import numpy as np

from .distance import HammingSq, get_measure
from .errors import ConfigError


def _checked_fitness(fitness, count: int) -> np.ndarray:
    fitness = np.asarray(fitness, dtype=float)
    if count > len(fitness):
        raise ConfigError(
            f"asked for {count} survivors from {len(fitness)} candidates")
    if np.isnan(fitness).any():
        raise ConfigError("a candidate has no fitness value")
    return fitness


def select_diverse(genes: np.ndarray, fitness, count: int, diversity,
                   working: np.ndarray | None = None) -> np.ndarray:
    """Indices of count survivors, picked by iterated penalized argmax.

    Each pick takes the live candidate with the highest working fitness
    (ties broken toward the lowest index), then subtracts the diversity
    penalty around the pick from every candidate; picked rows are
    masked out. When working is given, working[k] receives the working
    fitness of pick k at the moment it was picked. A measure of None is
    the kind default: Hamming for label genes (object or string dtype),
    Euclidean otherwise. The inputs are not modified; calling twice on
    the same pool gives the same result.
    """
    work = _checked_fitness(fitness, count).copy()
    genes = np.asarray(genes)
    if len(genes) != len(work):
        raise ConfigError(
            f"{len(genes)} gene rows for {len(work)} fitness values")
    if diversity.r0 is None:
        raise ConfigError("r0 is not set; give it or resolve the selection "
                          "against a population first")
    measure = (HammingSq() if diversity.measure is None
               and genes.dtype.kind in "OSU" else get_measure(diversity.measure))
    inv_r0_sq = 1.0 / diversity.r0 ** 2
    alive = np.ones(len(work), dtype=bool)
    picks = np.empty(count, dtype=np.intp)
    for k in range(count):
        pick = int(np.argmax(work))
        if not alive[pick]:
            # Only picked rows and -inf candidates are left at -inf.
            pick = int(np.argmax(alive))
        picks[k] = pick
        if working is not None:
            working[k] = work[pick]
        alive[pick] = False
        work[pick] = -np.inf
        if diversity.d0 != 0.0 and k + 1 < count:
            r_sq = measure.to_point(genes, genes[pick])
            work -= diversity.d0 * np.exp(-np.asarray(r_sq) * inv_r0_sq)
    return picks


def select_top_n(fitness, count: int) -> np.ndarray:
    """Indices of the count best by raw fitness, ties toward the lowest index."""
    fitness = _checked_fitness(fitness, count)
    return np.argsort(-fitness, kind="stable")[:count]
