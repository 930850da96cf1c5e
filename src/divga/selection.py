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

Each call prepares the pool once with the measure's prepare (see
divga.distance): a built-in measure's kernel, which holds the pool in
the layout its formula wants with its work buffers, or, for a measure
that defines its own to_point, a wrapper that calls it. Each pick then
writes r^2 into one penalty buffer allocated per call, through
rows_to, and turns it into the penalty in place:
r^2 * (-1 / r0^2), exp, times d0 (skipped at d0 = 1, where it changes
no bit), subtracted from the working fitness. These are the IEEE
operations of the formula above, with the negation carried by the
constant.

Both selectors take the whole candidate pool as arrays (a gene matrix
and a fitness vector, one row per candidate) and return the indices of
the survivors in selection order. A fitness of +inf ranks first and
-inf ranks last; NaN marks an unevaluated candidate and is rejected.
The d0, r0 and measure of diversity-enhanced selection come from a
DiversityEnhanced (see divga.engine).
"""

from __future__ import annotations

import numpy as np

from .distance import get_measure
from .errors import ConfigError
from .genome import _check_integer


def _checked_fitness(fitness, count: int) -> np.ndarray:
    _check_integer("count", count)
    if count < 0:
        raise ConfigError(f"count must be non-negative, not {count}")
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
    fitness of pick k at the moment it was picked. Label genes (object
    or string dtype) resolve the measure as get_measure does for labels:
    None is Hamming, and Euclidean or dynamic raises ConfigError. The
    inputs are not modified; calling twice on the same pool gives the
    same result.
    """
    work = _checked_fitness(fitness, count).copy()
    genes = np.asarray(genes)
    if len(genes) != len(work):
        raise ConfigError(
            f"{len(genes)} gene rows for {len(work)} fitness values")
    if diversity.r0 is None:
        raise ConfigError("r0 is not set; give it or resolve the selection "
                          "against a population first")
    measure = get_measure(diversity.measure, labels=genes.dtype.kind in "OSU")
    rows_to = measure.prepare(genes).rows_to
    d0 = diversity.d0
    scale = -1.0 / diversity.r0 ** 2
    multiply, exp, minus_inf = np.multiply, np.exp, -np.inf
    penalty = np.empty(len(work))
    alive = np.ones(len(work), dtype=bool)
    picks = np.empty(count, dtype=np.intp)
    for k in range(count):
        pick = int(work.argmax())
        if not alive[pick]:
            # Only picked rows and -inf candidates are left at -inf.
            pick = int(alive.argmax())
        picks[k] = pick
        if working is not None:
            working[k] = work[pick]
        alive[pick] = False
        work[pick] = minus_inf
        if d0 != 0.0 and k + 1 < count:
            multiply(rows_to(pick, penalty), scale, out=penalty)
            exp(penalty, out=penalty)
            if d0 != 1.0:
                penalty *= d0
            work -= penalty
    return picks


def select_top_n(fitness, count: int) -> np.ndarray:
    """Indices of the count best by raw fitness, ties toward the lowest index."""
    fitness = _checked_fitness(fitness, count)
    return np.argsort(-fitness, kind="stable")[:count]
