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
select_diverse owns that case: it returns select_top_n's picks, from
one stable argsort, without preparing the pool.

Each call prepares the pool once with the measure's prepare (see
divga.distance): a built-in measure's kernel, which holds the pool in
the layout its formula wants with its work buffers, or, for a measure
that defines its own to_point, a wrapper that calls it. The penalties
then come by one of two routes, with the same picks and working
fitness bit for bit.

Every penalty of either route comes from one in-place step on a buffer
of r^2, _to_penalties: times -1 / r0^2, exp, times d0 (skipped at
d0 = 1, where it changes no bit), the IEEE operations of the formula
with the negation carried by the constant. DiversityEnhanced admits
only an r0 whose 1 / r0^2 is finite and nonzero, so it is finite.

The per-pick route serves every pool. Each pick writes r^2 into one
penalty buffer allocated per call, through rows_to, and subtracts its
penalties from the working fitness.

The penalty-matrix route serves small pools that keep at least half
their rows: n <= 2 * count, n * g <= MATRIX_ROUTE_MAX_VALUES, the
Euclidean or dynamic kernel (whose block_to measures a block of
points at once). It keeps the m = count + count // 2 best
candidates by raw fitness, ranked by a stable sort and held in index
order, so ties still go to the lowest index. Their (m, m) penalty
matrix is built once, in row blocks, by the same step, so each entry
is bit for bit the per-pick route's. Each pick is then one argmax and
one row subtraction on m values.

The monotone bound makes the pruning exact. Penalties are never
negative, so no working fitness rises above its raw fitness. A pick
whose working fitness is strictly above the best left-out raw fitness
is therefore the pick of the whole pool. The route checks this before
it accepts each pick. At the first pick k that fails the check, the
left-out candidates are brought up to pick k, subtracting the
penalties of picks 0 .. k-1 in order, and the per-pick route finishes
the call from pick k. No full (n, n) matrix is built.

The cap of MATRIX_ROUTE_MAX_VALUES = 1024 values bounds the matrix's
m^2 * g entries: the matrix saves call overhead, so it pays while n * g
is small, and a guess that fails early costs most of the per-pick route
as well. The route's timings, and the pools where its guess fails, are
recorded in CHANGES.md.

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
    if fitness.ndim != 1:
        raise ConfigError(
            f"fitness must be a vector, not an array of shape {fitness.shape}")
    if count > len(fitness):
        raise ConfigError(
            f"asked for {count} survivors from {len(fitness)} candidates")
    if np.isnan(fitness).any():
        raise ConfigError("a candidate has no fitness value")
    return fitness


# The penalty-matrix route is taken by pools of at most this many gene
# values (rows times genes) that keep at least half their rows; see the
# module docstring.
MATRIX_ROUTE_MAX_VALUES = 1024
# Row blocks of the penalty matrix are built in buffers of about this
# many values.
_BLOCK_VALUES = 1 << 14


def select_diverse(genes: np.ndarray, fitness, count: int, diversity,
                   working: np.ndarray | None = None) -> np.ndarray:
    """Indices of count survivors, picked by iterated penalized argmax.

    Each pick takes the live candidate with the highest working fitness
    (ties broken toward the lowest index), then subtracts the diversity
    penalty around the pick from every candidate; picked rows are
    masked out. At d0 = 0 the picks are select_top_n's. When working is
    given, working[k] receives the working fitness of pick k at the
    moment it was picked, for k < count; entries past count are left as
    they are, and a working that is not a float64 vector of at least
    count entries is a ConfigError before any work. Label genes (object
    or string dtype) resolve the measure as get_measure does for
    labels: None is Hamming, and a Euclidean or dynamic kernel raises
    ConfigError. The inputs are not modified; calling twice on the same
    pool gives the same result.
    """
    fitness = _checked_fitness(fitness, count)
    genes = np.asarray(genes)
    if genes.ndim != 2:
        raise ConfigError(
            f"genes must be an (n, g) matrix, not an array of shape "
            f"{genes.shape}")
    if len(genes) != len(fitness):
        raise ConfigError(
            f"{len(genes)} gene rows for {len(fitness)} fitness values")
    if diversity.r0 is None:
        raise ConfigError("r0 is not set; give it or resolve the selection "
                          "against a population first")
    measure = get_measure(diversity.measure, labels=genes.dtype.kind in "OSU")
    if working is None:
        working = np.empty(count)
    elif not (isinstance(working, np.ndarray) and working.dtype == np.float64
              and working.ndim == 1 and len(working) >= count):
        raise ConfigError(f"working must be a float64 vector of at least "
                          f"{count} entries")
    d0 = diversity.d0
    if d0 == 0.0:
        picks = _top_n(fitness, count)
        working[:count] = fitness[picks]
        return picks
    rows = measure.prepare(genes)
    scale = -1.0 / diversity.r0 ** 2
    work = fitness.copy()
    picks = np.empty(count, dtype=np.intp)
    done = 0
    if (len(work) <= 2 * count and genes.size <= MATRIX_ROUTE_MAX_VALUES
            and hasattr(rows, "block_to")):
        done = _matrix_picks(rows, work, d0, scale, picks, working)
    penalty = np.empty(len(work))
    alive = np.ones(len(work), dtype=bool)
    alive[picks[:done]] = False
    rows_to = rows.rows_to
    for k in range(done, count):
        pick = int(work.argmax())
        if not alive[pick]:
            # Only picked rows and -inf candidates are left at -inf.
            pick = int(alive.argmax())
        picks[k] = pick
        working[k] = work[pick]
        alive[pick] = False
        work[pick] = -np.inf
        if k + 1 < count:
            work -= _to_penalties(rows_to(pick, penalty), d0, scale)
    return picks


def _to_penalties(r_sq: np.ndarray, d0: float, scale: float) -> np.ndarray:
    """r_sq, squared distances, turned in place into the penalties
    d0 * exp(r_sq * scale), scale = -1 / r0^2, and returned."""
    np.multiply(r_sq, scale, out=r_sq)
    np.exp(r_sq, out=r_sq)
    if d0 != 1.0:
        r_sq *= d0
    return r_sq


def _penalties(rows, points: np.ndarray, d0: float, scale: float,
               out: np.ndarray) -> np.ndarray:
    """The penalty around each of the (b, g) points on every row of the
    prepared rows, into the (b, n) out, built in row blocks; each entry
    is bit for bit what the per-pick route takes off."""
    step = max(1, _BLOCK_VALUES // max(1, rows.matrix.size))
    for start in range(0, len(points), step):
        rows.block_to(points[start:start + step], out[start:start + step])
    return _to_penalties(out, d0, scale)


def _matrix_picks(rows, work: np.ndarray, d0: float, scale: float,
                  picks: np.ndarray, working: np.ndarray) -> int:
    """Takes the picks of select_diverse from the penalty matrix of the
    m best candidates, into picks and working, for as long as each is
    provably the best of the whole pool. Returns how many it took. When
    that is short of count, work holds the working fitness after those
    picks, picked rows at -inf, for the per-pick route to go on from."""
    n, count = len(work), len(picks)
    m = min(n, count + count // 2)
    order = np.argsort(-work, kind="stable")
    keep = np.sort(order[:m])
    best_left_out = work[order[m]] if m < n else -np.inf
    kept = rows.measure.prepare(rows.matrix[keep])
    penalties = _penalties(kept, kept.matrix, d0, scale, np.empty((m, m)))
    kept_work = work[keep]
    for k in range(count):
        j = int(kept_work.argmax())
        if not kept_work[j] > best_left_out:
            break
        picks[k] = keep[j]
        working[k] = kept_work[j]
        kept_work[j] = -np.inf
        kept_work -= penalties[j]
    else:
        return count
    work[keep] = kept_work
    if m < n:
        # Bring the left-out candidates up to pick k.
        left_out = order[m:]
        left = rows.measure.prepare(rows.matrix[left_out])
        left_work = work[left_out]
        for penalty in _penalties(left, rows.matrix[picks[:k]], d0, scale,
                                  np.empty((k, n - m))):
            left_work -= penalty
        work[left_out] = left_work
    return k


def select_top_n(fitness, count: int) -> np.ndarray:
    """Indices of the count best by raw fitness, ties toward the lowest index."""
    return _top_n(_checked_fitness(fitness, count), count)


def _top_n(fitness: np.ndarray, count: int) -> np.ndarray:
    return np.argsort(-fitness, kind="stable")[:count]
