"""Reference optimizers for the genetic algorithm, run at equal budgets
on its own layers: seed_population draws, evaluate_population calls."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from heapq import heappush, heappushpop

import numpy as np

from .engine import (
    WorkerPool,
    _check_run_settings,
    _mean_fitness,
    evaluate_population,
)
from .errors import ConfigError, FitnessEvaluationError
from .genome import GeneSpec, _check_integer, _check_real, seed_population


@dataclass(frozen=True)
class DEConfig:
    """Settings for differential evolution (rand/1 with binomial crossover).

    differential_weight is the mutation scale factor applied to the
    difference vector, crossover_probability the per-gene chance of
    taking the mutant's value. Frozen, and checked when built
    (ConfigError): integer settings as in EngineConfig, at least four
    individuals, F a number in [0, 2) and CR a number in [0, 1].
    """

    population_size: int
    n_generations: int
    differential_weight: float = 0.5
    crossover_probability: float = 0.9
    seed: int = 0
    parallel_workers: int = 0

    def __post_init__(self):
        _check_run_settings(self, 4,
                            "rand/1 mutation needs at least four individuals")
        _check_real("differential_weight", self.differential_weight)
        _check_real("crossover_probability", self.crossover_probability)
        if not 0.0 <= self.differential_weight < 2.0:
            raise ConfigError("differential_weight must lie in [0, 2)")
        if not 0.0 <= self.crossover_probability <= 1.0:
            raise ConfigError("crossover_probability must lie in [0, 1]")


@dataclass
class DEResult:
    """History of one differential evolution run."""

    genes: np.ndarray
    fitness: np.ndarray
    mean_fitness: list = field(default_factory=list)
    best_fitness: list = field(default_factory=list)
    evaluations: list = field(default_factory=list)

    @property
    def total_evaluations(self) -> int:
        return self.evaluations[-1] if self.evaluations else 0


def _reflect_into(ranges, genes: np.ndarray) -> np.ndarray:
    """Mirror out-of-range values back into the box; keep the others."""
    lows, highs = np.array(ranges).T
    period = 2.0 * (highs - lows)
    folded = np.mod(genes - lows, period)
    inside = (lows <= genes) & (genes <= highs)
    return np.where(inside, genes, lows + np.minimum(folded, period - folded))


def _pick_donors(n: int, rng: np.random.Generator) -> np.ndarray:
    """(n, 3) donors, row i three distinct random indices other than i.

    Draws an (n, n - 1) uniform matrix; the donors of row i are the
    columns of its three smallest draws in increasing order, found by
    three argmin passes (each found minimum is set to inf), and shifted
    up by one from i. On an exactly tied draw, which has a probability
    of about n^2 2^-53 per call, the lower column wins.
    """
    draws = rng.random((n, n - 1))
    rows = np.arange(n)
    donors = np.empty((n, 3), dtype=np.intp)
    for j in range(3):
        donors[:, j] = draws.argmin(axis=1)
        draws[rows, donors[:, j]] = np.inf
    return donors + (donors >= rows[:, None])


def run_de(spec: GeneSpec, fitness, config: DEConfig) -> DEResult:
    """Classic rand/1/bin differential evolution over a boxed space.

    Per target: mutant = a + F * (b - c) from three distinct random
    others; binomial crossover takes each mutant gene with probability
    CR, and one random gene always; the trial, reflected into the
    ranges, replaces the target when its fitness is >= the target's.
    Fitness is checked as in run, a failure attaching the DEResult so
    far as partial_record; a population with +inf and -inf has mean NaN.
    With parallel_workers > 0 one WorkerPool serves every generation
    and is shut down when run_de returns or raises.

    One seeded generator draws generation zero with seed_population,
    then per generation, for all n targets at once and in this order:

    1. the donors a, b, c: an (n, n - 1) uniform matrix (_pick_donors);
    2. the crossover mask: an (n, g) uniform matrix compared with CR;
    3. the forced gene of each target: n integers in [0, g).
    """
    if not spec.is_numeric:
        raise ConfigError("differential evolution needs a numeric genome")

    n = config.population_size
    rng = np.random.default_rng(config.seed)
    genes = seed_population(spec, n, rng)
    values = np.empty(n)
    result = DEResult(genes=genes, fitness=values)
    workers = (WorkerPool(config.parallel_workers, fitness)
               if config.parallel_workers > 0 else None)

    def record():
        result.mean_fitness.append(_mean_fitness(values))
        result.best_fitness.append(float(values.max()))
        result.evaluations.append(result.total_evaluations + n)

    try:
        evaluate_population(genes, fitness, values, workers)
        record()
        for _ in range(config.n_generations):
            a, b, c = _pick_donors(n, rng).T
            take = rng.random(genes.shape) < config.crossover_probability
            take[np.arange(n), rng.integers(0, genes.shape[1], size=n)] = True
            step = config.differential_weight * (genes[b] - genes[c])
            trials = _reflect_into(spec.numeric_ranges,
                                   np.where(take, genes[a] + step, genes))
            trial_values = np.empty(n)
            evaluate_population(trials, fitness, trial_values, workers)
            improved = trial_values >= values
            genes[improved] = trials[improved]
            values[improved] = trial_values[improved]
            record()
    except FitnessEvaluationError as exc:
        exc.partial_record = result
        raise
    finally:
        if workers is not None:
            workers.close()
    return result


@dataclass
class RandomScanTrace:
    """Running best-k record of a uniform random scan.

    kept_mean[e] is the mean fitness of the kept set after evaluation
    e + 1; the kept set holds min(e + 1, keep_best) points. The mean
    is +-inf while the kept set holds one infinity, NaN while it holds
    both. It comes from a running sum, added up again from the kept
    values whenever a value leaves that is more than 2^26 times the
    sum left, so its digits do not cancel. A draw strictly below the
    kept minimum of a full set is skipped, so the mean does not move
    (a tie enters, the later draw winning). kept_genes is the
    (keep_best, g) matrix of the kept set as the fitness saw it (labels
    for a categorical genome) and kept_fitness its fitness, best first.
    """

    evaluations: np.ndarray
    kept_mean: np.ndarray
    kept_genes: np.ndarray
    kept_fitness: np.ndarray

    @property
    def final_mean(self) -> float:
        return float(self.kept_mean[-1])


def random_scan(spec: GeneSpec, fitness, total_evaluations: int,
                keep_best: int, rng: np.random.Generator) -> RandomScanTrace:
    """Sample uniformly, keep the best points seen so far.

    Draws total_evaluations points in one seed_population batch (the
    same numbers as one at a time), evaluates them in order as the
    fitness sees them (spec.decode: label arrays for a categorical
    genome), checked as in run, and records after every draw the mean
    fitness of the running set of the keep_best highest-fitness points.
    rng must be a numpy.random.Generator (seed_population checks it).
    """
    _check_integer("total_evaluations", total_evaluations)
    _check_integer("keep_best", keep_best)
    if not 1 <= keep_best <= total_evaluations:
        raise ConfigError("need 1 <= keep_best <= total_evaluations")

    points = spec.decode(seed_population(spec, total_evaluations, rng))
    values = np.empty(total_evaluations)
    evaluate_population(points, fitness, values)
    heap, running_sum, trace = [], 0.0, []
    for e, value in enumerate(values.tolist()):
        if len(heap) < keep_best:
            heappush(heap, (value, e))
            running_sum += value
        elif value < heap[0][0]:
            trace.append(trace[-1])
            continue
        else:
            popped = heappushpop(heap, (value, e))[0]
            running_sum += value - popped
            if abs(popped) > 2.0 ** 26 * abs(running_sum):
                # The popped value dwarfed the sum, whose digits cancelled.
                running_sum = sum(v for v, _ in heap)
        if math.isfinite(running_sum):
            trace.append(running_sum / len(heap))
        else:  # an infinity joined or left the kept set, or the sum overflowed
            running_sum = sum(v for v, _ in heap)
            trace.append(sum(v / len(heap) for v, _ in heap))
    kept = [e for _, e in sorted(heap, key=lambda item: -item[0])]
    return RandomScanTrace(np.arange(1, total_evaluations + 1),
                           np.array(trace), points[kept], values[kept])
