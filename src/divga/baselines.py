"""Reference optimizers to compare the genetic algorithm against.

Both baselines share the engine's evaluation-count bookkeeping so that
comparisons can be made at equal fitness-call budgets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappush, heappushpop

import numpy as np

from .engine import _BoundFitness, evaluate_population
from .errors import ConfigError, PopulationTooSmallError
from .genome import GeneSpec, validate_spec


@dataclass
class DEConfig:
    """Settings for differential evolution (rand/1 with binomial crossover).

    differential_weight is the mutation scale factor applied to the
    difference vector, crossover_probability the per-gene chance of
    taking the mutant's value.
    """

    population_size: int
    n_generations: int
    differential_weight: float = 0.5
    crossover_probability: float = 0.9
    seed: int = 0
    parallel_workers: int = 0


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
    """Fold out-of-range values back into the box by mirror reflection."""
    lows = np.array([lo for lo, _ in ranges])
    highs = np.array([hi for _, hi in ranges])
    period = 2.0 * (highs - lows)
    folded = np.mod(genes - lows, period)
    folded = np.minimum(folded, period - folded)
    return lows + folded


def run_de(spec: GeneSpec, fitness, config: DEConfig, *,
           fitness_args=()) -> DEResult:
    """Classic rand/1/bin differential evolution over a boxed space.

    Per target: mutant = a + F * (b - c) with a, b, c distinct random
    population members other than the target; binomial crossover takes
    the mutant gene with probability CR, with one uniformly chosen gene
    forced from the mutant; out-of-range trial genes are reflected back
    into the initial ranges; the trial replaces the target when its
    fitness is greater than or equal to the target's.
    """
    validate_spec(spec)
    if not spec.is_numeric:
        raise ConfigError("differential evolution needs a numeric genome")
    if config.population_size < 4:
        raise PopulationTooSmallError(
            "rand/1 mutation needs at least four individuals")
    if not 0.0 <= config.differential_weight < 2.0:
        raise ConfigError("differential_weight must lie in [0, 2)")
    if not 0.0 <= config.crossover_probability <= 1.0:
        raise ConfigError("crossover_probability must lie in [0, 1]")

    n = config.population_size
    dim = spec.number_of_genes
    f_weight = config.differential_weight
    cr = config.crossover_probability
    rng = np.random.default_rng(config.seed)

    lows = np.array([lo for lo, _ in spec.numeric_ranges])
    highs = np.array([hi for _, hi in spec.numeric_ranges])
    genes = rng.uniform(lows, highs, size=(n, dim))

    if fitness_args:
        fitness = _BoundFitness(fitness, fitness_args)

    def evaluate(rows: np.ndarray) -> np.ndarray:
        values = np.empty(len(rows))
        evaluate_population(rows, fitness, values, config.parallel_workers)
        return values

    values = evaluate(genes)
    result = DEResult(genes=genes, fitness=values)
    evaluations = n
    result.mean_fitness.append(float(values.mean()))
    result.best_fitness.append(float(values.max()))
    result.evaluations.append(evaluations)

    for _ in range(config.n_generations):
        trials = np.empty_like(genes)
        for target in range(n):
            others = [idx for idx in range(n) if idx != target]
            a, b, c = rng.choice(others, size=3, replace=False)
            mutant = genes[a] + f_weight * (genes[b] - genes[c])
            take = rng.random(dim) < cr
            take[rng.integers(0, dim)] = True
            trial = np.where(take, mutant, genes[target])
            trials[target] = _reflect_into(spec.numeric_ranges, trial)
        trial_values = evaluate(trials)
        evaluations += n
        improved = trial_values >= values
        genes[improved] = trials[improved]
        values[improved] = trial_values[improved]
        result.mean_fitness.append(float(values.mean()))
        result.best_fitness.append(float(values.max()))
        result.evaluations.append(evaluations)

    result.genes = genes
    result.fitness = values
    return result


@dataclass
class RandomScanTrace:
    """Running best-k record of a uniform random scan.

    kept_mean[e] is the mean fitness of the kept set after evaluation
    e + 1; the kept set holds min(e + 1, keep_best) points.
    """

    evaluations: np.ndarray
    kept_mean: np.ndarray
    kept_genes: list
    kept_fitness: np.ndarray

    @property
    def final_mean(self) -> float:
        return float(self.kept_mean[-1])


def random_scan(spec: GeneSpec, fitness, total_evaluations: int,
                keep_best: int, rng: np.random.Generator, *,
                fitness_args=()) -> RandomScanTrace:
    """Sample uniformly, keep the best points seen so far.

    Draws total_evaluations points one at a time, maintains the running
    set of the keep_best highest-fitness points, and records the kept
    set's mean fitness after every draw.
    """
    validate_spec(spec)
    if not spec.is_numeric:
        raise ConfigError("random scan needs a numeric genome")
    if not 1 <= keep_best <= total_evaluations:
        raise ConfigError("need 1 <= keep_best <= total_evaluations")
    if fitness_args:
        fitness = _BoundFitness(fitness, fitness_args)

    lows = np.array([lo for lo, _ in spec.numeric_ranges])
    highs = np.array([hi for _, hi in spec.numeric_ranges])
    heap: list = []
    running_sum = 0.0
    trace = np.empty(total_evaluations)
    for e in range(total_evaluations):
        point = rng.uniform(lows, highs)
        value = float(fitness(point))
        entry = (value, e, point)
        if len(heap) < keep_best:
            heappush(heap, entry)
            running_sum += value
        else:
            dropped = heappushpop(heap, entry)
            running_sum += value - dropped[0]
        trace[e] = running_sum / len(heap)
    ordered = sorted(heap, key=lambda item: -item[0])
    return RandomScanTrace(
        evaluations=np.arange(1, total_evaluations + 1),
        kept_mean=trace,
        kept_genes=[item[2] for item in ordered],
        kept_fitness=np.array([item[0] for item in ordered]),
    )
