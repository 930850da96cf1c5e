"""Generational engine: evaluate, vary, select, repeat.

Inside run the population is a gene matrix plus a fitness vector; see
divga.genome for where category codes become labels. The run history
keeps the same two columns: each generation's survivors are one record
array with fields genes and fitness (see RunRecord).

One seeded generator drives every stochastic decision in a fixed
order: the random rows of generation zero in one (n, g) batch, then per
generation the draws of produce_offspring, whose order is documented in
divga.variation (pairing, then crossover, then mutation, each one batch
for the whole generation). Fitness evaluation and selection consume no
randomness, so results are identical whether fitness is computed
sequentially or on worker processes.

With parallel_workers > 0, run starts one WorkerPool after validating
its settings and checking that the fitness pickles, evaluates every
generation on it, and shuts it down when it returns or raises.

A run writes three files into its output directory when one is given:

    <YYYYMMDD-HHMMSS>_survivors.csv   generation,index,fitness,g1..gN
    <YYYYMMDD-HHMMSS>_fitness.csv     generation,evaluations,mean_fitness,best_fitness
    log.txt                           the run log, whatever the verbosity (appended)

Both CSVs are UTF-8 with LF line endings, reals carry 17 significant
digits, a label holding a comma, a double quote or a line break is
quoted as the csv module quotes it, and rows are appended and flushed
as each generation completes, so a crashed run leaves generations
finished so far on disk.
"""

from __future__ import annotations

import itertools
import math
import pickle
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .distance import CustomMeasure, HammingSq, default_r0, get_measure
from .errors import ConfigError, FitnessEvaluationError
from .genome import GeneSpec, seed_population, validate_spec
from .selection import select_diverse, select_top_n
from .variation import (
    PAIRING_STRATEGIES,
    RANDOM_PAIRS,
    MutationConfig,
    produce_offspring,
    resolve_crossover,
    resolve_mutation,
)

GENERATIONS_EXHAUSTED = "generations_exhausted"
THRESHOLD_REACHED = "threshold_reached"
ABORTED = "aborted"


@dataclass(frozen=True)
class DiversityEnhanced:
    """Diversity-enhanced survivor selection (see divga.selection).

    d0 >= 0 is the penalty for exactly overlapping candidates. r0 > 0 is
    the decay radius of exp(-r^2 / r0^2), a distance (the square root of
    the measure's units). r0 None means one tenth of the root mean
    squared distance between the individuals of the initial population
    (1.0 for categorical genomes, and at d0 = 0, where r0 has no effect
    and selection is top-N by raw fitness). measure is a name, a
    DistanceMeasure, a callable (a, b) -> squared distance on the genes
    the fitness sees, or None for the kind default, Euclidean or Hamming.
    """

    d0: float = 1.0
    r0: float | None = None
    measure: object = None

    def __post_init__(self):
        if not 0.0 <= self.d0 < math.inf:
            raise ConfigError("d0 must be finite and non-negative")
        if self.r0 is not None and not self.r0 > 0:
            raise ConfigError("r0 must be positive")

    def resolve(self, spec: GeneSpec, genes: np.ndarray) -> "DiversityEnhanced":
        """Copy with measure and r0 filled in from the initial gene matrix.

        Warns when a callable measure is asymmetric on a sampled pair,
        and when r0 must come from an initial population with no spread
        (r0 falls back to 1).
        """
        measure = get_measure(self.measure, spec)
        if isinstance(measure, CustomMeasure):
            _warn_if_asymmetric(measure, spec.decode(genes[:3]))
        r0 = self.r0
        if r0 is None and spec.is_numeric and self.d0 > 0:
            r0 = default_r0(genes, measure)
            if r0 <= 0.0:
                warnings.warn(
                    "initial population has no spread; falling back to r0=1")
                r0 = 1.0
        return replace(self, r0=1.0 if r0 is None else r0, measure=measure)


def _warn_if_asymmetric(measure, rows):
    for i, j in itertools.combinations(range(len(rows)), 2):
        forward, backward = measure(rows[i], rows[j]), measure(rows[j], rows[i])
        if not math.isclose(forward, backward, rel_tol=1e-9, abs_tol=1e-12):
            warnings.warn(
                f"distance measure is asymmetric on a sampled pair: "
                f"{forward} vs {backward}")
            return


@dataclass
class EngineConfig:
    """Everything a run needs besides the genome spec and the fitness.

    Attributes:
        population_size: survivors kept each generation, at least 2.
        n_generations: generations to run after the initial one.
        crossover: "midpoint", "eitheror", "between" or "none"; None
            resolves to "between" for numeric genomes and "eitheror"
            for categorical ones.
        pairing: "all" for every parent pair, "random" for n random
            pairs per generation.
        mutation: MutationConfig, or None for per-kind defaults with
            rate 1/number_of_genes.
        selection: DiversityEnhanced, the one selection type;
            DiversityEnhanced(d0=0) is plain truncation on raw fitness
            (top-N).
        fitness_threshold: stop once the best survivor reaches this.
        seed: seed for the single run-wide random generator.
        parallel_workers: 0 evaluates fitness sequentially, otherwise
            the number of worker processes, started once per run
            (fitness must be picklable).
        output_directory: where to write the run files, None disables.
        verbosity: console output: 0 silent, 1 per-generation line,
            2 adds the survivor listing in selection order. log.txt
            gets every line at any verbosity (the listing only at 2).
    """

    population_size: int
    n_generations: int
    crossover: str | None = None
    pairing: str = RANDOM_PAIRS
    mutation: MutationConfig | None = None
    selection: object = field(default_factory=DiversityEnhanced)
    fitness_threshold: float | None = None
    seed: int = 0
    parallel_workers: int = 0
    output_directory: str | Path | None = None
    verbosity: int = 1


@dataclass
class RunRecord:
    """Full history of one run.

    populations[g] holds the survivors of generation g, in selection
    order, as a numpy record array: pop.genes is the (n, g) gene matrix
    as the fitness sees it (labels for categorical genomes), pop.fitness
    the (n,) fitness vector, and each row pop[i] has .genes and .fitness.
    Index 0 is the evaluated initial population. The evaluations list
    is cumulative. mean_fitness and best_fitness are computed from
    populations. A finished run with no early stop has n_generations + 1
    snapshots.
    """

    spec: GeneSpec
    populations: list = field(default_factory=list)
    evaluations: list = field(default_factory=list)
    termination: str = ABORTED
    output_files: dict = field(default_factory=dict)

    @property
    def mean_fitness(self) -> list:
        """Per generation; NaN where both infinities occur."""
        return [_mean_fitness(pop.fitness) for pop in self.populations]

    @property
    def best_fitness(self) -> list:
        return [float(pop.fitness.max()) for pop in self.populations]

    @property
    def total_evaluations(self) -> int:
        return self.evaluations[-1] if self.evaluations else 0

    @property
    def final_population(self) -> np.recarray:
        return self.populations[-1]


class _BoundFitness:
    """Binds fixed trailing arguments to a fitness function, picklable."""

    def __init__(self, fn, args):
        self.fn = fn
        self.args = tuple(args)

    def __call__(self, genes):
        return self.fn(genes, *self.args)


def _checked(value, index):
    try:
        result = float(value)
    except (TypeError, ValueError):
        raise FitnessEvaluationError(
            f"fitness returned non-numeric value {value!r}", index=index)
    if math.isnan(result):
        raise FitnessEvaluationError(
            f"fitness returned NaN for individual {index}", index=index)
    return result


def _mean_fitness(values: np.ndarray) -> float:
    """Mean fitness; NaN, without a warning, when both infinities occur."""
    with np.errstate(invalid="ignore"):
        return float(values.mean())


def _evaluate_rows(fitness, start: int, rows):
    """Raw fitness of each row, stopping at the first row that raises.

    Returns (values, failure); failure is None, or the batch index
    start + offset of the row that raised together with its exception.
    Module level, so that worker processes can run it on a chunk.
    """
    values = []
    for offset, row in enumerate(rows):
        try:
            values.append(fitness(row))
        except Exception as exc:
            return values, (start + offset, exc)
    return values, None


class WorkerPool:
    """The fitness worker processes of one run or run_de call.

    Building it checks that fitness pickles (ConfigError otherwise)
    before any process starts; the processes start with the first
    evaluation and serve every later one. close(), or leaving a with
    block, cancels the chunks not yet started and waits for the running
    ones.
    """

    def __init__(self, workers: int, fitness):
        try:
            pickle.dumps(fitness)
        except (pickle.PicklingError, AttributeError, TypeError) as exc:
            raise ConfigError(f"fitness is not picklable: {exc!r}") from exc
        self.workers = workers
        self.executor = ProcessPoolExecutor(max_workers=workers)

    def close(self):
        self.executor.shutdown(cancel_futures=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


def evaluate_population(genes, fitness, values: np.ndarray,
                        pool: WorkerPool | None = None) -> int:
    """Evaluate fitness on every row of genes into values, in index order.

    Returns the number of evaluations, len(genes). With a WorkerPool the
    rows go to its workers in chunks of max(1, n // (4 * workers)), and
    a chunk that fails as a whole (a worker died) is reported at the
    first uncommitted index. Results are committed in index order either
    way, so the outcome, and the index a FitnessEvaluationError reports,
    do not depend on the worker count.
    """
    n = len(genes)
    committed = 0

    def commit(raw, failure):
        nonlocal committed
        for value in raw:
            values[committed] = _checked(value, committed)
            committed += 1
        if failure is not None:
            index, exc = failure
            raise FitnessEvaluationError(
                f"fitness raised {exc!r} for individual {index}",
                index=index) from exc

    if pool is None:
        commit(*_evaluate_rows(fitness, 0, genes))
        return n
    size = max(1, n // (4 * pool.workers))
    chunks = [pool.executor.submit(_evaluate_rows, fitness, start,
                                   genes[start:start + size])
              for start in range(0, n, size)]
    for chunk in chunks:
        try:
            raw, failure = chunk.result()
        except Exception as exc:
            raise FitnessEvaluationError(
                f"fitness evaluation failed: {exc!r}",
                index=committed) from exc
        commit(raw, failure)
    return n


def _format_real(x) -> str:
    return format(float(x), ".17g")


def _csv_text(label) -> str:
    """str(label), quoted as csv's minimal quoting does when it holds a
    comma, a double quote or a line break."""
    text = str(label)
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


class _RunLog:
    """Writes every line to log.txt and prints those within verbosity."""

    def __init__(self, directory: Path | None, verbosity: int):
        self.verbosity = verbosity
        self.file = None
        if directory is not None:
            self.file = open(directory / "log.txt", "a",
                             encoding="utf-8", newline="\n")

    def line(self, level: int, text: str):
        if self.verbosity >= level:
            print(text)
        if self.file is not None:
            self.file.write(text + "\n")
            self.file.flush()

    def close(self):
        if self.file is not None:
            self.file.close()
            self.file = None


class RunWriter:
    """Incrementally writes the survivors and fitness CSVs of a run."""

    def __init__(self, directory: str | Path, spec: GeneSpec):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        stamp = time.strftime("%Y%m%d-%H%M%S")
        candidate, k = stamp, 2
        while (self.directory / f"{candidate}_survivors.csv").exists():
            candidate = f"{stamp}-{k}"
            k += 1
        self.survivors_path = self.directory / f"{candidate}_survivors.csv"
        self.fitness_path = self.directory / f"{candidate}_fitness.csv"
        self._survivors = open(self.survivors_path, "w",
                               encoding="utf-8", newline="\n")
        self._fitness = open(self.fitness_path, "w",
                             encoding="utf-8", newline="\n")
        gene_names = ",".join(f"g{k + 1}" for k in range(spec.number_of_genes))
        self._survivors.write(f"generation,index,fitness,{gene_names}\n")
        self._fitness.write("generation,evaluations,mean_fitness,best_fitness\n")
        self._cell = (_format_real if spec.is_numeric else
                      {c: _csv_text(c) for c in spec.categories}.__getitem__)

    def append(self, generation: int, population, evaluations: int):
        """Write one RunRecord snapshot and its fitness row."""
        fitness = population.fitness
        self._survivors.write("".join(
            f"{generation},{index},{_format_real(value)},"
            f"{','.join(map(self._cell, genes))}\n"
            for index, (value, genes) in enumerate(
                zip(fitness.tolist(), population.genes.tolist()))))
        self._fitness.write(
            f"{generation},{evaluations},"
            f"{_format_real(_mean_fitness(fitness))},"
            f"{_format_real(fitness.max())}\n")
        self._survivors.flush()
        self._fitness.flush()

    def close(self):
        self._survivors.close()
        self._fitness.close()


def persist(record: RunRecord, directory: str | Path) -> dict:
    """Write a finished record's files into directory, return the paths."""
    writer = RunWriter(directory, record.spec)
    for g, population in enumerate(record.populations):
        writer.append(g, population, record.evaluations[g])
    writer.close()
    log_path = Path(directory) / "log.txt"
    with open(log_path, "a", encoding="utf-8", newline="\n") as fh:
        fh.write(f"persisted record: {len(record.populations)} snapshots, "
                 f"{record.total_evaluations} evaluations, "
                 f"termination {record.termination}\n")
    return {"survivors": writer.survivors_path,
            "fitness": writer.fitness_path,
            "log": log_path}


def _check_ints(config, *names):
    """ConfigError unless each named setting is a Python or numpy
    integer; bool is not one."""
    for name in names:
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ConfigError(f"{name} must be an integer, not {value!r}")


def _validate_config(config: EngineConfig, spec: GeneSpec):
    _check_ints(config, "population_size", "n_generations", "parallel_workers")
    if config.population_size < 2:
        raise ConfigError("population_size must be at least 2")
    if config.n_generations < 1:
        raise ConfigError("n_generations must be positive")
    if config.pairing not in PAIRING_STRATEGIES:
        raise ConfigError(f"unknown pairing strategy {config.pairing!r}")
    if config.parallel_workers < 0:
        raise ConfigError("parallel_workers cannot be negative")
    if config.verbosity not in (0, 1, 2):
        raise ConfigError("verbosity must be 0, 1 or 2")
    if not isinstance(config.selection, DiversityEnhanced):
        raise ConfigError(f"selection must be a DiversityEnhanced, not "
                          f"{config.selection!r}")


def run(spec: GeneSpec, fitness, config: EngineConfig, *,
        init_genes=None, fitness_args=()) -> RunRecord:
    """Run the genetic algorithm and return its full history.

    fitness maps one gene vector (a label array for categorical genomes)
    to a real number; extra fixed arguments can be bound through
    fitness_args. init_genes seeds part of the initial population. The
    selection is resolved against the initial genes before any fitness
    call or output file, so a bad configuration costs neither. A
    fitness of NaN, a non-number or a raised exception aborts the run
    and raises FitnessEvaluationError with the partial record attached.
    Infinite fitness is accepted: in selection -inf ranks last and +inf
    ranks first; survivors holding both record a NaN mean fitness. With
    parallel_workers > 0 one WorkerPool serves the whole run and is shut
    down when it returns or raises. An unpicklable fitness with
    parallel_workers > 0 raises ConfigError before any process starts,
    an unwritable output directory OSError, and a generation whose best
    survivor is worse than the previous best (a broken elitism
    guarantee) RuntimeError. Any exception that ends the run is logged
    as "run aborted" before it propagates.
    """
    validate_spec(spec)
    _validate_config(config, spec)
    crossover = resolve_crossover(config.crossover, spec)
    mutation = resolve_mutation(config.mutation, spec)
    bound = _BoundFitness(fitness, fitness_args) if fitness_args else fitness
    n = config.population_size

    rng = np.random.default_rng(config.seed)
    genes = seed_population(spec, n, rng, init_genes)
    diversity = config.selection.resolve(spec, genes)
    values = np.empty(n)

    out_dir = Path(config.output_directory) if config.output_directory else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    log = _RunLog(out_dir, config.verbosity)
    writer = workers = None
    record = RunRecord(spec=spec, termination=ABORTED)

    def snapshot(generation, genes, values, cumulative):
        decoded = spec.decode(genes)
        survivors = np.rec.fromarrays([decoded, values], dtype=[
            ("genes", decoded.dtype, decoded.shape[1:]), ("fitness", float)])
        record.populations.append(survivors)
        record.evaluations.append(cumulative)
        if writer is not None:
            writer.append(generation, survivors, cumulative)
        best = float(values.max())
        log.line(1, f"generation {generation}: best={best:.6g} "
                    f"mean={_mean_fitness(values):.6g} evaluations={cumulative}")
        return best

    try:
        if config.parallel_workers > 0:
            workers = WorkerPool(config.parallel_workers, bound)
        if out_dir is not None:
            writer = RunWriter(out_dir, spec)
            record.output_files = {"survivors": writer.survivors_path,
                                   "fitness": writer.fitness_path,
                                   "log": out_dir / "log.txt"}
        log.line(1, f"run started: population={n} "
                    f"generations={config.n_generations} crossover={crossover} "
                    f"pairing={config.pairing} seed={config.seed}")
        log.line(1, f"selection: diversity-enhanced, d0={diversity.d0:g}, "
                    f"r0={diversity.r0:g}, measure={diversity.measure.name}")
        cumulative = evaluate_population(spec.decode(genes), bound, values,
                                         workers)
        best = snapshot(0, genes, values, cumulative)
        working = np.empty(n)
        record.termination = GENERATIONS_EXHAUSTED
        for generation in range(1, config.n_generations + 1):
            children = produce_offspring(genes, spec, crossover,
                                         config.pairing, mutation, rng)
            pool_genes = np.concatenate([genes, children])
            pool_values = np.concatenate([values, np.empty(len(children))])
            cumulative += evaluate_population(spec.decode(children), bound,
                                              pool_values[n:], workers)
            if diversity.d0 == 0.0:
                # No penalties: the same picks as select_diverse, by argsort.
                picks = select_top_n(pool_values, n)
                working[:] = pool_values[picks]
            else:
                # Hamming compares codes; any other measure sees the genes
                # the fitness sees.
                seen = (pool_genes if isinstance(diversity.measure, HammingSq)
                        else spec.decode(pool_genes))
                picks = select_diverse(seen, pool_values, n, diversity,
                                       working)
            genes, values = pool_genes[picks], pool_values[picks]
            previous_best = best
            best = snapshot(generation, genes, values, cumulative)
            if config.verbosity >= 2:
                for rank, ind in enumerate(record.populations[-1]):
                    log.line(2, f"  survivor {rank}: fitness={ind.fitness:.6g}"
                                f" working={working[rank]:.6g}"
                                f" genes={list(ind.genes)}")
            if best < previous_best:
                raise RuntimeError(
                    f"elitist selection lost the best individual: best "
                    f"fitness fell from {previous_best} to {best} in "
                    f"generation {generation}")
            if (config.fitness_threshold is not None
                    and best >= config.fitness_threshold):
                record.termination = THRESHOLD_REACHED
                break
        log.line(1, f"run finished: {record.termination} after "
                    f"{len(record.populations) - 1} generations, "
                    f"{cumulative} evaluations")
    except BaseException as exc:
        record.termination = ABORTED
        if isinstance(exc, FitnessEvaluationError):
            exc.partial_record = record
        log.line(1, f"run aborted: {type(exc).__name__}: {exc}")
        raise
    finally:
        if workers is not None:
            workers.close()
        if writer is not None:
            writer.close()
        log.close()
    return record
