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

The fitness sees one decoded gene vector per call, or a decoded batch
when it is marked with vectorized; evaluate_population states how
either is called and checked.

With parallel_workers > 0, run starts one WorkerPool after resolving
its genome-dependent settings and checking that the fitness pickles
(EngineConfig checked the rest when it was built), evaluates every
generation on it, and shuts it down when it returns or raises.

When an output directory is given, a RunWriter makes it once the
WorkerPool is built, and owns the three files of the run there:

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
import os
import pickle
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .distance import _through_to_point, default_r0, get_measure
from .errors import ConfigError, FitnessEvaluationError
from .genome import GeneSpec, _check_integer, _check_real, seed_population
# select_top_n is not called here; perfbench's tracer patches it by name.
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
    the measure's units), with 1 / r0^2 finite and nonzero (about
    1e-154 < r0 < 1e154). r0 None means one tenth of the root mean
    squared distance between the individuals of the initial population
    (1.0 for categorical genomes, at d0 = 0, where r0 has no effect and
    selection is top-N by raw fitness, and when that distance gives no
    usable r0). measure is a name, a DistanceMeasure, a callable
    (a, b) -> squared distance on the genes the fitness sees, or None
    for the kind default, Euclidean or Hamming.
    A d0 or r0 that is not a number (bool is not one) or out of range,
    and a measure that get_measure rejects (an unknown name, a class),
    is a ConfigError when built; resolve checks the measure against
    the genome.
    """

    d0: float = 1.0
    r0: float | None = None
    measure: object = None

    def __post_init__(self):
        _check_real("d0", self.d0)
        if not 0.0 <= self.d0 < math.inf:
            raise ConfigError("d0 must be finite and non-negative")
        if self.r0 is not None:
            _check_real("r0", self.r0)
            if not _usable_r0(self.r0):
                raise ConfigError(f"r0 must be positive with 1 / r0^2 finite "
                                  f"and nonzero, not {self.r0!r}")
        if self.measure is not None:
            get_measure(self.measure)

    def resolve(self, spec: GeneSpec, genes: np.ndarray) -> "DiversityEnhanced":
        """Copy with measure and r0 filled in from the initial gene matrix.

        Warns when a measure measured through its own to_point is
        asymmetric on a pair of the first three rows, and when r0 must
        come from an initial population with too little spread for a
        usable r0 (r0 falls back to 1). Raises ConfigError for a
        Euclidean or dynamic kernel on labels (see divga.distance).
        """
        measure = get_measure(self.measure, labels=not spec.is_numeric)
        if _through_to_point(measure):
            _warn_if_asymmetric(measure, spec.decode(genes[:3]))
        r0 = self.r0
        if r0 is None and spec.is_numeric and self.d0 > 0:
            r0 = default_r0(genes, measure)
            if not _usable_r0(r0):
                warnings.warn(
                    "initial population has no spread; falling back to r0=1")
                r0 = 1.0
        return replace(self, r0=1.0 if r0 is None else r0, measure=measure)


def _usable_r0(r0) -> bool:
    """Whether r0 > 0 and selection's scale -1 / r0^2 is finite and
    nonzero. A smaller r0 makes NaN penalties, a larger one the same
    penalty everywhere."""
    try:
        return r0 > 0 and 0.0 < 1.0 / float(r0) ** 2 < math.inf
    except (OverflowError, ZeroDivisionError):
        return False


def _warn_if_asymmetric(measure, rows):
    """Measures each pair both ways with the scalar form measure(a, b)."""
    for a, b in itertools.combinations(rows, 2):
        forward, backward = measure(a, b), measure(b, a)
        if not math.isclose(forward, backward, rel_tol=1e-9, abs_tol=1e-12):
            warnings.warn(
                f"distance measure is asymmetric on a sampled pair: "
                f"{forward} vs {backward}")
            return


@dataclass(frozen=True)
class EngineConfig:
    """Everything a run needs besides the genome spec and the fitness.

    Frozen, and checked when built (ConfigError): the integer settings
    (seed and verbosity included) and their ranges, fitness_threshold
    None or a number other than NaN, pairing, output_directory None, a
    str or an os.PathLike, and the mutation and selection types. run
    checks only the choices that depend on the genome.

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
        fitness_threshold: stop once the best survivor reaches this
            (+-inf allowed).
        seed: seed for the single run-wide random generator, a
            non-negative integer.
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

    def __post_init__(self):
        _check_run_settings(self, 2, "population_size must be at least 2")
        if self.fitness_threshold is not None:
            _check_real("fitness_threshold", self.fitness_threshold)
            if self.fitness_threshold != self.fitness_threshold:  # NaN
                raise ConfigError("fitness_threshold cannot be NaN")
        if self.pairing not in PAIRING_STRATEGIES:
            raise ConfigError(f"unknown pairing strategy {self.pairing!r}")
        _check_integer("verbosity", self.verbosity)
        if self.verbosity not in (0, 1, 2):
            raise ConfigError("verbosity must be 0, 1 or 2")
        _check_output_directory(self.output_directory)
        if not isinstance(self.selection, DiversityEnhanced):
            raise ConfigError(f"selection must be a DiversityEnhanced, not "
                              f"{self.selection!r}")
        if not isinstance(self.mutation, (MutationConfig, type(None))):
            raise ConfigError(f"mutation must be a MutationConfig, not "
                              f"{self.mutation!r}")


def _check_output_directory(directory) -> None:
    """ConfigError unless directory is a str, an os.PathLike or None."""
    if not isinstance(directory, (str, os.PathLike, type(None))):
        raise ConfigError(f"output_directory must be a path or None, "
                          f"not {directory!r}")


def _check_run_settings(config, smallest: int, too_small: str):
    """ConfigError unless population_size, n_generations, seed and
    parallel_workers are integers (see genome._check_integer),
    population_size >= smallest (too_small is the message otherwise),
    n_generations >= 1 and seed and parallel_workers >= 0."""
    for name in ("population_size", "n_generations", "seed",
                 "parallel_workers"):
        _check_integer(name, getattr(config, name))
    if config.population_size < smallest:
        raise ConfigError(too_small)
    if config.n_generations < 1:
        raise ConfigError("n_generations must be positive")
    for name in ("seed", "parallel_workers"):
        if getattr(config, name) < 0:
            raise ConfigError(f"{name} cannot be negative")


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


def vectorized(fitness):
    """Mark fitness as a batch fitness, and return it; evaluate_population
    states how a marked fitness is called and checked.

    The marker is the attribute fitness.vectorized = True, so it pickles
    with the function into worker processes. A wrapper that does not
    carry the attribute over is evaluated row by row.
    """
    fitness.vectorized = True
    return fitness


class _BoundFitness:
    """Binds fixed trailing arguments to a fitness function, picklable;
    carries the function's vectorized marker."""

    def __init__(self, fn, args):
        self.fn = fn
        self.args = tuple(args)
        self.vectorized = getattr(fn, "vectorized", False)

    def __call__(self, genes):
        return self.fn(genes, *self.args)


def _mean_fitness(values: np.ndarray) -> float:
    """Mean fitness; NaN, without a warning, when both infinities occur."""
    with np.errstate(invalid="ignore"):
        return float(values.mean())


def _evaluate_rows(fitness, start: int, rows):
    """(values, failure) of the rows of a chunk, called and checked as
    evaluate_population says. failure is None, or (message, index,
    exception or None) of the first bad row, index start + offset, and
    values holds the rows before it. Module level, so that worker
    processes can run it on a chunk.
    """
    marked = getattr(fitness, "vectorized", False)
    if marked:
        try:
            result = np.asarray(fitness(rows))
        except Exception:  # also a ragged result; the rows one by one tell
            pass
        else:
            if result.shape != (len(rows),):
                return np.empty(0), (
                    f"vectorized fitness returned shape {result.shape} for "
                    f"{len(rows)} rows, not ({len(rows)},), at individual "
                    f"{start}", start, None)
            if result.dtype.kind in "biuf":
                values = result.astype(float, copy=False)
                nan = np.isnan(values)
                if not nan.any():
                    return values, None
                offset = int(nan.argmax())
                return values[:offset], (
                    f"fitness returned NaN for individual {start + offset}",
                    start + offset, None)
    values = np.empty(len(rows))
    for offset, row in enumerate(rows):
        index = start + offset
        try:
            result = fitness(rows[offset:offset + 1] if marked else row)
        except Exception as exc:
            return values[:offset], (
                f"fitness raised {exc!r} for individual {index}", index, exc)
        if marked:
            cells = np.asarray(result, dtype=object)
            if cells.shape != (1,):
                return values[:offset], (
                    f"vectorized fitness returned shape {cells.shape} for 1 "
                    f"rows, not (1,), at individual {index}", index, None)
            result = cells[0]
        try:
            value = float(result)
        except (TypeError, ValueError, OverflowError):
            return values[:offset], (
                f"fitness returned non-numeric value {result!r} for "
                f"individual {index}", index, None)
        if math.isnan(value):
            return values[:offset], (
                f"fitness returned NaN for individual {index}", index, None)
        values[offset] = value
    return values, None


class WorkerPool:
    """The fitness worker processes of one run or run_de call.

    Building it checks that workers is an integer of at least 1 and
    that fitness pickles (ConfigError otherwise) before any process
    starts; the processes start with the first evaluation and serve
    every later one. close(), or leaving a with block, cancels the
    chunks not yet started and waits for the running ones.
    """

    def __init__(self, workers: int, fitness):
        _check_integer("workers", workers)
        if workers < 1:
            raise ConfigError(f"workers must be at least 1, not {workers}")
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

    Returns the number of evaluations, len(genes). Each value is checked
    as it is computed: the first row whose fitness raises, returns a
    non-number (an int too large for a float counts as one) or returns
    NaN stops its chunk and raises FitnessEvaluationError with that
    row's index, once the rows before it are committed. Sequentially the
    whole batch is one chunk, so a per-row fitness is called on no row
    after the bad one.
    With a WorkerPool the rows go out as one contiguous chunk per
    worker, ceil(n / workers) rows each, so a generation costs one
    round trip per worker. The rows are children of random parent
    pairs, so their cost does not follow their index, and with n well
    above the worker count the chunks take about equally long. A chunk
    that fails as a whole (a worker died) is reported at the first
    uncommitted index. Chunks are committed in index order either way,
    so the outcome, and the index a FitnessEvaluationError reports, do
    not depend on the worker count.

    A fitness marked with vectorized is called once per chunk on the
    chunk's (k, g) gene matrix and returns (k,) real values (bool,
    integer or floating point), checked as one vector: a NaN at row f of
    the chunk commits the rows before it and is reported at f. A result
    of another shape is a FitnessEvaluationError at the chunk's first
    index. When the call raises or returns values that are not real
    numbers (an object or string array, say), the chunk is evaluated
    again row by row, each row as a one-row matrix, so the error reports
    the failing row and the message the per-row path gives; if every row
    then succeeds, those values stand. The marker changes what an
    evaluation costs, not its outcome, as long as the batch form gives
    each row the value the row form gives. Every other fitness is
    called once per row. values that is not a float64 vector as long as
    genes is a ConfigError before any fitness call.
    """
    n = len(genes)
    if not (isinstance(values, np.ndarray) and values.dtype == np.float64
            and values.ndim == 1):
        raise ConfigError("values must be a float64 vector")
    if len(values) != n:
        raise ConfigError(f"{len(values)} values for {n} gene rows")
    if pool is None:
        chunks = [_evaluate_rows(fitness, 0, genes)]
    else:
        size = max(1, -(-n // pool.workers))
        chunks = [pool.executor.submit(_evaluate_rows, fitness, start,
                                       genes[start:start + size])
                  for start in range(0, n, size)]
    committed = 0
    for chunk in chunks:
        if pool is not None:
            try:
                chunk = chunk.result()
            except Exception as exc:
                raise FitnessEvaluationError(
                    f"fitness evaluation failed: {exc!r}",
                    index=committed) from exc
        chunk_values, failure = chunk
        values[committed:committed + len(chunk_values)] = chunk_values
        committed += len(chunk_values)
        if failure is not None:
            message, index, exc = failure
            raise FitnessEvaluationError(message, index=index) from exc
    return n


def _csv_text(label) -> str:
    """str(label), quoted as csv's minimal quoting does when it holds a
    comma, a double quote or a line break."""
    text = str(label)
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


class RunWriter:
    """The files of a run in a directory, which it makes: the survivors
    and fitness CSVs, written incrementally, keeping the row texts of
    the last snapshot for the survivors that the next one carries over,
    and log.txt, appended to. files maps their keys to their paths."""

    def __init__(self, directory: str | Path, spec: GeneSpec):
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        stamp = time.strftime("%Y%m%d-%H%M%S")
        candidate, k = stamp, 2
        while (directory / f"{candidate}_survivors.csv").exists():
            candidate = f"{stamp}-{k}"
            k += 1
        self.files = {"survivors": directory / f"{candidate}_survivors.csv",
                      "fitness": directory / f"{candidate}_fitness.csv",
                      "log": directory / "log.txt"}
        # log.txt first, so that a run which cannot open it leaves no CSV.
        self._log, self._survivors, self._fitness = (
            open(self.files[key], mode, encoding="utf-8", newline="\n")
            for key, mode in (("log", "a"), ("survivors", "w"),
                              ("fitness", "w")))
        gene_names = ",".join(f"g{k + 1}" for k in range(spec.number_of_genes))
        self._survivors.write(f"generation,index,fitness,{gene_names}\n")
        self._fitness.write("generation,evaluations,mean_fitness,best_fitness\n")
        # One %-template per row body, the text after generation,index,:
        # "%.17g" formats every real, inf, nan and -0.0 included. Label
        # rows fill one "%s" with their joined cell texts.
        genes_format = (",%.17g" * spec.number_of_genes if spec.is_numeric
                        else ",%s")
        self._body = "%.17g" + genes_format + "\n"
        self._text = (None if spec.is_numeric else
                      {c: _csv_text(c) for c in spec.categories}.__getitem__)
        self._bodies = []

    def append(self, generation: int, population, evaluations: int,
               parents=None):
        """Write one RunRecord snapshot and its fitness row.

        parents[k] is the row of the previous snapshot that survivor k
        is, or -1 for a new individual; only new rows are formatted, the
        others reuse their text from the previous snapshot. None, as for
        a first snapshot, formats every row.
        """
        fitness = population.fitness
        if parents is None:
            parents = np.full(len(fitness), -1)
        previous = self._bodies
        bodies = [previous[p] if p >= 0 else None for p in parents.tolist()]
        fresh = np.flatnonzero(parents < 0)
        rows = population.genes[fresh].tolist()
        if self._text is not None:
            rows = [(",".join(map(self._text, genes)),) for genes in rows]
        for k, value, genes in zip(fresh.tolist(), fitness[fresh].tolist(),
                                   rows):
            bodies[k] = self._body % (value, *genes)
        self._bodies = bodies
        self._survivors.write("".join(
            f"{generation},{index},{body}" for index, body in enumerate(bodies)))
        self._fitness.write("%d,%d,%.17g,%.17g\n" % (
            generation, evaluations, _mean_fitness(fitness), fitness.max()))
        self._survivors.flush()
        self._fitness.flush()

    def log(self, text: str):
        """Append one line to log.txt and flush it."""
        self._log.write(text + "\n")
        self._log.flush()

    def close(self):
        self._survivors.close()
        self._fitness.close()
        self._log.close()


def run(spec: GeneSpec, fitness, config: EngineConfig, *,
        init_genes=None, fitness_args=()) -> RunRecord:
    """Run the genetic algorithm and return its full history.

    fitness maps one gene vector (a label array for categorical genomes)
    to a real number, or, when marked with vectorized, a batch (see
    evaluate_population); extra fixed arguments can be bound through
    fitness_args, and the bound fitness keeps the marker.
    init_genes seeds part of the initial population. spec and config
    checked themselves when built; run checks only the choices that
    depend on the genome (crossover, mutation and the selection,
    resolved against the initial genes) before any fitness call or
    output file, so a bad configuration costs neither. A
    fitness of NaN, a non-number or a raised exception aborts the run
    and raises FitnessEvaluationError with the partial record attached.
    Infinite fitness is accepted: in selection -inf ranks last and +inf
    ranks first; survivors holding both record a NaN mean fitness. With
    parallel_workers > 0 one WorkerPool serves the whole run and is shut
    down when it returns or raises. An unpicklable fitness with
    parallel_workers > 0 raises ConfigError before any process starts
    or output file is made, an output directory that cannot be made or
    written OSError, and a generation whose best survivor is worse than
    the previous best (a broken elitism guarantee) RuntimeError. Any
    exception that ends the run is logged as "run aborted" before it
    propagates.
    """
    crossover = resolve_crossover(config.crossover, spec)
    mutation = resolve_mutation(config.mutation, spec)
    bound = _BoundFitness(fitness, fitness_args) if fitness_args else fitness
    n = config.population_size

    rng = np.random.default_rng(config.seed)
    genes = seed_population(spec, n, rng, init_genes)
    diversity = config.selection.resolve(spec, genes)
    values = np.empty(n)

    writer = workers = None
    record = RunRecord()

    def log(text):
        if config.verbosity >= 1:
            print(text)
        if writer is not None:
            writer.log(text)

    def snapshot(generation, genes, values, cumulative, picks=None):
        decoded = spec.decode(genes)
        survivors = np.rec.fromarrays([decoded, values], dtype=[
            ("genes", decoded.dtype, decoded.shape[1:]), ("fitness", float)])
        record.populations.append(survivors)
        record.evaluations.append(cumulative)
        if writer is not None:
            # A pick below n is the previous survivor of that index.
            parents = None if picks is None else np.where(picks < n, picks, -1)
            writer.append(generation, survivors, cumulative, parents)
        best = float(values.max())
        log(f"generation {generation}: best={best:.6g} "
            f"mean={_mean_fitness(values):.6g} evaluations={cumulative}")
        return best

    try:
        if config.parallel_workers > 0:
            workers = WorkerPool(config.parallel_workers, bound)
        if config.output_directory is not None:
            writer = RunWriter(config.output_directory, spec)
            record.output_files = writer.files
        log(f"run started: population={n} "
            f"generations={config.n_generations} crossover={crossover} "
            f"pairing={config.pairing} seed={config.seed}")
        log(f"selection: diversity-enhanced, d0={diversity.d0:g}, "
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
            # A kernel reads codes; see divga.distance.
            seen = (spec.decode(pool_genes)
                    if _through_to_point(diversity.measure) else pool_genes)
            picks = select_diverse(seen, pool_values, n, diversity, working)
            genes, values = pool_genes[picks], pool_values[picks]
            previous_best = best
            best = snapshot(generation, genes, values, cumulative, picks)
            if config.verbosity >= 2:
                for rank, ind in enumerate(record.populations[-1]):
                    log(f"  survivor {rank}: fitness={ind.fitness:.6g}"
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
        log(f"run finished: {record.termination} after "
            f"{len(record.populations) - 1} generations, "
            f"{cumulative} evaluations")
    except BaseException as exc:
        record.termination = ABORTED
        if isinstance(exc, FitnessEvaluationError):
            exc.partial_record = record
        log(f"run aborted: {type(exc).__name__}: {exc}")
        raise
    finally:
        if workers is not None:
            workers.close()
        if writer is not None:
            writer.close()
    return record
