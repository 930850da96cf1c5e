"""Engine runs: reproducibility, bookkeeping, persistence."""

import contextlib
import csv
import dataclasses
import faulthandler
import functools
import itertools
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divga import (
    ConfigError,
    DistanceMeasure,
    DiversityEnhanced,
    DynamicSq,
    EngineConfig,
    EuclideanSq,
    FitnessEvaluationError,
    GeneSpec,
    HammingSq,
    MutationConfig,
    RunRecord,
    WorkerPool,
    evaluate_population,
    run,
    seed_population,
)
import divga.engine
from divga.bench import scd_from_genes

from conftest import (
    FAILURES,
    BatchFailure,
    ChunkStart,
    RowFailure,
    WrongShapeAt,
    exits_on_half,
    exploding_fitness,
    fails_on_13,
    fails_on_33,
    label_count_fitness,
    nan_on_33,
    non_numeric_fitness,
    overflow_on_33,
    sphere_fitness,
    sum_fitness,
    text_on_33,
)


def quiet(**kwargs) -> EngineConfig:
    kwargs.setdefault("verbosity", 0)
    return EngineConfig(**kwargs)


# A numeric and a categorical genome, each with a fitness it accepts.
both_kinds = pytest.mark.parametrize("spec_name, fitness", [
    ("numeric_spec", sphere_fitness),
    ("cat_spec", label_count_fitness),
], ids=["numeric", "categorical"])


class CountingFitness:
    def __init__(self):
        self.calls = 0

    def __call__(self, genes):
        self.calls += 1
        return float(np.sum(genes))


class TestEvaluatePopulation:
    def test_sets_fitness_in_order(self, numeric_spec, rng):
        genes = seed_population(numeric_spec, 5, rng)
        values = np.empty(5)
        assert evaluate_population(genes, sum_fitness, values) == 5
        np.testing.assert_allclose(values, genes.sum(axis=1))

    def test_skips_already_evaluated(self, numeric_spec, rng):
        """Only the rows handed over are evaluated, into their own slots."""
        genes = seed_population(numeric_spec, 4, rng)
        values = np.array([123.0, np.nan, np.nan, np.nan])
        fitness = CountingFitness()
        assert evaluate_population(genes[1:], fitness, values[1:]) == 3
        assert fitness.calls == 3
        assert values[0] == 123.0
        np.testing.assert_allclose(values[1:], genes[1:].sum(axis=1))

    @pytest.mark.parametrize("n_values", [2, 4])
    def test_values_of_another_length_rejected_before_any_call(
            self, numeric_spec, rng, n_values):
        genes = seed_population(numeric_spec, 3, rng)
        fitness = CountingFitness()
        with pytest.raises(ConfigError,
                           match=f"{n_values} values for 3 gene rows"):
            evaluate_population(genes, fitness, np.empty(n_values))
        assert fitness.calls == 0

    @pytest.mark.parametrize("values", [
        np.zeros(3, dtype=int), np.zeros(3, dtype=np.float32),
        np.zeros((3, 1)), [0.0, 0.0, 0.0]],
        ids=["int", "float32", "column", "list"])
    def test_values_not_a_float64_vector_rejected_before_any_call(
            self, numeric_spec, rng, values):
        """Fitness 0.9 written into an int buffer would be stored as 0."""
        genes = seed_population(numeric_spec, 3, rng)
        fitness = CountingFitness()
        with pytest.raises(ConfigError,
                           match="values must be a float64 vector"):
            evaluate_population(genes, fitness, values)
        assert fitness.calls == 0

    def test_parallel_matches_sequential(self, numeric_spec, rng):
        genes = seed_population(numeric_spec, 12, np.random.default_rng(3))
        sequential, parallel = np.empty(12), np.empty(12)
        evaluate_population(genes, sphere_fitness, sequential)
        with WorkerPool(3, sphere_fitness) as pool:
            evaluate_population(genes, sphere_fitness, parallel, pool)
        assert sequential.tolist() == parallel.tolist()

    def test_raising_fitness_wrapped(self):
        with pytest.raises(FitnessEvaluationError) as excinfo:
            evaluate_population(np.array([[-1.0], [2.0]]), exploding_fitness,
                                np.empty(2))
        assert excinfo.value.index == 1

    @pytest.mark.parametrize("workers, fitness, failing, message", [
        pytest.param(0, fails_on_13, 13, "for individual 13", id="0"),
        pytest.param(2, fails_on_13, 13, "for individual 13", id="2"),
        pytest.param(2, fails_on_33, 33, "for individual 33",
                     id="2-second-chunk"),
        pytest.param(2, nan_on_33, 33, "fitness returned NaN for individual 33",
                     id="2-second-chunk-nan"),
        pytest.param(2, text_on_33, 33,
                     "fitness returned non-numeric value 'not a number' "
                     "for individual 33",
                     id="2-second-chunk-non-number"),
        pytest.param(0, overflow_on_33, 33,
                     f"non-numeric value {10**400!r} for individual 33",
                     id="0-overflow"),
        pytest.param(2, overflow_on_33, 33,
                     f"non-numeric value {10**400!r} for individual 33",
                     id="2-second-chunk-overflow"),
    ])
    def test_failure_reports_the_failing_individual(self, workers, fitness,
                                                    failing, message):
        """Chunked parallel evaluation reports the failing row, not its
        chunk start: of 40 rows on 2 workers, row 13 sits in the first
        chunk and row 33 in the second."""
        genes = np.arange(40.0).reshape(40, 1)
        with (WorkerPool(workers, fitness) if workers
              else contextlib.nullcontext()) as pool:
            with pytest.raises(FitnessEvaluationError) as excinfo:
                evaluate_population(genes, fitness, np.empty(40), pool)
        assert excinfo.value.index == failing
        assert message in str(excinfo.value)

    def test_sequential_stops_at_first_bad_value(self):
        """Each value is checked as it is computed: NaN on row 3 of 10
        costs 4 fitness calls, and the 3 rows before it are committed."""
        calls = []

        def nan_on_3(genes):
            calls.append(int(genes[0]))
            return float("nan") if genes[0] == 3 else 1.0

        values = np.full(10, -1.0)
        with pytest.raises(FitnessEvaluationError,
                           match="NaN for individual 3") as excinfo:
            evaluate_population(np.arange(10.0).reshape(10, 1), nan_on_3,
                                values)
        assert excinfo.value.index == 3
        assert calls == [0, 1, 2, 3]
        assert values.tolist() == [1.0] * 3 + [-1.0] * 7

    @settings(max_examples=200)
    @given(st.integers(1, 40).flatmap(
               lambda n: st.tuples(st.just(n), st.integers(0, n - 1))),
           st.sampled_from(sorted(FAILURES)))
    def test_failing_index_property(self, rows_and_failing, kind):
        """Sequentially, for any batch of n <= 40 rows, failing row f and
        failure kind: the error reports index f, values[:f] is committed,
        nothing after it is written and no row after f is called."""
        n, failing = rows_and_failing
        calls = []

        def fitness(genes):
            row = int(genes[0])
            calls.append(row)
            return FAILURES[kind]() if row == failing else row / 4

        values = np.full(n, -1.0)
        with pytest.raises(FitnessEvaluationError) as excinfo:
            evaluate_population(np.arange(float(n)).reshape(n, 1), fitness,
                                values)
        assert excinfo.value.index == failing
        assert calls == list(range(failing + 1))
        assert values.tolist() == ([row / 4 for row in range(failing)]
                                   + [-1.0] * (n - failing))

    @pytest.mark.parametrize("workers", [0, 2], ids=["sequential", "2"])
    @settings(max_examples=100)
    @given(st.integers(1, 40).flatmap(
               lambda n: st.tuples(st.just(n), st.integers(0, n - 1))),
           st.sampled_from(sorted(FAILURES)))
    def test_vectorized_failing_index_property(
            self, two_workers, workers, rows_and_failing, kind):
        """A vectorized fitness and the same fitness per row, for any
        batch of n <= 40 rows, failing row f and failure kind,
        sequentially and on 2 workers: both report index f with the same
        message, commit values[:f] and write nothing after f."""
        n, failing = rows_and_failing
        genes = np.arange(float(n)).reshape(n, 1)
        pool = two_workers if workers else None
        errors = []
        for fitness in (BatchFailure(kind, failing), RowFailure(kind, failing)):
            values = np.full(n, -1.0)
            with pytest.raises(FitnessEvaluationError) as excinfo:
                evaluate_population(genes, fitness, values, pool)
            assert excinfo.value.index == failing
            assert values.tolist() == ([row / 4 for row in range(failing)]
                                       + [-1.0] * (n - failing))
            errors.append(str(excinfo.value))
        assert errors[0] == errors[1]

    @pytest.mark.parametrize("kind, calls", [
        ("nan", [10]),
        ("raise", [10, 1, 1, 1, 1]),
        ("non-number", [10, 1, 1, 1, 1]),
        ("overflow", [10, 1, 1, 1, 1]),
    ])
    def test_vectorized_failure_calls(self, kind, calls):
        """Sequentially, a NaN at row 3 of 10 is found in the one batch
        call; a raise or a non-number makes the rows up to 3 be called
        again, each as a one-row matrix."""
        batch = BatchFailure(kind, 3)
        seen = []

        def fitness(genes):
            seen.append(genes.shape)
            return batch(genes)

        fitness.vectorized = True
        with pytest.raises(FitnessEvaluationError) as excinfo:
            evaluate_population(np.arange(10.0).reshape(10, 1), fitness,
                                np.empty(10))
        assert excinfo.value.index == 3
        assert seen == [(rows, 1) for rows in calls]

    def test_vectorized_one_call_per_chunk(self, two_workers):
        """Sequentially the batch is one call; on 2 workers each chunk
        of ceil(n / 2) rows is one call."""
        genes = np.arange(9.0).reshape(9, 1)
        values = np.empty(9)
        assert evaluate_population(genes, ChunkStart(), values) == 9
        assert values.tolist() == [0.0] * 9
        assert evaluate_population(genes, ChunkStart(), values,
                                   two_workers) == 9
        assert values.tolist() == [0.0] * 5 + [5.0] * 4

    def test_vectorized_rows_that_succeed_alone_stand(self):
        """A batch call that raises, on rows that each succeed as a
        one-row matrix, gives their one-row values."""
        @divga.vectorized
        def fails_on_batches(genes):
            if len(genes) > 1:
                raise MemoryError("batch too large")
            return genes[:, 0] * 2

        values = np.empty(4)
        evaluate_population(np.arange(4.0).reshape(4, 1), fails_on_batches,
                            values)
        assert values.tolist() == [0.0, 2.0, 4.0, 6.0]

    @pytest.mark.parametrize("result, shape", [
        (lambda genes: 1.0, "()"),
        (lambda genes: genes[1:, 0], "(3,)"),
        (lambda genes: genes, "(4, 1)"),
    ], ids=["scalar", "short", "column"])
    def test_vectorized_wrong_shape(self, result, shape):
        message = f"shape {shape} for 4 rows, not (4,), at individual 0"
        values = np.full(4, -1.0)
        with pytest.raises(FitnessEvaluationError,
                           match=re.escape(message)) as excinfo:
            evaluate_population(np.arange(4.0).reshape(4, 1),
                                divga.vectorized(result), values)
        assert excinfo.value.index == 0
        assert values.tolist() == [-1.0] * 4

    def test_vectorized_wrong_shape_at_chunk_start(self, two_workers):
        """On 2 workers a wrong shape from the second chunk, rows 20-39,
        is reported at index 20 once rows 0-19 are committed."""
        values = np.full(40, -1.0)
        message = "shape (20, 1) for 20 rows"
        with pytest.raises(FitnessEvaluationError,
                           match=re.escape(message)) as excinfo:
            evaluate_population(np.arange(40.0).reshape(40, 1),
                                WrongShapeAt(20.0), values, two_workers)
        assert excinfo.value.index == 20
        assert values.tolist() == list(range(20)) + [-1.0] * 20

    def test_vectorized_one_row_wrong_shape(self):
        """Row by row, a one-row result that is not one value is reported
        at its row."""
        @divga.vectorized
        def scalar_for_one_row(genes):
            if len(genes) > 1:
                raise ValueError("rows one by one, please")
            return 7.0

        values = np.full(4, -1.0)
        message = "shape () for 1 rows"
        with pytest.raises(FitnessEvaluationError,
                           match=re.escape(message)) as excinfo:
            evaluate_population(np.arange(4.0).reshape(4, 1),
                                scalar_for_one_row, values)
        assert excinfo.value.index == 0

    @pytest.mark.parametrize("rows, workers, chunks", [
        (100, 2, [(0, 50), (50, 50)]),
        (3, 4, [(0, 1), (1, 1), (2, 1)]),
    ])
    def test_one_chunk_per_worker(self, rows, workers, chunks, started_pools):
        """The rows go out as one contiguous chunk of ceil(rows / workers)
        rows per worker, and come back in index order."""
        genes = np.arange(float(rows)).reshape(rows, 1)
        values = np.empty(rows)
        with WorkerPool(workers, sum_fitness) as pool:
            assert evaluate_population(genes, sum_fitness, values,
                                       pool) == rows
        assert started_pools[0].chunks == chunks
        assert values.tolist() == genes[:, 0].tolist()

    def test_non_numeric_result_rejected(self):
        with pytest.raises(FitnessEvaluationError, match="non-numeric"):
            evaluate_population(np.zeros((1, 1)), non_numeric_fitness,
                                np.empty(1))

    def test_nan_rejected(self):
        with pytest.raises(FitnessEvaluationError, match="NaN"):
            evaluate_population(np.zeros((1, 1)), lambda g: float("nan"),
                                np.empty(1))

    def test_unpicklable_fitness_rejected_before_any_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(divga.engine, "ProcessPoolExecutor", no_pool)
        with pytest.raises(ConfigError, match="picklable"):
            WorkerPool(2, lambda g: 0.0)

    @pytest.mark.parametrize("workers", [0, -1, 2.0, True, "2", None])
    def test_workers_checked_before_pickling_or_any_pool(self, workers,
                                                         monkeypatch):
        """workers is an integer of at least 1 (bool is not one),
        checked before the fitness is pickled or a pool is built."""
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(divga.engine, "ProcessPoolExecutor", no_pool)
        with pytest.raises(ConfigError, match=re.escape(
                f"workers must be an integer of at least 1, not {workers!r}")):
            WorkerPool(workers, lambda g: 0.0)

    def test_numpy_integer_workers_accepted(self, started_pools):
        with WorkerPool(np.uint8(1), sum_fitness) as pool:
            assert pool.workers == 1
        assert len(started_pools) == 1

    def test_pool_serves_repeated_evaluations(self, started_pools):
        """One pool evaluates batch after batch, each as the sequential
        path does, and leaving the with block shuts it down."""
        genes = np.arange(30.0).reshape(10, 3)
        with WorkerPool(2, sum_fitness) as pool:
            for rows in (genes, genes[:1], genes[3:]):
                expected, got = np.empty(len(rows)), np.empty(len(rows))
                evaluate_population(rows, sum_fitness, expected)
                assert evaluate_population(rows, sum_fitness, got,
                                           pool) == len(rows)
                assert got.tolist() == expected.tolist()
        assert len(started_pools) == 1
        assert started_pools[0].shutdowns == [{"cancel_futures": True}]


# A categorical genome whose one gene decodes to the text of its code, so
# that codes 0..n-1 make rows a RowFailure reads as 0..n-1.
NUMBERED = GeneSpec.categorical(tuple(str(k) for k in range(40)), 1)


class TestCodesToWorkers:
    """With a spec, evaluate_population sends a run's gene matrix as is
    and decodes each chunk just before its fitness call."""

    @both_kinds
    def test_chunks_carry_the_gene_dtype(self, request, spec_name, fitness,
                                         started_pools):
        """A categorical run's chunks carry spec.gene_dtype codes and a
        numeric run's float64 rows."""
        spec = request.getfixturevalue(spec_name)
        run(spec, fitness, quiet(population_size=8, n_generations=3, seed=5,
                                 parallel_workers=2))
        [pool] = started_pools
        assert len(pool.dtypes) == 2 * 4
        assert set(pool.dtypes) == {spec.gene_dtype}
        assert spec.gene_dtype == (np.float64 if spec.is_numeric
                                   else np.int8)

    @pytest.mark.parametrize("workers", [0, 2], ids=["sequential", "2"])
    def test_fitness_sees_labels(self, cat_spec, two_workers, workers, rng):
        genes = rng.integers(0, 2, (9, 8)).astype(cat_spec.gene_dtype)
        expected, got = np.empty(9), np.empty(9)
        evaluate_population(cat_spec.decode(genes), label_count_fitness,
                            expected)
        evaluate_population(genes, label_count_fitness, got,
                            two_workers if workers else None, cat_spec)
        assert got.tolist() == expected.tolist()

    @pytest.mark.parametrize("workers", [0, 2], ids=["sequential", "2"])
    @settings(max_examples=50)
    @given(st.integers(1, 40).flatmap(
               lambda n: st.tuples(st.just(n), st.integers(0, n - 1))),
           st.sampled_from(sorted(FAILURES)))
    def test_categorical_failing_index_property(
            self, two_workers, workers, rows_and_failing, kind):
        """On codes of a categorical genome, for any batch of n <= 40
        rows, failing row f and failure kind, sequentially and on 2
        workers, with a per-row and a vectorized fitness: both report
        index f with the same message, commit values[:f] and write
        nothing after f."""
        n, failing = rows_and_failing
        codes = np.arange(n, dtype=NUMBERED.gene_dtype).reshape(n, 1)
        pool = two_workers if workers else None
        errors = []
        for fitness in (BatchFailure(kind, failing), RowFailure(kind, failing)):
            values = np.full(n, -1.0)
            with pytest.raises(FitnessEvaluationError) as excinfo:
                evaluate_population(codes, fitness, values, pool, NUMBERED)
            assert excinfo.value.index == failing
            assert values.tolist() == ([row / 4 for row in range(failing)]
                                       + [-1.0] * (n - failing))
            errors.append(str(excinfo.value))
        assert errors[0] == errors[1]

    @pytest.mark.parametrize("fitness", [
        label_count_fitness,
        divga.vectorized(functools.partial(scd_from_genes, target_scd=-1.0)),
    ], ids=["per-row", "vectorized"])
    def test_worker_count_gives_the_same_bytes(self, tmp_path, fitness):
        """A categorical seed gives the same survivors and fitness CSV
        bytes at 0 and 2 workers."""
        spec = GeneSpec.categorical(("E", "K"), 20)
        files = []
        for workers in (0, 2):
            record = run(spec, fitness, quiet(
                population_size=12, n_generations=5, seed=11,
                parallel_workers=workers,
                output_directory=tmp_path / str(workers)))
            files.append([record.output_files[key].read_bytes()
                          for key in ("survivors", "fitness")])
        assert files[0] == files[1]


class TestIntegerSettings:
    @pytest.mark.parametrize("field, value", [
        ("population_size", 2.5), ("population_size", True),
        ("n_generations", 3.0), ("parallel_workers", 2.0),
        ("parallel_workers", False),
    ])
    def test_non_integers_rejected(self, numeric_spec, field, value,
                                   started_pools):
        settings = dict(population_size=4, n_generations=1)
        settings[field] = value
        least = {"population_size": 2, "n_generations": 1,
                 "parallel_workers": 0}[field]
        with pytest.raises(ConfigError, match=f"{field} must be an integer "
                           f"of at least {least}, not {value!r}"):
            run(numeric_spec, sphere_fitness, quiet(**settings))
        assert started_pools == []

    def test_numpy_integers_accepted(self, numeric_spec):
        config = quiet(population_size=np.int64(4), n_generations=np.int32(2),
                       parallel_workers=np.uint8(0))
        record = run(numeric_spec, sphere_fitness, config)
        assert record.evaluations == [4, 8, 12]


class TestWorkerPoolLifetime:
    """run starts one pool for all its generations and always shuts it."""

    def test_one_pool_per_run(self, numeric_spec, started_pools):
        config = quiet(population_size=6, n_generations=5, seed=3,
                       parallel_workers=2)
        record = run(numeric_spec, sphere_fitness, config)
        assert len(record.populations) == 6
        assert len(started_pools) == 1
        assert started_pools[0].shutdowns == [{"cancel_futures": True}]

    def test_no_pool_without_workers(self, numeric_spec, started_pools):
        run(numeric_spec, sphere_fitness,
            quiet(population_size=6, n_generations=5, seed=3))
        assert started_pools == []

    def test_pool_shut_down_when_fitness_raises(self, numeric_spec,
                                                started_pools):
        config = quiet(population_size=6, n_generations=3, seed=3,
                       parallel_workers=2)
        with pytest.raises(FitnessEvaluationError):
            run(numeric_spec, exploding_fitness, config)
        assert len(started_pools) == 1
        assert started_pools[0].shutdowns == [{"cancel_futures": True}]

    def test_dead_worker_is_a_fitness_error(self, numeric_spec,
                                            started_pools):
        """A worker that exits mid-chunk breaks the pool; the run raises
        FitnessEvaluationError at or before the row that killed it, with
        the partial record, instead of hanging (a hang ends the test
        process after 120 s)."""
        rows = np.full((6, 3), -0.5)
        rows[4, 0] = 0.5
        config = quiet(population_size=6, n_generations=2, seed=3,
                       parallel_workers=2)
        faulthandler.dump_traceback_later(120, exit=True)
        try:
            with pytest.raises(FitnessEvaluationError) as excinfo:
                run(numeric_spec, exits_on_half, config, init_genes=rows)
        finally:
            faulthandler.cancel_dump_traceback_later()
        assert 0 <= excinfo.value.index <= 4
        partial = excinfo.value.partial_record
        assert isinstance(partial, RunRecord)
        assert partial.termination == "aborted"
        assert partial.populations == []
        assert started_pools[0].shutdowns == [{"cancel_futures": True}]


class TestRunBasics:
    def test_snapshot_count_and_evaluations(self, numeric_spec):
        config = quiet(population_size=8, n_generations=5, crossover="none",
                       seed=1)
        record = run(numeric_spec, sphere_fitness, config)
        assert len(record.populations) == 6
        assert record.evaluations == [8, 16, 24, 32, 40, 48]
        assert record.total_evaluations == 48
        assert record.termination == "generations_exhausted"

    def test_all_pairs_evaluation_budget(self, numeric_spec):
        config = quiet(population_size=6, n_generations=2, crossover="between",
                       pairing="all", seed=1)
        record = run(numeric_spec, sphere_fitness, config)
        # 6 initial + 2 generations of 15 offspring
        assert record.total_evaluations == 36

    def test_best_fitness_never_degrades(self, numeric_spec):
        config = quiet(population_size=10, n_generations=20, seed=9)
        record = run(numeric_spec, sphere_fitness, config)
        best = record.best_fitness
        assert all(b >= a for a, b in zip(best, best[1:]))

    def test_best_fitness_never_degrades_under_top_n(self, numeric_spec):
        config = quiet(population_size=10, n_generations=20, seed=9,
                       selection=DiversityEnhanced(d0=0))
        record = run(numeric_spec, sphere_fitness, config)
        best = record.best_fitness
        assert all(b >= a for a, b in zip(best, best[1:]))

    def test_constant_fitness_gives_flat_zero_trace(self, numeric_spec):
        config = quiet(population_size=6, n_generations=4, seed=1)
        record = run(numeric_spec, lambda genes: 0.0, config)
        assert record.mean_fitness == [0.0] * 5
        assert record.best_fitness == [0.0] * 5
        assert record.termination == "generations_exhausted"

    def test_threshold_stops_early(self, numeric_spec):
        config = quiet(population_size=6, n_generations=50, seed=2,
                       fitness_threshold=-1e9)
        record = run(numeric_spec, sphere_fitness, config)
        assert record.termination == "threshold_reached"
        assert len(record.populations) == 2  # initial plus one generation

    def test_unreachable_threshold_runs_out(self, numeric_spec):
        config = quiet(population_size=6, n_generations=3, seed=2,
                       fitness_threshold=1e9)
        record = run(numeric_spec, sphere_fitness, config)
        assert record.termination == "generations_exhausted"
        assert len(record.populations) == 4

    def test_survivors_not_reevaluated(self, numeric_spec):
        fitness = CountingFitness()
        config = quiet(population_size=8, n_generations=4, crossover="none",
                       seed=5)
        record = run(numeric_spec, fitness, config)
        assert fitness.calls == record.total_evaluations == 8 + 4 * 8

    def test_init_genes_in_first_snapshot(self, numeric_spec):
        config = quiet(population_size=4, n_generations=1, seed=0)
        record = run(numeric_spec, sphere_fitness, config,
                     init_genes=[[0.25, 0.5, -0.25]])
        np.testing.assert_allclose(record.populations[0][0].genes,
                                   [0.25, 0.5, -0.25])

    def test_fitness_args_bound(self, numeric_spec):
        def offset_sum(genes, offset):
            return float(np.sum(genes)) + offset

        config = quiet(population_size=4, n_generations=1, seed=0)
        record = run(numeric_spec, offset_sum, config, fitness_args=(100.0,))
        assert record.best_fitness[0] > 90.0

    def test_fitness_args_keep_the_vectorized_marker(self, numeric_spec):
        """A marked fitness bound through fitness_args is still called
        once per generation, on the generation's whole batch."""
        batches = []

        @divga.vectorized
        def offset_sum(genes, offset):
            batches.append(len(genes))
            return genes.sum(axis=1) + offset

        assert divga.engine._BoundFitness(offset_sum, (1.0,)).vectorized
        config = quiet(population_size=4, n_generations=3, crossover="none",
                       seed=0)
        record = run(numeric_spec, offset_sum, config, fitness_args=(100.0,))
        assert batches == [4, 4, 4, 4]
        assert record.best_fitness[0] > 90.0

    @settings(max_examples=30)
    @given(population=st.integers(2, 7), generations=st.integers(1, 4),
           pairing=st.sampled_from(["random", "all"]),
           d0=st.sampled_from([0.0, 1.0]), seed=st.integers(0, 2**32 - 1))
    def test_elitism_and_exact_evaluations_property(
            self, population, generations, pairing, d0, seed):
        """For either pairing, with a marked and an unmarked fitness: the
        best of parents and children survives, every generation
        evaluates exactly its children, each once (one call per
        generation when marked), and both fitnesses give the same
        history."""
        spec = GeneSpec.numeric([(-1.0, 1.0), (-1.0, 1.0)])
        config = quiet(population_size=population, n_generations=generations,
                       crossover="between", pairing=pairing, seed=seed,
                       selection=DiversityEnhanced(d0=d0))
        children = (population * (population - 1) // 2 if pairing == "all"
                    else population)
        expected = [population + k * children for k in range(generations + 1)]
        rows, batches, batch_best = [], [], []

        def per_row(genes):
            rows.append(1)
            return -float(genes[0] * genes[0] + genes[1] * genes[1])

        @divga.vectorized
        def per_batch(genes):
            values = -(genes[:, 0] * genes[:, 0] + genes[:, 1] * genes[:, 1])
            batches.append(len(genes))
            batch_best.append(float(values.max()))
            return values

        records = [run(spec, per_row, config), run(spec, per_batch, config)]
        best = records[1].best_fitness
        assert best == list(itertools.accumulate(batch_best, max))
        for record in records:
            assert record.evaluations == expected
        assert len(rows) == expected[-1]
        assert batches == [population] + [children] * generations
        assert records[0].best_fitness == records[1].best_fitness
        for mine, theirs in zip(*(r.populations for r in records)):
            assert mine.tobytes() == theirs.tobytes()

    def test_categorical_run(self, cat_spec):
        config = quiet(population_size=10, n_generations=5, seed=4)
        record = run(cat_spec, label_count_fitness, config)
        assert record.best_fitness[-1] >= record.best_fitness[0]
        assert record.best_fitness[-1] > 0  # the fitness counted "K" labels

    def test_categorical_callables_see_labels(self, cat_spec):
        """Fitness and a custom measure get label arrays, never codes."""
        seen = []

        def fitness(genes):
            seen.append(genes)
            return label_count_fitness(genes)

        def mismatch(a, b):
            seen.extend([a, b])
            return float(np.mean(np.asarray(a) != np.asarray(b)))

        config = quiet(population_size=6, n_generations=2, seed=4,
                       selection=DiversityEnhanced(measure=mismatch))
        run(cat_spec, fitness, config)
        assert len(seen) > 6 * 3
        assert all(set(genes.tolist()) <= {"E", "K"} for genes in seen)

    @pytest.mark.parametrize("selection", [
        DiversityEnhanced(), DiversityEnhanced(d0=0)], ids=["diverse", "topn"])
    @pytest.mark.parametrize("infinity", [float("-inf"), float("inf")])
    def test_infinite_fitness_ranks_at_the_ends(self, numeric_spec,
                                               selection, infinity):
        """-inf survivors come last, +inf survivors first."""
        def fitness(genes):
            # Only a small corner of the box differs from the rest.
            corner = genes[0] > 0.8
            if infinity > 0:
                return infinity if corner else float(genes[0])
            return float(genes[0]) if corner else infinity

        config = quiet(population_size=8, n_generations=4, seed=3,
                       selection=selection)
        record = run(numeric_spec, fitness, config)
        mixed = 0
        for survivors in record.populations[1:]:
            infinite = [ind.fitness == infinity for ind in survivors]
            ends = infinite[::-1] if infinity < 0 else infinite
            assert ends == sorted(ends, reverse=True)
            mixed += 0 < sum(infinite) < len(infinite)
        assert mixed > 0

    def test_elitism_check_survives_optimisation(self, numeric_spec,
                                                monkeypatch, tmp_path):
        """A selection that loses the best individual stops the run, and
        the abort, not only a fitness failure's, ends log.txt."""
        select_diverse = divga.engine.select_diverse
        monkeypatch.setattr(divga.engine, "select_diverse",
                            lambda genes, fitness, count, diversity, working:
                            select_diverse(genes, fitness, count + 1,
                                           diversity)[1:])
        config = quiet(population_size=6, n_generations=3, seed=2,
                       selection=DiversityEnhanced(d0=0),
                       output_directory=tmp_path)
        with pytest.raises(RuntimeError, match="elitist") as excinfo:
            run(numeric_spec, sphere_fitness, config)
        assert not hasattr(excinfo.value, "partial_record")
        lines = (tmp_path / "log.txt").read_text().splitlines()
        assert lines[-1].startswith("run aborted: RuntimeError: elitist")

    def test_zero_d0_selects_by_argsort(self, numeric_spec, monkeypatch):
        """At d0 = 0 each generation's survivors are the raw-fitness
        argsort's, and no pool is prepared for distances."""
        def forbidden(self, matrix):
            raise AssertionError("pool prepared at d0 = 0")

        pools = []
        select_diverse = divga.engine.select_diverse

        def recording(genes, fitness, count, diversity, working):
            picks = select_diverse(genes, fitness, count, diversity, working)
            pools.append((fitness.copy(), picks, working.copy()))
            return picks

        monkeypatch.setattr(divga.distance.DistanceMeasure, "prepare",
                            forbidden)
        monkeypatch.setattr(divga.engine, "select_diverse", recording)
        record = run(numeric_spec, sphere_fitness,
                     quiet(population_size=6, n_generations=3, seed=2,
                           selection=DiversityEnhanced(d0=0)))
        assert len(pools) == 3
        for (fitness, picks, working), survivors in zip(
                pools, record.populations[1:]):
            order = np.argsort(-fitness, kind="stable")[:6]
            assert picks.tolist() == order.tolist()
            assert working.tobytes() == fitness[order].tobytes()
            assert survivors.fitness.tobytes() == fitness[order].tobytes()

    def test_topn_selection(self, numeric_spec):
        config = quiet(population_size=8, n_generations=5, seed=3,
                       selection=DiversityEnhanced(d0=0))
        record = run(numeric_spec, sphere_fitness, config)
        final = record.final_population
        assert final[0].fitness == max(ind.fitness for ind in final)



class TestRunValidation:
    def test_population_too_small(self, numeric_spec):
        with pytest.raises(ConfigError):
            run(numeric_spec, sphere_fitness,
                quiet(population_size=1, n_generations=1))

    def test_zero_generations(self, numeric_spec):
        with pytest.raises(ConfigError):
            run(numeric_spec, sphere_fitness,
                quiet(population_size=4, n_generations=0))

    def test_bad_pairing(self, numeric_spec):
        with pytest.raises(ConfigError):
            run(numeric_spec, sphere_fitness,
                quiet(population_size=4, n_generations=1, pairing="ring"))

    def test_bad_verbosity(self, numeric_spec):
        with pytest.raises(ConfigError):
            run(numeric_spec, sphere_fitness,
                quiet(population_size=4, n_generations=1, verbosity=7))

    def test_categorical_midpoint_rejected(self, cat_spec):
        with pytest.raises(ConfigError, match="midpoint crossover is "
                           "undefined for categorical genomes"):
            run(cat_spec, label_count_fitness,
                quiet(population_size=4, n_generations=1, crossover="midpoint"))

    def test_unknown_selection(self, numeric_spec, tmp_path):
        """Rejected before any fitness call or output file."""
        fitness = CountingFitness()
        out = tmp_path / "out"
        for selection in ("roulette", "topn", None):
            with pytest.raises(ConfigError, match="DiversityEnhanced"):
                run(numeric_spec, fitness,
                    quiet(population_size=50, n_generations=1,
                          selection=selection, output_directory=out))
        assert fitness.calls == 0
        assert not out.exists()

    def test_unpicklable_fitness_with_workers_makes_no_directory(
            self, numeric_spec, tmp_path):
        """The worker pool is checked before the output directory is
        made; it used to leave out/log.txt holding "run aborted"."""
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match="picklable"):
            run(numeric_spec, lambda genes: 0.0,
                quiet(population_size=4, n_generations=1,
                      parallel_workers=2, output_directory=out))
        assert not out.exists()

    def test_unknown_measure(self, numeric_spec, tmp_path):
        """An unknown measure name is a ConfigError, raised before any
        fitness call or output file."""
        fitness = CountingFitness()
        out = tmp_path / "out"
        for d0 in (1.0, 0.0):
            with pytest.raises(ConfigError,
                               match="unknown distance measure 'manhattan'"):
                run(numeric_spec, fitness,
                    quiet(population_size=50, n_generations=1,
                          selection=DiversityEnhanced(d0=d0,
                                                      measure="manhattan"),
                          output_directory=out))
        assert fitness.calls == 0
        assert not out.exists()

    @pytest.mark.parametrize("measure", ["euclidean", "dynamic",
                                         EuclideanSq(), DynamicSq()])
    @pytest.mark.parametrize("d0", [1.0, 0.0])
    def test_numeric_measure_on_categorical_genome(self, cat_spec, measure,
                                                   d0, tmp_path):
        """A measure that subtracts genes cannot compare labels: a
        ConfigError before any fitness call or output file, not a
        TypeError from numpy in generation 1."""
        fitness = CountingFitness()
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match="needs numeric genes"):
            run(cat_spec, fitness,
                quiet(population_size=6, n_generations=1,
                      selection=DiversityEnhanced(d0=d0, r0=1.0,
                                                  measure=measure),
                      output_directory=out))
        assert fitness.calls == 0
        assert not out.exists()

    def test_mutation_mode_on_categorical_genome(self, cat_spec, tmp_path):
        """A categorical genome takes no mutation mode: a ConfigError
        before any fitness call or output file."""
        fitness = CountingFitness()
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match="categorical genomes take no "
                           "mutation mode, not 'additive'"):
            run(cat_spec, fitness,
                quiet(population_size=6, n_generations=1,
                      mutation=MutationConfig(mode="additive"),
                      output_directory=out))
        assert fitness.calls == 0
        assert not out.exists()

    def test_raising_measure_costs_no_fitness_call_or_file(self, numeric_spec,
                                                           tmp_path):
        def broken(a, b):
            raise ValueError("no distance")

        fitness = CountingFitness()
        out = tmp_path / "out"
        with pytest.raises(ValueError, match="no distance"):
            run(numeric_spec, fitness,
                quiet(population_size=6, n_generations=1,
                      selection=DiversityEnhanced(measure=broken),
                      output_directory=out))
        assert fitness.calls == 0
        assert not out.exists()


class TestReproducibility:
    def test_same_seed_same_history(self, wide_spec):
        config = quiet(population_size=10, n_generations=8, seed=42)
        a = run(wide_spec, sphere_fitness, config)
        b = run(wide_spec, sphere_fitness, config)
        assert a.mean_fitness == b.mean_fitness
        assert a.best_fitness == b.best_fitness
        for pop_a, pop_b in zip(a.populations, b.populations):
            for ind_a, ind_b in zip(pop_a, pop_b):
                np.testing.assert_array_equal(ind_a.genes, ind_b.genes)

    def test_different_seed_differs(self, wide_spec):
        a = run(wide_spec, sphere_fitness,
                quiet(population_size=10, n_generations=3, seed=0))
        b = run(wide_spec, sphere_fitness,
                quiet(population_size=10, n_generations=3, seed=1))
        assert a.mean_fitness != b.mean_fitness

    def test_worker_count_does_not_change_results(self, wide_spec):
        sequential = run(wide_spec, sphere_fitness,
                         quiet(population_size=8, n_generations=4, seed=7,
                               parallel_workers=0))
        parallel = run(wide_spec, sphere_fitness,
                       quiet(population_size=8, n_generations=4, seed=7,
                             parallel_workers=2))
        assert sequential.mean_fitness == parallel.mean_fitness
        for pop_a, pop_b in zip(sequential.populations, parallel.populations):
            for ind_a, ind_b in zip(pop_a, pop_b):
                np.testing.assert_array_equal(ind_a.genes, ind_b.genes)


class TestDiversityResolution:
    def test_default_r0_from_initial_population(self, wide_spec, capsys):
        config = EngineConfig(population_size=6, n_generations=1, seed=0,
                              verbosity=1)
        run(wide_spec, sphere_fitness, config)
        out = capsys.readouterr().out
        assert "diversity-enhanced" in out
        assert "r0=" in out

    def test_degenerate_population_falls_back(self, numeric_spec):
        same = [[0.5, 0.5, 0.5]] * 4
        config = quiet(population_size=4, n_generations=1, seed=0)
        with pytest.warns(UserWarning, match="no spread"):
            run(numeric_spec, sphere_fitness, config, init_genes=same)

    def test_unusable_default_r0_falls_back(self, tmp_path):
        """A spread so small that 1 / r0^2 overflows gives no usable
        default r0: the run warns and selects with r0 = 1, not on NaN
        penalties."""
        spec = GeneSpec.numeric([(0.0, 1e-160)] * 2)
        config = quiet(population_size=6, n_generations=2, seed=0,
                       output_directory=tmp_path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run(spec, sphere_fitness, config)
        assert [str(w.message) for w in caught] == [
            "initial population has no spread; falling back to r0=1"]
        assert "r0=1, " in (tmp_path / "log.txt").read_text()

    @pytest.mark.parametrize("value", [-1.0, float("nan")],
                             ids=["negative", "nan"])
    @pytest.mark.filterwarnings("ignore:distance measure is asymmetric")
    def test_measure_with_no_usable_mean_is_rejected(self, numeric_spec,
                                                     value):
        """A mean squared distance below zero or NaN is a ConfigError
        naming the measure, before any fitness call, not a sqrt warning
        or an r0 fallback."""
        def broken(a, b):
            return value

        fitness = CountingFitness()
        config = quiet(population_size=4, n_generations=1, seed=0,
                       selection=DiversityEnhanced(measure=broken))
        with pytest.raises(ConfigError, match=re.escape(
                f"measure broken gave a mean squared distance of {value}; "
                f"squared distances cannot be negative or NaN")):
            run(numeric_spec, fitness, config)
        assert fitness.calls == 0

    @pytest.mark.filterwarnings("ignore:distance measure is asymmetric")
    def test_measure_with_infinite_mean_is_rejected(self, numeric_spec,
                                                    tmp_path):
        """An infinite mean squared distance is a ConfigError naming the
        measure, from resolve, and from run before any fitness call or
        output directory, not the "no spread" fallback to r0 = 1."""
        def unbounded(a, b):
            return float("inf")

        message = re.escape("measure unbounded gave an infinite mean "
                            "squared distance")
        selection = DiversityEnhanced(measure=unbounded)
        genes = np.array([[0.0, 0.0, 0.0], [0.5, 0.5, 0.5], [1.0, 0.0, 1.0]])
        with warnings.catch_warnings():
            warnings.filterwarnings("error", message=".*no spread")
            with pytest.raises(ConfigError, match=message):
                selection.resolve(numeric_spec, genes)
            fitness = CountingFitness()
            out = tmp_path / "out"
            with pytest.raises(ConfigError, match=message):
                run(numeric_spec, fitness, quiet(
                    population_size=6, n_generations=2, seed=0,
                    selection=selection, output_directory=out))
        assert fitness.calls == 0
        assert not out.exists()

    def test_top_n_skips_default_r0(self, numeric_spec):
        """At d0 = 0 r0 has no effect: no pairwise pass, no warning."""
        same = np.full((4, 3), 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            resolved = DiversityEnhanced(d0=0).resolve(numeric_spec, same)
        assert resolved.r0 == 1.0

    def test_explicit_r0_and_d0(self, numeric_spec):
        config = quiet(population_size=6, n_generations=2, seed=0,
                       selection=DiversityEnhanced(d0=2.0, r0=0.5))
        record = run(numeric_spec, sphere_fitness, config)
        assert len(record.populations) == 3

    def test_custom_measure_runs(self, numeric_spec):
        def manhattan_sq(a, b):
            return float(np.sum(np.abs(np.asarray(a) - np.asarray(b))) ** 2)

        config = quiet(population_size=6, n_generations=2, seed=0,
                       selection=DiversityEnhanced(measure=manhattan_sq))
        record = run(numeric_spec, sphere_fitness, config)
        assert len(record.populations) == 3

    def test_asymmetric_measure_warns(self, numeric_spec):
        """A callable and a DistanceMeasure subclass are both measured
        through their own to_point, so both are spot-checked."""
        def lopsided(a, b):
            return float(abs(a[0]) + 2 * abs(b[0]))

        class Lopsided(DistanceMeasure):
            def to_point(self, matrix, point, out=None):
                return np.array([lopsided(row, point) for row in matrix])

        for measure in (lopsided, Lopsided()):
            config = quiet(population_size=6, n_generations=1, seed=0,
                           selection=DiversityEnhanced(measure=measure))
            with pytest.warns(UserWarning, match="asymmetric"):
                run(numeric_spec, sphere_fitness, config)

    def test_spot_check_uses_the_scalar_form(self, numeric_spec, cat_spec,
                                             monkeypatch):
        """The symmetry spot check measures each pair of the first three
        rows both ways with measure(a, b), on the genes the fitness
        sees."""
        calls = []
        real = DistanceMeasure.__call__

        def spy(self, a, b):
            calls.append((a.tolist(), b.tolist()))
            return real(self, a, b)

        monkeypatch.setattr(DistanceMeasure, "__call__", spy)
        selection = DiversityEnhanced(
            measure=lambda a, b: float(np.sum(a != b)))
        for spec in (numeric_spec, cat_spec):
            genes = seed_population(spec, 5, np.random.default_rng(0))
            calls.clear()
            selection.resolve(spec, genes)
            rows = spec.decode(genes[:3]).tolist()
            assert calls == [(rows[i], rows[j]) for i, j in
                             ((0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1))]

    def test_label_subclass_with_default_dtype_runs(self, cat_spec):
        """A DistanceMeasure subclass that reads labels runs: the
        symmetry spot check's scalar calls hand it label vectors, as
        selection does."""
        class LabelMismatches(DistanceMeasure):
            def to_point(self, matrix, point, out=None):
                assert set(matrix.ravel().tolist()) <= {"E", "K"}
                counts = np.mean(matrix != point, axis=1)
                if out is None:
                    return counts
                out[:] = counts
                return out

        config = quiet(population_size=6, n_generations=2, seed=4,
                       selection=DiversityEnhanced(measure=LabelMismatches()))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            record = run(cat_spec, label_count_fitness, config)
        assert len(record.populations) == 3

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_hamming_subclass_sees_labels_and_picks_alike(self, seed):
        """A HammingSq subclass that overrides to_point, calling the
        built-in one, is measured through it on labels; the built-in
        Hamming kernel reads codes. Both give the same survivors and
        fitness on a three-label genome."""
        class LabelHamming(HammingSq):
            def to_point(self, matrix, point, out=None):
                self.dtypes.add((matrix.dtype, point.dtype))
                return super().to_point(matrix, point, out)

        spec = GeneSpec.categorical(("E", "K", "Q"), 6)
        subclass = LabelHamming()
        subclass.dtypes = set()
        records, seen = [], []
        real = divga.engine.select_diverse

        def spy(genes, *args):
            seen.append(genes.dtype)
            return real(genes, *args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(divga.engine, "select_diverse", spy)
            for measure in (HammingSq(), subclass):
                config = quiet(population_size=8, n_generations=4, seed=seed,
                               selection=DiversityEnhanced(measure=measure))
                records.append(run(spec, label_count_fitness, config))
        assert seen == [spec.gene_dtype] * 4 + [np.dtype(object)] * 4
        assert subclass.dtypes == {(np.dtype(object), np.dtype(object))}
        builtin, label = records
        for mine, theirs in zip(builtin.populations, label.populations):
            assert mine.genes.tolist() == theirs.genes.tolist()
            assert mine.fitness.tobytes() == theirs.fitness.tobytes()

    def test_euclidean_subclass_with_own_to_point_runs_on_labels(
            self, cat_spec):
        """An EuclideanSq subclass that overrides to_point is measured
        through it, so it is accepted on a categorical genome."""
        class LabelEuclidean(EuclideanSq):
            def to_point(self, matrix, point, out=None):
                return np.count_nonzero(matrix != point, axis=1).astype(float)

        config = quiet(population_size=6, n_generations=2, seed=4,
                       selection=DiversityEnhanced(measure=LabelEuclidean()))
        record = run(cat_spec, label_count_fitness, config)
        assert len(record.populations) == 3


class TestFailureHandling:
    def test_unpicklable_fitness_with_workers(self, numeric_spec):
        """A lambda cannot go to worker processes: ConfigError, not a
        fitness failure blamed on individual 0."""
        config = quiet(population_size=4, n_generations=1, parallel_workers=2)
        with pytest.raises(ConfigError, match="picklable"):
            run(numeric_spec, lambda genes: 0.0, config)

    def test_lambda_fitness_without_workers(self, numeric_spec):
        config = quiet(population_size=4, n_generations=1)
        record = run(numeric_spec, lambda genes: 1.0, config)
        assert record.mean_fitness == [1.0, 1.0]

    def test_mixed_infinities_give_nan_mean(self, numeric_spec, tmp_path):
        """Survivors at both +inf and -inf have a NaN mean, documented,
        written as nan, and computed without a numpy warning."""
        def fitness(genes):
            return float("inf") if genes[0] > 0 else float("-inf")

        config = quiet(population_size=4, n_generations=2, seed=0,
                       output_directory=tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            record = run(numeric_spec, fitness, config)
        assert np.isnan(record.mean_fitness[0])
        assert record.mean_fitness[1:] == [float("inf")] * 2
        lines = record.output_files["fitness"].read_text().splitlines()
        assert lines[1] == "0,4,nan,inf"

    def test_partial_record_attached(self, tmp_path):
        spec = GeneSpec.numeric([(0.5, 1.5)])
        config = quiet(population_size=4, n_generations=3, seed=1,
                       output_directory=tmp_path)
        with pytest.raises(FitnessEvaluationError) as excinfo:
            run(spec, exploding_fitness, config)
        record = excinfo.value.partial_record
        assert record is not None
        assert record.termination == "aborted"
        # whatever was flushed before the failure is on disk
        survivors = list(tmp_path.glob("*_survivors.csv"))
        assert len(survivors) == 1

    def test_partial_history_is_consistent(self, numeric_spec):
        """Call 15 is a child of generation 3: generations 0-2 are kept,
        each with its mean and best fitness."""
        calls = []

        def fitness(genes):
            calls.append(1)
            if len(calls) == 15:
                raise ValueError("call 15")
            return sphere_fitness(genes)

        config = quiet(population_size=4, n_generations=5, seed=0)
        with pytest.raises(FitnessEvaluationError) as excinfo:
            run(numeric_spec, fitness, config)
        record = excinfo.value.partial_record
        assert record.evaluations == [4, 8, 12]
        assert len(record.populations) == 3
        assert len(record.mean_fitness) == len(record.best_fitness) == 3


class TestHistory:
    @both_kinds
    def test_columns_match_rows_and_trace(self, spec_name, fitness, request):
        spec = request.getfixturevalue(spec_name)
        record = run(spec, fitness,
                     quiet(population_size=6, n_generations=4, seed=3))
        assert len(record.populations) == 5
        for g, pop in enumerate(record.populations):
            assert pop.genes.shape == (6, spec.number_of_genes)
            assert pop.fitness.shape == (6,)
            for i in range(len(pop)):
                np.testing.assert_array_equal(pop.genes[i], pop[i].genes)
                assert pop.fitness[i] == pop[i].fitness
            assert record.mean_fitness[g] == np.mean(pop.fitness)
            assert record.best_fitness[g] == np.max(pop.fitness)

    def test_history_fields(self):
        assert [f.name for f in dataclasses.fields(RunRecord)] == [
            "populations", "evaluations", "termination", "output_files"]


class TestLogFile:
    def test_quiet_run_logs_everything(self, numeric_spec, tmp_path):
        config = quiet(population_size=4, n_generations=3, seed=0,
                       output_directory=tmp_path)
        record = run(numeric_spec, sphere_fitness, config)
        lines = (tmp_path / "log.txt").read_text().splitlines()
        assert lines[0].startswith("run started")
        assert lines[-1].startswith("run finished")
        generations = [l for l in lines if l.startswith("generation ")]
        assert [l.split(":")[0] for l in generations] == [
            f"generation {g}" for g in range(len(record.populations))]

    def test_quiet_abort_is_logged(self, tmp_path):
        spec = GeneSpec.numeric([(0.5, 1.5)])
        config = quiet(population_size=4, n_generations=3, seed=1,
                       output_directory=tmp_path)
        with pytest.raises(FitnessEvaluationError):
            run(spec, exploding_fitness, config)
        lines = (tmp_path / "log.txt").read_text().splitlines()
        assert lines[-1].startswith("run aborted")


    @both_kinds
    def test_log_file_holds_the_console_lines(self, spec_name, fitness,
                                              request, tmp_path, capsys):
        """log.txt is the console output of verbosity 1 at verbosity 0
        and 1; verbosity 2 adds only the survivor listing to both."""
        spec = request.getfixturevalue(spec_name)
        logs, printed = {}, {}
        for verbosity in (0, 1, 2):
            directory = tmp_path / str(verbosity)
            run(spec, fitness, EngineConfig(
                population_size=4, n_generations=3, seed=5,
                verbosity=verbosity, output_directory=directory))
            logs[verbosity] = (directory / "log.txt").read_text()
            printed[verbosity] = capsys.readouterr().out
        assert printed[0] == ""
        assert logs[0] == logs[1] == printed[1]
        assert logs[2] == printed[2]
        lines = logs[2].splitlines()
        listing = [line for line in lines if line.startswith("  survivor ")]
        assert len(listing) == 3 * 4
        assert [line for line in lines if line not in listing] == \
            logs[1].splitlines()

    def test_directory_that_cannot_be_made_is_an_abort(self, numeric_spec,
                                                       tmp_path, capsys):
        """It used to raise before the run's try, with no "run aborted"
        line."""
        blocker = tmp_path / "file"
        blocker.write_text("")
        fitness = CountingFitness()
        with pytest.raises(OSError):
            run(numeric_spec, fitness,
                EngineConfig(population_size=4, n_generations=1,
                             output_directory=blocker / "out"))
        assert capsys.readouterr().out.startswith("run aborted: ")
        assert fitness.calls == 0

    def test_failed_open_closes_the_files_opened_before(self, numeric_spec,
                                                        tmp_path,
                                                        monkeypatch):
        """When the fitness CSV cannot be opened, log.txt and the
        survivors CSV, already open, are closed before the OSError."""
        opened = []

        def recording_open(*args, **kwargs):
            opened.append(open(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(divga.engine.time, "strftime", lambda _: "stamp")
        monkeypatch.setattr(divga.engine, "open", recording_open,
                            raising=False)
        (tmp_path / "stamp_fitness.csv").mkdir()
        with pytest.raises(OSError):
            divga.engine.RunWriter(tmp_path, numeric_spec)
        assert [(Path(f.name).name, f.closed) for f in opened] == [
            ("log.txt", True), ("stamp_survivors.csv", True)]


class TestPersistence:
    def run_with_output(self, spec, directory, seed=11,
                        fitness=sphere_fitness):
        config = quiet(population_size=5, n_generations=3, crossover="none",
                       seed=seed, output_directory=directory)
        return run(spec, fitness, config)

    def test_files_created(self, numeric_spec, tmp_path):
        record = self.run_with_output(numeric_spec, tmp_path)
        assert record.output_files["survivors"].exists()
        assert record.output_files["fitness"].exists()
        assert (tmp_path / "log.txt").exists()

    def test_empty_directory_is_the_current_one(self, numeric_spec,
                                                 tmp_path, monkeypatch):
        """An empty output_directory is the current directory, as in
        run_experiment; only None writes no file."""
        monkeypatch.chdir(tmp_path)
        record = self.run_with_output(numeric_spec, "")
        assert sorted(record.output_files) == ["fitness", "log", "survivors"]
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(
            path.name for path in record.output_files.values())
        for path in record.output_files.values():
            assert (tmp_path / path).is_file()

    def test_survivors_header_and_rows(self, numeric_spec, tmp_path):
        record = self.run_with_output(numeric_spec, tmp_path)
        lines = record.output_files["survivors"].read_text().splitlines()
        assert lines[0] == "generation,index,fitness,g1,g2,g3"
        assert len(lines) == 1 + 4 * 5  # header + 4 snapshots of 5 rows

    def test_fitness_file_rows(self, numeric_spec, tmp_path):
        record = self.run_with_output(numeric_spec, tmp_path)
        lines = record.output_files["fitness"].read_text().splitlines()
        assert lines[0] == "generation,evaluations,mean_fitness,best_fitness"
        assert len(lines) == 1 + 4

    def test_full_precision_round_trip(self, numeric_spec, tmp_path):
        """Written genes parse back to the exact in-memory floats."""
        record = self.run_with_output(numeric_spec, tmp_path)
        lines = record.output_files["survivors"].read_text().splitlines()[1:]
        final_rows = [l for l in lines if l.startswith("3,")]
        for row, ind in zip(final_rows, record.final_population):
            fields = row.split(",")
            assert float(fields[2]) == ind.fitness
            parsed = [float(x) for x in fields[3:]]
            np.testing.assert_array_equal(parsed, ind.genes)

    def test_lf_line_endings(self, numeric_spec, tmp_path):
        record = self.run_with_output(numeric_spec, tmp_path)
        raw = record.output_files["survivors"].read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_categorical_genes_written_as_labels(self, cat_spec, tmp_path):
        config = quiet(population_size=4, n_generations=1, seed=2,
                       output_directory=tmp_path)
        record = run(cat_spec, label_count_fitness, config)
        lines = record.output_files["survivors"].read_text().splitlines()
        first = lines[1].split(",")
        assert set(first[3:]) <= {"E", "K"}

    def test_labels_needing_quotes_read_back(self, tmp_path):
        """Labels with a comma, a quote or a line break are quoted as
        csv.writer quotes them, so csv.reader gives the labels back."""
        spec = GeneSpec.categorical(("a,b", 'say "hi"', "two\nlines", "p"), 3)
        config = quiet(population_size=4, n_generations=2, seed=0,
                       output_directory=tmp_path)
        record = run(spec, lambda genes: float(list(genes).count("p")),
                     config)
        with open(record.output_files["survivors"], encoding="utf-8",
                  newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["generation", "index", "fitness", "g1", "g2", "g3"]
        written = [genes.tolist() for pop in record.populations
                   for genes in pop.genes]
        assert [row[3:] for row in rows[1:]] == written

    @pytest.mark.parametrize("case", ["random", "all", "top-n", "labels",
                                      "threshold", "aborted"])
    def test_files_equal_rows_formatted_anew(self, case, tmp_path):
        """The survivors CSV, whose carried-over rows are formatted once,
        holds every snapshot formatted anew with "%.17g" and _csv_text,
        and the fitness CSV every snapshot's totals; an aborted run keeps
        its finished generations."""
        options = dict(population_size=6, n_generations=8, seed=3,
                       output_directory=tmp_path)
        spec = GeneSpec.numeric([(-2.0, 2.0), (-1.0, 3.0)])
        fitness = sphere_fitness
        if case == "all":
            options["pairing"] = "all"
        elif case == "top-n":
            options["selection"] = DiversityEnhanced(d0=0.0)
        elif case == "labels":
            spec = GeneSpec.categorical(
                ("a,b", 'say "hi"', "two\nlines", "p"), 3)
            options["selection"] = DiversityEnhanced(d0=1.0, r0=0.5)

            def fitness(genes):
                return float(list(genes).count("p"))
        elif case == "threshold":
            options["fitness_threshold"] = -0.05
        if case == "aborted":
            calls = []

            def fitness(genes):
                calls.append(1)
                if len(calls) == 6 + 6 * 4 + 3:
                    raise ValueError("a child of generation 5")
                return sphere_fitness(genes)

            with pytest.raises(FitnessEvaluationError) as excinfo:
                run(spec, fitness, quiet(**options))
            record = excinfo.value.partial_record
            assert len(record.populations) == 5
        else:
            record = run(spec, fitness, quiet(**options))
        if case == "threshold":
            assert record.termination == "threshold_reached"
            assert len(record.populations) < 9
        cell = ("%.17g".__mod__ if spec.is_numeric
                else divga.engine._csv_text)
        gene_names = [f"g{k + 1}" for k in range(spec.number_of_genes)]
        survivors = [",".join(["generation", "index", "fitness"]
                              + gene_names)]
        totals = ["generation,evaluations,mean_fitness,best_fitness"]
        for generation, pop in enumerate(record.populations):
            for index, row in enumerate(pop):
                survivors.append(",".join(
                    [str(generation), str(index), "%.17g" % row.fitness]
                    + [cell(gene) for gene in row.genes.tolist()]))
            totals.append("%d,%d,%.17g,%.17g" % (
                generation, record.evaluations[generation],
                record.mean_fitness[generation],
                record.best_fitness[generation]))
        files = record.output_files
        assert files["survivors"].read_text(encoding="utf-8") == \
            "".join(line + "\n" for line in survivors)
        assert files["fitness"].read_text(encoding="utf-8") == \
            "".join(line + "\n" for line in totals)

    def test_same_directory_twice_keeps_both_runs(self, numeric_spec, tmp_path):
        self.run_with_output(numeric_spec, tmp_path, seed=1)
        self.run_with_output(numeric_spec, tmp_path, seed=2)
        assert len(list(tmp_path.glob("*_survivors.csv"))) == 2

    def test_verbosity_zero_is_silent(self, numeric_spec, capsys):
        config = quiet(population_size=4, n_generations=2, seed=0)
        run(numeric_spec, sphere_fitness, config)
        assert capsys.readouterr().out == ""

    def test_verbosity_two_lists_survivors(self, numeric_spec, capsys):
        config = EngineConfig(population_size=4, n_generations=1, seed=0,
                              verbosity=2)
        run(numeric_spec, sphere_fitness, config)
        out = capsys.readouterr().out
        assert "survivor 0:" in out
        assert "working=" in out
