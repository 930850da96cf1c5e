"""Differential evolution and random scan baselines."""

import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divga import (
    ConfigError,
    DEConfig,
    DEResult,
    FitnessEvaluationError,
    GeneSpec,
    random_scan,
    run_de,
    seed_population,
)
from divga.baselines import _pick_donors, _reflect_into

from conftest import exploding_fitness, sphere_fitness, sum_fitness


class TestReflection:
    def test_single_bounce(self):
        out = _reflect_into(((0.0, 1.0),), np.array([1.2]))
        assert out[0] == pytest.approx(0.8)
        out = _reflect_into(((0.0, 1.0),), np.array([-0.3]))
        assert out[0] == pytest.approx(0.3)

    def test_multiple_bounces(self):
        out = _reflect_into(((0.0, 1.0),), np.array([2.5]))
        assert out[0] == pytest.approx(0.5)

    def test_inside_untouched(self):
        out = _reflect_into(((-2.0, 3.0),), np.array([1.25]))
        assert out[0] == pytest.approx(1.25)

    def test_inside_bit_exact(self):
        """In-range genes come back as they are, not as lo + (x - lo)."""
        rng = np.random.default_rng(0)
        genes = rng.uniform(-4.0, 4.0, size=(200, 2)) * np.pi / 4
        np.testing.assert_array_equal(
            _reflect_into(((-5.0, 5.0), (-3.5, 3.5)), genes), genes)


def argsort_donors(n, rng):
    """The donors as first computed: an argsort of the whole (n, n - 1)
    draw matrix, cut to its first three columns."""
    donors = np.argsort(rng.random((n, n - 1)), axis=1)[:, :3]
    return donors + (donors >= np.arange(n)[:, None])


class TiedDraws:
    """A generator stub whose uniform matrix has tied minima."""

    rows = [[0.5, 0.5, 0.5, 0.5],
            [0.3, 0.3, 0.7, 0.3],
            [0.9, 0.1, 0.2, 0.1],
            [0.0, 0.0, 0.0, 0.0],
            [0.6, 0.6, 0.4, 0.4]]

    def random(self, shape):
        assert shape == (5, 4)
        return np.array(self.rows)


class TestDonors:
    @settings(max_examples=150)
    @given(st.integers(4, 80), st.integers(0, 2 ** 64 - 1))
    def test_equals_argsort_form(self, n, seed):
        """The three argmin passes pick the argsort's donors and take
        the same draws from the generator."""
        ours, theirs = (np.random.default_rng(seed) for _ in range(2))
        assert _pick_donors(n, ours).tolist() == \
            argsort_donors(n, theirs).tolist()
        assert ours.random() == theirs.random()

    def test_tie_goes_to_lower_index(self):
        """Tied draws are taken from the lowest column up; each column
        is then shifted past the target's own index."""
        assert _pick_donors(5, TiedDraws()).tolist() == [
            [1, 2, 3],
            [0, 2, 4],
            [1, 4, 3],
            [0, 1, 2],
            [2, 3, 0],
        ]

    @pytest.mark.parametrize("n", [4, 5, 50])
    def test_distinct_and_uniform(self, n):
        """Row i draws three distinct donors other than i; every other
        index is donor a with frequency near 1/(n-1)."""
        seeds = 2000
        rows = np.arange(n)[:, None]
        counts = np.zeros((n, n))
        offsets = np.zeros(n)
        for seed in range(seeds):
            donors = _pick_donors(n, np.random.default_rng(seed))
            assert donors.shape == (n, 3)
            assert donors.min() >= 0 and donors.max() < n
            assert np.all(donors != rows)
            assert np.all(np.diff(np.sort(donors, axis=1), axis=1) > 0)
            counts[rows[:, 0], donors[:, 0]] += 1
            offsets += np.bincount((donors[:, 0] - rows[:, 0]) % n,
                                   minlength=n)
        p = 1.0 / (n - 1)
        others = counts[~np.eye(n, dtype=bool)] / seeds
        assert np.all(others > 0)
        assert np.all(np.abs(others - p) < 5 * np.sqrt(p * (1 - p) / seeds))
        pooled = offsets[1:] / (n * seeds)
        assert offsets[0] == 0
        assert np.all(np.abs(pooled - p)
                      < 5 * np.sqrt(p * (1 - p) / (n * seeds)))


class TestRunDE:
    def spec(self):
        return GeneSpec.numeric([(-5.0, 5.0), (-5.0, 5.0)])

    def test_improves_on_sphere(self):
        config = DEConfig(population_size=20, n_generations=40, seed=1)
        result = run_de(self.spec(), sphere_fitness, config)
        assert result.best_fitness[-1] > result.best_fitness[0]
        assert result.best_fitness[-1] > -0.1

    def test_greedy_never_degrades(self):
        config = DEConfig(population_size=10, n_generations=25, seed=3)
        result = run_de(self.spec(), sphere_fitness, config)
        best = result.best_fitness
        assert all(b >= a for a, b in zip(best, best[1:]))

    def test_trials_respect_bounds(self):
        spec = GeneSpec.numeric([(-1.0, 1.0)] * 3)
        config = DEConfig(population_size=8, n_generations=30, seed=5)
        result = run_de(spec, sum_fitness, config)
        # maximizing the sum pushes everything to the upper corner,
        # which is only reachable if reflection kept trials in range
        assert np.all(result.genes >= -1.0)
        assert np.all(result.genes <= 1.0)
        assert result.best_fitness[-1] <= 3.0

    def test_evaluation_budget(self):
        config = DEConfig(population_size=12, n_generations=7, seed=0)
        result = run_de(self.spec(), sphere_fitness, config)
        assert result.total_evaluations == 12 * 8
        assert result.evaluations == [12 * (g + 1) for g in range(8)]

    def test_reproducible(self):
        config = DEConfig(population_size=10, n_generations=10, seed=9)
        a = run_de(self.spec(), sphere_fitness, config)
        b = run_de(self.spec(), sphere_fitness, config)
        np.testing.assert_array_equal(a.genes, b.genes)
        np.testing.assert_array_equal(a.fitness, b.fitness)

    def test_population_too_small(self):
        with pytest.raises(ConfigError,
                           match="needs at least four individuals"):
            run_de(self.spec(), sphere_fitness,
                   DEConfig(population_size=3, n_generations=1))

    def test_categorical_rejected(self):
        spec = GeneSpec.categorical("EK", 4)
        with pytest.raises(ConfigError):
            run_de(spec, sphere_fitness,
                   DEConfig(population_size=8, n_generations=1))

    def test_bad_parameters(self):
        for kwargs in (dict(differential_weight=-0.1),
                       dict(differential_weight=2.0),
                       dict(differential_weight=2.5),
                       dict(crossover_probability=1.5),
                       dict(crossover_probability=-0.2)):
            with pytest.raises(ConfigError):
                run_de(self.spec(), sphere_fitness,
                       DEConfig(population_size=8, n_generations=1, **kwargs))

    def test_run_settings_validated_as_in_run(self):
        """run's n_generations and parallel_workers checks and messages."""
        calls = []

        def counting(genes):
            calls.append(1)
            return 0.0

        for generations in (0, -3):
            with pytest.raises(ConfigError,
                               match="n_generations must be positive"):
                run_de(self.spec(), counting,
                       DEConfig(population_size=8, n_generations=generations,
                                parallel_workers=-2))
        with pytest.raises(ConfigError,
                           match="parallel_workers cannot be negative"):
            run_de(self.spec(), counting,
                   DEConfig(population_size=8, n_generations=1,
                            parallel_workers=-2))
        assert calls == []

    def test_zero_weight_full_crossover_is_greedy_shuffle(self):
        # F=0 with CR=1 makes every trial a copy of some existing vector,
        # so the best fitness can never move and the mean never drops.
        config = DEConfig(population_size=8, n_generations=10,
                          differential_weight=0.0, crossover_probability=1.0,
                          seed=5)
        result = run_de(self.spec(), sphere_fitness, config)
        assert result.best_fitness[-1] == result.best_fitness[0]
        diffs = np.diff(np.asarray(result.mean_fitness))
        assert np.all(diffs >= -1e-12)

    def test_parallel_matches_sequential(self):
        base = DEConfig(population_size=8, n_generations=5, seed=2)
        parallel = DEConfig(population_size=8, n_generations=5, seed=2,
                            parallel_workers=2)
        a = run_de(self.spec(), sphere_fitness, base)
        b = run_de(self.spec(), sphere_fitness, parallel)
        np.testing.assert_array_equal(a.genes, b.genes)

    def test_generation_zero_is_seed_population(self):
        spec = GeneSpec.numeric([(-5.0, 5.0), (0.0, 2.0), (-1.0, 1.0)])
        seen = []

        def recording(genes):
            seen.append(np.array(genes))
            return 0.0

        run_de(spec, recording, DEConfig(population_size=9, n_generations=1,
                                         seed=4))
        np.testing.assert_array_equal(
            np.array(seen[:9]),
            seed_population(spec, 9, np.random.default_rng(4)))

    def test_zero_crossover_changes_at_most_one_gene(self):
        """With CR = 0 only the forced gene comes from the mutant. A
        constant fitness accepts every trial, so the genes after one
        generation are the trials."""
        spec = GeneSpec.numeric([(-5.0, 5.0)] * 6)
        config = DEConfig(population_size=12, n_generations=1,
                          crossover_probability=0.0, seed=8)
        start = seed_population(spec, 12, np.random.default_rng(8))
        result = run_de(spec, lambda genes: 0.0, config)
        changed = (result.genes != start).sum(axis=1)
        assert np.all(changed <= 1)
        assert changed.sum() > 0

    def test_partial_history_on_failure(self):
        calls = []

        def fails_on_call_21(genes):
            calls.append(1)
            if len(calls) == 21:
                raise ValueError("call 21")
            return sphere_fitness(genes)

        config = DEConfig(population_size=10, n_generations=5, seed=1)
        with pytest.raises(FitnessEvaluationError) as excinfo:
            run_de(self.spec(), fails_on_call_21, config)
        assert excinfo.value.index == 0
        partial = excinfo.value.partial_record
        assert isinstance(partial, DEResult)
        assert partial.evaluations == [10, 20]
        assert len(partial.mean_fitness) == len(partial.best_fitness) == 2
        assert partial.genes.shape == (10, 2)
        assert partial.best_fitness[-1] == partial.fitness.max()

    def test_unpicklable_fitness_with_workers(self):
        config = DEConfig(population_size=6, n_generations=1,
                          parallel_workers=2)
        with pytest.raises(ConfigError, match="picklable"):
            run_de(self.spec(), lambda genes: 0.0, config)

    def test_lambda_fitness_without_workers(self):
        config = DEConfig(population_size=6, n_generations=1)
        result = run_de(self.spec(), lambda genes: 1.0, config)
        assert result.mean_fitness == [1.0, 1.0]

    def test_one_pool_per_run(self, started_pools):
        config = DEConfig(population_size=8, n_generations=5, seed=2,
                          parallel_workers=2)
        result = run_de(self.spec(), sphere_fitness, config)
        assert result.evaluations[-1] == 48
        assert len(started_pools) == 1
        assert started_pools[0].shutdowns == [{"cancel_futures": True}]

    def test_no_pool_without_workers(self, started_pools):
        run_de(self.spec(), sphere_fitness,
               DEConfig(population_size=8, n_generations=5, seed=2))
        assert started_pools == []

    def test_pool_shut_down_when_fitness_raises(self, started_pools):
        config = DEConfig(population_size=8, n_generations=5, seed=2,
                          parallel_workers=2)
        with pytest.raises(FitnessEvaluationError) as excinfo:
            run_de(self.spec(), exploding_fitness, config)
        assert isinstance(excinfo.value.partial_record, DEResult)
        assert len(started_pools) == 1
        assert started_pools[0].shutdowns == [{"cancel_futures": True}]

    @pytest.mark.parametrize("field, value", [
        ("population_size", 5.5), ("population_size", True),
        ("n_generations", 2.0), ("parallel_workers", 1.0),
        ("parallel_workers", "2"),
    ])
    def test_integer_settings(self, field, value, started_pools):
        settings = dict(population_size=6, n_generations=1)
        settings[field] = value
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            run_de(self.spec(), sphere_fitness, DEConfig(**settings))
        assert started_pools == []

    def test_numpy_integer_settings(self):
        config = DEConfig(population_size=np.int64(6),
                          n_generations=np.int32(2),
                          parallel_workers=np.uint8(0))
        assert run_de(self.spec(), sphere_fitness, config).evaluations == [
            6, 12, 18]

    def test_mixed_infinities_give_nan_mean(self):
        def fitness(genes):
            return float("inf") if genes[0] > 0 else float("-inf")

        config = DEConfig(population_size=6, n_generations=3, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_de(self.spec(), fitness, config)
        assert np.isnan(result.mean_fitness[0])
        assert result.mean_fitness[-1] == float("inf")


class TestRandomScan:
    def spec(self):
        return GeneSpec.numeric([(-2.0, 2.0), (-2.0, 2.0)])

    def test_trace_shape(self):
        trace = random_scan(self.spec(), sphere_fitness, 300, 40,
                            np.random.default_rng(0))
        assert len(trace.kept_mean) == 300
        assert len(trace.kept_genes) == 40
        assert len(trace.kept_fitness) == 40
        np.testing.assert_array_equal(trace.evaluations, np.arange(1, 301))

    @pytest.mark.parametrize("total, keep", [(10, 3.5), (10.5, 3),
                                             (True, 1), (10, True)])
    def test_counts_not_integers(self, total, keep):
        calls = []
        with pytest.raises(ConfigError, match="must be an integer"):
            random_scan(self.spec(), lambda genes: calls.append(1) or 0.0,
                        total, keep, np.random.default_rng(0))
        assert calls == []

    def test_rng_is_a_generator(self):
        calls = []
        with pytest.raises(ConfigError,
                           match="rng must be a numpy.random.Generator"):
            random_scan(self.spec(), lambda genes: calls.append(1) or 0.0,
                        10, 3, 0)
        assert calls == []

    def test_constant_fitness_gives_flat_trace(self):
        trace = random_scan(self.spec(), lambda genes: 4.5, 50, 10,
                            np.random.default_rng(3))
        np.testing.assert_array_equal(trace.kept_mean, np.full(50, 4.5))

    def test_kept_set_is_true_top_k(self):
        """Recompute the same draws and check against a full sort."""
        rng = np.random.default_rng(77)
        trace = random_scan(self.spec(), sphere_fitness, 200, 25, rng)
        replay = np.random.default_rng(77)
        lows, highs = np.array([-2.0, -2.0]), np.array([2.0, 2.0])
        values = [sphere_fitness(replay.uniform(lows, highs))
                  for _ in range(200)]
        expected = sorted(values, reverse=True)[:25]
        np.testing.assert_allclose(sorted(trace.kept_fitness, reverse=True),
                                   expected, rtol=1e-12)

    def test_final_mean_matches_kept_set(self):
        trace = random_scan(self.spec(), sphere_fitness, 150, 30,
                            np.random.default_rng(3))
        assert trace.final_mean == pytest.approx(trace.kept_fitness.mean())

    def test_kept_mean_non_decreasing_once_full(self):
        """After the kept set reaches capacity, a new point can only
        displace a worse one, so the mean cannot drop. During the fill
        phase every draw joins the set and the mean may move either way.
        """
        keep = 50
        trace = random_scan(self.spec(), sphere_fitness, 500, keep,
                            np.random.default_rng(5))
        assert np.all(np.diff(trace.kept_mean[keep - 1:]) >= -1e-9)

    def test_keep_all_equals_running_average(self):
        trace = random_scan(self.spec(), sphere_fitness, 50, 50,
                            np.random.default_rng(1))
        assert trace.final_mean == pytest.approx(trace.kept_fitness.mean())
        assert len(trace.kept_fitness) == 50

    def scan_of(self, values, keep):
        """random_scan whose i-th evaluation returns values[i]."""
        draws = iter(values)
        return random_scan(GeneSpec.numeric([(0.0, 1.0)]),
                           lambda genes: next(draws), len(values), keep,
                           np.random.default_rng(0))

    def test_infinity_leaving_kept_set(self):
        """Once the -inf points are displaced the mean is finite again,
        and huge finite values do not overflow it."""
        fitness = lambda genes: -math.inf if genes[0] < 0.3 else genes[0]
        trace = random_scan(GeneSpec.numeric([(0, 1)]), fitness, 40, 3,
                            np.random.default_rng(0))
        assert trace.final_mean == pytest.approx(trace.kept_fitness.mean())
        assert math.isfinite(trace.final_mean)
        trace = self.scan_of([1e308] * 10, 3)
        assert trace.final_mean == 1e308

    def test_huge_value_leaving_kept_set(self):
        """A value that dwarfs the rest of the kept set leaves it without
        cancelling their digits: the mean is that of the values kept."""
        trace = self.scan_of([-1e300, 1.0, 2.0], 2)
        assert trace.kept_mean.tolist() == [-1e300, -5e299, 1.5]
        assert trace.final_mean == 1.5
        trace = self.scan_of([-1e20, -1e20, 0.1, 0.2], 2)
        assert trace.final_mean == (0.1 + 0.2) / 2

    def test_draw_below_kept_minimum_keeps_the_mean(self):
        """A -inf draw that does not enter the kept set leaves the mean
        bit for bit where it was."""
        trace = self.scan_of([0.1, 0.2, 0.3, -math.inf], 3)
        mean = (0.1 + 0.2 + 0.3) / 3
        assert trace.kept_mean.tolist() == [0.1, (0.1 + 0.2) / 2, mean, mean]

    def test_kept_mean_never_decreases_past_infinite_draws(self):
        """Seeded scans of seven uniform draws, one -inf and two
        negatives, shuffled: once the kept set is full its mean never
        decreases, exactly."""
        keep = 5
        for seed in range(300):
            rng = np.random.default_rng(seed)
            values = [*rng.random(7), -math.inf, *-rng.random(2)]
            trace = self.scan_of(list(rng.permutation(values)), keep)
            assert np.all(np.diff(trace.kept_mean[keep - 1:]) >= 0), seed

    def test_kept_genes_is_a_matrix(self):
        trace = random_scan(self.spec(), sphere_fitness, 30, 4,
                            np.random.default_rng(2))
        assert trace.kept_genes.shape == (4, 2)
        np.testing.assert_array_equal(
            [sphere_fitness(row) for row in trace.kept_genes],
            trace.kept_fitness)

    @settings(max_examples=300)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False)
                    | st.sampled_from([math.inf, -math.inf]),
                    min_size=1, max_size=25),
           st.integers(1, 25))
    def test_kept_mean_against_sorting(self, values, keep):
        """kept_mean[e] is the mean of the top min(e + 1, keep) of
        values[:e + 1]: exactly where that is +-inf or NaN, otherwise
        within the rounding of a running sum of values up to M in size,
        (e + 1) (keep + 2) eps M."""
        keep = min(keep, len(values))
        trace = self.scan_of(values, keep)
        for e, got in enumerate(trace.kept_mean.tolist()):
            top = sorted(values[:e + 1], reverse=True)[:keep]
            if math.inf in top or -math.inf in top:
                want = sum(x for x in top if math.isinf(x))
                assert got == want or math.isnan(got) and math.isnan(want)
                continue
            want = float(sum(map(Fraction, top)) / len(top))
            size = max(abs(x) for x in values[:e + 1] if math.isfinite(x))
            bound = (e + 1) * (keep + 2) * sys.float_info.epsilon * size
            assert math.isclose(got, want, rel_tol=1e-12, abs_tol=bound)

    @pytest.mark.parametrize("bad", [float("nan"), "not a number", None])
    def test_bad_fitness_reports_first_bad_draw(self, bad):
        """NaN, a non-number or a raise (None here) fails as in run, at
        the index of the first draw with x > 1."""
        def fitness(genes):
            if genes[0] <= 1.0:
                return 0.0
            if bad is None:
                return 1 / 0
            return bad

        points = np.random.default_rng(7).uniform([-2.0, -2.0], [2.0, 2.0],
                                                  size=(50, 2))
        first = int(np.argmax(points[:, 0] > 1.0))
        assert first > 0
        with pytest.raises(FitnessEvaluationError) as excinfo:
            random_scan(self.spec(), fitness, 50, 5,
                        np.random.default_rng(7))
        assert excinfo.value.index == first

    def test_bad_keep_count(self):
        with pytest.raises(ConfigError):
            random_scan(self.spec(), sphere_fitness, 10, 11,
                        np.random.default_rng(0))


class TestCategoricalScan:
    spec = GeneSpec.categorical("EK", 50)

    @staticmethod
    def k_count(labels):
        return float(np.sum(labels == "K"))

    @staticmethod
    def binary(labels):
        """The row read as a binary fraction, K a 1: distinct rows have
        distinct values, so the kept set has no ties."""
        return float(np.dot(labels == "K", 0.5 ** np.arange(len(labels))))

    def test_kept_rows_are_decoded_draws(self):
        """The scan keeps label rows: spec.decode of the kept rows of
        the same seed_population draw, and the fitness sees labels."""
        seen = []

        def fitness(labels):
            seen.append(labels)
            return self.binary(labels)

        trace = random_scan(self.spec, fitness, 40, 6,
                            np.random.default_rng(5))
        labels = self.spec.decode(
            seed_population(self.spec, 40, np.random.default_rng(5)))
        values = np.array([self.binary(row) for row in labels])
        assert len(set(values.tolist())) == 40
        kept = np.argsort(-values)[:6]
        assert len(seen) == 40
        assert all(row.dtype == object and set(row) <= {"E", "K"}
                   for row in seen)
        assert trace.kept_genes.dtype == object
        np.testing.assert_array_equal(trace.kept_genes, labels[kept])
        np.testing.assert_array_equal(trace.kept_fitness, values[kept])

    def test_failure_reports_the_row(self):
        labels = self.spec.decode(
            seed_population(self.spec, 30, np.random.default_rng(8)))
        counts = (labels == "K").sum(axis=1)
        first = int(np.argmax(counts > np.median(counts)))
        assert first > 0

        def fitness(row):
            if self.k_count(row) > np.median(counts):
                raise ValueError("too many K")
            return 0.0

        with pytest.raises(FitnessEvaluationError) as excinfo:
            random_scan(self.spec, fitness, 30, 5, np.random.default_rng(8))
        assert excinfo.value.index == first
