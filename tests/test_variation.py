"""Pairing, crossover and mutation operators."""

import numpy as np
import pytest

from divga import (
    ConfigError,
    GeneSpec,
    IllegalMethodError,
    MutationConfig,
    PopulationTooSmallError,
    crossover,
    make_pairs,
    mutate,
    produce_offspring,
    seed_population,
)
from divga.variation import resolve_mutation


def numeric_parents(k=1):
    return np.zeros((k, 4)), np.ones((k, 4))


def categorical_mutation(rate=None):
    spec = GeneSpec.categorical(("E", "K"), 2)
    return spec, resolve_mutation(MutationConfig(rate=rate), spec)


class TestMakePairs:
    def test_all_pairs_enumerates_everything(self, rng):
        pairs = make_pairs(10, "all", rng)
        assert pairs.shape == (45, 2)
        assert len(set(map(tuple, pairs.tolist()))) == 45
        assert (pairs[:, 0] < pairs[:, 1]).all()

    def test_random_pairs_distinct_indices(self, rng):
        for _ in range(50):
            pairs = make_pairs(7, "random", rng)
            assert pairs.shape == (7, 2)
            assert (pairs[:, 0] != pairs[:, 1]).all()
            assert ((0 <= pairs) & (pairs < 7)).all()

    def test_too_small(self, rng):
        with pytest.raises(PopulationTooSmallError):
            make_pairs(1, "all", rng)

    def test_unknown_strategy(self, rng):
        with pytest.raises(ConfigError):
            make_pairs(3, "ring", rng)


class TestCrossover:
    def test_midpoint(self, rng):
        a = np.array([[0.0, 2.0], [4.0, -2.0]])
        b = np.array([[1.0, 4.0], [0.0, -2.0]])
        children = crossover(a, b, "midpoint", rng)
        np.testing.assert_allclose(children, [[0.5, 3.0], [2.0, -2.0]])

    def test_between_stays_in_span(self, rng):
        a = np.tile([0.0, -3.0], (500, 1))
        b = np.tile([1.0, 5.0], (500, 1))
        children = crossover(a, b, "between", rng)
        assert ((0.0 <= children[:, 0]) & (children[:, 0] <= 1.0)).all()
        assert ((-3.0 <= children[:, 1]) & (children[:, 1] <= 5.0)).all()

    def test_between_mean_is_center(self, rng):
        """10^4 children of 0 and 1: mean within 5 sigma of 0.5."""
        a, b = numeric_parents(10_000)
        draws = crossover(a, b, "between", rng)[:, 0]
        sigma_of_mean = (1 / np.sqrt(12)) / 100
        assert abs(draws.mean() - 0.5) < 5 * sigma_of_mean

    def test_eitheror_uses_parent_values(self, rng):
        a, b = numeric_parents(200)
        children = crossover(a, b, "eitheror", rng)
        assert np.isin(children, (0.0, 1.0)).all()

    def test_eitheror_per_gene_frequencies(self, rng):
        """Two genes from EE x KK parents (codes 0 and 1): each combo near 1/4."""
        trials = 10_000
        a = np.zeros((trials, 2), dtype=np.intp)
        b = np.ones((trials, 2), dtype=np.intp)
        children = crossover(a, b, "eitheror", rng)
        counts = np.bincount(2 * children[:, 0] + children[:, 1], minlength=4)
        bound = 5 * np.sqrt(0.25 * 0.75 / trials)
        assert (np.abs(counts / trials - 0.25) < bound).all()

    def test_none_copies_first_parent(self, rng):
        a, b = numeric_parents(3)
        children = crossover(a, b, "none", rng)
        np.testing.assert_array_equal(children, a)
        children[0, 0] = 99.0
        assert a[0, 0] == 0.0

    def test_numeric_only_methods_rejected_for_categorical(self, rng):
        spec, mutation = categorical_mutation()
        genes = spec.encode([["E", "E"], ["K", "K"]])
        for method in ("midpoint", "between"):
            with pytest.raises(IllegalMethodError):
                produce_offspring(genes, method, "random", mutation, rng)

    def test_unknown_method(self, rng):
        a, b = numeric_parents()
        with pytest.raises(IllegalMethodError):
            crossover(a, b, "uniform", rng)


class TestResolveMutation:
    def test_defaults(self):
        spec = GeneSpec.numeric([(-1, 1)] * 5)
        cfg = resolve_mutation(None, spec)
        assert cfg.rate == pytest.approx(0.2)
        assert cfg.mode == "additive"
        assert cfg.spec is spec

    def test_categorical_default_mode(self):
        spec = GeneSpec.categorical("EK", 4)
        cfg = resolve_mutation(MutationConfig(), spec)
        assert cfg.mode == "categorical"
        assert cfg.rate == pytest.approx(0.25)

    def test_rate_out_of_range(self):
        spec = GeneSpec.numeric([(-1, 1)])
        with pytest.raises(ConfigError):
            resolve_mutation(MutationConfig(rate=1.5), spec)

    def test_kind_mode_mismatch(self):
        numeric = GeneSpec.numeric([(-1, 1)])
        categorical = GeneSpec.categorical("EK", 2)
        with pytest.raises(ConfigError):
            resolve_mutation(MutationConfig(mode="categorical"), numeric)
        with pytest.raises(ConfigError):
            resolve_mutation(MutationConfig(mode="additive"), categorical)


class TestMutate:
    def test_rate_zero_is_identity(self, rng):
        spec = GeneSpec.numeric([(0, 10)] * 3)
        cfg = resolve_mutation(MutationConfig(rate=0.0), spec)
        genes = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        np.testing.assert_array_equal(mutate(genes, cfg, rng), genes)

    def test_additive_noise_scale(self, rng):
        """Range width 10 gives sigma 1; check sample mean and std."""
        spec = GeneSpec.numeric([(0.0, 10.0)])
        cfg = resolve_mutation(MutationConfig(rate=1.0, mode="additive"), spec)
        draws = mutate(np.full((10_000, 1), 5.0), cfg, rng)[:, 0]
        assert abs(draws.mean() - 5.0) < 0.05
        assert 0.9 < draws.std() < 1.1

    def test_multiplicative_scale(self, rng):
        spec = GeneSpec.numeric([(0.0, 10.0)])
        cfg = resolve_mutation(
            MutationConfig(rate=1.0, mode="multiplicative"), spec)
        draws = mutate(np.full((10_000, 1), 4.0), cfg, rng)[:, 0]
        # 4 * N(1, 0.5) has mean 4 and standard deviation 2
        assert abs(draws.mean() - 4.0) < 0.1
        assert 1.9 < draws.std() < 2.1

    def test_random_mode_mixes_both(self, rng):
        spec = GeneSpec.numeric([(0.0, 10.0)])
        cfg = resolve_mutation(MutationConfig(rate=1.0, mode="random"), spec)
        draws = mutate(np.full((10_000, 1), 4.0), cfg, rng)[:, 0]
        assert abs(draws.mean() - 4.0) < 0.1
        # variance is the average of the additive and multiplicative cases
        expected_std = np.sqrt((1.0 + 4.0) / 2)
        assert abs(draws.std() - expected_std) < 0.1

    def test_categorical_redraws_from_full_set(self, rng):
        """A mutated gene can land on its current label."""
        spec = GeneSpec.categorical(("E", "K"), 1)
        cfg = resolve_mutation(MutationConfig(rate=1.0), spec)
        start = spec.encode([["E"]] * 10_000)
        labels = spec.decode(mutate(start, cfg, rng))[:, 0].tolist()
        fraction_k = labels.count("K") / len(labels)
        assert 0.47 < fraction_k < 0.53

    def test_not_clipped_by_default(self, rng):
        spec = GeneSpec.numeric([(0.0, 1.0)])
        cfg = resolve_mutation(MutationConfig(rate=1.0, mode="additive"), spec)
        assert (mutate(np.full((200, 1), 0.99), cfg, rng) > 1.0).any()

    def test_clip_to_ranges(self, rng):
        spec = GeneSpec.numeric([(0.0, 1.0)])
        cfg = resolve_mutation(
            MutationConfig(rate=1.0, mode="additive", clip_to_ranges=True), spec)
        out = mutate(np.full((200, 1), 0.99), cfg, rng)
        assert ((0.0 <= out) & (out <= 1.0)).all()

    def test_partial_rate_leaves_some_genes(self, rng):
        spec = GeneSpec.numeric([(0.0, 10.0)] * 50)
        cfg = resolve_mutation(MutationConfig(rate=0.1, mode="additive"), spec)
        changed = (mutate(np.full((500, 50), 5.0), cfg, rng) != 5.0).sum(axis=1)
        # mean changed genes near 50 * 0.1 = 5
        assert 4.0 < changed.mean() < 6.0


class TestProduceOffspring:
    def test_counts_by_mode(self, rng, numeric_spec):
        pop = seed_population(numeric_spec, 10, rng)
        mutation = resolve_mutation(None, numeric_spec)
        none = produce_offspring(pop, "none", "random", mutation, rng)
        random_pairs = produce_offspring(pop, "between", "random", mutation, rng)
        all_pairs = produce_offspring(pop, "between", "all", mutation, rng)
        assert none.shape == (10, 3)
        assert random_pairs.shape == (10, 3)
        assert all_pairs.shape == (45, 3)

    def test_offspring_unevaluated(self, rng, numeric_spec, cat_spec):
        """Children are bare gene rows of the parents' kind."""
        for spec, method in ((numeric_spec, "midpoint"), (cat_spec, "eitheror")):
            pop = seed_population(spec, 6, rng)
            mutation = resolve_mutation(None, spec)
            children = produce_offspring(pop, method, "random", mutation, rng)
            assert children.dtype == pop.dtype
            assert children.shape == pop.shape

    def test_parents_untouched(self, rng, numeric_spec):
        pop = seed_population(numeric_spec, 6, rng)
        before = pop.copy()
        mutation = resolve_mutation(MutationConfig(rate=1.0), numeric_spec)
        produce_offspring(pop, "between", "random", mutation, rng)
        produce_offspring(pop, "none", "random", mutation, rng)
        np.testing.assert_array_equal(pop, before)

    def test_unknown_method(self, rng, numeric_spec):
        pop = seed_population(numeric_spec, 4, rng)
        mutation = resolve_mutation(None, numeric_spec)
        with pytest.raises(IllegalMethodError):
            produce_offspring(pop, "blend", "random", mutation, rng)
