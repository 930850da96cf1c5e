"""Pairing, crossover and mutation operators."""

import re

import numpy as np
import pytest

from divga import (
    ConfigError,
    GeneSpec,
    MutationConfig,
    crossover,
    make_pairs,
    mutate,
    produce_offspring,
    seed_population,
)
from divga.variation import MUTATION_MODES, resolve_mutation


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
        with pytest.raises(ConfigError,
                           match="n must be an integer of at least 2, not 1"):
            make_pairs(1, "all", rng)

    def test_unknown_strategy(self, rng):
        with pytest.raises(ConfigError):
            make_pairs(3, "ring", rng)

    @pytest.mark.parametrize("strategy", ["all", "random"])
    @pytest.mark.parametrize("n", [2.5, 3.0, "3", True, None])
    def test_n_not_an_integer(self, n, strategy):
        """Checked before any draw, whatever the strategy."""
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigError, match=re.escape(
                f"n must be an integer of at least 2, not {n!r}")):
            make_pairs(n, strategy, rng)
        assert rng.random() == np.random.default_rng(0).random()

    def test_numpy_integer_n_accepted(self, rng):
        np.testing.assert_array_equal(make_pairs(np.int64(4), "all", rng),
                                      make_pairs(4, "all", rng))
        assert make_pairs(np.int32(5), "random", rng).shape == (5, 2)


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

    @pytest.mark.parametrize("method", ["midpoint", "eitheror", "between",
                                        "none"])
    def test_float32_parents_keep_their_dtype(self, method, rng):
        a = np.zeros((4, 2), dtype=np.float32)
        b = np.ones((4, 2), dtype=np.float32)
        assert crossover(a, b, method, rng).dtype == np.float32

    def test_between_float64_draw_unchanged(self):
        """Cast back to float64, a draw keeps its bytes."""
        a, b = np.zeros((4, 2)), np.ones((4, 2))
        draw = np.random.default_rng(5).uniform(a, b)
        children = crossover(a, b, "between", np.random.default_rng(5))
        assert children.tobytes() == draw.tobytes()

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
            with pytest.raises(ConfigError, match=f"{method} crossover is "
                               "undefined for categorical genomes"):
                produce_offspring(genes, spec, method, "random", mutation,
                                  rng)

    def test_unknown_method(self, rng):
        a, b = numeric_parents()
        with pytest.raises(ConfigError,
                           match="unknown crossover method 'uniform'"):
            crossover(a, b, "uniform", rng)

    @pytest.mark.parametrize("method", ["midpoint", "eitheror", "between",
                                        "none"])
    @pytest.mark.parametrize("shape_b", [(1, 3), (3, 3), (2, 4)])
    def test_parents_of_other_shapes(self, method, shape_b, rng):
        """(1, 3) used to broadcast into two children, (3, 3) to raise a
        bare numpy ValueError."""
        with pytest.raises(ConfigError, match=r"parents of shapes \(2, 3\) "
                           rf"and \({shape_b[0]}, {shape_b[1]}\)"):
            crossover(np.zeros((2, 3)), np.ones(shape_b), method, rng)

    @pytest.mark.parametrize("method", ["midpoint", "none"])
    def test_parents_not_matrices(self, method, rng):
        with pytest.raises(ConfigError, match="not two gene matrices"):
            crossover(np.zeros(3), np.ones(3), method, rng)

    @pytest.mark.parametrize("method", ["midpoint", "eitheror", "between",
                                        "none"])
    def test_nested_lists_read_as_arrays(self, method):
        """Lists used to raise a bare AttributeError ('list' object has
        no attribute 'ndim')."""
        a, b = [[0.0, 1.0], [2.0, 3.0]], [[1.0, 2.0], [0.0, 5.0]]
        lists, arrays = np.random.default_rng(4), np.random.default_rng(4)
        np.testing.assert_array_equal(
            crossover(a, b, method, lists),
            crossover(np.array(a), np.array(b), method, arrays))
        assert lists.random() == arrays.random()


class TestResolveMutation:
    def test_defaults(self):
        spec = GeneSpec.numeric([(-1, 1)] * 5)
        cfg = resolve_mutation(None, spec)
        assert cfg.rate == pytest.approx(0.2)
        assert cfg.mode == "additive"
        assert cfg.clip_to_ranges is False

    def test_categorical_default_mode(self):
        """A categorical genome takes no mode; its rate still resolves."""
        spec = GeneSpec.categorical("EK", 4)
        cfg = resolve_mutation(MutationConfig(), spec)
        assert cfg.mode is None
        assert cfg.rate == pytest.approx(0.25)

    def test_numeric_modes_only(self):
        assert MUTATION_MODES == ("additive", "multiplicative", "random")

    def test_rate_out_of_range(self):
        spec = GeneSpec.numeric([(-1, 1)])
        with pytest.raises(ConfigError):
            resolve_mutation(MutationConfig(rate=1.5), spec)

    def test_kind_mode_mismatch(self):
        """Every mode is a numeric one: "categorical" is none of them,
        and a categorical genome given a mode is rejected."""
        categorical = GeneSpec.categorical("EK", 2)
        with pytest.raises(ConfigError,
                           match="unknown mutation mode 'categorical'"):
            MutationConfig(mode="categorical")
        for mode in MUTATION_MODES:
            with pytest.raises(ConfigError, match="categorical genomes take "
                               f"no mutation mode, not '{mode}'"):
                resolve_mutation(MutationConfig(mode=mode), categorical)


class TestMutate:
    def test_rate_zero_is_identity(self, rng):
        spec = GeneSpec.numeric([(0, 10)] * 3)
        cfg = resolve_mutation(MutationConfig(rate=0.0), spec)
        genes = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        np.testing.assert_array_equal(mutate(genes, spec, cfg, rng), genes)

    def test_unresolved_config_resolved_against_spec(self):
        """None and an unresolved MutationConfig mean the kind defaults."""
        spec = GeneSpec.numeric([(0.0, 10.0)] * 4)
        genes = np.full((50, 4), 5.0)
        resolved = resolve_mutation(None, spec)
        expected = mutate(genes, spec, resolved, np.random.default_rng(3))
        for config in (None, MutationConfig()):
            np.testing.assert_array_equal(
                mutate(genes, spec, config, np.random.default_rng(3)),
                expected)
        with pytest.raises(ConfigError, match="mutation rate 2.0"):
            mutate(genes, spec, MutationConfig(rate=2.0),
                   np.random.default_rng(3))

    def test_additive_noise_scale(self, rng):
        """Range width 10 gives sigma 1; check sample mean and std."""
        spec = GeneSpec.numeric([(0.0, 10.0)])
        cfg = resolve_mutation(MutationConfig(rate=1.0, mode="additive"), spec)
        draws = mutate(np.full((10_000, 1), 5.0), spec, cfg, rng)[:, 0]
        assert abs(draws.mean() - 5.0) < 0.05
        assert 0.9 < draws.std() < 1.1

    def test_multiplicative_scale(self, rng):
        spec = GeneSpec.numeric([(0.0, 10.0)])
        cfg = resolve_mutation(
            MutationConfig(rate=1.0, mode="multiplicative"), spec)
        draws = mutate(np.full((10_000, 1), 4.0), spec, cfg, rng)[:, 0]
        # 4 * N(1, 0.5) has mean 4 and standard deviation 2
        assert abs(draws.mean() - 4.0) < 0.1
        assert 1.9 < draws.std() < 2.1

    def test_random_mode_mixes_both(self, rng):
        spec = GeneSpec.numeric([(0.0, 10.0)])
        cfg = resolve_mutation(MutationConfig(rate=1.0, mode="random"), spec)
        draws = mutate(np.full((10_000, 1), 4.0), spec, cfg, rng)[:, 0]
        assert abs(draws.mean() - 4.0) < 0.1
        # variance is the average of the additive and multiplicative cases
        expected_std = np.sqrt((1.0 + 4.0) / 2)
        assert abs(draws.std() - expected_std) < 0.1

    def test_categorical_redraws_from_full_set(self, rng):
        """A mutated gene can land on its current label."""
        spec = GeneSpec.categorical(("E", "K"), 1)
        cfg = resolve_mutation(MutationConfig(rate=1.0), spec)
        start = spec.encode([["E"]] * 10_000)
        labels = spec.decode(mutate(start, spec, cfg, rng))[:, 0].tolist()
        fraction_k = labels.count("K") / len(labels)
        assert 0.47 < fraction_k < 0.53

    def test_not_clipped_by_default(self, rng):
        spec = GeneSpec.numeric([(0.0, 1.0)])
        cfg = resolve_mutation(MutationConfig(rate=1.0, mode="additive"), spec)
        assert (mutate(np.full((200, 1), 0.99), spec, cfg, rng) > 1.0).any()

    def test_clip_to_ranges(self, rng):
        spec = GeneSpec.numeric([(0.0, 1.0)])
        cfg = resolve_mutation(
            MutationConfig(rate=1.0, mode="additive", clip_to_ranges=True), spec)
        out = mutate(np.full((200, 1), 0.99), spec, cfg, rng)
        assert ((0.0 <= out) & (out <= 1.0)).all()

    @pytest.mark.parametrize("mode", ["additive", "multiplicative", "random"])
    def test_documented_draw_order(self, mode):
        """mutate equals, bit for bit, a gene-by-gene loop that draws
        from the same seeded generator in the documented order: which
        genes fire, for "random" mode which are additive, then one
        normal per fired additive gene, then one per fired
        multiplicative gene, each in row-major order. Both leave the
        generator at the same point."""
        spec = GeneSpec.numeric([(0.0, 1.0), (-5.0, 5.0), (2.0, 3.0)])
        genes = seed_population(spec, 8, np.random.default_rng(1))
        config = MutationConfig(rate=0.5, mode=mode)
        stream = np.random.default_rng(11)
        got = mutate(genes, spec, config, stream)

        rng = np.random.default_rng(11)
        fires = rng.random(genes.shape) < 0.5
        if mode == "random":
            additive = rng.random(genes.shape) < 0.5
        else:
            additive = np.full(genes.shape, mode == "additive")
        expected = genes.copy()
        cells = list(np.ndindex(genes.shape))
        for i, k in cells:
            if fires[i, k] and additive[i, k]:
                width = spec.numeric_ranges[k][1] - spec.numeric_ranges[k][0]
                expected[i, k] += rng.normal(0.0, width / 10.0)
        for i, k in cells:
            if fires[i, k] and not additive[i, k]:
                expected[i, k] *= rng.normal(1.0, 0.5)
        assert 0 < fires.sum() < fires.size
        np.testing.assert_array_equal(got, expected)
        assert stream.random() == rng.random()

    @pytest.mark.parametrize("spec", [
        GeneSpec.numeric([(0.0, 1.0)] * 3), GeneSpec.categorical("EK", 3)],
        ids=["numeric", "categorical"])
    @pytest.mark.parametrize("shape", [(2, 4), (2, 2), (3,), (1, 2, 3)])
    def test_gene_width_checked(self, spec, shape):
        """4 numeric columns used to raise a bare numpy ValueError, 4
        code columns to pass and return a (2, 4) matrix."""
        genes = np.zeros(shape, dtype=spec.gene_dtype)
        with pytest.raises(ConfigError, match="are not rows of 3 genes"):
            mutate(genes, spec, None, np.random.default_rng(0))

    @pytest.mark.parametrize("spec, genes", [
        (GeneSpec.numeric([(0, 1), (0, 2)]), [[0.0, 1.0], [0.5, 1.5]]),
        (GeneSpec.categorical("EK", 2), [[0, 1], [1, 1]]),
    ], ids=["numeric", "categorical"])
    def test_nested_lists_read_as_arrays(self, spec, genes):
        """Lists used to raise a bare AttributeError ('list' object has
        no attribute 'ndim')."""
        config = MutationConfig(rate=0.5)
        lists, arrays = np.random.default_rng(4), np.random.default_rng(4)
        np.testing.assert_array_equal(
            mutate(genes, spec, config, lists),
            mutate(np.array(genes), spec, config, arrays))
        assert lists.random() == arrays.random()

    @pytest.mark.parametrize("genes", [
        np.zeros((2, 4)), np.full((2, 4), 9), np.full((2, 4), -1),
        np.array([[0, 1, 1, 0], [1, 0, 2, 1]], dtype=np.int8)],
        ids=["float", "code-9", "code-minus-1", "one-code-too-large"])
    def test_categorical_codes_checked(self, genes):
        """A float matrix used to be mutated and returned as floats, and
        a code of 9 on two labels to fail later in decode with a bare
        IndexError. Checked before any draw."""
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigError, match=re.escape(
                "must be integer codes in [0, 2)")):
            mutate(genes, GeneSpec.categorical("EK", 4), None, rng)
        assert rng.random() == np.random.default_rng(0).random()

    @pytest.mark.parametrize("mode", ["additive", "multiplicative",
                                      "random"])
    @pytest.mark.parametrize("genes", [np.array([[0, 1]]), [[0, 1]]],
                             ids=["array", "list"])
    def test_numeric_genes_must_be_floating_point(self, genes, mode):
        """Integer genes used to raise a bare numpy UFuncTypeError, even
        at rate 0. Checked before any draw."""
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigError, match="genes of a numeric genome "
                           "must be floating point, not int"):
            mutate(genes, GeneSpec.numeric([(0, 1), (0, 2)]),
                   MutationConfig(rate=0.0, mode=mode), rng)
        assert rng.random() == np.random.default_rng(0).random()

    @pytest.mark.parametrize("mode", ["additive", "multiplicative",
                                      "random"])
    def test_float32_genes_keep_their_dtype(self, mode):
        spec = GeneSpec.numeric([(0, 1), (0, 2)])
        config = MutationConfig(rate=1.0, mode=mode, clip_to_ranges=True)
        genes = np.full((3, 2), 0.5, dtype=np.float32)
        out = mutate(genes, spec, config, np.random.default_rng(0))
        assert out.dtype == np.float32
        assert (out != 0.5).any()

    def test_partial_rate_leaves_some_genes(self, rng):
        spec = GeneSpec.numeric([(0.0, 10.0)] * 50)
        cfg = resolve_mutation(MutationConfig(rate=0.1, mode="additive"), spec)
        out = mutate(np.full((500, 50), 5.0), spec, cfg, rng)
        changed = (out != 5.0).sum(axis=1)
        # mean changed genes near 50 * 0.1 = 5
        assert 4.0 < changed.mean() < 6.0


class TestProduceOffspring:
    def test_counts_by_mode(self, rng, numeric_spec):
        pop = seed_population(numeric_spec, 10, rng)
        mutation = resolve_mutation(None, numeric_spec)
        spec = numeric_spec
        none = produce_offspring(pop, spec, "none", "random", mutation, rng)
        random_pairs = produce_offspring(pop, spec, "between", "random",
                                         mutation, rng)
        all_pairs = produce_offspring(pop, spec, "between", "all", mutation,
                                      rng)
        assert none.shape == (10, 3)
        assert random_pairs.shape == (10, 3)
        assert all_pairs.shape == (45, 3)

    @pytest.mark.parametrize("method", ["midpoint", "eitheror", "between",
                                        "none"])
    def test_float32_parents_give_float32_children(self, method, rng,
                                                   numeric_spec):
        genes = seed_population(numeric_spec, 6, rng).astype(np.float32)
        children = produce_offspring(genes, numeric_spec, method, "random",
                                     None, rng)
        assert children.dtype == np.float32

    def test_offspring_unevaluated(self, rng, numeric_spec, cat_spec):
        """Children are bare gene rows of the parents' kind."""
        for spec, method in ((numeric_spec, "midpoint"), (cat_spec, "eitheror")):
            pop = seed_population(spec, 6, rng)
            mutation = resolve_mutation(None, spec)
            children = produce_offspring(pop, spec, method, "random", mutation,
                                         rng)
            assert children.dtype == pop.dtype
            assert children.shape == pop.shape

    def test_parents_untouched(self, rng, numeric_spec):
        pop = seed_population(numeric_spec, 6, rng)
        before = pop.copy()
        mutation = resolve_mutation(MutationConfig(rate=1.0), numeric_spec)
        for method in ("between", "none"):
            produce_offspring(pop, numeric_spec, method, "random", mutation,
                              rng)
        np.testing.assert_array_equal(pop, before)

    def test_unknown_method(self, rng, numeric_spec):
        pop = seed_population(numeric_spec, 4, rng)
        mutation = resolve_mutation(None, numeric_spec)
        with pytest.raises(ConfigError,
                           match="unknown crossover method 'blend'"):
            produce_offspring(pop, numeric_spec, "blend", "random", mutation,
                              rng)


RNG_USERS = {
    "seed_population": lambda spec, genes, rng: seed_population(spec, 4, rng),
    "make_pairs": lambda spec, genes, rng: make_pairs(4, "all", rng),
    "crossover": lambda spec, genes, rng: crossover(genes, genes, "none", rng),
    "mutate": lambda spec, genes, rng: mutate(genes, spec, None, rng),
    "produce_offspring": lambda spec, genes, rng: produce_offspring(
        genes, spec, "midpoint", "all", None, rng),
}


@pytest.mark.parametrize("name", sorted(RNG_USERS))
@pytest.mark.parametrize("rng", [0, None, np.random.RandomState(0)],
                         ids=["int", "None", "RandomState"])
def test_rng_is_a_generator(name, rng, numeric_spec):
    """Every public function that takes an rng rejects anything but a
    numpy.random.Generator with a ConfigError, also where its arguments
    would draw nothing from it."""
    genes = np.zeros((4, numeric_spec.number_of_genes))
    with pytest.raises(ConfigError,
                       match="rng must be a numpy.random.Generator"):
        RNG_USERS[name](numeric_spec, genes, rng)
