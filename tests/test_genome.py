"""Genome specification, codes and labels, and population seeding."""

import dataclasses

import numpy as np
import pytest

from divga import (
    ConfigError,
    GeneSpec,
    MutationConfig,
    mutate,
    produce_offspring,
    seed_population,
)


class TestGeneSpec:
    def test_numeric_spec(self):
        spec = GeneSpec.numeric([(-1, 1), (0, 10)])
        assert spec.is_numeric
        assert spec.number_of_genes == 2
        assert spec.numeric_ranges == ((-1.0, 1.0), (0.0, 10.0))

    def test_categorical_spec(self):
        spec = GeneSpec.categorical("EK", 5)
        assert not spec.is_numeric
        assert spec.categories == ("E", "K")
        assert spec.number_of_genes == 5

    def test_numpy_integer_length_accepted(self, rng):
        spec = GeneSpec.categorical("EK", np.int64(5))
        assert spec.number_of_genes == 5
        assert seed_population(spec, 3, rng).shape == (3, 5)

    def test_empty_range_rejected(self):
        with pytest.raises(ConfigError, match="empty gene range"):
            GeneSpec.numeric([(-1, 1), (2, 2)])
        with pytest.raises(ConfigError, match="empty gene range"):
            GeneSpec.numeric([(5, 3)])

    @pytest.mark.parametrize("bounds", [(-np.inf, np.inf), (0.0, np.inf),
                                        (-np.inf, 0.0), (np.nan, 1.0)],
                             ids=["both", "upper", "lower", "nan"])
    def test_non_finite_range_rejected(self, bounds):
        with pytest.raises(ConfigError, match="is not finite"):
            GeneSpec.numeric([bounds, (0, 1)])

    def test_zero_genes_rejected(self):
        with pytest.raises(ConfigError,
                           match="genome must have at least one gene"):
            GeneSpec.numeric([])
        with pytest.raises(ConfigError,
                           match="genome must have at least one gene"):
            GeneSpec.categorical("EK", 0)

    def test_too_few_categories(self):
        with pytest.raises(ConfigError, match="at least two distinct labels"):
            GeneSpec.categorical(["E"], 5)
        # duplicates do not count as distinct labels
        with pytest.raises(ConfigError, match="at least two distinct labels"):
            GeneSpec.categorical(["E", "E"], 5)

    def test_mixed_kinds_rejected(self):
        with pytest.raises(ConfigError, match="a genome needs exactly one "
                           "of numeric_ranges and categories"):
            GeneSpec(numeric_ranges=((0.0, 1.0),), categories=("E", "K"),
                     number_of_genes=1)

    def test_raw_form_states_the_kind_by_its_field(self):
        """The raw constructor builds the spec the named one does, its
        kind given by the field it is given."""
        numeric = GeneSpec(numeric_ranges=((0.0, 1.0), (2.0, 3.0)),
                           number_of_genes=2)
        categorical = GeneSpec(categories=("E", "K"), number_of_genes=4)
        assert numeric == GeneSpec.numeric([(0, 1), (2, 3)])
        assert categorical == GeneSpec.categorical("EK", 4)
        assert numeric.is_numeric and not categorical.is_numeric
        assert [f.name for f in dataclasses.fields(GeneSpec)] == [
            "numeric_ranges", "categories", "number_of_genes"]

    def test_raw_form_normalized_as_the_named_one(self):
        """Lists, integer bounds and repeated labels given to the raw
        constructor are stored as the named constructors store them, so
        the spec hashes (a list field used to make hash raise TypeError)
        and equals the named one."""
        numeric = GeneSpec(numeric_ranges=[(0, 1), [2, 3]], number_of_genes=2)
        categorical = GeneSpec(categories=["E", "K", "E"], number_of_genes=4)
        assert numeric.numeric_ranges == ((0.0, 1.0), (2.0, 3.0))
        assert all(type(x) is float for pair in numeric.numeric_ranges
                   for x in pair)
        assert categorical.categories == ("E", "K")
        assert {numeric, categorical} == {GeneSpec.numeric([(0, 1), (2, 3)]),
                                          GeneSpec.categorical("EK", 4)}
        generated = GeneSpec.numeric((k, k + 1) for k in range(3))
        assert generated.numeric_ranges == ((0.0, 1.0), (1.0, 2.0), (2.0, 3.0))

    def test_range_widths(self):
        spec = GeneSpec.numeric([(0, 10), (-2, 2)])
        np.testing.assert_array_equal(spec.range_widths(), [10.0, 4.0])


class TestEncodeDecode:
    def test_labels_round_trip_through_codes(self, cat_spec):
        rows = [list("EKEKEKEK"), list("KKKKEEEE")]
        codes = cat_spec.encode(rows)
        assert codes.dtype.kind == "i"
        assert codes[0].tolist() == [0, 1] * 4
        decoded = cat_spec.decode(codes)
        assert decoded.dtype == object
        assert decoded.tolist() == rows

    def test_numeric_is_unchanged(self, numeric_spec):
        genes = numeric_spec.encode([[0.1, 0.2, 0.3]])
        assert genes.dtype == float
        assert numeric_spec.decode(genes) is genes

    def test_repeated_labels_get_one_code(self):
        spec = GeneSpec.categorical(["E", "K", "E"], 3)
        assert spec.categories == ("E", "K")


class TestRandomIndividual:
    """The randomly drawn rows of seed_population."""

    def test_numeric_within_ranges(self, rng):
        spec = GeneSpec.numeric([(-3, -1), (5, 6)])
        genes = seed_population(spec, 1000, rng)
        assert ((-3 <= genes[:, 0]) & (genes[:, 0] <= -1)).all()
        assert ((5 <= genes[:, 1]) & (genes[:, 1] <= 6)).all()

    def test_numeric_mean_matches_uniform(self, rng):
        """10^4 draws on (-10, 10): sample mean within 5 sigma of 0."""
        spec = GeneSpec.numeric([(-10, 10)])
        draws = seed_population(spec, 10_000, rng)[:, 0]
        sigma_of_mean = (20 / np.sqrt(12)) / 100
        assert abs(draws.mean()) < 5 * sigma_of_mean

    def test_categorical_uniform(self, rng):
        spec = GeneSpec.categorical(("E", "K"), 10)
        labels = spec.decode(seed_population(spec, 1000, rng))
        assert labels.dtype == object
        fraction_e = (labels == "E").mean()
        assert 0.47 < fraction_e < 0.53

    def test_reproducible(self):
        spec = GeneSpec.numeric([(-1, 1)] * 4)
        a = seed_population(spec, 3, np.random.default_rng(7))
        b = seed_population(spec, 3, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)


class TestSeedPopulation:
    def test_size_and_generation(self, numeric_spec, cat_spec, rng):
        pop = seed_population(numeric_spec, 12, rng)
        assert pop.shape == (12, 3)
        assert pop.dtype == float
        codes = seed_population(cat_spec, 12, rng)
        assert codes.shape == (12, 8)
        assert codes.dtype.kind == "i"
        assert set(codes.ravel().tolist()) <= {0, 1}

    def test_init_genes_used_first(self, numeric_spec, rng):
        fixed = [[0.1, 0.2, 0.3], [-0.5, 0.0, 0.5]]
        pop = seed_population(numeric_spec, 5, rng, init_genes=fixed)
        np.testing.assert_allclose(pop[:2], fixed)
        assert len(pop) == 5

    def test_init_genes_wrong_length(self, numeric_spec, cat_spec, rng):
        with pytest.raises(ConfigError, match="not a vector of 3 genes"):
            seed_population(numeric_spec, 3, rng, init_genes=[[0.1, 0.2]])
        with pytest.raises(ConfigError, match="not a vector of 8 genes"):
            seed_population(cat_spec, 3, rng, init_genes=[["E"] * 7])

    def test_init_genes_unknown_label(self, cat_spec, rng):
        bad = [["E"] * 7 + ["X"]]
        with pytest.raises(ConfigError, match="not a vector of 8 genes"):
            seed_population(cat_spec, 3, rng, init_genes=bad)

    @pytest.mark.parametrize("size", [0, -3])
    def test_size_below_one(self, numeric_spec, rng, size):
        with pytest.raises(ConfigError,
                           match="population size must be positive"):
            seed_population(numeric_spec, size, rng)

    @pytest.mark.parametrize("size", [2.5, True])
    def test_size_not_an_integer(self, numeric_spec, rng, size):
        with pytest.raises(ConfigError, match="size must be an integer"):
            seed_population(numeric_spec, size, rng)

    def test_extra_init_genes_truncated_with_warning(self, numeric_spec, rng):
        vectors = [[0.0, 0.0, 0.0], [0.1, 0.1, 0.1], [0.2, 0.2, 0.2]]
        with pytest.warns(UserWarning, match="ignored"):
            pop = seed_population(numeric_spec, 2, rng, init_genes=vectors)
        assert len(pop) == 2
        np.testing.assert_allclose(pop[1], vectors[1])

    def test_categorical_init_genes(self, cat_spec, rng):
        pop = seed_population(cat_spec, 2, rng, init_genes=[["E"] * 8])
        assert cat_spec.decode(pop)[0].tolist() == ["E"] * 8

    def test_gene_matrix_shape(self, numeric_spec, rng):
        pop = seed_population(numeric_spec, 4, rng)
        assert pop.shape == (4, 3)


class TestCodeDtype:
    """Codes use the smallest signed integer type that holds them, from
    every function that makes or changes a code matrix."""

    @pytest.mark.parametrize("n_categories, dtype", [
        (2, np.int8), (128, np.int8), (129, np.int16), (200, np.int16)])
    def test_smallest_signed_type(self, n_categories, dtype, rng):
        spec = GeneSpec.categorical(range(n_categories), 6)
        assert spec.gene_dtype == dtype
        pop = seed_population(spec, 8, rng, init_genes=[[1] * 6])
        rate = MutationConfig(rate=0.5)
        for genes in (spec.encode([[0] * 6]), pop,
                      mutate(pop, spec, rate, rng),
                      produce_offspring(pop, spec, None, "random", rate, rng)):
            assert genes.dtype == dtype

    def test_numeric_genes_are_float(self, numeric_spec):
        assert numeric_spec.gene_dtype == np.float64

    def test_seeding_stream_does_not_depend_on_the_dtype(self):
        """The codes are drawn as intp and then cast."""
        spec = GeneSpec.categorical(range(200), 50)
        codes = seed_population(spec, 40, np.random.default_rng(9))
        drawn = np.random.default_rng(9).integers(0, 200, size=(40, 50),
                                                  dtype=np.intp)
        assert codes.tolist() == drawn.tolist()

    def test_codes_above_int8_decode(self, rng):
        """With 200 categories, mutated codes of 128 and above stay in
        range and decode to their own label."""
        labels = [f"c{k}" for k in range(200)]
        spec = GeneSpec.categorical(labels, 50)
        codes = mutate(seed_population(spec, 40, rng), spec,
                       MutationConfig(rate=1.0), rng)
        assert (codes >= 128).any()
        assert codes.min() >= 0 and codes.max() < 200
        decoded = spec.decode(codes)
        assert decoded.tolist() == [[labels[int(c)] for c in row]
                                    for row in codes]
        assert spec.encode(decoded.tolist()).tolist() == codes.tolist()
