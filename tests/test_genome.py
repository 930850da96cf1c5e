"""Genome specification, codes and labels, and population seeding."""

import numpy as np
import pytest

from divga import (
    EmptyRangeError,
    GeneSpec,
    MixedKindsError,
    ShapeMismatchError,
    TooFewCategoriesError,
    ZeroGenesError,
    seed_population,
)
from divga.genome import validate_spec


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

    def test_empty_range_rejected(self):
        with pytest.raises(EmptyRangeError):
            GeneSpec.numeric([(-1, 1), (2, 2)])
        with pytest.raises(EmptyRangeError):
            GeneSpec.numeric([(5, 3)])

    def test_zero_genes_rejected(self):
        with pytest.raises(ZeroGenesError):
            GeneSpec.numeric([])
        with pytest.raises(ZeroGenesError):
            GeneSpec.categorical("EK", 0)

    def test_too_few_categories(self):
        with pytest.raises(TooFewCategoriesError):
            GeneSpec.categorical(["E"], 5)
        # duplicates do not count as distinct labels
        with pytest.raises(TooFewCategoriesError):
            GeneSpec.categorical(["E", "E"], 5)

    def test_mixed_kinds_rejected(self):
        mixed = GeneSpec("numeric", numeric_ranges=((0.0, 1.0),),
                         categories=("E", "K"), number_of_genes=1)
        with pytest.raises(MixedKindsError):
            validate_spec(mixed)

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
        with pytest.raises(ShapeMismatchError):
            seed_population(numeric_spec, 3, rng, init_genes=[[0.1, 0.2]])
        with pytest.raises(ShapeMismatchError):
            seed_population(cat_spec, 3, rng, init_genes=[["E"] * 7])

    def test_init_genes_unknown_label(self, cat_spec, rng):
        bad = [["E"] * 7 + ["X"]]
        with pytest.raises(ShapeMismatchError):
            seed_population(cat_spec, 3, rng, init_genes=bad)

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
