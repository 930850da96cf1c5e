"""Distance measures and the default diversity radius."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divga import (
    DynamicSq,
    EuclideanSq,
    GeneSpec,
    HammingSq,
    LengthMismatchError,
    PopulationTooSmallError,
    ZeroGenesError,
    default_r0,
    dynamic_sq,
    euclidean_sq,
    get_measure,
    hamming_sq,
    seed_population,
)

finite_vectors = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    min_size=1, max_size=8)


class TestEuclidean:
    def test_known_value(self):
        assert euclidean_sq([0, 0], [3, 4]) == 25.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            euclidean_sq([1, 2], [1, 2, 3])

    @given(finite_vectors)
    def test_identity(self, vec):
        assert euclidean_sq(vec, vec) == 0.0

    @given(st.data())
    @settings(max_examples=50)
    def test_symmetric_nonnegative(self, data):
        a = data.draw(finite_vectors)
        b = data.draw(st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=len(a), max_size=len(a)))
        assert euclidean_sq(a, b) >= 0.0
        assert euclidean_sq(a, b) == euclidean_sq(b, a)


class TestDynamic:
    def test_scale_normalization(self):
        """A fixed relative offset scores the same at any magnitude."""
        large = dynamic_sq([1000.0], [999.0])
        small = dynamic_sq([1.0], [0.999])
        assert large == pytest.approx(2.5e-7, rel=1e-2)
        assert small == pytest.approx(large, rel=1e-2)

    def test_epsilon_guards_zero(self):
        assert dynamic_sq([0.0], [0.0]) == 0.0

    def test_scale_invariance(self, rng):
        for _ in range(50):
            a = rng.uniform(-5, 5, size=4)
            b = rng.uniform(-5, 5, size=4)
            c = rng.uniform(0.1, 100)
            assert dynamic_sq(c * a, c * b) == pytest.approx(
                dynamic_sq(a, b), rel=1e-9)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            dynamic_sq([1], [1, 2])


class TestHamming:
    def test_known_values(self):
        assert hamming_sq("AAB", "ABB") == pytest.approx(1 / 3)
        assert hamming_sq("EK", "KE") == 1.0
        assert hamming_sq("EEEE", "EEEE") == 0.0

    def test_bounds(self, rng):
        for _ in range(100):
            n = rng.integers(1, 20)
            a = rng.choice(["E", "K"], size=n)
            b = rng.choice(["E", "K"], size=n)
            d = hamming_sq(a, b)
            assert 0.0 <= d <= 1.0
            assert d == hamming_sq(b, a)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            hamming_sq("EK", "EKE")

    def test_empty_vectors(self):
        with pytest.raises(ZeroGenesError):
            hamming_sq("", "")
        with pytest.raises(ZeroGenesError):
            HammingSq()([], [])
        with pytest.raises(LengthMismatchError):
            hamming_sq("", "E")


class TestGetMeasure:
    def test_names(self):
        assert isinstance(get_measure("euclidean"), EuclideanSq)
        assert isinstance(get_measure("dynamic"), DynamicSq)
        assert isinstance(get_measure("hamming"), HammingSq)

    def test_default_by_kind(self):
        numeric = GeneSpec.numeric([(-1, 1)])
        categorical = GeneSpec.categorical("EK", 3)
        assert isinstance(get_measure(None, numeric), EuclideanSq)
        assert isinstance(get_measure(None, categorical), HammingSq)

    def test_callable_wrapped(self):
        measure = get_measure(lambda a, b: 7.0)
        assert measure([0], [1]) == 7.0

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown distance measure"):
            get_measure("manhattan")


class TestToPoint:
    """The vectorized one-vs-many form must agree with scalar calls."""

    def test_numeric_measures(self, rng):
        matrix = rng.uniform(-5, 5, size=(10, 3))
        point = rng.uniform(-5, 5, size=3)
        for measure in (EuclideanSq(), DynamicSq()):
            batch = measure.to_point(matrix, point)
            expected = [measure(row, point) for row in matrix]
            np.testing.assert_allclose(batch, expected, rtol=1e-12)

    def test_hamming(self, rng):
        """Labels and their category codes give the same distances."""
        codes = rng.integers(0, 2, size=(11, 6))
        labels = np.array(["E", "K"], dtype=object)[codes]
        measure = HammingSq()
        expected = [measure(row, labels[0]) for row in labels[1:]]
        np.testing.assert_allclose(measure.to_point(labels[1:], labels[0]),
                                   expected)
        np.testing.assert_array_equal(measure.to_point(codes[1:], codes[0]),
                                      measure.to_point(labels[1:], labels[0]))


class TestDefaultR0:
    def test_hand_example(self):
        """Three points with mutual squared distances 1, 4, 4."""
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3.75)]])
        r0 = default_r0(pts, EuclideanSq())
        assert r0 == pytest.approx(np.sqrt(3) / 10, rel=1e-12)

    def test_degenerate_population(self):
        assert default_r0(np.zeros((4, 2)), EuclideanSq()) == 0.0

    def test_too_small(self):
        with pytest.raises(PopulationTooSmallError):
            default_r0(np.zeros((1, 2)), EuclideanSq())

    def test_matches_double_loop(self, rng):
        """Agrees with the brute-force pairwise definition."""
        measure = EuclideanSq()
        for _ in range(20):
            n = int(rng.integers(2, 9))
            spec = GeneSpec.numeric([(-5, 5)] * 3)
            pop = seed_population(spec, n, rng)
            total, pairs = 0.0, 0
            for i in range(n):
                for j in range(i + 1, n):
                    total += measure(pop[i], pop[j])
                    pairs += 1
            expected = np.sqrt(total / pairs) / 10
            assert default_r0(pop, measure) == pytest.approx(expected, rel=1e-12)
