"""Distance measures and the default diversity radius."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divga import (
    ConfigError,
    DistanceMeasure,
    DynamicSq,
    EuclideanSq,
    GeneSpec,
    HammingSq,
    default_r0,
    get_measure,
    seed_population,
)
from divga.distance import PreparedRows

finite_vectors = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    min_size=1, max_size=8)


class TestEuclidean:
    def test_known_value(self):
        assert EuclideanSq()([0, 0], [3, 4]) == 25.0

    def test_length_mismatch(self):
        with pytest.raises(ConfigError, match="gene vectors differ in length"):
            EuclideanSq()([1, 2], [1, 2, 3])

    @given(finite_vectors)
    def test_identity(self, vec):
        assert EuclideanSq()(vec, vec) == 0.0

    @given(st.data())
    @settings(max_examples=50)
    def test_symmetric_nonnegative(self, data):
        a = data.draw(finite_vectors)
        b = data.draw(st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=len(a), max_size=len(a)))
        assert EuclideanSq()(a, b) >= 0.0
        assert EuclideanSq()(a, b) == EuclideanSq()(b, a)


class TestDynamic:
    def test_scale_normalization(self):
        """A fixed relative offset scores the same at any magnitude."""
        large = DynamicSq()([1000.0], [999.0])
        small = DynamicSq()([1.0], [0.999])
        assert large == pytest.approx(2.5e-7, rel=1e-2)
        assert small == pytest.approx(large, rel=1e-2)

    def test_epsilon_guards_zero(self):
        assert DynamicSq.epsilon == 1e-15
        assert DynamicSq()([0.0], [0.0]) == 0.0

    def test_scale_invariance(self, rng):
        for _ in range(50):
            a = rng.uniform(-5, 5, size=4)
            b = rng.uniform(-5, 5, size=4)
            c = rng.uniform(0.1, 100)
            assert DynamicSq()(c * a, c * b) == pytest.approx(
                DynamicSq()(a, b), rel=1e-9)

    def test_length_mismatch(self):
        with pytest.raises(ConfigError, match="gene vectors differ in length"):
            DynamicSq()([1], [1, 2])


class TestHamming:
    def test_known_values(self):
        assert HammingSq()("AAB", "ABB") == pytest.approx(1 / 3)
        assert HammingSq()("EK", "KE") == 1.0
        assert HammingSq()("EEEE", "EEEE") == 0.0

    def test_bounds(self, rng):
        for _ in range(100):
            n = rng.integers(1, 20)
            a = rng.choice(["E", "K"], size=n)
            b = rng.choice(["E", "K"], size=n)
            d = HammingSq()(a, b)
            assert 0.0 <= d <= 1.0
            assert d == HammingSq()(b, a)

    def test_length_mismatch(self):
        with pytest.raises(ConfigError, match="gene vectors differ in length"):
            HammingSq()("EK", "EKE")

    def test_empty_vectors(self):
        with pytest.raises(ConfigError, match="empty gene vectors"):
            HammingSq()("", "")
        with pytest.raises(ConfigError, match="empty gene vectors"):
            HammingSq()([], [])
        with pytest.raises(ConfigError, match="gene vectors differ in length"):
            HammingSq()("", "E")


class TestGetMeasure:
    def test_names(self):
        assert isinstance(get_measure("euclidean"), EuclideanSq)
        assert isinstance(get_measure("dynamic"), DynamicSq)
        assert isinstance(get_measure("hamming"), HammingSq)

    def test_default_by_kind(self):
        assert isinstance(get_measure(None, labels=False), EuclideanSq)
        assert isinstance(get_measure(None, labels=True), HammingSq)

    def test_callable_wrapped(self):
        measure = get_measure(lambda a, b: 7.0)
        assert measure([0], [1]) == 7.0

    def test_unknown_name(self):
        with pytest.raises(ConfigError, match="unknown distance measure"):
            get_measure("manhattan")

    @pytest.mark.parametrize("cls", [EuclideanSq, HammingSq, DistanceMeasure])
    def test_class_rejected(self, cls):
        """A class is callable, but not a measure: a ConfigError that
        says to pass an instance, not a TypeError mid-run."""
        for labels in (False, True):
            with pytest.raises(ConfigError, match=re.escape(
                    f"measure {cls.__name__} is a class; pass an instance, "
                    f"{cls.__name__}()")):
                get_measure(cls, labels=labels)

    def test_only_the_numeric_kernels_are_rejected_on_labels(self):
        """The built-in Euclidean and dynamic measures, and a subclass
        that keeps their to_point, subtract genes: ConfigError on
        labels. A subclass that overrides to_point is measured through
        it, and accepted."""
        class Renamed(EuclideanSq):
            name = "renamed"

        for measure, name in ((EuclideanSq(), "euclidean"),
                              ("dynamic", "dynamic"), (Renamed(), "renamed")):
            with pytest.raises(ConfigError, match=re.escape(
                    f"the {name} measure needs numeric genes; use hamming "
                    f"or a callable on labels")):
                get_measure(measure, labels=True)
        own = Mismatches()
        for base in (EuclideanSq, DynamicSq):
            measure = type("Own", (base,), {"to_point": Mismatches.to_point})()
            assert get_measure(measure, labels=True) is measure
        assert get_measure(own, labels=True) is own


class TestToPoint:
    """The vectorized one-vs-many form must agree with scalar calls."""

    def test_numeric_measures(self, rng):
        matrix = rng.uniform(-5, 5, size=(10, 3))
        point = rng.uniform(-5, 5, size=3)
        for measure in (EuclideanSq(), DynamicSq()):
            batch = measure.to_point(matrix, point)
            expected = [measure(row, point) for row in matrix]
            assert batch.tolist() == expected

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

    def test_integer_matrix(self, rng):
        """Integer genes are measured as the same values in float."""
        ints = rng.integers(-50, 50, size=(6, 4))
        for measure in (EuclideanSq(), DynamicSq()):
            assert measure.to_point(ints, ints[1]).tolist() == \
                measure.to_point(ints.astype(float), ints[1] * 1.0).tolist()

    def test_hamming_fills_out(self, rng):
        codes = rng.integers(0, 3, size=(9, 7))
        measure = HammingSq()
        out = np.full(9, np.nan)
        assert measure.to_point(codes, codes[2], out) is out
        assert out.tolist() == measure.to_point(codes, codes[2]).tolist()

    def test_custom_fills_out(self, rng):
        matrix = rng.uniform(-1, 1, size=(5, 2))
        measure = get_measure(lambda a, b: float(np.sum(np.abs(a - b))))
        out = np.full(5, np.nan)
        assert measure.to_point(matrix, matrix[0], out) is out
        assert out.tolist() == [measure(row, matrix[0]) for row in matrix]


def _in_gene_order(terms) -> float:
    """Sum of terms added one at a time from the left."""
    total = 0.0
    for term in terms:
        total += term
    return total


def _euclidean_scalar(row, point) -> float:
    return _in_gene_order((x - y) * (x - y) for x, y in zip(row, point))


def _dynamic_scalar(row, point) -> float:
    terms = ((x - y) / (abs(x) + abs(y) + DynamicSq.epsilon)
             for x, y in zip(row, point))
    return _in_gene_order(t * t for t in terms)


FLOATS = st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=False)


@st.composite
def layout_pools(draw, genes=st.sampled_from([1, 2, 9, 50])):
    """An (n, g) pool, g drawn from genes, that is row-major,
    column-major, int64 with repeated values, or every other row of a
    wider float pool."""
    layout = draw(st.sampled_from(["C", "F", "int64", "strided"]))
    g = draw(genes)
    n = draw(st.integers(1, 12))
    rows = 2 * n if layout == "strided" else n
    cells = st.integers(-4, 4) if layout == "int64" else FLOATS
    flat = draw(st.lists(cells, min_size=rows * g, max_size=rows * g))
    matrix = np.array(flat, dtype=np.int64 if layout == "int64" else float)
    matrix = matrix.reshape(rows, g)
    if layout == "F":
        matrix = np.asfortranarray(matrix)
    elif layout == "strided":
        matrix = matrix[::2]
    return matrix


@st.composite
def numeric_pools(draw):
    """(matrix, point): a layout_pools matrix with g up to 60, and a
    point that is one of its rows or a fresh float vector."""
    matrix = draw(layout_pools(st.integers(1, 60)))
    n, g = matrix.shape
    if draw(st.booleans()):
        point = matrix[draw(st.integers(0, n - 1))].copy()
    else:
        point = np.array(draw(st.lists(FLOATS, min_size=g, max_size=g)))
    return matrix, point


class TestNumericKernel:
    """to_point and rows_to of the numeric measures sum the genes in
    order, so they equal the scalar formula float for float at any g,
    in any layout. Integer genes count as the same values in float."""

    @pytest.mark.parametrize("measure, scalar", [
        (EuclideanSq(), _euclidean_scalar), (DynamicSq(), _dynamic_scalar)],
        ids=["euclidean", "dynamic"])
    @given(pool=numeric_pools())
    @settings(max_examples=150)
    def test_equals_scalar_formula(self, measure, scalar, pool):
        matrix, point = pool
        before = matrix.copy(), point.copy()
        rows = matrix.astype(float).tolist()
        expected = [scalar(row, point.astype(float).tolist()) for row in rows]
        assert measure.to_point(matrix, point).tolist() == expected
        out = np.full(len(matrix), np.nan)
        assert measure.to_point(matrix, point, out) is out
        assert out.tolist() == expected
        assert measure(matrix[0], point) == expected[0]
        prepared = measure.prepare(matrix)
        for i, point_row in enumerate(rows):
            assert prepared.rows_to(i, out) is out
            assert out.tolist() == [scalar(row, point_row) for row in rows]
        np.testing.assert_array_equal(matrix, before[0])
        np.testing.assert_array_equal(point, before[1])

    @pytest.mark.parametrize("measure, scalar", [
        (EuclideanSq(), _euclidean_scalar), (DynamicSq(), _dynamic_scalar)],
        ids=["euclidean", "dynamic"])
    @given(matrix=layout_pools(st.integers(1, 60)), data=st.data())
    @settings(max_examples=150)
    def test_block_equals_scalar_formula(self, measure, scalar, matrix,
                                         data):
        """block_to on a block of the matrix's own rows, taken in the
        caller's layout and dtype, or on fresh float points: row k
        equals the scalar formula from point k to every row, as
        rows_to gives it."""
        n, g = matrix.shape
        before = matrix.copy()
        rows = matrix.astype(float).tolist()
        start = data.draw(st.integers(0, n - 1))
        stop = data.draw(st.integers(start + 1, n))
        own_rows = data.draw(st.booleans())
        if own_rows:
            points = matrix[start:stop]
        else:
            points = np.array(data.draw(st.lists(
                st.lists(FLOATS, min_size=g, max_size=g),
                min_size=1, max_size=5)))
        expected = [[scalar(row, point) for row in rows]
                    for point in points.astype(float).tolist()]
        prepared = measure.prepare(matrix)
        out = np.full((len(points), n), np.nan)
        assert prepared.block_to(points, out) is out
        assert out.tolist() == expected
        if own_rows:
            for k, i in enumerate(range(start, stop)):
                assert out[k].tobytes() == prepared.rows_to(
                    i, np.empty(n)).tobytes()
        np.testing.assert_array_equal(matrix, before)


@st.composite
def code_pools(draw):
    """(codes, labels): a category code matrix with 2 to 200 categories
    and its labels. The codes are in their spec's gene dtype (int8 or
    int16), row-major or column-major, or int64, or every other row of
    a wider code matrix."""
    n_categories = draw(st.integers(2, 200))
    layout = draw(st.sampled_from(["C", "F", "int64", "strided"]))
    n = draw(st.integers(1, 12))
    g = draw(st.integers(1, 60))
    rows = 2 * n if layout == "strided" else n
    spec = GeneSpec.categorical([f"c{k}" for k in range(n_categories)], g)
    flat = draw(st.lists(st.integers(0, n_categories - 1),
                         min_size=rows * g, max_size=rows * g))
    codes = np.array(flat, dtype=spec.gene_dtype).reshape(rows, g)
    if layout == "F":
        codes = np.asfortranarray(codes)
    elif layout == "int64":
        codes = codes.astype(np.int64)
    elif layout == "strided":
        codes = codes[::2]
    return codes, spec.decode(codes)


class TestHammingKernel:
    @given(code_pools(), st.data())
    @settings(max_examples=100)
    def test_counts_equal_codes_labels_and_python(self, pool, data):
        """to_point and rows_to on codes and on labels equal a
        pure-Python mismatch count over g, float for float."""
        codes, labels = pool
        k = data.draw(st.integers(0, len(codes) - 1))
        g = codes.shape[1]
        rows = codes.tolist()
        expected = [[sum(a != b for a, b in zip(row, point)) / g
                     for row in rows] for point in rows]
        measure = HammingSq()
        out = np.full(len(codes), np.nan)
        for matrix in (codes, labels):
            assert measure.to_point(matrix, matrix[k]).tolist() == expected[k]
            prepared = measure.prepare(matrix)
            for i, want in enumerate(expected):
                assert prepared.rows_to(i, out) is out
                assert out.tolist() == want


def _custom_measure():
    """A callable measure that takes labels as well as numbers."""
    return get_measure(lambda a, b: float(sum(x != y for x, y in zip(a, b))))


class Mismatches(DistanceMeasure):
    """A user measure that defines only to_point: the number of genes
    at which a row differs from the point."""

    def to_point(self, matrix, point, out=None):
        counts = np.count_nonzero(matrix != point, axis=1).astype(float)
        if out is None:
            return counts
        out[:] = counts
        return out


MEASURES = {"euclidean": EuclideanSq, "dynamic": DynamicSq,
            "hamming": HammingSq, "custom": _custom_measure,
            "subclass": Mismatches}


def assert_rows_to_equals_to_point(measure, matrix):
    """rows_to(i, out) on one prepared matrix, for every row in turn,
    is out and holds the bytes of to_point(matrix, matrix[i])."""
    before = matrix.copy()
    prepared = measure.prepare(matrix)
    out = np.full(len(matrix), np.nan)
    for i in range(len(matrix)):
        assert prepared.rows_to(i, out) is out
        assert out.tobytes() == measure.to_point(matrix, matrix[i]).tobytes()
    assert matrix.tobytes() == before.tobytes()


class TestPreparedRows:
    """prepare(matrix).rows_to(i, out) is to_point(matrix, matrix[i]),
    byte for byte, whatever the layout, dtype and buffer reuse. (The
    built-in kernels are pinned to their scalar formulas in
    TestNumericKernel and TestHammingKernel.)"""

    def test_only_to_point_is_measured_through_it(self, rng):
        """A measure that defines only to_point is prepared as a
        PreparedRows that calls it; the bare base class has no
        formula."""
        matrix = rng.integers(0, 3, size=(5, 4))
        prepared = Mismatches().prepare(matrix)
        assert type(prepared) is PreparedRows
        assert prepared.matrix is matrix
        with pytest.raises(NotImplementedError):
            DistanceMeasure().prepare(matrix).rows_to(0, np.empty(5))

    @pytest.mark.parametrize("name", sorted(MEASURES))
    @given(matrix=layout_pools())
    @settings(max_examples=60)
    def test_numeric_layouts(self, name, matrix):
        assert_rows_to_equals_to_point(MEASURES[name](), matrix)

    @pytest.mark.parametrize("name", ["hamming", "custom"])
    @pytest.mark.parametrize("n_categories", [128, 129])
    @given(data=st.data())
    @settings(max_examples=30)
    def test_codes_and_labels(self, name, n_categories, data):
        """int8 codes at 128 categories, int16 at 129, and their labels,
        which encode back to the same codes."""
        g = data.draw(st.sampled_from([1, 2, 9, 50]))
        n = data.draw(st.integers(1, 12))
        spec = GeneSpec.categorical([f"c{k}" for k in range(n_categories)], g)
        flat = data.draw(st.lists(st.integers(0, n_categories - 1),
                                  min_size=n * g, max_size=n * g))
        codes = np.array(flat, dtype=spec.gene_dtype).reshape(n, g)
        assert codes.dtype == (np.int8 if n_categories == 128 else np.int16)
        labels = spec.decode(codes)
        assert spec.encode(labels.tolist()).tobytes() == codes.tobytes()
        for matrix in (codes, labels):
            assert_rows_to_equals_to_point(MEASURES[name](), matrix)


LABEL_MEASURES = ("custom", "hamming", "subclass")


@st.composite
def vector_pairs(draw, labels):
    """Two gene vectors of one length: float64, or object labels."""
    g = draw(st.integers(1, 12))
    cells = st.sampled_from(["E", "K", "Q"]) if labels else FLOATS
    return tuple(np.array(draw(st.lists(cells, min_size=g, max_size=g)),
                          dtype=object if labels else float)
                 for _ in range(2))


class TestScalarForm:
    """measure(a, b) is to_point on a one-row matrix, for every measure:
    numbers are read as a float64 vector, anything else as labels."""

    @pytest.mark.parametrize("name, labels",
                             [(name, False) for name in sorted(MEASURES)]
                             + [(name, True) for name in LABEL_MEASURES])
    @given(data=st.data())
    @settings(max_examples=40)
    def test_equals_to_point_on_one_row(self, name, labels, data):
        measure = MEASURES[name]()
        a, b = data.draw(vector_pairs(labels))
        expected = measure.to_point(a[None, :], b)[0].tobytes()
        assert np.float64(measure(a, b)).tobytes() == expected
        assert np.float64(measure(list(a), list(b))).tobytes() == expected

    def test_label_subclass(self):
        """A DistanceMeasure subclass whose to_point reads labels gets
        them from the scalar form too."""
        class LabelMismatches(DistanceMeasure):
            def to_point(self, matrix, point, out=None):
                return np.mean(matrix != point, axis=1)

        assert LabelMismatches()(["E", "K"], ["K", "K"]) == 0.5
        assert LabelMismatches()("EK", "KK") == 0.5

    def test_bare_base_class_has_no_formula(self):
        """The bare DistanceMeasure has neither kernel nor to_point: its
        scalar form is a ConfigError saying what to define, on numbers
        and labels alike, not an empty NotImplementedError."""
        for a, b in (([1.0], [2.0]), ("EK", "KK")):
            with pytest.raises(ConfigError, match=re.escape(
                    "measure DistanceMeasure has no formula; define "
                    "to_point in a subclass or pass a callable")):
                DistanceMeasure()(a, b)

    @pytest.mark.parametrize("measure", [EuclideanSq(), DynamicSq()],
                             ids=["euclidean", "dynamic"])
    def test_numeric_kernels_reject_strings(self, measure):
        """Strings are labels, as in a run, not numbers to parse."""
        for a, b in (("12", "13"), (["1", "2"], ["1", "3"])):
            with pytest.raises(ConfigError, match=re.escape(
                    f"the {measure.name} measure needs numeric genes")):
                measure(a, b)

    @pytest.mark.parametrize("name", sorted(MEASURES))
    def test_empty_vectors(self, name):
        for a, b in (([], []), ("", ""), (np.empty(0), np.empty(0))):
            with pytest.raises(ConfigError, match="empty gene vectors"):
                MEASURES[name]()(a, b)

    def test_callable_sees_numpy_vectors(self):
        """A callable measure gets numpy vectors, as inside a run:
        float64 for numbers, object arrays for labels, and an object
        array of integer labels stays one."""
        seen = []
        measure = get_measure(lambda a, b: seen.append((a, b)) or 0.0)
        int_labels = GeneSpec.categorical((0, 1, 2), 2).decode(
            np.array([[0, 2], [1, 1]]))
        measure([1, 2], (3, 4))
        measure("EK", ["K", "K"])
        measure(int_labels[0], int_labels[1])
        assert all(type(v) is np.ndarray for pair in seen for v in pair)
        assert [(a.dtype, b.dtype) for a, b in seen] == [
            (np.float64, np.float64), (object, object), (object, object)]
        assert [(a.tolist(), b.tolist()) for a, b in seen] == [
            ([1.0, 2.0], [3.0, 4.0]), (["E", "K"], ["K", "K"]),
            ([0, 2], [1, 1])]


class TestDefaultR0:
    def test_hand_example(self):
        """Three points with mutual squared distances 1, 4, 4."""
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3.75)]])
        r0 = default_r0(pts, EuclideanSq())
        assert r0 == pytest.approx(np.sqrt(3) / 10, rel=1e-12)

    def test_degenerate_population(self):
        assert default_r0(np.zeros((4, 2)), EuclideanSq()) == 0.0

    def test_too_small(self):
        with pytest.raises(ConfigError,
                           match="need at least two rows to pair"):
            default_r0(np.zeros((1, 2)), EuclideanSq())

    @pytest.mark.parametrize("shape", [(3,), (3, 2, 2)])
    def test_not_a_matrix(self, shape):
        with pytest.raises(ConfigError,
                           match=re.escape(f"not one of shape {shape}")):
            default_r0(np.zeros(shape), EuclideanSq())

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
