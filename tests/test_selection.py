"""Diversity-enhanced and top-n survivor selection."""

import contextlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divga import (
    ConfigError,
    DiversityEnhanced,
    DynamicSq,
    EuclideanSq,
    GeneSpec,
    HammingSq,
    seed_population,
    select_diverse,
)
from divga import selection
from divga.selection import select_top_n


def euclidean_scalar(a, b):
    """Squared Euclidean distance summed gene by gene from the left."""
    total = 0.0
    for x, y in zip(a, b):
        total += (x - y) * (x - y)
    return total


def dynamic_scalar(a, b):
    """Scale-normalized squared distance summed gene by gene from the
    left."""
    total = 0.0
    for x, y in zip(a, b):
        term = (x - y) / (abs(x) + abs(y) + DynamicSq.epsilon)
        total += term * term
    return total


def hamming_scalar(a, b):
    return sum(x != y for x, y in zip(a, b)) / len(a)


def brute_force_diverse(genes_rows, fitness_values, count, d0, r0,
                        distance=euclidean_scalar, working=None):
    """Scalar reference implementation of the iterated penalized argmax.

    Each penalty is d0 * exp(r^2 * (-1 / r0^2)), the operations
    select_diverse documents, one candidate at a time; the pick-time
    working fitness of each pick is appended to working when given.
    """
    working_now = list(map(float, fitness_values))
    alive = set(range(len(working_now)))
    picks = []
    scale = -1.0 / r0 ** 2
    for _ in range(count):
        best = min(alive, key=lambda i: (-working_now[i], i))
        picks.append(best)
        if working is not None:
            working.append(working_now[best])
        alive.discard(best)
        for i in alive:
            r_sq = distance(genes_rows[best], genes_rows[i])
            working_now[i] -= d0 * float(np.exp(np.float64(r_sq * scale)))
    return picks


def picks(genes, fitness, count, d0=1.0, r0=1.0, measure=None):
    selection = DiversityEnhanced(d0=d0, r0=r0, measure=measure)
    return select_diverse(np.asarray(genes, dtype=float),
                          np.asarray(fitness, dtype=float), count,
                          selection).tolist()


def penalty_from(survivor, candidate, selection):
    """Penalty select_diverse takes off candidate when survivor is picked:
    the pick-time working fitness of a fitness-0 candidate, negated."""
    working = np.empty(2)
    select_diverse(np.array([survivor, candidate], dtype=float),
                   np.array([1.0, 0.0]), 2, selection, working)
    return -working[1]


class TestDiversityPenalty:
    def test_full_penalty_at_zero_distance(self):
        a = [1.0, 2.0]
        assert penalty_from(a, a, DiversityEnhanced(d0=2.5, r0=0.3)) == 2.5

    def test_decays_with_distance(self):
        config = DiversityEnhanced(d0=1.0, r0=1.0)
        origin, near, far = [0.0], [0.1], [3.0]
        assert penalty_from(origin, near, config) > \
            penalty_from(origin, far, config)
        assert penalty_from(origin, far, config) == pytest.approx(
            math.exp(-9.0))

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            DiversityEnhanced(d0=-1.0)
        with pytest.raises(ConfigError):
            DiversityEnhanced(d0=math.inf)
        with pytest.raises(ConfigError):
            DiversityEnhanced(r0=0.0)
        # r0 left unset must be resolved before selection can penalize
        with pytest.raises(ConfigError, match="r0 is not set"):
            select_diverse(np.zeros((2, 1)), np.zeros(2), 1,
                           DiversityEnhanced())


class TestSelectDiverse:
    def test_hand_example(self):
        """Crowded runner-up loses to a distant lower-fitness candidate."""
        genes = np.array([[0.0], [0.01], [5.0]])
        fitness = np.array([10.0, 9.9, 9.2])
        working = np.empty(2)
        survivors = select_diverse(genes, fitness, 2,
                                   DiversityEnhanced(d0=1.0, r0=1.0), working)
        assert survivors.tolist() == [0, 2]
        assert working[0] == 10.0
        assert working[1] == pytest.approx(9.2 - math.exp(-25.0))
        # the crowded candidate was pushed below the distant one
        assert fitness[1] - 1.0 * math.exp(-0.01 ** 2) < 9.2

    def test_first_pick_is_global_best(self, rng):
        for _ in range(20):
            fitness = rng.uniform(0, 1, size=10)
            got = picks(rng.uniform(-1, 1, size=(10, 2)), fitness, 3, r0=0.5)
            assert fitness[got[0]] == fitness.max()

    def test_zero_d0_equals_top_n(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 12))
            count = int(rng.integers(1, n + 1))
            fitness = rng.uniform(0, 1, size=n)
            diverse = picks(rng.uniform(-1, 1, size=(n, 3)), fitness, count,
                            d0=0.0)
            assert diverse == select_top_n(fitness, count).tolist()

    def test_matches_brute_force(self, rng):
        """Vectorized selection equals the scalar reference, pick by pick."""
        for _ in range(200):
            n = int(rng.integers(2, 10))
            dim = int(rng.integers(1, 4))
            count = int(rng.integers(1, n + 1))
            genes = rng.uniform(-2, 2, size=(n, dim))
            fitness = rng.uniform(-1, 1, size=n)
            d0 = float(rng.uniform(0, 2))
            r0 = float(rng.uniform(0.1, 2))
            assert picks(genes, fitness, count, d0, r0) == \
                brute_force_diverse(genes, fitness, count, d0, r0)

    def test_matches_brute_force_with_infinite_fitness(self, rng):
        """-inf ranks last and +inf first, exactly as in the reference."""
        for _ in range(200):
            n = int(rng.integers(2, 10))
            count = int(rng.integers(1, n + 1))
            genes = rng.uniform(-2, 2, size=(n, 2))
            fitness = rng.uniform(-1, 1, size=n)
            fitness[rng.random(n) < 0.4] = -np.inf
            fitness[rng.random(n) < 0.1] = np.inf
            d0 = float(rng.uniform(0, 2))
            r0 = float(rng.uniform(0.1, 2))
            assert picks(genes, fitness, count, d0, r0) == \
                brute_force_diverse(genes, fitness, count, d0, r0)

    def test_minus_inf_pool_gives_distinct_survivors(self):
        genes = [[0.0], [1.0], [2.0]]
        fitness = [1.0, -np.inf, -np.inf]
        assert picks(genes, fitness, 3) == [0, 1, 2]
        assert picks(genes, fitness, 3) == \
            brute_force_diverse(genes, fitness, 3, 1.0, 1.0)
        assert select_top_n(np.array(fitness), 3).tolist() == [0, 1, 2]

    def test_scaling_equivalence(self, rng):
        """Scaling fitness by xi equals dividing d0 by xi."""
        for _ in range(50):
            n = int(rng.integers(3, 10))
            genes = rng.uniform(-2, 2, size=(n, 2))
            fitness = rng.uniform(0, 1, size=n)
            for xi in (0.1, 3.0, 10.0):
                assert picks(genes, xi * fitness, 3, 1.0, 0.7) == \
                    picks(genes, fitness, 3, 1.0 / xi, 0.7)

    def test_tie_break_lowest_index(self):
        assert picks([[0.0], [100.0], [200.0]], [5.0, 5.0, 5.0], 3) == [0, 1, 2]

    def test_no_state_leaks_between_calls(self, rng):
        genes = rng.uniform(-1, 1, size=(8, 2))
        fitness = rng.uniform(0, 1, size=8)
        assert picks(genes, fitness, 4, r0=0.5) == \
            picks(genes, fitness, 4, r0=0.5)

    def test_input_order_unchanged(self, rng):
        genes = rng.uniform(-1, 1, size=(6, 2))
        fitness = rng.uniform(0, 1, size=6)
        genes_before, fitness_before = genes.copy(), fitness.copy()
        select_diverse(genes, fitness, 3, DiversityEnhanced(r0=1.0))
        np.testing.assert_array_equal(genes, genes_before)
        np.testing.assert_array_equal(fitness, fitness_before)

    def test_count_exceeds_pool(self):
        with pytest.raises(ConfigError,
                           match="asked for 2 survivors from 1 candidates"):
            picks([[0.0]], [1.0], 2)

    def test_unevaluated_candidate(self):
        with pytest.raises(ConfigError,
                           match="a candidate has no fitness value"):
            picks([[0.0], [1.0]], [1.0, np.nan], 1)

    def test_survivors_distinct(self, rng):
        got = picks(rng.uniform(-1, 1, size=(10, 2)),
                    rng.uniform(0, 1, size=10), 10, d0=5.0, r0=2.0)
        assert sorted(got) == list(range(10))

    def test_hamming_measure_pool(self, rng):
        """Codes and labels of the same pool give the same survivors."""
        codes = rng.integers(0, 2, size=(6, 5))
        labels = np.array(["E", "K"], dtype=object)[codes]
        fitness = rng.uniform(0, 1, size=6)
        selection = DiversityEnhanced(d0=1.0, r0=1.0, measure=HammingSq())
        from_codes = select_diverse(codes, fitness, 3, selection)
        from_labels = select_diverse(labels, fitness, 3, selection)
        assert len(from_codes) == 3
        assert from_codes.tolist() == from_labels.tolist()

    @pytest.mark.parametrize("dtype", [object, str])
    def test_label_genes_default_to_hamming(self, dtype):
        """With no measure, label genes are compared by Hamming distance,
        the kind default, not by subtracting strings."""
        labels = np.array([["E", "K"], ["E", "K"], ["K", "E"]], dtype=dtype)
        fitness = [1.0, 0.9, 0.5]
        default = select_diverse(labels, fitness, 2, DiversityEnhanced(r0=1.0))
        hamming = select_diverse(labels, fitness, 2,
                                 DiversityEnhanced(r0=1.0, measure="hamming"))
        assert default.tolist() == hamming.tolist() == [0, 2]

    @pytest.mark.parametrize("measure", ["euclidean", "dynamic",
                                         EuclideanSq(), DynamicSq()],
                             ids=["euclidean", "dynamic", "EuclideanSq",
                                  "DynamicSq"])
    def test_numeric_measure_on_labels_rejected(self, measure):
        """A measure that subtracts genes cannot compare labels: the
        ConfigError of get_measure, not a TypeError from numpy."""
        labels = np.array([["E", "K"], ["E", "K"], ["K", "E"]], dtype=object)
        with pytest.raises(ConfigError, match="needs numeric genes"):
            select_diverse(labels, [1.0, 0.9, 0.5], 2,
                           DiversityEnhanced(r0=1.0, measure=measure))


def einsum_r_sq(matrix, point, measure):
    """r^2 as select_diverse computed it before its kernel summed the
    genes in order: an einsum over the differences."""
    if isinstance(measure, HammingSq):
        return (matrix != point) @ np.ones(matrix.shape[1]) / matrix.shape[1]
    if isinstance(measure, DynamicSq):
        scale = np.abs(matrix) + np.abs(point) + measure.epsilon
        d = (matrix - point) / scale
    else:
        d = matrix - point
    return np.einsum("ij,ij->i", d, d)


def einsum_select(genes, fitness, count, d0, r0, measure, r_sq=einsum_r_sq):
    """(picks, working) of the selection loop before the in-place
    kernel: a fresh r^2 and a fresh penalty for every pick, r^2 from
    r_sq(matrix, point, measure) on the caller's array."""
    work = np.array(fitness, dtype=float)
    inv_r0_sq = 1.0 / r0 ** 2
    alive = np.ones(len(work), dtype=bool)
    picks, working = [], np.empty(count)
    for k in range(count):
        pick = int(np.argmax(work))
        if not alive[pick]:
            pick = int(np.argmax(alive))
        picks.append(pick)
        working[k] = work[pick]
        alive[pick] = False
        work[pick] = -np.inf
        if d0 != 0.0 and k + 1 < count:
            work -= d0 * np.exp(-r_sq(genes, genes[pick], measure)
                                * inv_r0_sq)
    return picks, working


def seeded_pool(seed, g, ties):
    """A 60-row pool with g genes. With ties, fitness takes five values
    and a sixth of the rows are +-inf, and some rows repeat."""
    rng = np.random.default_rng(seed)
    n = 60
    genes = rng.uniform(-3, 3, size=(n, g))
    if ties:
        genes[::7] = genes[0]
        fitness = rng.integers(0, 5, size=n) / 4.0
        fitness[rng.random(n) < 0.1] = -np.inf
        fitness[rng.random(n) < 0.07] = np.inf
    else:
        fitness = rng.uniform(-1, 1, size=n)
    return genes, fitness


class TestKernelAgainstEinsum:
    """The in-place kernel against the einsum loop it replaced."""

    @pytest.mark.parametrize("measure", [EuclideanSq(), DynamicSq()],
                             ids=["euclidean", "dynamic"])
    @pytest.mark.parametrize("g", [1, 2])
    @pytest.mark.parametrize("seed", range(6))
    def test_bit_identical_up_to_two_genes(self, measure, g, seed):
        genes, fitness = seeded_pool(seed, g, ties=True)
        for count, d0, r0 in ((40, 1.0, 0.7), (60, 2.5, 3.0), (25, 0.3, 0.05)):
            working = np.empty(count)
            got = select_diverse(genes, fitness, count,
                                 DiversityEnhanced(d0=d0, r0=r0,
                                                   measure=measure), working)
            want, want_working = einsum_select(genes, fitness, count, d0, r0,
                                               measure)
            assert got.tolist() == want
            assert working.tobytes() == want_working.tobytes()

    @pytest.mark.parametrize("g", [3, 8, 50])
    @pytest.mark.parametrize("seed", range(4))
    def test_hamming_bit_identical(self, g, seed):
        rng = np.random.default_rng(seed)
        codes = rng.integers(0, 2, size=(60, g)).astype(np.int8)
        fitness = rng.integers(0, 5, size=60) / 4.0
        fitness[rng.random(60) < 0.1] = -np.inf
        measure = HammingSq()
        working = np.empty(30)
        got = select_diverse(codes, fitness, 30,
                             DiversityEnhanced(d0=1.0, r0=0.4,
                                               measure=measure), working)
        want, want_working = einsum_select(codes, fitness, 30, 1.0, 0.4,
                                           measure)
        assert got.tolist() == want
        assert working.tobytes() == want_working.tobytes()

    @pytest.mark.parametrize("measure", [EuclideanSq(), DynamicSq()],
                             ids=["euclidean", "dynamic"])
    @pytest.mark.parametrize("g", range(3, 9))
    @pytest.mark.parametrize("seed", range(3))
    def test_same_picks_from_three_genes(self, measure, g, seed):
        """From 3 genes r^2 may move in the last bits; on these pools
        the picks stay and working moves by at most 1e-12 relative."""
        genes, fitness = seeded_pool(seed, g, ties=False)
        working = np.empty(40)
        got = select_diverse(genes, fitness, 40,
                             DiversityEnhanced(d0=1.0, r0=1.5,
                                               measure=measure), working)
        want, want_working = einsum_select(genes, fitness, 40, 1.0, 1.5,
                                           measure)
        assert got.tolist() == want
        np.testing.assert_allclose(working, want_working, rtol=1e-12)


def pool_layout(layout, seed, g):
    """A 60-row pool with tied and +-inf fitness whose gene matrix is
    row-major, column-major, int64, or a strided view of a wider pool."""
    genes, fitness = seeded_pool(seed, g, ties=True)
    rng = np.random.default_rng(seed + 100)
    if layout == "F":
        genes = np.asfortranarray(genes)
    elif layout == "int64":
        genes = rng.integers(-4, 5, size=(60, g))
        genes[::7] = genes[0]
    elif layout == "strided":
        genes = rng.uniform(-3, 3, size=(120, g))[::2]
    return genes, fitness


def to_point_r_sq(matrix, point, measure):
    return measure.to_point(matrix, point)


def recording(measure_class):
    """A measure_class instance that keeps the last matrix to_point got."""
    class Recording(measure_class):
        def to_point(self, matrix, point, out=None):
            self.seen = matrix
            return super().to_point(matrix, point, out)

    return Recording()


class TestColumnMajorPool:
    """select_diverse copies a numeric pool column-major once per call."""

    @pytest.mark.parametrize("measure", [EuclideanSq(), DynamicSq()],
                             ids=["euclidean", "dynamic"])
    @pytest.mark.parametrize("layout", ["C", "F", "int64", "strided"])
    @pytest.mark.parametrize("g", [1, 2, 9, 50])
    def test_bit_identical_to_row_major_loop(self, measure, layout, g):
        """Picks and working equal those of the loop that gave to_point
        the caller's array, whatever its memory order and dtype."""
        for seed in range(2):
            genes, fitness = pool_layout(layout, seed, g)
            before = genes.copy()
            for count, d0, r0 in ((40, 1.0, 0.7), (60, 2.5, 3.0 * g ** 0.5),
                                  (25, 0.3, 0.05)):
                working = np.empty(count)
                got = select_diverse(genes, fitness, count,
                                     DiversityEnhanced(d0=d0, r0=r0,
                                                       measure=measure),
                                     working)
                want, want_working = einsum_select(genes, fitness, count,
                                                   d0, r0, measure,
                                                   to_point_r_sq)
                assert got.tolist() == want
                assert working.tobytes() == want_working.tobytes()
            assert genes.tobytes() == before.tobytes()

    def test_prepare_decides_the_layout(self, rng):
        """Euclidean and dynamic prepare a column-major float copy;
        Hamming codes and a custom measure's pool stay the caller's
        array, and so does the pool of a subclass that overrides
        to_point, which selection then measures through it."""
        fitness = rng.uniform(0, 1, size=8)
        genes = rng.integers(0, 3, size=(8, 4))
        for measure in (EuclideanSq(), DynamicSq()):
            seen = measure.prepare(genes).matrix
            assert seen.flags.f_contiguous
            assert seen.dtype == float
            assert seen.tolist() == genes.tolist()
        codes = genes.astype(np.int8)
        assert HammingSq().prepare(codes).matrix is codes
        for measure_class in (EuclideanSq, DynamicSq, HammingSq):
            measure = recording(measure_class)
            select_diverse(genes, fitness, 3,
                           DiversityEnhanced(r0=1.0, measure=measure))
            assert measure.seen is genes
        seen = []

        def custom(a, b):
            seen.append(a.dtype)
            return float(np.sum((a - b) ** 2))

        select_diverse(genes, fitness, 3, DiversityEnhanced(r0=1.0,
                                                            measure=custom))
        assert seen and set(seen) == {genes.dtype}


class TestSelectTopN:
    def test_sorted_by_fitness(self):
        fitness = np.array([1.0, 4.0, 2.0, 3.0])
        assert fitness[select_top_n(fitness, 2)].tolist() == [4.0, 3.0]

    def test_ties_by_index(self):
        assert select_top_n(np.array([2.0, 2.0, 2.0]), 2).tolist() == [0, 1]

    def test_count_exceeds_pool(self):
        with pytest.raises(ConfigError,
                           match="asked for 5 survivors from 1 candidates"):
            select_top_n(np.array([1.0]), 5)

    def test_unevaluated(self):
        with pytest.raises(ConfigError,
                           match="a candidate has no fitness value"):
            select_top_n(np.array([np.nan]), 1)


SELECTORS = {
    "top_n": select_top_n,
    "diverse": lambda fitness, count: select_diverse(
        np.arange(len(fitness), dtype=float)[:, None], fitness, count,
        DiversityEnhanced(r0=1.0)),
}


@pytest.mark.parametrize("selector", sorted(SELECTORS))
@pytest.mark.parametrize("count, message", [
    (-1, "count must be non-negative, not -1"),
    (2.5, "count must be an integer, not 2.5"),
    (True, "count must be an integer, not True")])
def test_count_is_a_non_negative_integer(selector, count, message):
    with pytest.raises(ConfigError, match=message):
        SELECTORS[selector]([3.0, 1.0, 2.0, 0.0], count)


@pytest.mark.parametrize("fitness", [5.0, np.ones((3, 2))],
                         ids=["scalar", "matrix"])
def test_fitness_is_a_vector(fitness):
    message = "fitness must be a vector, not an array of shape"
    with pytest.raises(ConfigError, match=message):
        select_top_n(fitness, 2)
    with pytest.raises(ConfigError, match=message):
        select_diverse(np.zeros((3, 2)), fitness, 2, DiversityEnhanced(r0=1.0))


@pytest.mark.parametrize("shape", [(3,), (3, 2, 2)], ids=["vector", "3-d"])
@pytest.mark.parametrize("d0", [0.0, 1.0])
def test_genes_are_a_matrix(shape, d0):
    with pytest.raises(ConfigError, match=r"genes must be an \(n, g\) matrix"):
        select_diverse(np.zeros(shape), [1.0, 2.0, 3.0], 2,
                       DiversityEnhanced(d0=d0, r0=1.0))


def pools(min_size=1, max_size=9, infinite=False):
    """(genes, fitness, count) for a pool of 1-3 dimensional candidates."""
    values = st.floats(-5, 5, allow_nan=False)
    if infinite:
        values = values | st.sampled_from([-np.inf, np.inf])

    @st.composite
    def build(draw):
        n = draw(st.integers(min_size, max_size))
        dim = draw(st.integers(1, 3))
        genes = np.array(draw(st.lists(
            st.lists(st.floats(-3, 3), min_size=dim, max_size=dim),
            min_size=n, max_size=n)))
        fitness = np.array(draw(st.lists(values, min_size=n, max_size=n)))
        count = draw(st.integers(1, n))
        return genes, fitness, count

    return build()


radii = st.floats(0.05, 3.0)


@st.composite
def oracle_pools(draw):
    """(genes, fitness, count, distance): numeric genes that repeat, or
    label genes, with fitness from a few tied values and +-inf."""
    n = draw(st.integers(1, 12))
    g = draw(st.integers(1, 4))
    if draw(st.booleans()):
        cells, distance = st.sampled_from(["E", "K", "Q"]), hamming_scalar
        dtype = draw(st.sampled_from([object, str]))
    else:
        cells = st.sampled_from([-1.0, 0.0, 0.5, 2.0]) | st.floats(-3, 3)
        distance, dtype = euclidean_scalar, float
    genes = np.array(draw(st.lists(
        st.lists(cells, min_size=g, max_size=g), min_size=n, max_size=n)),
        dtype=dtype)
    fitness = np.array(draw(st.lists(
        st.sampled_from([0.0, 0.25, 0.5, 1.0, -np.inf, np.inf]),
        min_size=n, max_size=n)))
    return genes, fitness, draw(st.integers(1, n)), distance


class TestSelectionProperties:
    @given(oracle_pools(), st.sampled_from([0.5, 1.0, 3.0]), radii)
    @settings(max_examples=300)
    def test_equals_brute_force(self, pool, d0, r0):
        """Picks and pick-time working fitness equal the scalar
        reference bit for bit, on tied and infinite fitness, repeated
        genes and labels, with and without the d0 = 1 shortcut, down to
        pools where only -inf candidates are left."""
        genes, fitness, count, distance = pool
        working = np.empty(count)
        got = select_diverse(genes, fitness, count,
                             DiversityEnhanced(d0=d0, r0=r0), working)
        want_working = []
        want = brute_force_diverse(genes.tolist(), fitness, count, d0, r0,
                                   distance, want_working)
        assert got.tolist() == want
        assert working.tobytes() == np.array(want_working).tobytes()

    @given(oracle_pools(), radii, st.booleans())
    @settings(max_examples=200)
    def test_zero_d0_matches_top_n(self, pool, r0, buffer):
        """At d0 = 0 the picks are select_top_n's and working holds their
        raw fitness byte for byte, on tied and infinite fitness and
        labels, with and without a caller's buffer."""
        genes, fitness, count, _ = pool
        working = np.full(count, np.nan) if buffer else None
        got = select_diverse(genes, fitness, count,
                             DiversityEnhanced(d0=0.0, r0=r0), working)
        assert got.tolist() == select_top_n(fitness, count).tolist()
        if buffer:
            assert working.tobytes() == fitness[got].tobytes()

    @given(st.lists(st.sampled_from([-np.inf, -1.0, -0.0, 0.0, 0.5, np.inf])
                    | st.floats(-2, 2, allow_nan=False), max_size=40),
           st.data())
    @settings(max_examples=300)
    def test_top_n_equals_stable_argsort(self, values, data):
        """The picks are a stable argsort's, in its order, on heavy ties,
        +-inf and -0.0 next to 0.0, from count = 0 to count = n."""
        fitness = np.array(values, dtype=float)
        count = data.draw(st.sampled_from([0, len(fitness)])
                          | st.integers(0, len(fitness)))
        got = select_top_n(fitness, count)
        assert got.dtype == np.intp
        assert got.tolist() == np.argsort(-fitness, kind="stable")[
            :count].tolist()

    @given(pools(min_size=2), st.floats(0.0, 3.0), radii,
           st.permutations(range(9)), st.randoms())
    @settings(max_examples=100)
    def test_permuting_the_pool_permutes_the_picks(self, pool, d0, r0, ranks,
                                                    random):
        genes, _, count = pool
        n = len(genes)
        # Distinct fitness values in steps of pi / 10, so that no simple
        # penalty can bring two working fitness values level.
        fitness = np.array(ranks[:n]) * math.pi / 10
        order = np.array(random.sample(range(n), n))
        selection = DiversityEnhanced(d0=d0, r0=r0)
        plain = select_diverse(genes, fitness, count, selection)
        shuffled = select_diverse(genes[order], fitness[order], count,
                                  selection)
        assert order[shuffled].tolist() == plain.tolist()

    @given(st.integers(2, 200), st.integers(1, 40), st.integers(1, 50),
           st.floats(0.0, 3.0), radii, st.randoms())
    @settings(max_examples=50)
    def test_hamming_codes_and_labels_pick_alike(self, n_categories, n, g,
                                                 d0, r0, random):
        """Category codes in the spec's gene dtype and their labels give
        the same picks and the same working fitness."""
        spec = GeneSpec.categorical([f"c{k}" for k in range(n_categories)], g)
        rng = np.random.default_rng(random.getrandbits(32))
        codes = seed_population(spec, n, rng)
        fitness = rng.uniform(-1.0, 1.0, size=n)
        count = random.randint(1, n)
        selection = DiversityEnhanced(d0=d0, r0=r0, measure=HammingSq())
        working = np.empty((2, count))
        from_codes = select_diverse(codes, fitness, count, selection,
                                    working[0])
        from_labels = select_diverse(spec.decode(codes), fitness, count,
                                     selection, working[1])
        assert from_codes.tolist() == from_labels.tolist()
        assert working[0].tolist() == working[1].tolist()

    @given(pools(infinite=True), st.floats(0.0, 3.0), radii)
    @settings(max_examples=100)
    def test_survivors_are_distinct(self, pool, d0, r0):
        genes, fitness, count = pool
        for got in (select_diverse(genes, fitness, count,
                                   DiversityEnhanced(d0=d0, r0=r0)),
                    select_top_n(fitness, count)):
            assert len(got) == count
            assert len(set(got.tolist())) == count


SCALARS = {"euclidean": euclidean_scalar, "dynamic": dynamic_scalar}


@contextlib.contextmanager
def matrix_route_spy():
    """Yields a list that receives, for each select_diverse call that
    takes the penalty-matrix route, the number of picks taken there."""
    taken = []
    real = selection._matrix_picks

    def spy(*args):
        taken.append(real(*args))
        return taken[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(selection, "_matrix_picks", spy)
        yield taken


def per_pick_route(genes, fitness, count, diversity):
    """(picks, working) of select_diverse with the matrix route off."""
    working = np.empty(count)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(selection, "MATRIX_ROUTE_MAX_VALUES", -1)
        got = select_diverse(genes, fitness, count, diversity, working)
    return got.tolist(), working


def assert_both_routes_equal_brute_force(genes, fitness, count, diversity,
                                         taken=None):
    """select_diverse's picks and working bytes equal the scalar
    reference and those of the per-pick route. When taken is given it
    must be, once the call is made, the picks the matrix route took."""
    working = np.empty(count)
    with matrix_route_spy() as spied:
        got = select_diverse(genes, fitness, count, diversity, working)
    if taken is not None:
        assert spied == taken
    want_working = []
    want = brute_force_diverse(genes.tolist(), fitness, count, diversity.d0,
                               diversity.r0, SCALARS[diversity.measure],
                               want_working)
    assert got.tolist() == want
    assert working.tobytes() == np.array(want_working).tobytes()
    per_pick, per_pick_working = per_pick_route(genes, fitness, count,
                                                diversity)
    assert per_pick == want
    assert per_pick_working.tobytes() == working.tobytes()
    return spied


@st.composite
def route_pools(draw, matrix):
    """(genes, fitness, count): a numeric pool of 1-4 genes and at most
    24 rows that takes the penalty-matrix route (matrix true, at most
    twice count rows) or the per-pick route (more than twice count).
    Rows repeat whole, single gene values repeat, and fitness mixes
    tied values, +-inf and floats."""
    g = draw(st.integers(1, 4))
    if matrix:
        n = draw(st.integers(1, 24))
        count = draw(st.integers((n + 1) // 2, n))
    else:
        n = draw(st.integers(3, 24))
        count = draw(st.integers(1, (n - 1) // 2))
    cells = st.sampled_from([-1.0, 0.0, 0.5, 2.0]) | st.floats(-3, 3)
    distinct = draw(st.lists(st.lists(cells, min_size=g, max_size=g),
                             min_size=1, max_size=n))
    which = draw(st.lists(st.integers(0, len(distinct) - 1),
                          min_size=n, max_size=n))
    genes = np.array([distinct[i] for i in which])
    values = (st.sampled_from([0.0, 0.25, 0.5, 1.0, -np.inf, np.inf])
              | st.floats(-2, 2))
    fitness = np.array(draw(st.lists(values, min_size=n, max_size=n)))
    return genes, fitness, count


class TestRoutes:
    """The penalty-matrix route and the per-pick route of select_diverse
    give the scalar reference's picks and working bytes."""

    @pytest.mark.parametrize("matrix", [True, False],
                             ids=["matrix", "per_pick"])
    @pytest.mark.parametrize("measure", sorted(SCALARS))
    @given(data=st.data())
    @settings(max_examples=150)
    def test_equal_brute_force(self, measure, matrix, data):
        """On tied and infinite fitness, repeated rows and values, down
        to pools where only -inf candidates are left, whether or not
        the pruning guess holds."""
        genes, fitness, count = data.draw(route_pools(matrix))
        diversity = DiversityEnhanced(
            d0=data.draw(st.sampled_from([0.5, 1.0, 3.0])),
            r0=data.draw(radii), measure=measure)
        taken = assert_both_routes_equal_brute_force(genes, fitness, count,
                                                     diversity)
        assert len(taken) == matrix

    @pytest.mark.parametrize("measure", sorted(SCALARS))
    @pytest.mark.parametrize("k", [0, 3, 5], ids=["first", "middle", "last"])
    def test_guess_fails_at_pick_k(self, measure, k):
        """Nine rows at 0 with fitness 10 are kept; three far rows, at
        the lowest indices, are left out with fitness 10 - k. Each pick
        takes exactly d0 = 1 off the rows at 0, so pick k ties with the
        left-out rows: the matrix route stops there, and the per-pick
        route it hands over to picks the far row at index 0."""
        count = 6
        genes = np.array([[50.0], [60.0], [70.0]] + [[0.0]] * 9)
        fitness = np.array([10.0 - k] * 3 + [10.0] * 9)
        diversity = DiversityEnhanced(d0=1.0, r0=0.1, measure=measure)
        assert_both_routes_equal_brute_force(genes, fitness, count,
                                             diversity, taken=[k])
        got = select_diverse(genes, fitness, count, diversity)
        assert got[k] == 0

    @pytest.mark.parametrize("n", [6, 12])
    def test_only_minus_inf_left(self, n):
        """Past the finite candidates the picks run through the -inf
        ones by index, with and without left-out rows (at n = 12 the
        last two rows are left out)."""
        count = n // 2 + 1
        genes = np.arange(n, dtype=float)[:, None]
        fitness = np.full(n, -np.inf)
        fitness[[4, 5]] = [1.0, 0.5]
        diversity = DiversityEnhanced(d0=1.0, r0=1.0, measure="euclidean")
        assert_both_routes_equal_brute_force(genes, fitness, count,
                                             diversity, taken=[2])

    def test_route_rule(self, rng):
        """The matrix route takes numeric pools with d0 > 0 that keep at
        least half their rows and hold at most MATRIX_ROUTE_MAX_VALUES
        gene values; every other pool goes pick by pick."""
        cap = selection.MATRIX_ROUTE_MAX_VALUES
        fitness = rng.uniform(0, 1, size=cap)
        cases = [
            ((cap // 2, 2), 1.0, "euclidean", cap // 4, True),
            ((cap // 2, 2), 1.0, "dynamic", cap // 4, True),
            ((cap // 2, 2), 1.0, "euclidean", cap // 4 - 1, False),
            ((cap // 2 + 1, 2), 1.0, "euclidean", cap // 4 + 1, False),
            ((cap // 2, 2), 0.0, "euclidean", cap // 4, False),
            ((cap // 2, 2), 1.0, euclidean_scalar, cap // 4, False),
            ((cap // 2, 2), 1.0, "hamming", cap // 4, False),
        ]
        for shape, d0, measure, count, matrix in cases:
            genes = rng.integers(0, 3, size=shape).astype(float)
            with matrix_route_spy() as taken:
                select_diverse(genes, fitness[:shape[0]], count,
                               DiversityEnhanced(d0=d0, r0=0.5,
                                                 measure=measure))
            assert len(taken) == matrix, (shape, d0, measure, count)


class TestWorkingBuffer:
    """select_diverse's working buffer: a shorter one, or one that is not
    a float64 vector, is a ConfigError; a longer one gets the first
    count entries. At d0 = 0 and 1, on both routes."""

    ROUTES = pytest.mark.parametrize("count, matrix", [(6, True), (2, False)],
                                     ids=["matrix_route", "per_pick_route"])

    @ROUTES
    @pytest.mark.parametrize("d0", [0.0, 1.0])
    def test_longer_buffer_gets_the_first_count_entries(self, rng, count,
                                                        matrix, d0):
        genes = rng.uniform(-1, 1, size=(10, 2))
        fitness = rng.uniform(0, 1, size=10)
        diversity = DiversityEnhanced(d0=d0, r0=0.5)
        exact = np.empty(count)
        want = select_diverse(genes, fitness, count, diversity, exact)
        longer = np.full(count + 3, 7.0)
        with matrix_route_spy() as taken:
            got = select_diverse(genes, fitness, count, diversity, longer)
        assert len(taken) == (matrix and d0 > 0)
        assert got.tolist() == want.tolist()
        assert longer[:count].tobytes() == exact.tobytes()
        assert longer[count:].tolist() == [7.0] * 3

    @ROUTES
    @pytest.mark.parametrize("d0", [0.0, 1.0])
    @pytest.mark.parametrize("bad", ["short", "int", "column"])
    def test_bad_buffer_rejected_before_any_work(self, rng, count, matrix,
                                                 d0, bad):
        """A buffer shorter than count, or not a float64 vector (an int
        buffer would truncate the working fitness), is a ConfigError."""
        genes = rng.uniform(-1, 1, size=(10, 2))
        fitness = rng.uniform(0, 1, size=10)
        buffer = {"short": np.full(count - 1, 7.0),
                  "int": np.full(count, 7),
                  "column": np.full((count, 1), 7.0)}[bad]
        before = buffer.copy()
        with matrix_route_spy() as taken:
            with pytest.raises(ConfigError, match=f"working must be a float64 "
                                                  f"vector of at least "
                                                  f"{count} entries"):
                select_diverse(genes, fitness, count,
                               DiversityEnhanced(d0=d0, r0=0.5), buffer)
        assert taken == []
        assert buffer.tobytes() == before.tobytes()


class TestSelectionMemory:
    """tracemalloc peak of one select_diverse call on a two-gene pool."""

    @pytest.mark.parametrize("n, count, matrix, limit", [
        (400, 200, True, 1.5e6), (5050, 100, False, 0.5e6)],
        ids=["matrix_400", "per_pick_5050"])
    def test_peak(self, n, count, matrix, limit):
        rng = np.random.default_rng(0)
        genes = rng.uniform(-1.5, 1.5, size=(n, 2))
        fitness = rng.uniform(0, 10, size=n)
        diversity = DiversityEnhanced(d0=1.0, r0=0.17)
        select_diverse(genes, fitness, count, diversity)
        with matrix_route_spy() as taken:
            tracemalloc.start()
            try:
                select_diverse(genes, fitness, count, diversity)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert len(taken) == matrix
        assert peak < limit
