"""Diversity-enhanced and top-n survivor selection."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divga import (
    ConfigError,
    DiversityEnhanced,
    HammingSq,
    select_diverse,
    select_top_n,
)


def brute_force_diverse(genes_rows, fitness_values, count, d0, r0):
    """Scalar reference implementation of the iterated penalized argmax."""
    working = list(map(float, fitness_values))
    alive = set(range(len(working)))
    picks = []
    for _ in range(count):
        best = min(alive, key=lambda i: (-working[i], i))
        picks.append(best)
        alive.discard(best)
        for i in alive:
            r_sq = sum((x - y) ** 2
                       for x, y in zip(genes_rows[best], genes_rows[i]))
            working[i] -= d0 * math.exp(-r_sq / r0 ** 2)
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


class TestSelectionProperties:
    @given(pools(infinite=True), radii)
    @settings(max_examples=100, deadline=None)
    def test_zero_d0_matches_top_n(self, pool, r0):
        genes, fitness, count = pool
        got = select_diverse(genes, fitness, count,
                             DiversityEnhanced(d0=0.0, r0=r0))
        assert got.tolist() == select_top_n(fitness, count).tolist()

    @given(pools(min_size=2), st.floats(0.0, 3.0), radii,
           st.permutations(range(9)), st.randoms())
    @settings(max_examples=100, deadline=None)
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

    @given(pools(infinite=True), st.floats(0.0, 3.0), radii)
    @settings(max_examples=100, deadline=None)
    def test_survivors_are_distinct(self, pool, d0, r0):
        genes, fitness, count = pool
        for got in (select_diverse(genes, fitness, count,
                                   DiversityEnhanced(d0=d0, r0=r0)),
                    select_top_n(fitness, count)):
            assert len(got) == count
            assert len(set(got.tolist())) == count
