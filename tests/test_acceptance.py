"""End-to-end acceptance gate.

One test per acceptance criterion, each printing a single PASS or FAIL
line with the measured numbers. Run with -s to watch the lines appear;
without -s pytest shows them for failing tests only. The statistical
criteria use fixed seeds, so reruns are deterministic.
"""

import math

import numpy as np
import pytest

from divga import (
    DiversityEnhanced,
    EngineConfig,
    GeneSpec,
    HammingSq,
    calculate_scd,
    default_r0,
    run,
    run_experiment,
    select_diverse,
    seed_population,
)
from divga.bench import landscape_from_genes, scd_from_genes
from divga.distance import EuclideanSq
from divga.variation import produce_offspring, resolve_mutation

from test_bench import brute_force_scd
from test_selection import brute_force_diverse


def report(number, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


class TestAcceptance:
    def test_criterion_1_landscape_comparison(self):
        """GA finds near-maximal fitness with far more spread than DE."""
        result = run_experiment("landscape-compare", seed=0)
        ga = result.aggregates["ga"]
        de = result.aggregates["de"]
        wins = result.aggregates["ga_spread_wins"]
        ok = (ga["final_mean_fitness_mean"] >= 9.8
              and 1.2 <= ga["spread_mean"] <= 1.9
              and de["spread_mean"] <= 0.9
              and wins >= 9)
        report(1, ok,
               f"ga fitness {ga['final_mean_fitness_mean']:.3f} (>= 9.8), "
               f"ga spread {ga['spread_mean']:.3f} (in [1.2, 1.9]), "
               f"de spread {de['spread_mean']:.3f} (<= 0.9), "
               f"spread wins {wins}/10 (>= 9)")

    def test_criterion_2_circle_coverage(self):
        """Survivors hug the target circle and cover all angles."""
        result = run_experiment("circle", seed=0)
        radial_ok = sum(1 for r in result.rows
                        if r["radial_error_mean"] <= 0.5)
        bins_ok = sum(1 for r in result.rows if r["bins_occupied"] == 12)
        ok = radial_ok >= 8 and bins_ok >= 8
        report(2, ok,
               f"radial error <= 0.5 in {radial_ok}/10 runs (>= 8), "
               f"all 12 angular bins occupied in {bins_ok}/10 (>= 8)")

    def test_criterion_3_scd_design(self):
        """Sequences hit the SCD target while net charge stays diverse."""
        result = run_experiment("scd", seed=0)
        scd_ok = sum(1 for r in result.rows
                     if r["mean_abs_scd_error"] <= 1.0)
        charge_ok = sum(1 for r in result.rows
                        if r["net_charge_range"] >= 10)
        ok = scd_ok >= 8 and charge_ok >= 8
        report(3, ok,
               f"mean |SCD + 10| <= 1.0 in {scd_ok}/10 runs (>= 8), "
               f"net charge range >= 10 in {charge_ok}/10 (>= 8)")

    def test_criterion_4_random_scan_dominance(self):
        """At 20200 evaluations the GA beats the kept-200 random scan."""
        result = run_experiment("random-compare", seed=0)
        budgets = {r["evaluations"] for r in result.rows}
        wins = result.aggregates["ga_wins"]
        ok = wins == 10 and budgets == {20200}
        report(4, ok,
               f"ga beat the random scan in {wins}/10 paired runs "
               f"(need 10/10) at a budget of {sorted(budgets)} evaluations")

    def test_criterion_5_selection_oracle(self):
        """Vectorized selection equals a scalar reference on 500 cases."""
        rng = np.random.default_rng(2024)
        mismatches = 0
        for _ in range(500):
            n = int(rng.integers(2, 9))
            dim = int(rng.integers(1, 4))
            count = int(rng.integers(1, min(n, 4) + 1))
            genes = rng.uniform(-3, 3, size=(n, dim))
            fitness = rng.uniform(-2, 2, size=n)
            d0 = float(rng.uniform(0, 3))
            r0 = float(rng.uniform(0.05, 2.5))
            got = select_diverse(genes, fitness, count,
                                 DiversityEnhanced(d0=d0, r0=r0)).tolist()
            expected = brute_force_diverse(genes, fitness, count, d0, r0)
            if got != expected:
                mismatches += 1
        report(5, mismatches == 0,
               f"{500 - mismatches}/500 random instances matched the "
               f"brute-force oracle exactly (survivors and order)")

    def test_criterion_6_scaling_equivalence(self):
        """Scaling fitness by xi is equivalent to dividing d0 by xi."""
        rng = np.random.default_rng(77)
        mismatches = 0
        for _ in range(100):
            n = int(rng.integers(3, 10))
            count = int(rng.integers(1, n + 1))
            genes = rng.uniform(-2, 2, size=(n, 2))
            fitness = rng.uniform(0, 1, size=n)
            d0 = float(rng.uniform(0.1, 2))
            r0 = float(rng.uniform(0.1, 2))
            for xi in (0.1, 3.0, 10.0):
                a = select_diverse(genes, xi * fitness, count,
                                   DiversityEnhanced(d0=d0, r0=r0))
                b = select_diverse(genes, fitness, count,
                                   DiversityEnhanced(d0=d0 / xi, r0=r0))
                if a.tolist() != b.tolist():
                    mismatches += 1
        report(6, mismatches == 0,
               f"survivor sequences identical under (xi*f, d0) and "
               f"(f, d0/xi) for xi in {{0.1, 3, 10}} on 100 instances "
               f"({mismatches} mismatches)")

    def test_criterion_7_measure_units(self):
        """Penalty at zero distance, Hamming value, SCD and r0 oracles."""
        def zero_distance_working(d0, r0):
            """Pick-time working fitness of a fitness-0 candidate that
            coincides with the first survivor: 0 - penalty(r=0)."""
            working = np.empty(2)
            select_diverse(np.array([[0.3, -0.7], [0.3, -0.7]]),
                           np.zeros(2), 2, DiversityEnhanced(d0=d0, r0=r0),
                           working)
            return working[1]

        penalty_exact = all(
            zero_distance_working(d0, r0) == -d0
            for d0, r0 in ((1.0, 1.0), (2.5, 0.3), (0.17, 4.0)))
        hamming_exact = HammingSq()("EK", "KE") == 1.0

        rng = np.random.default_rng(11)
        scd_worst = 0.0
        for _ in range(100):
            n = int(rng.integers(2, 101))
            seq = "".join(rng.choice(["E", "K"], size=n))
            got = calculate_scd(seq)
            want = brute_force_scd(seq)
            scd_worst = max(scd_worst, abs(got - want) / abs(want or 1.0))
        scd_ok = scd_worst < 1e-12

        measure = EuclideanSq()
        r0_worst = 0.0
        for _ in range(20):
            n = int(rng.integers(2, 12))
            spec = GeneSpec.numeric([(-4, 4)] * 3)
            pop = seed_population(spec, n, rng)
            total, pairs = 0.0, 0
            for i in range(n):
                for j in range(i + 1, n):
                    total += measure(pop[i], pop[j])
                    pairs += 1
            want = math.sqrt(total / pairs) / 10
            got = default_r0(pop, measure)
            r0_worst = max(r0_worst, abs(got - want) / want)
        r0_ok = r0_worst < 1e-12

        ok = penalty_exact and hamming_exact and scd_ok and r0_ok
        report(7, ok,
               f"penalty(r=0) == d0 exactly: {penalty_exact}, "
               f"HammingSq()('EK','KE') == 1: {hamming_exact}, "
               f"scd oracle max rel err {scd_worst:.2e} (< 1e-12), "
               f"default_r0 oracle max rel err {r0_worst:.2e} (< 1e-12)")

    def test_criterion_8_reproducibility(self, tmp_path):
        """Same seed gives byte-identical survivors CSVs, any workers,
        for a numeric and for a categorical genome."""
        # (spec, fitness, fitness_args, crossover) of each genome kind.
        landscape = (GeneSpec.numeric([(-1.5, 1.5)] * 2),
                     landscape_from_genes, (), "none")
        sequences = (GeneSpec.categorical(("E", "K"), 30),
                     scd_from_genes, (-10.0,), "eitheror")

        def one_run(directory, workers, problem=landscape):
            spec, fitness, fitness_args, crossover = problem
            config = EngineConfig(population_size=30, n_generations=15,
                                  crossover=crossover, seed=123,
                                  parallel_workers=workers,
                                  output_directory=directory, verbosity=0)
            record = run(spec, fitness, config, fitness_args=fitness_args)
            return record.output_files["survivors"].read_bytes()

        first = one_run(tmp_path / "a", 0)
        second = one_run(tmp_path / "b", 0)
        fourth = one_run(tmp_path / "c", 4)
        labels = one_run(tmp_path / "d", 0, sequences)
        labels_two = one_run(tmp_path / "e", 2, sequences)
        ok = first == second == fourth and labels == labels_two
        report(8, ok,
               f"survivors CSV bytes identical across reruns: "
               f"{first == second}, and for 4 workers vs sequential: "
               f"{first == fourth} ({len(first)} bytes); E/K sequences "
               f"for 2 workers vs sequential: {labels == labels_two} "
               f"({len(labels)} bytes)")

    def test_criterion_9_offspring_accounting(self):
        """n=350: all pairs 61075 offspring, random pairs and none 350."""
        spec = GeneSpec.numeric([(-1, 1)] * 2)
        rng = np.random.default_rng(0)
        population = seed_population(spec, 350, rng)
        mutation = resolve_mutation(None, spec)
        n_all = len(produce_offspring(population, spec, "between", "all",
                                      mutation, rng))
        n_random = len(produce_offspring(population, spec, "between",
                                         "random", mutation, rng))
        n_none = len(produce_offspring(population, spec, "none", "random",
                                       mutation, rng))
        ok = n_all == 61075 and n_random == 350 and n_none == 350
        report(9, ok,
               f"all pairs {n_all} (expect 61075), random pairs {n_random} "
               f"(expect 350), none {n_none} (expect 350)")
