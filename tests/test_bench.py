"""Benchmark fitness functions, statistics and the experiment driver."""

import csv
import math

import numpy as np
import pytest

from divga import (
    angular_bin_occupancy,
    calculate_scd,
    circle_fitness,
    landscape_fitness,
    net_charge,
    run_experiment,
    scd_fitness,
    spread,
)
from divga.bench import _scd_pairs, hamming_spread
from divga.errors import ConfigError


def brute_force_scd(sequence):
    charges = {"K": 1.0, "E": -1.0}
    values = [charges[c] for c in sequence]
    total = 0.0
    for a in range(len(values) - 1):
        for b in range(a + 1, len(values)):
            total += values[a] * values[b] * math.sqrt(b - a)
    return total / len(values)


class TestLandscapeFitness:
    def test_origin_is_maximal(self):
        assert landscape_fitness(0.0, 0.0) == 10.0

    def test_outside_box_penalized(self):
        assert landscape_fitness(2.0, 0.0) == -1000.0
        assert landscape_fitness(0.0, -1.6) == -1000.0

    def test_box_edge_still_inside(self):
        assert landscape_fitness(1.5, 0.0) == 10.0

    def test_cosine_trough(self):
        x = math.sqrt(math.pi / 20)
        assert landscape_fitness(x, x) == pytest.approx(-10.0)

    def test_bounded_above_by_ten(self, rng):
        points = rng.uniform(-2, 2, size=(2000, 2))
        assert all(landscape_fitness(x, y) <= 10.0 for x, y in points)


class TestCircleFitness:
    def test_on_circle(self):
        assert circle_fitness(3.0, 4.0) == 0.0

    def test_at_origin(self):
        assert circle_fitness(0.0, 0.0) == -125.0

    def test_off_circle(self):
        assert circle_fitness(6.0, 0.0) == -5.0


class TestCalculateSCD:
    def test_two_letter_values(self):
        assert calculate_scd("EK") == pytest.approx(-0.5)
        assert calculate_scd("EE") == pytest.approx(0.5)
        assert calculate_scd("KK") == pytest.approx(0.5)

    def test_four_letter_exact(self):
        expected = (-3 + 2 * math.sqrt(2) - math.sqrt(3)) / 4
        assert calculate_scd("EKEK") == pytest.approx(expected, rel=1e-12)

    def test_alternating_sequence_near_zero(self):
        assert abs(calculate_scd("EK" * 25)) < 0.5

    def test_diblock_strongly_negative(self):
        assert calculate_scd("E" * 25 + "K" * 25) < -5.0

    def test_matches_brute_force(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 61))
            seq = "".join(rng.choice(["E", "K"], size=n))
            assert calculate_scd(seq) == pytest.approx(
                brute_force_scd(seq), rel=1e-12)

    def test_cached_pairs_match_brute_force_at_every_length(self, rng):
        """Twice per length, so the second call reads the cached pairs;
        both equal the uncached sum bit for bit."""
        for n in range(1, 41):
            seq = "".join(rng.choice(["E", "K"], size=n))
            q = np.array([1.0 if c == "K" else -1.0 for c in seq])
            a, b = np.triu_indices(n, k=1)
            uncached = float(np.sum(q[a] * q[b] * np.sqrt(b - a)) / n)
            for _ in range(2):
                assert calculate_scd(seq) == uncached
                assert calculate_scd(seq) == pytest.approx(
                    brute_force_scd(seq), rel=1e-12, abs=1e-12)

    def test_cached_pairs_read_only(self):
        for array in _scd_pairs(6):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    def test_unknown_label(self):
        with pytest.raises(ConfigError,
                           match="no charge defined for label 'X'"):
            calculate_scd("EKX")

    def test_accepts_object_arrays(self):
        genes = np.array(list("EKKE"), dtype=object)
        assert calculate_scd(genes) == pytest.approx(brute_force_scd("EKKE"))


class TestSCDFitness:
    def test_at_target(self):
        seq = "EK" * 10
        assert scd_fitness(seq, calculate_scd(seq)) == 0.0

    def test_known_offset(self):
        assert scd_fitness("EK", -0.5) == 0.0
        assert scd_fitness("EK", -10.0) == pytest.approx(-90.25)


class TestNetCharge:
    def test_values(self):
        assert net_charge("EK") == 0
        assert net_charge("KKKK") == 4
        assert net_charge("EEK") == -1


class TestSpread:
    def test_identical_points(self):
        assert spread([[1.0, 1.0], [1.0, 1.0]]) == 0.0

    def test_two_points(self):
        assert spread([[0.0, 0.0], [3.0, 4.0]]) == 5.0

    def test_collinear_hand_value(self):
        assert spread([[0.0], [1.0], [2.0]]) == pytest.approx(4 / 3)

    def test_matches_double_loop(self, rng):
        pts = rng.uniform(-3, 3, size=(12, 3))
        total, pairs = 0.0, 0
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                total += math.dist(pts[i], pts[j])
                pairs += 1
        assert spread(pts) == pytest.approx(total / pairs, rel=1e-12)

    def test_too_few(self):
        with pytest.raises(ConfigError,
                           match="spread needs at least two points"):
            spread([[0.0, 0.0]])


class TestHammingSpread:
    def test_identical(self):
        rows = [np.array(list("EEKK"), dtype=object)] * 3
        assert hamming_spread(rows) == 0.0

    def test_complementary_pair(self):
        rows = [np.array(list("EEEE"), dtype=object),
                np.array(list("KKKK"), dtype=object)]
        assert hamming_spread(rows) == 1.0

    def test_strings_match_label_arrays(self):
        strings = ["EK", "KE", "EE"]
        labels = [np.array(list(s), dtype=object) for s in strings]
        assert hamming_spread(strings) == pytest.approx(2 / 3)
        assert hamming_spread(strings) == hamming_spread(labels)


class TestAngularBins:
    def test_all_bins_covered(self):
        angles = np.linspace(-np.pi + 0.1, np.pi - 0.1, 12)
        points = np.column_stack([np.cos(angles), np.sin(angles)])
        counts = angular_bin_occupancy(points)
        assert (counts > 0).all()
        assert counts.sum() == 12

    def test_single_cluster(self):
        points = np.array([[1.0, 0.001], [1.0, 0.002], [1.0, 0.003]])
        counts = angular_bin_occupancy(points)
        assert (counts > 0).sum() == 1


class TestRunExperiment:
    def test_unknown_name(self):
        with pytest.raises(ConfigError,
                           match="unknown experiment 'no-such-thing'"):
            run_experiment("no-such-thing")

    def test_unknown_override(self):
        with pytest.raises(ConfigError):
            run_experiment("circle", overrides={"colour": "red"})

    def test_circle_small(self, tmp_path):
        report = run_experiment(
            "circle",
            overrides={"repetitions": 2, "generations": 6, "population": 20},
            seed=3, output_directory=tmp_path)
        assert len(report.rows) == 2
        for row in report.rows:
            assert row["algorithm"] == "ga"
            assert row["evaluations"] == 20 + 6 * 20
            assert 1 <= row["bins_occupied"] <= 12
        assert (tmp_path / "circle_runs.csv").exists()
        assert (tmp_path / "circle_summary.txt").exists()

    def test_rows_csv_parses(self, tmp_path):
        report = run_experiment(
            "circle",
            overrides={"repetitions": 2, "generations": 4, "population": 16},
            seed=0, output_directory=tmp_path)
        with open(tmp_path / "circle_runs.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        for disk, mem in zip(rows, report.rows):
            assert int(disk["seed"]) == mem["seed"]
            assert float(disk["final_mean_fitness"]) == pytest.approx(
                mem["final_mean_fitness"])
            assert float(disk["spread"]) == pytest.approx(mem["spread"])

    def test_aggregates_recomputable_from_rows(self):
        report = run_experiment(
            "circle",
            overrides={"repetitions": 3, "generations": 4, "population": 16},
            seed=1)
        errors = [row["radial_error_mean"] for row in report.rows]
        assert report.aggregates["radial_error_mean"] == pytest.approx(
            np.mean(errors))

    def test_seed_pins_experiment(self):
        kwargs = dict(overrides={"repetitions": 2, "generations": 3,
                                 "population": 12}, seed=9)
        a = run_experiment("circle", **kwargs)
        b = run_experiment("circle", **kwargs)
        assert a.rows == b.rows

    def test_repetition_seeds_offset_from_master(self):
        report = run_experiment(
            "circle",
            overrides={"repetitions": 3, "generations": 3, "population": 12},
            seed=100)
        assert [row["seed"] for row in report.rows] == [100, 101, 102]

    def test_landscape_compare_small(self):
        report = run_experiment(
            "landscape-compare",
            overrides={"repetitions": 2, "generations": 5, "population": 12},
            seed=0)
        algos = [row["algorithm"] for row in report.rows]
        assert algos == ["ga", "de", "ga", "de"]
        assert "ga" in report.aggregates and "de" in report.aggregates
        assert "ga_spread_wins" in report.aggregates
        # equal budgets by construction
        ga_rows = [r for r in report.rows if r["algorithm"] == "ga"]
        de_rows = [r for r in report.rows if r["algorithm"] == "de"]
        assert ga_rows[0]["evaluations"] == de_rows[0]["evaluations"]

    def test_scd_small(self):
        report = run_experiment(
            "scd",
            overrides={"repetitions": 2, "generations": 5, "population": 10},
            seed=2)
        for row in report.rows:
            assert "mean_abs_scd_error" in row
            assert row["net_charge_range"] == \
                row["net_charge_max"] - row["net_charge_min"]

    def test_crossover_sweep_small(self):
        report = run_experiment(
            "crossover-sweep",
            overrides={"repetitions": 1, "generations": 3, "population": 8},
            seed=0)
        methods = {row["crossover"] for row in report.rows}
        assert methods == {"midpoint", "eitheror", "between", "none"}
        assert len(report.rows) == 4

    def test_random_compare_small(self):
        report = run_experiment(
            "random-compare",
            overrides={"repetitions": 2, "generations": 4, "population": 10},
            seed=1)
        ga_rows = [r for r in report.rows if r["algorithm"] == "ga"]
        rnd_rows = [r for r in report.rows if r["algorithm"] == "random"]
        assert len(ga_rows) == len(rnd_rows) == 2
        for g, r in zip(ga_rows, rnd_rows):
            assert g["evaluations"] == r["evaluations"]
        assert 0 <= report.aggregates["ga_wins"] <= 2

    def test_summary_mentions_experiment(self):
        report = run_experiment(
            "circle",
            overrides={"repetitions": 1, "generations": 3, "population": 12},
            seed=0)
        assert "experiment: circle" in report.summary
        assert "master seed: 0" in report.summary
