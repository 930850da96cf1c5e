"""Benchmark fitness functions, statistics and the experiment driver."""

import csv
import functools
import math
import re

import numpy as np
import pytest

from divga import (
    DEConfig,
    DiversityEnhanced,
    EngineConfig,
    GeneSpec,
    angular_bin_occupancy,
    calculate_scd,
    evaluate_population,
    net_charge,
    random_scan,
    run,
    run_de,
    run_experiment,
    spread,
)
from divga import bench
from divga.bench import (
    CHARGES,
    _charge_vector,
    _scd_pairs,
    circle_from_genes,
    hamming_spread,
    landscape_from_genes,
    scd_from_genes,
)
from divga.errors import ConfigError
from divga.variation import CROSSOVER_METHODS

from conftest import PerRow


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
        assert landscape_from_genes((0.0, 0.0)) == 10.0

    def test_outside_box_penalized(self):
        assert landscape_from_genes((2.0, 0.0)) == -1000.0
        assert landscape_from_genes((0.0, -1.6)) == -1000.0

    def test_box_edge_still_inside(self):
        assert landscape_from_genes((1.5, 0.0)) == 10.0

    def test_cosine_trough(self):
        x = math.sqrt(math.pi / 20)
        assert landscape_from_genes((x, x)) == pytest.approx(-10.0)

    def test_bounded_above_by_ten(self, rng):
        points = rng.uniform(-2, 2, size=(2000, 2))
        assert all(landscape_from_genes((x, y)) <= 10.0 for x, y in points)


class TestCircleFitness:
    def test_on_circle(self):
        assert circle_from_genes((3.0, 4.0)) == 0.0

    def test_at_origin(self):
        assert circle_from_genes((0.0, 0.0)) == -125.0

    def test_off_circle(self):
        assert circle_from_genes((6.0, 0.0)) == -5.0


def old_landscape(genes):
    """The landscape's per-row formula as written before its array form."""
    x1, x2 = genes[0], genes[1]
    if abs(x1) > 1.5 or abs(x2) > 1.5:
        return -1000.0
    return 10.0 * float(np.cos(20.0 * x1 * x2))


def scalar_circle(genes):
    """The circle's per-row formula, squaring with d * d."""
    d = float(np.hypot(genes[0], genes[1])) - 5.0
    return -5.0 * (d * d)


# Rows on the edges of the landscape's box and at signed zeros.
EDGE_ROWS = [(1.5, 1.5), (-1.5, 1.5), (1.5, -1.5), (-1.5, -1.5), (1.5, 0.0),
             (-1.5, -0.0), (0.0, 1.5), (-0.0, -1.5), (0.0, 0.0), (-0.0, 0.0),
             (0.0, -0.0), (-0.0, -0.0), (np.nextafter(1.5, 2.0), 0.0),
             (0.0, np.nextafter(-1.5, -2.0)), (2.0, 0.0), (0.0, -1.6),
             (-3.0, 5.0), (3.0, 4.0), (-3.0, -4.0), (0.0, 5.0), (-0.0, -5.0)]


def circle_pow_rows(rng, draws=20000):
    """Uniform rows of [-10, 10]^2 whose distance d from the circle has
    d ** 2 (the C library's pow) != d * d."""
    genes = rng.uniform(-10.0, 10.0, size=(draws, 2))
    d = [float(np.hypot(x, y)) - 5.0 for x, y in genes]
    return genes[[x ** 2 != x * x for x in d]]


class TestVectorizedBenchFitness:
    """The numeric problems as array functions: one row still gives a
    float, and a batch gives each row the bits the per-row path gives."""

    def test_marked(self):
        assert landscape_from_genes.vectorized is True
        assert circle_from_genes.vectorized is True
        assert not hasattr(scd_from_genes, "vectorized")

    @pytest.mark.parametrize("fitness", [landscape_from_genes,
                                         circle_from_genes])
    def test_one_row_gives_a_float_a_matrix_an_array(self, fitness):
        assert type(fitness((0.25, -0.5))) is float
        values = fitness(np.array([[0.25, -0.5], [2.0, 0.0]]))
        assert values.shape == (2,)
        assert values.tolist() == [fitness((0.25, -0.5)), fitness((2.0, 0.0))]

    @pytest.mark.parametrize("fitness, reference, low, high", [
        (landscape_from_genes, old_landscape, -2.0, 2.0),
        (circle_from_genes, scalar_circle, -10.0, 10.0),
    ], ids=["landscape", "circle"])
    def test_batch_equals_rows_bit_for_bit(self, rng, fitness, reference,
                                           low, high):
        """evaluate_population with the marked function, with an unmarked
        per-row wrapper and with the scalar formula give the same bytes,
        on uniform rows, box edges, signed zeros and the circle rows
        where pow(d, 2) != d * d."""
        genes = np.concatenate([rng.uniform(low, high, size=(2000, 2)),
                                np.array(EDGE_ROWS),
                                circle_pow_rows(rng)])
        batch, rows = np.empty(len(genes)), np.empty(len(genes))
        evaluate_population(genes, fitness, batch)
        evaluate_population(genes, PerRow(fitness), rows)
        expected = np.array([reference(row) for row in genes])
        assert batch.tobytes() == rows.tobytes() == expected.tobytes()

    def test_landscape_row_form_equals_batch_form(self, rng):
        """One gene vector, as an array, a tuple or through an unmarked
        functools.partial, gets the bits its row gets in a batch: on
        10,000 uniform rows of [-2, 2]^2, many outside the box, and on
        the box edges, |x| == 1.5 included."""
        genes = np.concatenate([rng.uniform(-2.0, 2.0, size=(10000, 2)),
                                np.array(EDGE_ROWS)])
        assert (np.abs(genes) > 1.5).any(axis=1).sum() > 1000
        batch = landscape_from_genes(genes)
        unmarked = functools.partial(landscape_from_genes)
        assert not hasattr(unmarked, "vectorized")
        for form in (lambda row: row, tuple, lambda row: row.tolist()):
            rows = [landscape_from_genes(form(row)) for row in genes]
            assert {type(value) for value in rows} == {float}
            assert np.array(rows).tobytes() == batch.tobytes()
        rows = np.empty(len(genes))
        evaluate_population(genes, unmarked, rows)
        assert rows.tobytes() == batch.tobytes()

    def test_circle_squares_without_pow(self, rng):
        """On the rows where pow(d, 2) != d * d, the circle uses d * d."""
        genes = circle_pow_rows(rng)
        d = np.hypot(genes[:, 0], genes[:, 1]) - 5.0
        assert circle_from_genes(genes).tolist() == (-5.0 * (d * d)).tolist()

    @pytest.mark.parametrize("fitness, pairing, crossover, workers", [
        (landscape_from_genes, "random", "none", 0),
        (circle_from_genes, "all", "between", 0),
        (circle_from_genes, "random", "between", 2),
    ], ids=["landscape", "circle-all-pairs", "circle-2-workers"])
    def test_run_files_identical(self, tmp_path, fitness, pairing, crossover,
                                 workers):
        """run writes the same survivors and fitness CSV bytes with the
        marked function as with an unmarked per-row wrapper run
        sequentially."""
        spec = GeneSpec.numeric([(-1.5, 1.5), (-1.5, 1.5)]
                                if fitness is landscape_from_genes
                                else [(-10.0, 10.0), (-10.0, 10.0)])
        files = []
        for fn, parallel, name in ((fitness, workers, "marked"),
                                   (PerRow(fitness), 0, "rows")):
            config = EngineConfig(population_size=12, n_generations=6,
                                  crossover=crossover, pairing=pairing,
                                  seed=17, parallel_workers=parallel,
                                  output_directory=tmp_path / name,
                                  verbosity=0)
            record = run(spec, fn, config)
            files.append([record.output_files[key].read_bytes()
                          for key in ("survivors", "fitness")])
        assert files[0] == files[1]

    def test_run_de_identical(self):
        spec = GeneSpec.numeric([(-1.5, 1.5), (-1.5, 1.5)])
        config = DEConfig(population_size=20, n_generations=15, seed=23)
        marked = run_de(spec, landscape_from_genes, config)
        rows = run_de(spec, PerRow(landscape_from_genes), config)
        assert marked.genes.tobytes() == rows.genes.tobytes()
        assert marked.fitness.tobytes() == rows.fitness.tobytes()
        assert (marked.mean_fitness, marked.best_fitness, marked.evaluations) \
            == (rows.mean_fitness, rows.best_fitness, rows.evaluations)

    @pytest.mark.parametrize("fitness", [landscape_from_genes,
                                         circle_from_genes])
    def test_random_scan_identical(self, fitness):
        spec = GeneSpec.numeric([(-10.0, 10.0), (-10.0, 10.0)])
        marked = random_scan(spec, fitness, 3000, 50,
                             np.random.default_rng(29))
        rows = random_scan(spec, PerRow(fitness), 3000, 50,
                           np.random.default_rng(29))
        assert marked.kept_mean.tobytes() == rows.kept_mean.tobytes()
        assert marked.kept_fitness.tobytes() == rows.kept_fitness.tobytes()
        assert np.array(marked.kept_genes).tobytes() \
            == np.array(rows.kept_genes).tobytes()


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

    @pytest.mark.parametrize("function", [calculate_scd, net_charge])
    @pytest.mark.parametrize("sequence", [None, 5])
    def test_non_sequence_rejected(self, function, sequence):
        with pytest.raises(ConfigError, match="need a sequence of labels"):
            function(sequence)


def per_label_charges(sequence):
    """The per-label loop _charge_vector replaced, kept as its oracle."""
    charges = np.empty(len(sequence))
    for k, label in enumerate(sequence):
        try:
            charges[k] = CHARGES[label]
        except (KeyError, TypeError):
            raise ConfigError(f"no charge defined for label {label!r}")
    return charges


def outcome(fn, sequence):
    try:
        return fn(sequence).tolist()
    except ConfigError as exc:
        return str(exc)


class TestChargeVector:
    def test_matches_per_label_loop(self, rng):
        """Same charges, bit for bit, on strings, lists and object arrays
        of every length up to 60."""
        for n in range(61):
            codes = rng.integers(0, 2, size=n)
            labels = np.array(["E", "K"], dtype=object)[codes]
            for sequence in (labels, labels.tolist(), "".join(labels)):
                assert _charge_vector(sequence).tolist() == \
                    per_label_charges(sequence).tolist()

    @pytest.mark.parametrize("sequence", [
        "EKX", "XEK", ["E", "K", "e"], ["K", None, "Z"], ["E", ["K"]],
        np.array(["E", "K", {}], dtype=object), ["E", 1.0],
    ], ids=["last", "first", "lowercase", "none", "unhashable", "dict",
            "number"])
    def test_bad_label_same_error(self, sequence):
        """The first label with no charge is named, as the loop named it,
        unhashable labels included."""
        expected = outcome(per_label_charges, sequence)
        assert expected.startswith("no charge defined for label")
        assert outcome(_charge_vector, sequence) == expected


class TestSCDFitness:
    def test_at_target(self):
        seq = "EK" * 10
        assert scd_from_genes(seq, calculate_scd(seq)) == 0.0

    def test_known_offset(self):
        assert scd_from_genes("EK", -0.5) == 0.0
        assert scd_from_genes("EK", -10.0) == pytest.approx(-90.25)


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

    def test_two_genes_equal_full_matrix_form(self, rng):
        """At two genes, the distance layer's row sums give the same
        bits as the mean over the upper triangle of the full (n, n)
        distance matrix, the form earlier runs.csv files were written
        with."""
        for n in (2, 7, 40):
            pts = rng.uniform(-10, 10, size=(n, 2))
            diff = pts[:, None, :] - pts[None, :, :]
            dists = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
            assert spread(pts) == float(dists[np.triu_indices(n, 1)].mean())

    def test_too_few(self):
        with pytest.raises(ConfigError,
                           match="spread needs at least two points"):
            spread([[0.0, 0.0]])

    def test_not_a_matrix(self):
        """A flat list of numbers is not a list of points."""
        with pytest.raises(ConfigError,
                           match=r"2-D array with one row per point"):
            spread([1.0, 2.0, 3.0])

    @pytest.mark.parametrize("points", [5.0, None, [[0.0, 1.0], [2.0]],
                                        [["a", "b"], ["c", "d"]]],
                             ids=["number", "none", "ragged", "labels"])
    def test_not_points_of_numbers(self, points):
        """A number, ragged rows or labels are a ConfigError, not the
        TypeError or ValueError of the conversion."""
        with pytest.raises(ConfigError):
            spread(points)


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

    @pytest.mark.parametrize("sequences", [5, None, [5, 6]],
                             ids=["number", "none", "numbers"])
    def test_not_sequences(self, sequences):
        with pytest.raises(ConfigError, match="hamming_spread needs "
                                              "sequences of labels"):
            hamming_spread(sequences)


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

    @pytest.mark.parametrize("points, message", [
        ([], r"points must be a \(k, 2\) array"),
        ([1.0, 2.0], r"points must be a \(k, 2\) array"),
        ([[1.0, 2.0, 3.0]], r"points must be a \(k, 2\) array"),
        ([[1.0, 0.0], [np.nan, 1.0]], "points must be finite"),
        ([[np.inf, 0.0]], "points must be finite"),
    ], ids=["empty", "vector", "three-columns", "nan", "inf"])
    def test_malformed_points_rejected(self, points, message):
        with pytest.raises(ConfigError, match=message):
            angular_bin_occupancy(points)

    @pytest.mark.parametrize("n_bins, message", [
        (0, "n_bins must be positive, not 0"),
        (-1, "n_bins must be positive, not -1"),
        (1.5, "n_bins must be an integer, not 1.5"),
        (True, "n_bins must be an integer, not True"),
    ], ids=["zero", "negative", "float", "bool"])
    def test_bad_bin_count_rejected(self, n_bins, message):
        with pytest.raises(ConfigError, match=message):
            angular_bin_occupancy([[1.0, 0.0]], n_bins)


class TestRunExperiment:
    def test_unknown_name(self):
        with pytest.raises(ConfigError,
                           match="unknown experiment 'no-such-thing'"):
            run_experiment("no-such-thing")

    def test_unknown_override(self):
        with pytest.raises(ConfigError):
            run_experiment("circle", overrides={"colour": "red"})

    @pytest.mark.parametrize("key, value", [
        ("population", 12.9), ("generations", 2.2), ("repetitions", 1.7),
        ("repetitions", 0), ("repetitions", True), ("population", True),
        ("workers", 1.5),
    ])
    def test_counts_are_not_truncated(self, key, value):
        overrides = dict({"population": 8, "generations": 2,
                          "repetitions": 1}, **{key: value})
        with pytest.raises(ConfigError, match="integer|positive"):
            run_experiment("circle", overrides=overrides)

    @pytest.mark.parametrize("key", ["d0", "r0"])
    @pytest.mark.parametrize("value", ["x", [1]])
    def test_radius_and_penalty_must_be_numbers(self, key, value, tmp_path):
        overrides = {"population": 8, "generations": 2, "repetitions": 1,
                     key: value}
        with pytest.raises(ConfigError,
                           match=f"{key} must be a number, not "):
            run_experiment("circle", overrides=overrides,
                           output_directory=tmp_path)
        assert list(tmp_path.iterdir()) == []

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

    def test_crossover_sweep_rows_method_outer(self):
        """Each method runs every repetition before the next method, and
        the seeds restart at the master seed for each method."""
        report = run_experiment(
            "crossover-sweep",
            overrides={"repetitions": 2, "generations": 2, "population": 8},
            seed=5)
        assert [(r["crossover"], r["repetition"], r["seed"])
                for r in report.rows] == [
            (method, rep, 5 + rep) for method in CROSSOVER_METHODS
            for rep in range(2)]
        for method in CROSSOVER_METHODS:
            group = [r for r in report.rows if r["crossover"] == method]
            stats = report.aggregates[method]
            assert stats["final_mean_fitness_mean"] == pytest.approx(
                np.mean([r["final_mean_fitness"] for r in group]))
            assert stats["spread_sd"] == pytest.approx(
                np.std([r["spread"] for r in group], ddof=1))

    def test_crossover_sweep_rejects_a_crossover(self, tmp_path,
                                                 monkeypatch):
        calls = []
        monkeypatch.setattr(bench, "run", lambda *a, **k: calls.append(a))
        with pytest.raises(ConfigError, match="takes no crossover"):
            run_experiment("crossover-sweep", overrides={
                "repetitions": 1, "generations": 2, "population": 8,
                "crossover": "none"}, output_directory=tmp_path)
        assert calls == [] and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("directory", [123, b"out"])
    def test_bad_output_directory_costs_no_run(self, directory, tmp_path,
                                               monkeypatch):
        """output_directory is checked as EngineConfig checks it, before
        the first repetition."""
        calls = []
        monkeypatch.setattr(bench, "run", lambda *a, **k: calls.append(a))
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ConfigError, match=re.escape(
                f"output_directory must be a path or None, "
                f"not {directory!r}")):
            run_experiment("circle", overrides={
                "repetitions": 1, "generations": 2, "population": 8},
                output_directory=directory)
        assert calls == [] and list(tmp_path.iterdir()) == []

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

    @pytest.mark.parametrize("name, rival", [
        ("landscape-compare", "de"), ("random-compare", "random")])
    def test_rows_equal_direct_calls(self, name, rival):
        """Each row is what a direct call at seed + r gives; the scan runs
        at its repetition's GA evaluations."""
        settings = {"repetitions": 2, "generations": 3, "population": 10}
        report = run_experiment(name, overrides=settings, seed=4)
        spec = GeneSpec.numeric(bench._EXPERIMENTS[name][1]["ranges"])
        fitness = landscape_from_genes
        assert [(r["algorithm"], r["repetition"], r["seed"])
                for r in report.rows] == [
            ("ga", 0, 4), (rival, 0, 4), ("ga", 1, 5), (rival, 1, 5)]
        for ga_row, rival_row in zip(report.rows[::2], report.rows[1::2]):
            seed = ga_row["seed"]
            record = run(spec, fitness, EngineConfig(
                population_size=10, n_generations=3, crossover="none",
                selection=DiversityEnhanced(d0=1.0), seed=seed,
                verbosity=0))
            genes = record.final_population.genes
            want = [(ga_row, genes, record.mean_fitness[-1],
                     record.best_fitness[-1], record.total_evaluations)]
            if rival == "de":
                de = run_de(spec, fitness, DEConfig(
                    population_size=10, n_generations=3, seed=seed))
                want.append((rival_row, de.genes, de.mean_fitness[-1],
                             de.best_fitness[-1], de.total_evaluations))
            else:
                trace = random_scan(spec, fitness, record.total_evaluations,
                                    10, np.random.default_rng(seed))
                want.append((rival_row, trace.kept_genes, trace.final_mean,
                             trace.kept_fitness.max(),
                             trace.evaluations[-1]))
                assert rival_row["evaluations"] == ga_row["evaluations"]
            for row, genes, mean, best, evaluations in want:
                assert row["final_mean_fitness"] == mean
                assert row["best_fitness"] == best
                assert row["spread"] == spread(genes)
                assert row["evaluations"] == evaluations
        assert report.aggregates["ga"]["final_mean_fitness_mean"] == \
            pytest.approx(np.mean([r["final_mean_fitness"]
                                   for r in report.rows[::2]]))
        assert rival in report.aggregates
        note, column, key, phrase = {
            "de": ("", "spread", "ga_spread_wins",
                   "ga spread exceeded de spread"),
            "random": (", equal evaluation budgets", "final_mean_fitness",
                       "ga_wins", "ga beat the random scan"),
        }[rival]
        wins = sum(ga_row[column] > rival_row[column] for ga_row, rival_row
                   in zip(report.rows[::2], report.rows[1::2]))
        assert report.aggregates[key] == wins
        groups = []
        for algorithm in ("ga", rival):
            fit, spr = (np.array([r[c] for r in report.rows
                                  if r["algorithm"] == algorithm])
                        for c in ("final_mean_fitness", "spread"))
            groups.append(
                f"{algorithm}: final mean fitness {fit.mean():.4f} +/- "
                f"{fit.std(ddof=1):.4f}, population spread {spr.mean():.4f}"
                f" +/- {spr.std(ddof=1):.4f}")
        assert report.summary.splitlines() == [
            f"experiment: {name}", "master seed: 4",
            f"repetitions: 2{note}", *groups,
            f"{phrase} in {wins}/2 repetitions"]

    def test_de_runs_at_the_ga_budget_under_all_pairs(self):
        """All-pairs GA generations evaluate more children than DE's, so
        DE runs more generations: 8 + 2 x 28 = 64 evaluations each."""
        report = run_experiment("landscape-compare", overrides={
            "population": 8, "generations": 2, "repetitions": 1,
            "pairing": "all", "crossover": "midpoint"})
        ga_row, de_row = report.rows
        assert ga_row["evaluations"] == de_row["evaluations"] == 64

    def test_summary_mentions_experiment(self):
        report = run_experiment(
            "circle",
            overrides={"repetitions": 1, "generations": 3, "population": 12},
            seed=0)
        assert "experiment: circle" in report.summary
        assert "master seed: 0" in report.summary
