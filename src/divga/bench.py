"""Benchmark fitness functions and canned comparison experiments.

The experiments pit the diversity-enhanced genetic algorithm against
differential evolution and a uniform random scan on small test
landscapes, at matched fitness-evaluation budgets, and report per-run
rows plus aggregates that can be recomputed from those rows.
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .baselines import DEConfig, random_scan, run_de
from .distance import hamming_spread, spread
from .engine import (DiversityEnhanced, EngineConfig,
                     _check_output_directory, run, vectorized)
from .errors import ConfigError
from .genome import GeneSpec, _check_integer
from .variation import CROSSOVER_METHODS, PAIRING_STRATEGIES

CHARGES = {"K": 1.0, "E": -1.0}
CIRCLE_AMPLITUDE = 5.0
CIRCLE_RADIUS = 5.0


@vectorized
def landscape_from_genes(genes):
    """Oscillatory plateau inside a hard box, of genes (x1, x2).

    Returns -1000 outside |x1|, |x2| <= 1.5 and 10 cos(20 x1 x2)
    inside, a landscape whose ridges of near-maximal fitness are thin
    hyperbola-shaped bands. genes is one gene vector, for a float, or a
    (k, 2) matrix, for (k,) values; each row gets the same bits either
    way. One vector is computed on numpy scalars, which cost a fraction
    of the 0-d arrays of the matrix form.
    """
    genes = np.asarray(genes, dtype=float)
    if genes.ndim == 1:
        x1, x2 = genes[0], genes[1]
        if abs(x1) > 1.5 or abs(x2) > 1.5:
            return -1000.0
        return float(10.0 * np.cos(20.0 * x1 * x2))
    x1, x2 = genes[..., 0], genes[..., 1]
    outside = (np.abs(x1) > 1.5) | (np.abs(x2) > 1.5)
    return np.where(outside, -1000.0, 10.0 * np.cos(20.0 * x1 * x2))


@vectorized
def circle_from_genes(genes):
    """Zero on the circle of radius CIRCLE_RADIUS, quadratic falloff
    elsewhere: -CIRCLE_AMPLITUDE d^2 at distance d from the circle.

    Takes one gene vector, for a float, or a (k, 2) matrix, for (k,)
    values. d^2 is d * d, the correctly rounded square, in both forms;
    a Python d ** 2 calls the C library's pow, which can miss it by one
    unit in the last place.
    """
    genes = np.asarray(genes, dtype=float)
    d = np.hypot(genes[..., 0], genes[..., 1]) - CIRCLE_RADIUS
    return _per_row(genes, -CIRCLE_AMPLITUDE * (d * d))


def _per_row(genes: np.ndarray, values):
    """values as a float for one gene vector, as an array for a matrix."""
    return values if genes.ndim > 1 else float(values)


def _charge_vector(sequence) -> np.ndarray:
    try:
        n = len(sequence)
    except TypeError:
        raise ConfigError(
            f"need a sequence of labels, not {sequence!r}") from None
    try:
        return np.fromiter(map(CHARGES.__getitem__, sequence), float, n)
    except (KeyError, TypeError):
        for label in sequence:
            try:
                CHARGES[label]
            except (KeyError, TypeError):
                raise ConfigError(f"no charge defined for label {label!r}")
        raise


def _charges(labels) -> np.ndarray:
    """Charges of one label sequence, (n,), or of each row of a (k, n)
    label array, (k, n). A label with no charge is a ConfigError naming
    the first one in row order, as is an array of more dimensions."""
    if not (isinstance(labels, np.ndarray) and labels.ndim > 1):
        return _charge_vector(labels)
    if labels.ndim > 2:
        raise ConfigError(f"need one label sequence or a (k, n) array of "
                          f"them, not an array of shape {labels.shape}")
    charges = np.zeros(labels.shape)
    known = np.zeros(labels.shape, dtype=bool)
    try:
        for label, charge in CHARGES.items():
            hit = labels == label
            charges[hit] = charge
            known |= hit
        if known.all():
            return charges
    except (TypeError, ValueError):  # a label, such as an array, with no ==
        pass
    # The rows one by one name the first label with no charge.
    return np.array([_charge_vector(row) for row in labels])


def _lag_sums(charges: np.ndarray) -> np.ndarray:
    """C_k = sum_a q_a q_(a+k), k = 1..n-1, of each row of a (rows, n)
    charge matrix, as a C-contiguous (rows, n - 1) array.

    The charges are integers, so every C_k is an exact integer in
    float64 whatever the order of summation: a row's lag sums do not
    depend on how they are computed or on the rows around it.
    """
    rows, n = charges.shape
    if rows == 1:  # a tenth of the windowed form's cost on one row
        return np.correlate(charges[0], charges[0], "full")[None, n:]
    padded = np.zeros((rows, 2 * n - 1))
    padded[:, :n] = charges
    shifted = sliding_window_view(padded, n, axis=1)[:, 1:]
    return np.einsum("rka,ra->rk", shifted, charges)


def calculate_scd(sequence):
    """Sequence charge decoration of a K/E label sequence (Sawle & Ghosh,
    J. Chem. Phys. 143, 085101, 2015).

    Sum over ordered index pairs a < b of q_a q_b sqrt(b - a), divided
    by the sequence length n, computed as (sum_k sqrt(k) C_k) / n from
    the exact lag sums C_k = sum_a q_a q_(a+k), k = 1..n-1, the terms
    summed along one C-contiguous row. Blocky sequences of like charges
    score far from zero, well-mixed sequences near zero. Takes one
    sequence, for a float, or a (k, n) label array, for (k,) values;
    each row gets the bits of its one-row call either way.
    """
    charges = _charges(sequence)
    n = charges.shape[-1]
    if n == 0:
        raise ConfigError("empty sequence")
    lags = _lag_sums(np.atleast_2d(charges))
    scd = np.sum(np.sqrt(np.arange(1, n)) * lags, axis=1) / n
    return scd if charges.ndim > 1 else float(scd[0])


@vectorized
def scd_from_genes(genes, target_scd: float):
    """Negative squared deviation of the sequence's SCD from a target,
    -(d * d) with d = SCD - target_scd. Takes one sequence, for a float,
    or a (k, n) label array, for (k,) values, as calculate_scd does."""
    d = calculate_scd(genes) - target_scd
    return -(d * d)


def net_charge(sequence):
    """Number of K labels minus number of E labels: an int for one
    sequence, a (k,) integer array for a (k, n) label array."""
    total = _charges(sequence).sum(axis=-1)
    return np.rint(total).astype(int) if np.ndim(total) else int(round(total))


def angular_bin_occupancy(points, n_bins: int = 12) -> np.ndarray:
    """Counts of points per equal-width angular bin around the origin.

    points must be a (k, 2) array of finite numbers and n_bins a
    positive integer; anything else is a ConfigError.
    """
    _check_integer("n_bins", n_bins, 1)
    pts = np.asarray(list(points), dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ConfigError(
            f"points must be a (k, 2) array, not an array of shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise ConfigError("points must be finite")
    angles = np.arctan2(pts[:, 1], pts[:, 0])
    bins = np.floor((angles + np.pi) / (2 * np.pi / n_bins)).astype(int)
    bins = np.clip(bins, 0, n_bins - 1)
    return np.bincount(bins, minlength=n_bins)


# run_experiment's overrides, divga-bench's flags: (type or choices, help).
_OPTIONS = {
    "population": (int, "population size (per-experiment default)"),
    "generations": (int, "number of generations"),
    "repetitions": (int, "independent repetitions"),
    "crossover": (CROSSOVER_METHODS, "crossover method"),
    "pairing": (PAIRING_STRATEGIES, "parent pairing strategy"),
    "d0": (float, "diversity penalty amplitude; 0 selects the top n by raw "
                  "fitness"),
    "r0": (float, "diversity penalty radius"),
    "workers": (int, "fitness worker processes, 0 for sequential"),
}

@dataclass
class BenchmarkReport:
    """Result of one experiment: per-run rows plus derived aggregates."""

    experiment: str
    rows: list = field(default_factory=list)
    aggregates: dict = field(default_factory=dict)
    summary: str = ""
    files: dict = field(default_factory=dict)


def _mean_sd(values) -> tuple[float, float]:
    arr = np.asarray(list(values), dtype=float)
    sd = float(arr.std(ddof=1)) if len(arr) > 1 else 0.0
    return float(arr.mean()), sd


def _ga(spec, fitness, settings, seed, budget):
    record = run(spec, fitness, EngineConfig(
        population_size=settings["population"],
        n_generations=settings["generations"],
        crossover=settings.get("crossover"),
        pairing=settings.get("pairing", "random"),
        selection=DiversityEnhanced(d0=settings.get("d0", 1.0),
                                    r0=settings.get("r0")),
        seed=seed, parallel_workers=settings.get("workers", 0), verbosity=0,
    ))
    return (record.final_population.genes, record.mean_fitness[-1],
            record.best_fitness[-1], record.total_evaluations)


def _de(spec, fitness, settings, seed, budget):
    population = settings["population"]
    de = run_de(spec, fitness, DEConfig(
        population_size=population,
        n_generations=(settings["generations"] if budget is None
                       else budget // population - 1), seed=seed,
        parallel_workers=settings.get("workers", 0)))
    return (de.genes, de.mean_fitness[-1], de.best_fitness[-1],
            de.total_evaluations)


def _random(spec, fitness, settings, seed, budget):
    trace = random_scan(spec, fitness, budget, settings["population"],
                        np.random.default_rng(seed))
    return (trace.kept_genes, trace.final_mean, trace.kept_fitness.max(),
            trace.evaluations[-1])


# algorithm: (spec, fitness, settings, seed, budget) -> (final genes, final
# mean fitness, best fitness, evaluations), budget None for a repetition's
# first method. Top-N is the GA at d0 = 0; DE runs the most whole
# generations that fit in the budget.
_METHODS = {"ga": _ga, "de": _de, "random": _random}


def _runs(settings, seed, spec, fitness, methods=("ga",), columns=None):
    """The runs.csv rows: repetition r runs each method in turn at seed + r,
    each after the first at the first one's evaluations. columns(genes,
    settings) gives an experiment's own columns; the spread is Hamming
    for label genes."""
    rows = []
    for rep in range(settings["repetitions"]):
        budget = None
        for name in methods:
            genes, mean, best, evaluations = _METHODS[name](
                spec, fitness, settings, seed + rep, budget)
            if budget is None:
                budget = int(evaluations)
            genes = np.asarray(genes)
            rows.append({
                "algorithm": name,
                "repetition": rep,
                "seed": seed + rep,
                "final_mean_fitness": float(mean),
                "best_fitness": float(best),
                "spread": (hamming_spread(genes) if genes.dtype == object
                           else spread(genes)),
                "evaluations": int(evaluations),
                **(columns(genes, settings) if columns else {}),
            })
    return rows


def _compare(rows, groups, key="algorithm"):
    """Aggregates and one summary line per group of rows sharing key: the
    mean and sd of final mean fitness and of spread."""
    aggregates, lines = {}, []
    for group in groups:
        members = [r for r in rows if r[key] == group]
        stats = aggregates[group] = {}
        for column in ("final_mean_fitness", "spread"):
            stats[f"{column}_mean"], stats[f"{column}_sd"] = _mean_sd(
                r[column] for r in members)
        lines.append(
            "{}: final mean fitness {final_mean_fitness_mean:.4f} +/- "
            "{final_mean_fitness_sd:.4f}, population spread {spread_mean:.4f}"
            " +/- {spread_sd:.4f}".format(group, **stats))
    return aggregates, lines


def _versus(rival, column, key, phrase, note=""):
    """A head-to-head experiment on the landscape: repetition r runs the
    GA, then rival at the GA's evaluations. aggregates[key] counts the
    repetitions in which the GA's column beat the rival's, and the last
    summary line says so after phrase."""
    def experiment(settings, seed):
        rows = _runs(settings, seed, GeneSpec.numeric(settings["ranges"]),
                     landscape_from_genes, ("ga", rival))
        aggregates, lines = _compare(rows, ("ga", rival))
        wins = aggregates[key] = sum(
            a[column] > b[column] for a, b in zip(rows[::2], rows[1::2]))
        repetitions = settings["repetitions"]
        return rows, aggregates, [
            f"repetitions: {repetitions}{note}", *lines,
            f"{phrase} in {wins}/{repetitions} repetitions"]
    return experiment


def _circle_columns(genes, settings):
    radii = np.hypot(genes[:, 0], genes[:, 1])
    return {"radial_error_mean": float(np.abs(radii - CIRCLE_RADIUS).mean()),
            "bins_occupied": int((angular_bin_occupancy(genes) > 0).sum())}


def _circle(settings, seed):
    rows = _runs(settings, seed, GeneSpec.numeric(settings["ranges"]),
                 circle_from_genes, columns=_circle_columns)
    err_mean, err_sd = _mean_sd(r["radial_error_mean"] for r in rows)
    least = min(r["bins_occupied"] for r in rows)
    full = sum(r["bins_occupied"] == 12 for r in rows)
    aggregates = {"radial_error_mean": err_mean, "radial_error_sd": err_sd,
                  "min_bins_occupied": least, "all_bins_occupied_runs": full}
    lines = [
        f"repetitions: {settings['repetitions']}",
        f"mean radial error {err_mean:.4f} +/- {err_sd:.4f} "
        f"(target circle radius {CIRCLE_RADIUS:g})",
        f"all 12 angular bins occupied in {full}/{settings['repetitions']} "
        f"repetitions (minimum occupied: {least})",
    ]
    return rows, aggregates, lines


def _scd_columns(genes, settings):
    scds, charges = calculate_scd(genes), net_charge(genes)
    return {
        "mean_abs_scd_error": float(
            np.abs(scds - settings["target_scd"]).mean()),
        "net_charge_min": int(charges.min()),
        "net_charge_max": int(charges.max()),
        "net_charge_range": int(charges.max() - charges.min()),
    }


def _scd(settings, seed):
    spec = GeneSpec.categorical(("E", "K"), settings["sequence_length"])
    target = settings["target_scd"]
    rows = _runs(settings, seed, spec, vectorized(functools.partial(
        scd_from_genes, target_scd=target)), columns=_scd_columns)
    err_mean, err_sd = _mean_sd(r["mean_abs_scd_error"] for r in rows)
    rng_mean, rng_sd = _mean_sd(r["net_charge_range"] for r in rows)
    least = min(r["net_charge_range"] for r in rows)
    aggregates = {"mean_abs_scd_error_mean": err_mean,
                  "mean_abs_scd_error_sd": err_sd,
                  "net_charge_range_mean": rng_mean,
                  "net_charge_range_sd": rng_sd, "min_net_charge_range": least}
    lines = [
        f"repetitions: {settings['repetitions']}, target SCD {target:g}, "
        f"sequence length {settings['sequence_length']}",
        f"mean |SCD - target| {err_mean:.4f} +/- {err_sd:.4f}",
        f"net charge range {rng_mean:.1f} +/- {rng_sd:.1f} "
        f"(minimum {least})",
        "spread column: mean pairwise fraction of differing positions",
    ]
    return rows, aggregates, lines


def _crossover_sweep(settings, seed):
    if "crossover" in settings:
        raise ConfigError("crossover-sweep runs every crossover method; "
                          "it takes no crossover option")
    spec = GeneSpec.numeric(settings["ranges"])
    rows = []
    for method in CROSSOVER_METHODS:
        rows += _runs(dict(settings, crossover=method), seed, spec,
                      landscape_from_genes,
                      columns=lambda genes, s: {"crossover": s["crossover"]})
    aggregates, lines = _compare(rows, CROSSOVER_METHODS, key="crossover")
    return rows, aggregates, [
        f"repetitions per method: {settings['repetitions']}", *lines]


# name: (function, default settings), in the order EXPERIMENTS lists them.
_EXPERIMENTS = {
    "landscape-compare": (_versus(
        "de", "spread", "ga_spread_wins",
        "ga spread exceeded de spread"), dict(
        population=200, generations=100, repetitions=10, crossover="none",
        pairing="random", ranges=((-1.5, 1.5), (-1.5, 1.5)))),
    "circle": (_circle, dict(
        population=100, generations=20, repetitions=10, crossover="between",
        pairing="random", ranges=((-10.0, 10.0), (-10.0, 10.0)))),
    "scd": (_scd, dict(
        population=100, generations=50, repetitions=10, crossover="eitheror",
        pairing="random", sequence_length=50, target_scd=-10.0)),
    "crossover-sweep": (_crossover_sweep, dict(
        population=200, generations=100, repetitions=3, pairing="random",
        ranges=((-1.5, 1.5), (-1.5, 1.5)))),
    "random-compare": (_versus(
        "random", "final_mean_fitness", "ga_wins", "ga beat the random scan",
        ", equal evaluation budgets"), dict(
        population=200, generations=100, repetitions=10, crossover="none",
        pairing="random", ranges=((-10.0, 10.0), (-10.0, 10.0)))),
}
EXPERIMENTS = tuple(_EXPERIMENTS)


def _apply_overrides(settings: dict, overrides: dict | None) -> dict:
    """settings with the given overrides applied, as given.

    Only repetitions, which no settings object holds, is checked here,
    as a positive integer; the run settings check every other value
    when built (counts are never truncated, d0 and r0 must be numbers).
    """
    if not overrides:
        return settings
    for key, value in overrides.items():
        if key not in _OPTIONS:
            raise ConfigError(f"unknown experiment option {key!r}")
        if value is None:
            continue
        if key == "repetitions":
            _check_integer("repetitions", value, 1)
        settings[key] = value
    return settings


def _format_cell(value) -> str:
    return "%.17g" % value if isinstance(value, float) else str(value)


def _write_files(report: BenchmarkReport, directory) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    runs_path = directory / f"{report.experiment}_runs.csv"
    columns = list(report.rows[0].keys())
    with open(runs_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in report.rows:
            writer.writerow([_format_cell(row[col]) for col in columns])
    summary_path = directory / f"{report.experiment}_summary.txt"
    with open(summary_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(report.summary + "\n")
    report.files = {"runs": runs_path, "summary": summary_path}


def run_experiment(name: str, overrides: dict | None = None, seed: int = 0,
                   output_directory=None) -> BenchmarkReport:
    """Run one named experiment and optionally write its files.

    Emits <experiment>_runs.csv (one row per run) and
    <experiment>_summary.txt into output_directory unless it is None
    ("" is the current directory), which is checked before any run.
    Repetition r of an experiment uses seed + r, so a master seed, an
    integer of at least 0 also checked before any run, pins the whole
    experiment.
    """
    if name not in _EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {name!r}; choose from {', '.join(EXPERIMENTS)}")
    _check_integer("seed", seed, 0)
    _check_output_directory(output_directory)
    experiment, defaults = _EXPERIMENTS[name]
    settings = _apply_overrides(dict(defaults), overrides)
    rows, aggregates, lines = experiment(settings, seed)
    header = [f"experiment: {name}", f"master seed: {seed}"]
    report = BenchmarkReport(experiment=name, rows=rows, aggregates=aggregates,
                             summary="\n".join(header + lines))
    if output_directory is not None:
        _write_files(report, output_directory)
    return report
