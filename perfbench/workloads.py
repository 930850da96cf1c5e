"""Benchmark workloads: inputs built from a seed, the timed call, its checks.

A problem is one top-level call into divga: a GA run or a DE run plus a
random scan. A workload solves one or more problems, one after another,
in each timed call. Call k of a run with seed s gets its own engine
seed, derived from (s, k), so a run is pinned by its seed and the
program receives only generated inputs.

The divga under test is the one in the checkout's ``src/``; importing
this module fails when that tree is absent.
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import divga  # noqa: E402
from divga import bench  # noqa: E402

if Path(divga.__file__).resolve().parent != SRC / "divga":
    raise ImportError(f"divga was imported from {divga.__file__}, "
                      f"not from {SRC / 'divga'}")


def call_seed(seed: int, k: int) -> int:
    """Engine seed of call k in a run with the given workload seed."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


@dataclass(frozen=True)
class Floor:
    """Quality floor on the mean of one per-call value over the calls."""

    key: str
    op: str
    limit: float

    def holds(self, value: float) -> bool:
        return value >= self.limit if self.op == ">=" else value <= self.limit

    def label(self) -> str:
        return f"{self.key} {self.op} {self.limit:g}"


def _fingerprint(genes, fitness) -> str:
    h = hashlib.sha256()
    if genes.dtype == object:
        h.update("\n".join("".join(map(str, row)) for row in genes).encode())
    else:
        h.update(np.ascontiguousarray(genes, dtype=float).tobytes())
    h.update(np.ascontiguousarray(fitness, dtype=float).tobytes())
    return h.hexdigest()


def _population_summary(genes, fitness, numeric: bool) -> dict:
    spread = bench.spread(genes) if numeric else bench.hamming_spread(genes)
    return {"spread": spread, "mean_fitness": float(np.mean(fitness))}


def _geometric_mean(values) -> float:
    return float(np.exp(np.mean(np.log(values))))


def _no_extras(genes) -> dict:
    return {}


def _circle_extras(genes) -> dict:
    radii = np.hypot(genes[:, 0], genes[:, 1])
    occupancy = bench.angular_bin_occupancy(genes)
    return {"radial_error": float(np.abs(radii - 5.0).mean()),
            "bins_occupied": int((occupancy > 0).sum())}


def _scd_extras(genes) -> dict:
    scds = np.array([bench.calculate_scd(row) for row in genes])
    charges = np.array([bench.net_charge(row) for row in genes])
    return {"scd_error": float(np.abs(scds + 10.0).mean()),
            "net_charge_range": int(charges.max() - charges.min())}


@dataclass
class CallInputs:
    """Everything one timed call needs; fitness may be swapped for tracing."""

    spec: object
    fitness: object
    seed: int
    config: object = None
    fitness_args: tuple = ()
    output_directory: Path | None = None


@dataclass(frozen=True)
class GAProblem:
    """One divga.run."""

    name: str
    ranges: tuple | None
    sequence_length: int
    fitness: Callable
    fitness_args: tuple
    population: int
    generations: int
    crossover: str
    pairing: str = "random"
    workers: int = 0
    writes: bool = False
    extras: Callable = _no_extras
    floors: tuple = ()

    @property
    def children(self) -> int:
        n = self.population
        if self.crossover != "none" and self.pairing == "all":
            return n * (n - 1) // 2
        return n

    @property
    def evaluations_per_call(self) -> int:
        return self.population + self.generations * self.children

    def settings(self) -> dict:
        return {"kind": "ga", "population": self.population,
                "generations": self.generations, "crossover": self.crossover,
                "pairing": self.pairing, "parallel_workers": self.workers,
                "ranges": self.ranges, "sequence_length": self.sequence_length,
                "fitness": self.fitness.__name__,
                "fitness_args": list(self.fitness_args),
                "writes_files": self.writes,
                "evaluations_per_call": self.evaluations_per_call}

    def build(self, seed: int, k: int, work_dir: Path) -> CallInputs:
        if self.ranges is not None:
            spec = divga.GeneSpec.numeric(self.ranges)
        else:
            spec = divga.GeneSpec.categorical(("E", "K"), self.sequence_length)
        engine_seed = call_seed(seed, k)
        out = work_dir / f"call-{k}" if self.writes else None
        config = divga.EngineConfig(
            population_size=self.population, n_generations=self.generations,
            crossover=self.crossover, pairing=self.pairing, seed=engine_seed,
            parallel_workers=self.workers, output_directory=out, verbosity=0)
        return CallInputs(spec=spec, fitness=self.fitness, seed=engine_seed,
                          config=config, fitness_args=self.fitness_args,
                          output_directory=out)

    def call(self, inputs: CallInputs):
        return divga.run(inputs.spec, inputs.fitness, inputs.config,
                         fitness_args=inputs.fitness_args)

    def check(self, record) -> list:
        """Correctness checks of one call: (name, ok, detail) triples."""
        n, g = self.population, self.generations
        expected = [n + k * self.children for k in range(g + 1)]
        final = record.final_population
        fitness = np.array([ind.fitness for ind in final], dtype=float)
        best = record.best_fitness
        return [
            ("evaluations exact", record.evaluations == expected,
             f"{record.total_evaluations} of {expected[-1]} evaluations"),
            ("best fitness never decreases",
             all(b >= a for a, b in zip(best, best[1:])),
             f"best fitness {best[0]:.6g} -> {best[-1]:.6g}"),
            ("n survivors with finite fitness",
             len(record.populations) == g + 1 and len(final) == n
             and bool(np.isfinite(fitness).all()),
             f"{len(final)} survivors of {n}, "
             f"{int(np.isfinite(fitness).sum())} finite"),
        ]

    def summarize(self, record) -> dict:
        final = record.final_population
        genes = np.stack([ind.genes for ind in final])
        fitness = np.array([ind.fitness for ind in final], dtype=float)
        summary = _population_summary(genes, fitness, self.ranges is not None)
        summary.update(self.extras(genes))
        summary["evaluations"] = record.total_evaluations
        summary["fingerprint"] = _fingerprint(genes, fitness)
        if self.writes:
            summary["bytes_written"] = sum(
                Path(p).stat().st_size for p in record.output_files.values())
        return summary


@dataclass(frozen=True)
class BaselinesProblem:
    """One run_de, then one budget-matched random_scan.

    The scan gets the DE budget, n (G + 1) evaluations, and keeps the n
    best. The spread is that of the scan's kept set: DE's population
    collapses by design (spread about 5e-5, gated by its floor from above),
    so a share of its spread is rounding, not coverage. The mean fitness
    is the mean of the two optimizers' values.
    """

    name: str
    ranges: tuple
    population: int
    generations: int
    floors: tuple = ()
    fitness: Callable = bench.landscape_from_genes

    @property
    def budget(self) -> int:
        return self.population * (self.generations + 1)

    @property
    def evaluations_per_call(self) -> int:
        return 2 * self.budget

    def settings(self) -> dict:
        return {"kind": "baselines", "population": self.population,
                "generations": self.generations, "ranges": self.ranges,
                "fitness": self.fitness.__name__,
                "scan_budget": self.budget, "scan_keep": self.population,
                "evaluations_per_call": self.evaluations_per_call}

    def build(self, seed: int, k: int, work_dir: Path) -> CallInputs:
        engine_seed = call_seed(seed, k)
        return CallInputs(
            spec=divga.GeneSpec.numeric(self.ranges), fitness=self.fitness,
            seed=engine_seed,
            config=divga.DEConfig(population_size=self.population,
                                  n_generations=self.generations,
                                  seed=engine_seed))

    def call(self, inputs: CallInputs):
        de = divga.run_de(inputs.spec, inputs.fitness, inputs.config)
        scan = divga.random_scan(inputs.spec, inputs.fitness, self.budget,
                                 self.population,
                                 np.random.default_rng(inputs.seed))
        return de, scan

    def check(self, result) -> list:
        de, scan = result
        n, g = self.population, self.generations
        expected = [n * (k + 1) for k in range(g + 1)]
        best = de.best_fitness
        kept_mean = scan.kept_mean[n - 1:]
        survivors_ok = (de.genes.shape == (n, len(self.ranges))
                        and len(de.fitness) == n
                        and bool(np.isfinite(de.fitness).all())
                        and len(scan.kept_genes) == n
                        and bool(np.isfinite(scan.kept_fitness).all()))
        return [
            ("evaluations exact",
             de.evaluations == expected and len(scan.evaluations) == self.budget
             and int(scan.evaluations[-1]) == self.budget,
             f"de {de.total_evaluations} of {expected[-1]}, scan "
             f"{int(scan.evaluations[-1])} of {self.budget}"),
            ("best fitness never decreases",
             all(b >= a for a, b in zip(best, best[1:]))
             and bool(np.all(np.diff(kept_mean) >= 0)),
             f"de best {best[0]:.6g} -> {best[-1]:.6g}, scan kept mean "
             f"{kept_mean[0]:.6g} -> {kept_mean[-1]:.6g}"),
            ("n survivors with finite fitness", survivors_ok,
             f"de {len(de.fitness)} and scan {len(scan.kept_genes)} of {n}"),
        ]

    def summarize(self, result) -> dict:
        de, scan = result
        kept = np.stack(scan.kept_genes)
        de_summary = _population_summary(de.genes, de.fitness, True)
        scan_summary = _population_summary(kept, scan.kept_fitness, True)
        summary = {"spread": scan_summary["spread"],
                   "mean_fitness": (de_summary["mean_fitness"]
                                    + scan_summary["mean_fitness"]) / 2.0}
        summary["de_spread"] = de_summary["spread"]
        summary["evaluations"] = de.total_evaluations + int(scan.evaluations[-1])
        summary["fingerprint"] = _fingerprint(
            np.concatenate([de.genes, kept]),
            np.concatenate([de.fitness, scan.kept_fitness]))
        return summary


@dataclass(frozen=True)
class Workload:
    """Problems solved one after another in each timed call."""

    name: str
    parts: tuple

    def tiny(self) -> "Workload":
        """The same problems at n=8, G=2, for warming up and smoke tests."""
        return replace(self, parts=tuple(
            replace(p, population=8, generations=2) for p in self.parts))

    def settings(self) -> dict:
        return {p.name: p.settings() for p in self.parts}

    def build(self, seed: int, k: int, work_dir: Path) -> list:
        return [p.build(seed, k, work_dir) for p in self.parts]

    def call(self, inputs: list) -> list:
        return [p.call(i) for p, i in zip(self.parts, inputs)]

    def check(self, results: list) -> list:
        return [(f"{p.name}: {name}", ok, detail)
                for p, result in zip(self.parts, results)
                for name, ok, detail in p.check(result)]

    def summarize(self, results: list) -> dict:
        """Per-problem summaries, plus their spreads' geometric mean.

        The spreads of the problems differ in scale (about 6.4 on the
        circle, 1.2-1.9 elsewhere); their geometric mean moves by the same
        share whichever problem's spread changes by a given share.
        """
        parts = {p.name: p.summarize(r) for p, r in zip(self.parts, results)}
        prints = "".join(s["fingerprint"] for s in parts.values())
        return {"parts": parts,
                "spread": _geometric_mean([s["spread"]
                                           for s in parts.values()]),
                "evaluations": sum(s["evaluations"] for s in parts.values()),
                "bytes_written": sum(s.get("bytes_written", 0)
                                     for s in parts.values()),
                "fingerprint": hashlib.sha256(prints.encode()).hexdigest()}


LANDSCAPE_BOX = ((-1.5, 1.5), (-1.5, 1.5))

# The floors are those of tests/test_acceptance.py, applied to the mean
# over the calls of a run.
LANDSCAPE = GAProblem(
    name="landscape", ranges=LANDSCAPE_BOX, sequence_length=0,
    fitness=bench.landscape_from_genes, fitness_args=(),
    population=200, generations=100, crossover="none", writes=True,
    floors=(Floor("mean_fitness", ">=", 9.8), Floor("spread", ">=", 1.2),
            Floor("spread", "<=", 1.9)))
ALLPAIRS = GAProblem(
    name="allpairs", ranges=((-10.0, 10.0), (-10.0, 10.0)),
    sequence_length=0, fitness=bench.circle_from_genes, fitness_args=(),
    population=100, generations=10, crossover="between", pairing="all",
    extras=_circle_extras,
    floors=(Floor("radial_error", "<=", 0.5),
            Floor("bins_occupied", ">=", 12)))
SCD = GAProblem(
    name="scd", ranges=None, sequence_length=50,
    fitness=bench.scd_from_genes, fitness_args=(-10.0,),
    population=100, generations=50, crossover="eitheror", workers=2,
    extras=_scd_extras,
    floors=(Floor("scd_error", "<=", 1.0),
            Floor("net_charge_range", ">=", 10)))
BASELINES = BaselinesProblem(
    name="baselines", ranges=LANDSCAPE_BOX, population=200, generations=100,
    floors=(Floor("de_spread", "<=", 0.9),))

# Why each workload exists is given in BENCHMARK.json.
WORKLOADS = {
    "numeric": Workload("numeric", (LANDSCAPE, ALLPAIRS, BASELINES)),
    "scd": Workload("scd", (SCD,)),
}
