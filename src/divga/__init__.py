"""Diversity-enhanced genetic algorithm for exploring parameter spaces.

Survivor selection penalizes crowding: each time a candidate is picked,
everyone nearby loses working fitness, so the survivors end up spanning
the high-fitness region instead of piling onto its single best point.
"""

from .baselines import DEConfig, DEResult, RandomScanTrace, random_scan, run_de
from .bench import (
    BenchmarkReport,
    EXPERIMENTS,
    angular_bin_occupancy,
    calculate_scd,
    circle_fitness,
    hamming_spread,
    landscape_fitness,
    net_charge,
    run_experiment,
    scd_fitness,
    spread,
)
from .distance import (
    DistanceMeasure,
    DynamicSq,
    EuclideanSq,
    HammingSq,
    default_r0,
    get_measure,
)
from .engine import (
    DiversityEnhanced,
    EngineConfig,
    RunRecord,
    WorkerPool,
    evaluate_population,
    persist,
    run,
)
from .errors import ConfigError, DivgaError, FitnessEvaluationError
from .genome import GeneSpec, seed_population
from .selection import select_diverse, select_top_n
from .variation import MutationConfig, crossover, make_pairs, mutate, produce_offspring

__version__ = "0.1.0"

__all__ = [
    "BenchmarkReport",
    "ConfigError",
    "DEConfig",
    "DEResult",
    "DistanceMeasure",
    "DiversityEnhanced",
    "DivgaError",
    "DynamicSq",
    "EXPERIMENTS",
    "EngineConfig",
    "EuclideanSq",
    "FitnessEvaluationError",
    "GeneSpec",
    "HammingSq",
    "MutationConfig",
    "RandomScanTrace",
    "RunRecord",
    "WorkerPool",
    "angular_bin_occupancy",
    "calculate_scd",
    "circle_fitness",
    "crossover",
    "default_r0",
    "evaluate_population",
    "get_measure",
    "hamming_spread",
    "landscape_fitness",
    "make_pairs",
    "mutate",
    "net_charge",
    "persist",
    "produce_offspring",
    "random_scan",
    "run",
    "run_de",
    "run_experiment",
    "scd_fitness",
    "seed_population",
    "select_diverse",
    "select_top_n",
    "spread",
]
