"""Package surface: everything advertised in __all__ resolves, every
error the library raises is one of its own three classes, and settings
objects check themselves when built."""

import ast
import builtins
import dataclasses
import inspect
from pathlib import Path

import numpy as np
import pytest

import divga
from divga import (
    ConfigError,
    DEConfig,
    DistanceMeasure,
    DiversityEnhanced,
    DivgaError,
    EngineConfig,
    EuclideanSq,
    FitnessEvaluationError,
    GeneSpec,
    HammingSq,
    MutationConfig,
    WorkerPool,
    angular_bin_occupancy,
    make_pairs,
    random_scan,
    run_experiment,
    seed_population,
    select_diverse,
)

SOURCE = Path(divga.__file__).parent

# Builtin exceptions a module may raise on purpose: the elitism check
# in run and the abstract DistanceMeasure.to_point.
ALLOWED_BUILTIN_RAISES = {
    ("engine.py", "RuntimeError"),
    ("distance.py", "NotImplementedError"),
}


def test_all_names_resolve():
    for name in divga.__all__:
        assert getattr(divga, name, None) is not None, name


def test_all_is_sorted_and_unique():
    assert list(divga.__all__) == sorted(set(divga.__all__))


def test_public_surface():
    """The exported names, spelled out so that any change shows up."""
    assert divga.__all__ == [
        "BenchmarkReport", "ConfigError", "DEConfig", "DEResult",
        "DistanceMeasure", "DiversityEnhanced", "DivgaError", "DynamicSq",
        "EXPERIMENTS", "EngineConfig", "EuclideanSq",
        "FitnessEvaluationError", "GeneSpec", "HammingSq", "MutationConfig",
        "RandomScanTrace", "RunRecord", "WorkerPool",
        "angular_bin_occupancy", "calculate_scd", "crossover", "default_r0",
        "evaluate_population", "get_measure", "hamming_spread",
        "make_pairs", "mutate", "net_charge", "produce_offspring",
        "random_scan", "run", "run_de", "run_experiment", "seed_population",
        "select_diverse", "spread", "vectorized",
    ]


def test_version_string():
    parts = divga.__version__.split(".")
    assert len(parts) == 3
    assert all(p.isdigit() for p in parts)


def test_three_exception_classes():
    exported = {name for name in divga.__all__
                if inspect.isclass(getattr(divga, name))
                and issubclass(getattr(divga, name), BaseException)}
    assert exported == {"DivgaError", "ConfigError", "FitnessEvaluationError"}
    defined = {name for name, obj in vars(divga.errors).items()
               if inspect.isclass(obj) and issubclass(obj, BaseException)
               and obj.__module__ == "divga.errors"}
    assert defined == exported
    assert DivgaError.__bases__ == (Exception,)
    assert ConfigError.__bases__ == (DivgaError, ValueError)
    assert FitnessEvaluationError.__bases__ == (DivgaError, RuntimeError)


def _raised_builtins(path):
    """(line, name) of every raise of a builtin exception class in path;
    bare re-raises name nothing and are skipped."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        name = exc.id if isinstance(exc, ast.Name) else None
        if (name is not None
                and isinstance(getattr(builtins, name, None), type)
                and issubclass(getattr(builtins, name), BaseException)):
            yield node.lineno, name


def _pool_constructions(node, scope=""):
    """Enclosing class.function scope of every ProcessPoolExecutor(...)
    call under node."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef)):
            inner = f"{scope}.{child.name}" if scope else child.name
        if isinstance(child, ast.Call):
            func = child.func
            name = func.id if isinstance(func, ast.Name) else getattr(
                func, "attr", None)
            if name == "ProcessPoolExecutor":
                yield inner
        yield from _pool_constructions(child, inner)


def test_one_process_pool_constructor():
    """Worker processes start only in WorkerPool, once per run or run_de,
    so no per-generation pool comes back."""
    sites = [(path.name, scope)
             for path in sorted(SOURCE.glob("*.py"))
             for scope in _pool_constructions(
                 ast.parse(path.read_text(encoding="utf-8")))]
    assert sites == [("engine.py", "WorkerPool.__init__")]


def test_no_builtin_exceptions_raised():
    """Bad input raises ConfigError, never a bare ValueError, TypeError or
    KeyError, so one except clause catches every library error."""
    modules = sorted(SOURCE.glob("*.py"))
    assert modules
    offenders = [f"{path.name}:{line} raises {name}"
                 for path in modules
                 for line, name in _raised_builtins(path)
                 if (path.name, name) not in ALLOWED_BUILTIN_RAISES]
    assert offenders == []


SELF_CHECKING = (GeneSpec, EngineConfig, DEConfig, DiversityEnhanced,
                 MutationConfig)


def test_settings_types_check_themselves():
    """Each settings type is a frozen dataclass with its own
    __post_init__, so its rules are checked once, when a value is made,
    and no later assignment can bypass them."""
    for cls in SELF_CHECKING:
        assert dataclasses.is_dataclass(cls), cls.__name__
        assert cls.__dataclass_params__.frozen, cls.__name__
        assert "__post_init__" in vars(cls), cls.__name__


# An explicit id keeps a row's test id stable when its message changes.
@pytest.mark.parametrize("build, match", [
    (lambda: GeneSpec(numeric_ranges=((1.0, 0.0),), number_of_genes=1),
     "empty gene range"),
    (lambda: GeneSpec(numeric_ranges=((0.0, 1.0),), categories=("E", "K"),
                      number_of_genes=1),
     "exactly one of numeric_ranges and"),
    (lambda: GeneSpec(categories=("E",), number_of_genes=3),
     "at least two distinct labels"),
    (lambda: GeneSpec(number_of_genes=2), "a genome needs exactly one"),
    (lambda: GeneSpec(numeric_ranges=(("a", 1),), number_of_genes=1),
     r"ranges must be \(lower, upper\) number pairs, not \(\('a', 1\),\)"),
    (lambda: GeneSpec(numeric_ranges=(1, 2), number_of_genes=2),
     r"ranges must be \(lower, upper\) number pairs, not \(1, 2\)"),
    (lambda: GeneSpec(categories=[["a"], ["b"]], number_of_genes=2),
     r"categories must be hashable labels, not \[\['a'\], \['b'\]\]"),
    pytest.param(lambda: EngineConfig(population_size=1, n_generations=1),
                 "population_size must be an integer of at least 2, not 1",
                 id="<lambda>-population_size must be at least 2"),
    pytest.param(lambda: EngineConfig(population_size=4.0, n_generations=1),
                 "population_size must be an integer of at least 2, not 4.0",
                 id="<lambda>-population_size must be an integer"),
    pytest.param(lambda: EngineConfig(population_size=4, n_generations=0),
                 "n_generations must be an integer of at least 1, not 0",
                 id="<lambda>-n_generations must be positive"),
    pytest.param(lambda: EngineConfig(population_size=4, n_generations=1,
                                      parallel_workers=-1),
                 "parallel_workers must be an integer of at least 0, not -1",
                 id="<lambda>-parallel_workers cannot be negative"),
    (lambda: EngineConfig(population_size=4, n_generations=1,
                          pairing="ring"), "unknown pairing strategy"),
    (lambda: EngineConfig(population_size=4, n_generations=1, verbosity=7),
     "verbosity must be 0, 1 or 2"),
    pytest.param(lambda: EngineConfig(population_size=4, n_generations=1,
                                      verbosity=True),
                 "verbosity must be an integer of at least 0, not True",
                 id="<lambda>-verbosity must be an integer, not True"),
    pytest.param(lambda: EngineConfig(population_size=4, n_generations=1,
                                      verbosity=1.0),
                 "verbosity must be an integer of at least 0, not 1.0",
                 id="<lambda>-verbosity must be an integer, not 1.0"),
    (lambda: EngineConfig(population_size=4, n_generations=1,
                          output_directory=5),
     "output_directory must be a path or None, not 5"),
    (lambda: EngineConfig(population_size=4, n_generations=1,
                          output_directory=b"out"),
     "output_directory must be a path or None, not b'out'"),
    (lambda: EngineConfig(population_size=4, n_generations=1,
                          selection="roulette"),
     "selection must be a DiversityEnhanced"),
    pytest.param(lambda: DEConfig(population_size=3, n_generations=1),
                 "population_size must be an integer of at least 4, not 3",
                 id="<lambda>-needs at least four individuals"),
    pytest.param(lambda: DEConfig(population_size=8, n_generations=True),
                 "n_generations must be an integer of at least 1, not True",
                 id="<lambda>-n_generations must be an integer"),
    pytest.param(lambda: DEConfig(population_size=8, n_generations=0),
                 "n_generations must be an integer of at least 1, not 0",
                 id="<lambda>-n_generations must be positive"),
    pytest.param(lambda: DEConfig(population_size=8, n_generations=1,
                                  parallel_workers=-2),
                 "parallel_workers must be an integer of at least 0, not -2",
                 id="<lambda>-parallel_workers cannot be negative"),
    (lambda: DEConfig(population_size=8, n_generations=1,
                      differential_weight=2.0),
     r"differential_weight must lie in \[0, 2\)"),
    (lambda: DEConfig(population_size=8, n_generations=1,
                      crossover_probability=1.5),
     r"crossover_probability must lie in \[0, 1\]"),
    (lambda: DEConfig(population_size=8, n_generations=1,
                      differential_weight="a"),
     "differential_weight must be a number, not 'a'"),
    (lambda: DEConfig(population_size=8, n_generations=1,
                      crossover_probability="a"),
     "crossover_probability must be a number, not 'a'"),
    (lambda: DiversityEnhanced(d0="a"), "d0 must be a number, not 'a'"),
    (lambda: DiversityEnhanced(r0="a"), "r0 must be a number, not 'a'"),
    (lambda: DiversityEnhanced(r0=1e-160),
     "r0 must be positive with 1 / r0\\^2 finite and nonzero, not 1e-160"),
    (lambda: DiversityEnhanced(r0=1e-200), "r0 must be positive"),
    (lambda: DiversityEnhanced(r0=float("inf")), "r0 must be positive"),
    (lambda: DiversityEnhanced(r0=1e200), "r0 must be positive"),
    pytest.param(lambda: EngineConfig(population_size=4, n_generations=2,
                                      seed="a"),
                 "seed must be an integer of at least 0, not 'a'",
                 id="<lambda>-seed must be an integer, not 'a'"),
    pytest.param(lambda: EngineConfig(population_size=4, n_generations=2,
                                      seed=1.5),
                 "seed must be an integer of at least 0, not 1.5",
                 id="<lambda>-seed must be an integer, not 1.5"),
    pytest.param(lambda: EngineConfig(population_size=4, n_generations=2,
                                      seed=True),
                 "seed must be an integer of at least 0, not True",
                 id="<lambda>-seed must be an integer, not True"),
    pytest.param(lambda: EngineConfig(population_size=4, n_generations=2,
                                      seed=-1),
                 "seed must be an integer of at least 0, not -1",
                 id="<lambda>-seed cannot be negative"),
    pytest.param(lambda: DEConfig(8, 2, seed="a"),
                 "seed must be an integer of at least 0, not 'a'",
                 id="<lambda>-seed must be an integer, not 'a'"),
    pytest.param(lambda: DEConfig(8, 2, seed=-1),
                 "seed must be an integer of at least 0, not -1",
                 id="<lambda>-seed cannot be negative"),
    (lambda: EngineConfig(population_size=4, n_generations=2,
                          fitness_threshold="x"),
     "fitness_threshold must be a number, not 'x'"),
    (lambda: EngineConfig(population_size=4, n_generations=2,
                          fitness_threshold=float("nan")),
     "fitness_threshold cannot be NaN"),
    pytest.param(lambda: GeneSpec(categories=("E", "K"),
                                  number_of_genes=2.5),
                 "number_of_genes must be an integer of at least 1, not 2.5",
                 id="<lambda>-number_of_genes must be an integer, not 2.5"),
    pytest.param(lambda: GeneSpec(categories=("E", "K"),
                                  number_of_genes=True),
                 "number_of_genes must be an integer of at least 1, not True",
                 id="<lambda>-number_of_genes must be an integer, not True"),
    pytest.param(lambda: GeneSpec(categories=("E", "K"),
                                  number_of_genes="3"),
                 "number_of_genes must be an integer of at least 1, not '3'",
                 id="<lambda>-number_of_genes must be an integer, not '3'"),
    pytest.param(lambda: GeneSpec.categorical(("E", "K"), 2.9),
                 "number_of_genes must be an integer of at least 1, not 2.9",
                 id="<lambda>-number_of_genes must be an integer, not 2.9"),
    (lambda: GeneSpec.numeric([("a", 1)]), r"ranges must be \(lower, upper\)"),
    (lambda: GeneSpec.numeric([(0, 1, 2)]), r"ranges must be \(lower, upper\)"),
    (lambda: GeneSpec.numeric([1, 2]), r"ranges must be \(lower, upper\)"),
    (lambda: GeneSpec.numeric(None), r"ranges must be \(lower, upper\)"),
    (lambda: GeneSpec.numeric([("0", "1e1")]),
     r"ranges must be \(lower, upper\)"),
    (lambda: GeneSpec.numeric([(False, True)]),
     r"ranges must be \(lower, upper\)"),
    (lambda: GeneSpec(numeric_ranges=(("0", "1e1"),), number_of_genes=1),
     r"ranges must be \(lower, upper\)"),
    (lambda: GeneSpec(numeric_ranges=((False, True),), number_of_genes=1),
     r"ranges must be \(lower, upper\)"),
    (lambda: GeneSpec.categorical([["a"], ["b"]], 3),
     "categories must be hashable labels"),
    (lambda: GeneSpec.categorical(5, 3), "categories must be hashable labels"),
    (lambda: MutationConfig(rate="a"), "mutation rate must be a number, not 'a'"),
    (lambda: MutationConfig(rate=True), "mutation rate must be a number"),
    (lambda: MutationConfig(rate=1.5), r"mutation rate 1.5 outside \[0, 1\]"),
    (lambda: MutationConfig(rate=float("nan")), "mutation rate nan outside"),
    (lambda: MutationConfig(mode="gaussian"),
     "unknown mutation mode 'gaussian'"),
    (lambda: MutationConfig(mode="categorical"),
     "unknown mutation mode 'categorical'"),
    (lambda: EngineConfig(population_size=4, n_generations=1,
                          mutation="additive"),
     "mutation must be a MutationConfig, not 'additive'"),
    (lambda: MutationConfig(clip_to_ranges="no"),
     "clip_to_ranges must be a bool, not 'no'"),
    (lambda: MutationConfig(clip_to_ranges=1),
     "clip_to_ranges must be a bool, not 1"),
    (lambda: MutationConfig(clip_to_ranges=None),
     "clip_to_ranges must be a bool, not None"),
    (lambda: DiversityEnhanced(measure=EuclideanSq),
     r"measure EuclideanSq is a class; pass an instance, EuclideanSq\(\)"),
    (lambda: DiversityEnhanced(d0=0, measure=HammingSq),
     r"measure HammingSq is a class; pass an instance, HammingSq\(\)"),
    (lambda: DiversityEnhanced(measure=5), "unknown distance measure 5"),
    (lambda: DiversityEnhanced(measure="manhattan"),
     "unknown distance measure 'manhattan'"),
    (lambda: DiversityEnhanced(measure=DistanceMeasure()),
     "measure DistanceMeasure has no formula; define to_point in a "
     "subclass or pass a callable"),
])
def test_bad_settings_rejected_when_built(build, match):
    """A bad raw value is a ConfigError at construction, with no run."""
    with pytest.raises(ConfigError, match=match):
        build()


def test_good_edge_settings_build():
    """numpy integer seeds, infinite thresholds and r0 near the edge of
    its range are accepted."""
    EngineConfig(population_size=4, n_generations=2, seed=np.int64(3),
                 fitness_threshold=float("inf"))
    EngineConfig(population_size=4, n_generations=2,
                 fitness_threshold=-float("inf"))
    DEConfig(8, 2, seed=np.uint32(7))
    DiversityEnhanced(r0=1e-154)
    DiversityEnhanced(r0=1e154)
    MutationConfig(clip_to_ranges=np.bool_(True))
    DiversityEnhanced(measure="HAMMING")
    assert GeneSpec.numeric([(np.float32(0), np.int64(2))]).numeric_ranges \
        == ((0.0, 2.0),)


# Each settings class, with the arguments it requires.
SETTINGS_CLASSES = {
    EngineConfig: dict(population_size=4, n_generations=2),
    DEConfig: dict(population_size=8, n_generations=2),
    DiversityEnhanced: {},
    MutationConfig: {},
}


def _scan(total_evaluations=5, keep_best=1):
    return random_scan(GeneSpec.numeric([(0, 1)]), sum, total_evaluations,
                       keep_best, np.random.default_rng(0))


def _settings(cls, name):
    """A call that builds cls with name set to the value it is given."""
    return lambda value: cls(**dict(SETTINGS_CLASSES[cls], **{name: value}))


def _experiment(repetitions=1, seed=0):
    return run_experiment("circle", {"population": 4, "generations": 1,
                                     "repetitions": repetitions}, seed)


# Every integer setting: its name, its least value and a call that sets
# it to a given value.
INTEGER_SETTINGS = {
    "GeneSpec.number_of_genes": ("number_of_genes", 1, lambda v: GeneSpec(
        categories=("E", "K"), number_of_genes=v)),
    "seed_population.size": ("size", 1, lambda v: seed_population(
        GeneSpec.numeric([(0, 1)]), v, np.random.default_rng(0))),
    "make_pairs.n": ("n", 2, lambda v: make_pairs(
        v, "all", np.random.default_rng(0))),
    "select_diverse.count": ("count", 0, lambda v: select_diverse(
        np.zeros((2, 1)), [1.0, 0.0], v, DiversityEnhanced(r0=1.0))),
    "EngineConfig.population_size": ("population_size", 2, _settings(
        EngineConfig, "population_size")),
    "EngineConfig.n_generations": ("n_generations", 1, _settings(
        EngineConfig, "n_generations")),
    "EngineConfig.seed": ("seed", 0, _settings(EngineConfig, "seed")),
    "EngineConfig.parallel_workers": ("parallel_workers", 0, _settings(
        EngineConfig, "parallel_workers")),
    "EngineConfig.verbosity": ("verbosity", 0, _settings(
        EngineConfig, "verbosity")),
    "DEConfig.population_size": ("population_size", 4, _settings(
        DEConfig, "population_size")),
    "DEConfig.n_generations": ("n_generations", 1, _settings(
        DEConfig, "n_generations")),
    "DEConfig.seed": ("seed", 0, _settings(DEConfig, "seed")),
    "DEConfig.parallel_workers": ("parallel_workers", 0, _settings(
        DEConfig, "parallel_workers")),
    "WorkerPool.workers": ("workers", 1, lambda v: WorkerPool(v, abs).close()),
    "random_scan.total_evaluations": ("total_evaluations", 1, lambda v: _scan(
        total_evaluations=v)),
    "random_scan.keep_best": ("keep_best", 1, lambda v: _scan(keep_best=v)),
    "angular_bin_occupancy.n_bins": ("n_bins", 1, lambda v:
                                     angular_bin_occupancy([[1.0, 0.0]], v)),
    "run_experiment.repetitions": ("repetitions", 1, lambda v: _experiment(
        repetitions=v)),
    "run_experiment.seed": ("seed", 0, lambda v: _experiment(seed=v)),
}


@pytest.mark.parametrize("site", INTEGER_SETTINGS)
def test_integer_settings_follow_one_rule(site):
    """An integer setting takes a Python or numpy integer of at least its
    least value; True, a float and one below the least value each raise
    the one ConfigError message."""
    name, least, call = INTEGER_SETTINGS[site]
    for value in (True, float(least), least - 1):
        with pytest.raises(ConfigError) as error:
            call(value)
        assert str(error.value) == (
            f"{name} must be an integer of at least {least}, not {value!r}")
    call(least)
    call(np.int64(least))


@pytest.mark.parametrize("cls, name", [
    (cls, f.name) for cls in SETTINGS_CLASSES
    for f in dataclasses.fields(cls)
    if f.type.split(" | ")[0] in ("int", "float")
], ids=lambda item: getattr(item, "__name__", item))
def test_numeric_field_rejects_a_non_number(cls, name):
    """Every field annotated int or float (optional ones included) is
    checked when built: the string "x" is a ConfigError."""
    with pytest.raises(ConfigError, match=name):
        cls(**dict(SETTINGS_CLASSES[cls], **{name: "x"}))


@pytest.mark.parametrize("good, change", [
    (EngineConfig(population_size=4, n_generations=1),
     {"n_generations": 0}),
    (DEConfig(population_size=8, n_generations=1),
     {"differential_weight": -1.0}),
    (GeneSpec.numeric([(0, 1)]), {"numeric_ranges": ((1.0, 0.0),)}),
    (MutationConfig(rate=0.5), {"rate": 2.0}),
], ids=["EngineConfig", "DEConfig", "GeneSpec", "MutationConfig"])
def test_settings_frozen_and_rechecked_by_replace(good, change):
    """Assigning a field raises; dataclasses.replace checks again."""
    (name, value), = change.items()
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(good, name, value)
    with pytest.raises(ConfigError):
        dataclasses.replace(good, **change)
