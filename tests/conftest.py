"""Shared fixtures and fitness helpers.

Fitness functions live at module level so process pools can pickle
them. Every hypothesis test runs under one profile: derandomized, so a
run draws the same examples each time, with no deadline and no example
database on disk. What hypothesis still stores (the constants it mines
from source files) goes to the system's temporary directory, not to a
.hypothesis directory in the working tree.
"""

import math
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

import divga.engine
from divga import GeneSpec, WorkerPool

set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "divga-hypothesis")
settings.register_profile("divga", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("divga")


def sphere_fitness(genes):
    return -float(np.sum(np.asarray(genes) ** 2))


def sum_fitness(genes):
    return float(np.sum(genes))


def first_gene_fitness(genes):
    return float(genes[0])


def label_count_fitness(genes):
    return float(sum(1 for g in genes if g == "K"))


def exploding_fitness(genes):
    if genes[0] > 0:
        raise ValueError("boom")
    return 0.0


def non_numeric_fitness(genes):
    return "not a number"


def fails_on_13(genes):
    """Raises on the row whose first gene is 13, a row's own index below."""
    if genes[0] == 13:
        raise ValueError("individual 13")
    return 0.0


def fails_on_33(genes):
    """Raises on the row whose first gene is 33, a row's own index below."""
    if genes[0] == 33:
        raise ValueError("individual 33")
    return 0.0


def nan_on_33(genes):
    """NaN on the row whose first gene is 33, a row's own index below."""
    return float("nan") if genes[0] == 33 else 0.0


def text_on_33(genes):
    """A non-number on the row whose first gene is 33."""
    return "not a number" if genes[0] == 33 else 0.0


def overflow_on_33(genes):
    """An int too large for a float on the row whose first gene is 33."""
    return 10**400 if genes[0] == 33 else 0.0


def exits_on_half(genes):
    """Kills the worker process that evaluates a row starting with 0.5."""
    if genes[0] == 0.5:
        os._exit(1)
    return 0.0


# Ways a fitness call can fail, each a call made on the failing row.
FAILURES = {
    "raise": lambda: 1 / 0,
    "nan": lambda: math.nan,
    "non-number": lambda: "not a number",
    "overflow": lambda: 10 ** 400,
}


class RowFailure:
    """Per-row fitness: a row's first gene over 4, and the failure kind
    (a FAILURES key) on the row whose first gene is failing. Picklable,
    so it runs on worker processes."""

    def __init__(self, kind, failing):
        self.kind = kind
        self.failing = failing

    def __call__(self, genes):
        row = int(genes[0])
        return FAILURES[self.kind]() if row == self.failing else row / 4


class BatchFailure(RowFailure):
    """RowFailure as a vectorized fitness: the list of the row values of
    a (k, g) batch, so one failing row fails the whole call."""

    vectorized = True

    def __call__(self, genes):
        return [RowFailure.__call__(self, row) for row in genes]


class ChunkStart:
    """Vectorized fitness giving each row the first gene of the first row
    of its call, so the values show how the rows were split into calls."""

    vectorized = True

    def __call__(self, genes):
        return np.full(len(genes), genes[0, 0])


class WrongShapeAt:
    """Vectorized fitness returning first genes as a (k, 1) column for
    the call whose first row starts with start, a (k,) vector otherwise."""

    vectorized = True

    def __init__(self, start):
        self.start = start

    def __call__(self, genes):
        return genes[:, :1] if genes[0, 0] == self.start else genes[:, 0]


class PerRow:
    """An unmarked wrapper: the wrapped fitness, called one row at a time."""

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, genes):
        return self.fn(genes)


@pytest.fixture(scope="session")
def two_workers():
    """One 2-worker pool shared by the tests that evaluate on workers."""
    with WorkerPool(2, sum_fitness) as pool:
        yield pool


@pytest.fixture
def started_pools(monkeypatch):
    """Every executor divga.engine builds, in order; each records the
    keyword arguments of its shutdown calls and, per submitted chunk of
    rows, its (start, row count)."""
    pools = []

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.shutdowns = []
            self.chunks = []
            pools.append(self)

        def submit(self, fn, /, *args, **kwargs):
            # evaluate_population submits (fitness, start, rows).
            _, start, rows = args
            self.chunks.append((start, len(rows)))
            return super().submit(fn, *args, **kwargs)

        def shutdown(self, *args, **kwargs):
            self.shutdowns.append(kwargs)
            super().shutdown(*args, **kwargs)

    monkeypatch.setattr(divga.engine, "ProcessPoolExecutor", CountingPool)
    return pools


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def numeric_spec():
    return GeneSpec.numeric([(-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)])


@pytest.fixture
def wide_spec():
    return GeneSpec.numeric([(-10.0, 10.0), (-10.0, 10.0)])


@pytest.fixture
def cat_spec():
    return GeneSpec.categorical(("E", "K"), 8)
