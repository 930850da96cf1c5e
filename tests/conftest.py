"""Shared fixtures and fitness helpers.

Fitness functions live at module level so process pools can pickle
them.
"""

import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

import divga.engine
from divga import GeneSpec


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
