"""Shared fixtures and fitness helpers.

Fitness functions live at module level so process pools can pickle
them.
"""

import numpy as np
import pytest

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
