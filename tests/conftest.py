import itertools
import operator

import numpy as np
import pytest

from bezsimplex import DegenerateSimplexError, Simplex, TestFunction, standard_simplex


def random_simplex(rng, dimension, scale=1.0):
    """Random non-degenerate simplex with vertices in [-scale, scale]^D."""
    while True:
        vertices = rng.uniform(-scale, scale, size=(dimension + 1, dimension))
        try:
            return Simplex(vertices)
        except DegenerateSimplexError:
            continue


def exact_multinomial(k):
    """Independent factorial-ratio oracle: n! / prod(k_j!) in exact Python
    ints, for one multi-index or for every row of an index array."""
    k = np.asarray(k)
    n = k.sum(axis=-1)
    top = int(n.max(initial=0))
    factorials = np.array([1, *itertools.accumulate(range(1, top + 1), operator.mul)], dtype=object)
    return factorials[n] // factorials[k].prod(axis=-1)


def pointwise(f, name="f"):
    """A scalar f(point) as a batch TestFunction: one call per point, in order."""
    return TestFunction(name, lambda points: np.array([f(p) for p in points], dtype=float))


def interior_weights(rng, dimension, count):
    """Strictly interior barycentric weights, rows summing to one."""
    return rng.dirichlet(np.ones(dimension + 1), size=count)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def unit_interval():
    return Simplex([[0.0], [1.0]])


@pytest.fixture
def triangle():
    return standard_simplex(2)
