import itertools
import math
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


def forward_bound(order, dimension):
    """The decasteljau forward error bound of the bernstein docstring, as a
    fraction of sum_k |c_k| B_k: g(N) with N = n (3 D^2 + 11 D) / 2 + 5 D.

    Stage j adds (3j + 4) n + 5 roundings to each term: r and t are rounded j
    and 2j + 1 times (a prefix sum, then a division) and raised to the powers
    e and m <= n by as many products; C(m, i), two products, the scale and a
    sum of at most n + 1 terms add n + 4 more. The absolute 2**-270 max |c_k|
    covers every r**e that underflows below 2**-1022: there C(m, e) t^m is
    below 2**760 for m <= 1022, at most 2**27 terms each carry e < 2**10
    half-ulps of 2**-1074."""
    terms = order * (3 * dimension**2 + 11 * dimension) // 2 + 5 * dimension
    unit = 2.0**-53
    return terms * unit / (1.0 - terms * unit)


def direct_forward_bound(order, dimension, weights):
    """The direct forward error bound of the bernstein docstring at a batch of
    weights, as a fraction of sum_k |c_k| B_k: r + g(W) (1 + r), with
    r = exp(h) (1 + 8 u) - 1 and h = g(D + 10) n L + 2 g(D + 9) log n!, L the
    largest |log w_j| over the nonzero weights and W = C(n + D, D)."""
    unit = 2.0**-53
    g = lambda terms: terms * unit / (1.0 - terms * unit)
    largest_log = float(-np.log(weights[weights > 0]).min())
    h = g(dimension + 10) * order * largest_log + 2 * g(dimension + 9) * math.lgamma(order + 1)
    r = math.exp(h) * (1.0 + 8.0 * unit) - 1.0
    return r + g(math.comb(order + dimension, dimension)) * (1.0 + r)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def unit_interval():
    return Simplex([[0.0], [1.0]])


@pytest.fixture
def triangle():
    return standard_simplex(2)
