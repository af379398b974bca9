import itertools
import operator
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import bezsimplex
from bezsimplex import DegenerateSimplexError, Simplex, TestFunction, standard_simplex

SOURCE = str(Path(bezsimplex.__file__).resolve().parents[1])  # the src/ that tests import

# A child's address space in child_within_address_space: a size check that fails there raises
# MemoryError rather than allocating the gigabytes of the request it should refuse.
CHILD_ADDRESS_SPACE = 1 << 30


def random_simplex(rng, dimension, scale=1.0):
    """Random non-degenerate simplex with vertices in [-scale, scale]^D."""
    while True:
        vertices = rng.uniform(-scale, scale, size=(dimension + 1, dimension))
        try:
            return Simplex(vertices)
        except DegenerateSimplexError:
            continue


def exp_config(simplex, direction, n_values, resolution):
    """The ExperimentConfig of exp(a.x) on the simplex, the input of the exp studies."""
    function = bezsimplex.make_function({"terms": [{"c": 1.0, "a": [float(v) for v in direction]}]},
                                        simplex)
    return bezsimplex.ExperimentConfig(simplex, function, n_values, resolution)


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


def traced_peak(call, *args) -> int:
    """The peak in bytes that tracemalloc sees while call(*args) runs."""
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def python_child(*args, **env):
    """`python *args` on the src/ under test, env added to the environment: its text output.
    A nonzero exit raises."""
    return subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=SOURCE, **env),
                          capture_output=True, text=True, check=True, timeout=120)


def child_within_address_space(code, *args):
    """`python -c code args` on the src/ under test, at one BLAS thread and with an
    address space of CHILD_ADDRESS_SPACE bytes, set before numpy loads."""
    limit = ("import resource\n"
             "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
             f"soft = {CHILD_ADDRESS_SPACE} if hard == resource.RLIM_INFINITY"
             f" else min(hard, {CHILD_ADDRESS_SPACE})\n"
             "resource.setrlimit(resource.RLIMIT_AS, (soft, hard))\n")
    env = dict(os.environ, PYTHONPATH=SOURCE, OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-c", limit + code, *args], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def unit_interval():
    return Simplex([[0.0], [1.0]])


@pytest.fixture
def triangle():
    return standard_simplex(2)
