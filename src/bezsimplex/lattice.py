"""Multi-index lattices, multinomial coefficients and control points.

A multi-index of order n over a D-simplex is a vector k of D+1 non-negative
integers with |k| = sum(k) = n; there are binomial(n+D, D) of them. The
enumeration order used everywhere in this package is colexicographic on
(k_1, ..., k_D) with k_0 = n - sum implied, so coefficient vectors written
by one process can be read back by any other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .csvio import emit_lattice_csv
from .errors import DimensionMismatchError, SizeOverflowError
from .geometry import Simplex

# Refuse lattices with more entries than this (desk-scale guarantee).
SIZE_CAP = 100_000_000

# Largest order served by the exact integer path.
EXACT_ORDER_LIMIT = 60


def count_multi_indices(order: int, dimension: int) -> int:
    """Number of multi-indices of the given order: binomial(order+D, D)."""
    if order < 0 or dimension < 1:
        raise DimensionMismatchError("order must be >= 0 and dimension >= 1")
    return math.comb(order + dimension, dimension)


def enumerate_multi_indices(order: int, dimension: int) -> np.ndarray:
    """All multi-indices of the given order, one per row, shape (count, D+1).

    Deterministic colexicographic order on (k_1..k_D); row sums all equal
    ``order``. Raises SizeOverflowError beyond SIZE_CAP entries.
    """
    count = count_multi_indices(order, dimension)
    if count > SIZE_CAP:
        raise SizeOverflowError(
            f"lattice of order {order} in dimension {dimension} has {count} entries"
            f" (cap {SIZE_CAP})"
        )
    # Place k_D, then k_(D-1), .. k_1: every row with `left` still to place
    # gets one child per value 0..left, in ascending order, so the most
    # significant coordinate is placed first and the rows come out colex.
    # A row with r coordinates still to place ends as C(left + r, r)
    # consecutive final rows, so each column is written once, at full length.
    indices = np.empty((count, dimension + 1), dtype=np.int64)
    left = np.array([order], dtype=np.int64)
    for column in range(dimension, 0, -1):
        parent = np.repeat(np.arange(left.shape[0]), left + 1)
        first = np.cumsum(left + 1) - (left + 1)
        value = np.arange(parent.shape[0]) - first[parent]
        left = left[parent] - value
        leaves = np.array([math.comb(i + column - 1, column - 1) for i in range(order + 1)])
        indices[:, column] = np.repeat(value, leaves[left])
    indices[:, 0] = left
    return indices


def _check_index(index) -> np.ndarray:
    k = np.asarray(index, dtype=np.int64)
    if k.ndim != 1 or k.shape[0] < 2:
        raise DimensionMismatchError(f"multi-index must be a flat vector of D+1 >= 2 entries, got shape {k.shape}")
    if np.any(k < 0):
        raise DimensionMismatchError("multi-index entries must be non-negative")
    return k


def multinomial_log(index) -> float:
    """Natural log of the multinomial coefficient n! / prod(k_j!), n = |k|."""
    return float(multinomial_log_table(_check_index(index)[None, :])[0])


def multinomial_log_table(indices: np.ndarray) -> np.ndarray:
    """Vectorized multinomial_log over rows of an index array."""
    k = np.asarray(indices, dtype=np.int64)
    n = k.sum(axis=1)
    # log(i!) from the exact integer while i! is a finite double (correctly
    # rounded), lgamma beyond; lgamma alone is 1 ulp low at i = 2..6. The
    # table is dense up to 170 or the row count, whichever is larger (a
    # lattice of order n has more than n rows); above that lgamma is read
    # once per distinct value of n or k, so one huge index costs one call.
    dense = min(int(n.max(initial=0)), max(170, n.shape[0]))
    big = np.unique(np.concatenate([n[n > dense], k[k > dense]]))
    log_factorial = np.array(
        [math.log(math.factorial(i)) if i <= 170 else math.lgamma(i + 1) for i in range(dense + 1)]
        + [math.lgamma(v + 1) for v in big.tolist()])
    # Table position of i: i itself up to `dense`, then past it by its rank in `big`.
    position = lambda i: np.where(i <= dense, i, dense + 1 + np.searchsorted(big, i))
    return log_factorial[position(n)] - log_factorial[position(k)].sum(axis=1)


def multinomial_exact(index) -> int:
    """Exact integer multinomial coefficient; the test oracle for the log path.

    Restricted to |k| <= EXACT_ORDER_LIMIT where factorial products stay cheap.
    """
    k = _check_index(index)
    n = int(k.sum())
    if n > EXACT_ORDER_LIMIT:
        raise SizeOverflowError(
            f"exact multinomial limited to order {EXACT_ORDER_LIMIT}, got {n}"
        )
    value = math.factorial(n)
    for kj in k:
        value //= math.factorial(int(kj))
    return value


def grid_weights(resolution: int, dimension: int) -> np.ndarray:
    """Barycentric lattice of the given resolution: rows k/m over all |k| = m.

    Covers the closed simplex uniformly, faces and vertices included.
    """
    if resolution < 1:
        raise DimensionMismatchError("grid resolution must be >= 1")
    return enumerate_multi_indices(resolution, dimension) / float(resolution)


def default_grid_resolution(dimension: int) -> int:
    """Default sup-norm grid resolution, tapered so point counts stay desk-scale."""
    if dimension <= 2:
        return 50
    if dimension == 3:
        return 15
    return 8


@dataclass(frozen=True)
class ControlPointSet:
    """Lattice points R(k/n) of a simplex, aligned with enumeration order."""

    order: int
    indices: np.ndarray  # (count, D+1) int64
    points: np.ndarray   # (count, D) float

    def __len__(self) -> int:
        return self.points.shape[0]

    def __iter__(self):
        for k, p in zip(self.indices, self.points):
            yield k, p

    def write_csv(self, destination) -> None:
        """Write columns k_0..k_D, x_1..x_D; one row per control point."""
        columns = [f"x_{j}" for j in range(1, self.indices.shape[1])]
        emit_lattice_csv(self.indices, self.points, destination, columns)


def control_points(simplex: Simplex, order: int) -> ControlPointSet:
    """Control points sum_j (k_j/n) x_j for every multi-index of the order."""
    if order < 1:
        raise DimensionMismatchError("control point order must be >= 1")
    indices = enumerate_multi_indices(order, simplex.dimension)
    points = (indices / float(order)) @ simplex.vertices
    indices.setflags(write=False)
    points.setflags(write=False)
    return ControlPointSet(order=order, indices=indices, points=points)
