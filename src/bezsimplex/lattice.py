"""Multi-index lattices, multinomial coefficients and control points.

A multi-index of order n over a D-simplex is a vector k of D+1 non-negative
integers with |k| = sum(k) = n; there are binomial(n+D, D) of them. The
enumeration order used everywhere in this package is colexicographic on
(k_1, ..., k_D) with k_0 = n - sum implied, so coefficient vectors written
by one process can be read back by any other.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatchError, SizeOverflowError
from .geometry import Simplex

# Refuse lattices with more entries than this (desk-scale guarantee).
SIZE_CAP = 100_000_000

# Doubles per chunk a streamed pass may hold: a block of grid weights, or a
# row chunk of row_chunks. Bounds any grid's memory.
_ENTRY_BUDGET = 1 << 19
# Product columns are zero-padded to a multiple of this: OpenBLAS's AVX-512 kernel takes
# the last P mod 8 columns of a wide product along another path, whose bits differ.
GEMM_COLUMNS = 8


def check_order(order, least: int = 1) -> None:
    """The one check of an order: an int or numpy integer, never a bool, of at
    least `least` (0 for a lattice, 1 for nets, control points, bases, grids and
    exp cases)."""
    if isinstance(order, bool) or not isinstance(order, (int, np.integer)) or order < least:
        raise DimensionMismatchError(f"order must be an integer >= {least}, got {order!r}")
    if order > float(np.finfo(float).max):  # the exp studies divide by float(order)
        raise SizeOverflowError(f"order {order} overflows a double")


def count_multi_indices(order: int, dimension: int) -> int:
    """Number of multi-indices of the given order: binomial(order+D, D)."""
    check_order(order, 0)
    if dimension < 1:
        raise DimensionMismatchError("dimension must be >= 1")
    return math.comb(order + dimension, dimension)


def _capped_count(order: int, dimension: int) -> int:
    count = count_multi_indices(order, dimension)
    if count > SIZE_CAP:
        raise SizeOverflowError(
            f"lattice of order {order} in dimension {dimension} has {count} entries"
            f" (cap {SIZE_CAP})"
        )
    return count


def enumerate_multi_indices(order: int, dimension: int) -> np.ndarray:
    """All multi-indices of the given order, one per row, shape (count, D+1).

    Deterministic colexicographic order on (k_1..k_D); row sums all equal
    ``order``. Raises SizeOverflowError beyond SIZE_CAP entries.
    """
    count = _capped_count(order, dimension)
    indices = np.empty((count, dimension + 1), dtype=np.int64)
    for column, values in _colex_columns(order, dimension):
        indices[:, column] = values
    return indices


def _colex_columns(order: int, dimension: int):
    # Yields (column, values) for the colex lattice of the order: k_D, then
    # k_(D-1), .. k_1, then k_0, each column once, at full length. Every row
    # with `left` still to place gets one child per value 0..left, in
    # ascending order, so the most significant coordinate is placed first
    # and the rows come out colex. A row with r coordinates still to place
    # ends as C(left + r, r) consecutive final rows.
    left = np.array([order], dtype=np.int64)
    for column in range(dimension, 0, -1):
        parent = np.repeat(np.arange(left.shape[0]), left + 1)
        first = np.cumsum(left + 1) - (left + 1)
        value = np.arange(parent.shape[0]) - first[parent]
        left = left[parent] - value
        if column == 1:  # every row is final: one leaf each
            yield column, value
        else:
            leaves = np.array([math.comb(i + column - 1, column - 1) for i in range(order + 1)])
            yield column, np.repeat(value, leaves[left])
    yield 0, left


def multinomial_log_table(indices: np.ndarray) -> np.ndarray:
    """log(n! / prod_j k_j!), n = |k|, for every row k of an index array."""
    k = np.asarray(indices, dtype=np.int64)
    n = k.sum(axis=1)
    # log(i!) for every i <= max |k|: from the exact integer while i! is a
    # finite double (correctly rounded), lgamma beyond; lgamma alone is 1 ulp
    # low at i = 2..6. Its max |k| + 1 entries are those of an interval's lattice,
    # refused past the same cap, so no lattice under SIZE_CAP can trip it.
    top = int(n.max(initial=0))
    _capped_count(top, 1)
    log_factorial = np.array([math.log(math.factorial(i)) if i <= 170 else math.lgamma(i + 1)
                              for i in range(top + 1)])
    return log_factorial[n] - log_factorial[k].sum(axis=1)


def row_chunks(count: int, doubles_per_row: int, multiple: int = 1, held: int = 0) -> list:
    """Slices of `count` rows: chunks of (_ENTRY_BUDGET - held) // doubles_per_row rows
    (0 counts as 1) beside `held` doubles, rounded down to a multiple of `multiple`, never fewer."""
    step = max(1, (_ENTRY_BUDGET - held) // max(1, doubles_per_row) // multiple) * multiple
    return [slice(start, start + step) for start in range(0, count, step)]


def grid_weights(resolution: int, dimension: int) -> np.ndarray:
    """Barycentric lattice of the given resolution: rows k/m over all |k| = m.

    Covers the closed simplex uniformly, faces and vertices included.
    """
    return np.vstack(list(grid_weight_blocks(resolution, dimension)))


def _slabs(order: int, dimension: int, tail: tuple, rows: int):
    # The colex rows with k_D = t are the (order - t)-lattice of dimension D-1
    # with t appended: a lattice of more than `rows` rows is cut into those
    # slabs, down to single lines (dimension 1). Yields (order, dimension, tail, count).
    count = count_multi_indices(order, dimension)
    if dimension == 1 or count <= rows:
        yield order, dimension, tail, count
    else:
        for t in range(order + 1):
            yield from _slabs(order - t, dimension - 1, (t,) + tail, rows)


def grid_weight_blocks(resolution: int, dimension: int):
    """grid_weights as consecutive float blocks of at most _ENTRY_BUDGET doubles.

    Consecutive slabs are joined until the next would pass the budget. A single
    line (k_2..k_D fixed) is never cut, so a D = 1 grid is one block. Each
    block is the (rows, D+1) view of a C-ordered (D+1, rows) buffer.
    """
    check_order(resolution)
    _capped_count(resolution, dimension)
    rows = max(1, _ENTRY_BUDGET // (dimension + 1))
    run, size = [], 0  # consecutive slabs of the next block, and their rows
    for piece in _slabs(resolution, dimension, (), rows):
        if run and size + piece[3] > rows:
            yield _fill_block(run, size, dimension, resolution)
            run, size = [], 0
        run.append(piece)
        size += piece[3]
    yield _fill_block(run, size, dimension, resolution)


def _fill_block(pieces: list, size: int, dimension: int, resolution: int) -> np.ndarray:
    # Each slab's lattice columns are divided straight into one float buffer
    # with a row per barycentric coordinate; the block is its (rows, D+1) view.
    buffer, start = np.empty((dimension + 1, size)), 0
    for order, dim, tail, count in pieces:
        for column, values in _colex_columns(order, dim):
            np.divide(values, float(resolution), out=buffer[column, start:start + count])
        buffer[dim + 1:, start:start + count] = np.divide(tail, float(resolution))[:, None]
        start += count
    return buffer.T


def default_grid_resolution(dimension: int) -> int:
    """Default sup-norm grid resolution, tapered so point counts stay desk-scale."""
    if dimension <= 2:
        return 50
    if dimension == 3:
        return 15
    return 8


def control_points(simplex: Simplex, order: int) -> np.ndarray:
    """Control points R(k/n) = sum_j (k_j/n) x_j for every multi-index of the
    order, in enumeration order: the grid of resolution n on the simplex, a
    read-only (count, D) array."""
    points = grid_weights(order, simplex.dimension) @ simplex.vertices
    points.setflags(write=False)
    return points
