"""Multi-index lattices, multinomial coefficients and control points.

A multi-index of order n over a D-simplex is a vector k of D+1 non-negative
integers with |k| = sum(k) = n; there are binomial(n+D, D) of them. The
enumeration order used everywhere in this package is colexicographic on
(k_1, ..., k_D) with k_0 = n - sum implied: control points, coefficient
vectors and the rows of the lattice CSVs all follow it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatchError, SizeOverflowError
from .geometry import Simplex

# Refuse lattices with more entries than this (desk-scale guarantee).
SIZE_CAP = 100_000_000

# Doubles per chunk a streamed pass may hold: a row chunk of row_chunks, such
# as a block of grid weights. Bounds the memory of any streamed grid.
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
    for column, values in _colex_rows(order, dimension, 0, count):
        indices[:, column] = values
    return indices


def _colex_rows(order: int, dimension: int, lo: int, hi: int):
    # Yields (column, values) for rows lo..hi-1 of the colex lattice of the
    # order: k_D, then k_(D-1), .. k_1, then k_0, each column once. A node of
    # the colex tree with `left` still to place has one child per value
    # 0..left, in ascending order, so the most significant coordinate is
    # placed first. Each level keeps only the children whose rows meet
    # lo..hi-1, which are consecutive. At the k_1 level every child is a row,
    # read off its offset in its line, so no whole line is built.
    left, begin, counts = np.array([order], dtype=np.int64), 0, np.array([hi - lo])
    for column in range(dimension, 1, -1):
        value, left, begin, counts = _children(left, begin, column - 1, lo, hi)
        yield column, np.repeat(value, counts)
    # Row r of a line starting at row s has k_1 = r - s and k_0 = left - k_1.
    k_1 = np.arange(lo, hi)
    k_1 -= np.repeat(begin + np.cumsum(left + 1) - (left + 1), counts)
    yield 1, k_1
    k_0 = np.repeat(left, counts)
    yield 0, np.subtract(k_0, k_1, out=k_0)


def _children(left: np.ndarray, begin: int, places: int, lo: int, hi: int) -> tuple:
    # The children of consecutive nodes with `left` still to place, whose rows
    # start at row `begin`, that meet rows lo..hi-1: their values, what each
    # leaves, the row where the first starts and the rows of each in range.
    # A child leaving l has C(l + places, places) rows, built up exactly
    # through C(l + j, j) = C(l + j - 1, j - 1) (l + j) / j.
    parent = np.repeat(np.arange(left.shape[0]), left + 1)
    value = np.arange(parent.shape[0]) - (np.cumsum(left + 1) - (left + 1))[parent]
    left = left[parent] - value
    rows = left + 1
    for j in range(2, places + 1):
        rows *= left + j
        rows //= j
    end = np.cumsum(rows)
    first, last = np.searchsorted(end, lo - begin, "right"), np.searchsorted(end, hi - begin)
    kept = slice(first, last + 1)
    counts, begin_kept = rows[kept], begin + int(end[first] - rows[first])
    counts[-1] -= begin + int(end[last]) - hi
    counts[0] -= lo - begin_kept
    return value[kept], left[kept], begin_kept, counts


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


def padded(count: int) -> int:
    """`count` rounded up to a multiple of GEMM_COLUMNS: the width of a zero-padded product."""
    return -(-count // GEMM_COLUMNS) * GEMM_COLUMNS


def chunk_rows(per_row: int, capacity: int | None = None) -> int:
    """A chunk's length: rows of `per_row` entries (0 counts as 1) within `capacity` (default
    _ENTRY_BUDGET doubles), rounded down to a multiple of GEMM_COLUMNS, never fewer."""
    capacity = _ENTRY_BUDGET if capacity is None else capacity
    return max(1, capacity // max(1, per_row) // GEMM_COLUMNS) * GEMM_COLUMNS


def row_chunks(count: int, doubles_per_row: int, *, held: int = 0) -> list:
    """Slices of `count` rows, chunk_rows(doubles_per_row) each beside `held` doubles."""
    step = chunk_rows(doubles_per_row, _ENTRY_BUDGET - held)
    return [slice(start, start + step) for start in range(0, count, step)]


def grid_weights(resolution: int, dimension: int) -> np.ndarray:
    """Barycentric lattice of the given resolution: rows k/m over all |k| = m.

    Covers the closed simplex uniformly, faces and vertices included.
    """
    check_order(resolution)
    return _weights(resolution, dimension, 0, _capped_count(resolution, dimension))


def grid_weight_blocks(resolution: int, dimension: int, beside: int = 0):
    """grid_weights as consecutive float blocks, the row_chunks(count, D+1+beside) slices of the
    grid: a block and the `beside` doubles a consumer holds next to each row fit _ENTRY_BUDGET
    doubles, and each row of a product such as weights @ vertices keeps its whole-grid bits."""
    check_order(resolution)
    count = _capped_count(resolution, dimension)
    for rows in row_chunks(count, dimension + 1 + beside):
        yield _weights(resolution, dimension, rows.start, min(rows.stop, count))


def _weights(resolution: int, dimension: int, lo: int, hi: int) -> np.ndarray:
    # Rows lo..hi-1 of the grid, as the (rows, D+1) view of a C-ordered
    # (D+1, rows) buffer: each lattice column is divided straight into its
    # row of the buffer, the one place k/m is formed.
    buffer = np.empty((dimension + 1, hi - lo))
    for column, values in _colex_rows(resolution, dimension, lo, hi):
        np.divide(values, float(resolution), out=buffer[column])
        del values  # free this column before the next one is made
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
