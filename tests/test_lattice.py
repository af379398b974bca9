import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from bezsimplex import (
    ControlNet,
    DimensionMismatchError,
    SizeOverflowError,
    basis_vector,
    control_points,
    count_multi_indices,
    default_grid_resolution,
    enumerate_multi_indices,
    error_budget,
    grid_weight_blocks,
    grid_weights,
    multinomial_log_table,
    standard_simplex,
)

from bezsimplex import lattice

from conftest import exact_multinomial, random_simplex


def log_multinomial(k):
    """The table's value for one multi-index k."""
    return float(multinomial_log_table(np.array([k]))[0])


class TestEnumeration:
    def test_order_two_on_interval(self):
        got = enumerate_multi_indices(2, 1)
        assert got.tolist() == [[2, 0], [1, 1], [0, 2]]

    def test_order_three_on_triangle(self):
        got = enumerate_multi_indices(3, 2)
        assert got.shape == (10, 3)
        assert len({tuple(row) for row in got.tolist()}) == 10
        assert np.all(got.sum(axis=1) == 3)

    def test_order_zero(self):
        for dim in (1, 2, 5):
            got = enumerate_multi_indices(0, dim)
            assert got.tolist() == [[0] * (dim + 1)]

    @pytest.mark.parametrize("order,dim", [(5, 1), (7, 2), (6, 3), (9, 4), (4, 5)])
    def test_count_matches_binomial(self, order, dim):
        got = enumerate_multi_indices(order, dim)
        assert got.shape[0] == math.comb(order + dim, dim)
        assert got.shape[0] == count_multi_indices(order, dim)
        assert len({tuple(r) for r in got.tolist()}) == got.shape[0]

    def test_colexicographic_order(self):
        # Colex on the tails equals lexicographic on the reversed tails. The
        # sizes include the benchmark's (80, 2) and (30, 5).
        for order, dim in [(4, 3), (0, 1), (1, 3), (7, 1), (12, 2), (6, 4), (80, 2), (30, 5)]:
            got = enumerate_multi_indices(order, dim)
            assert got.shape == (math.comb(order + dim, dim), dim + 1)
            assert got.dtype == np.int64
            assert np.all(got >= 0) and np.all(got.sum(axis=1) == order)
            tails = [tuple(row[1:][::-1]) for row in got.tolist()]
            assert tails == sorted(set(tails)), (order, dim)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(order=st.integers(0, 40), dimension=st.integers(1, 6), data=st.data())
    def test_any_row_range_is_a_slice_of_the_lattice(self, order, dimension, data):
        # The walk over rows lo..hi-1 alone gives those rows of the whole
        # lattice, wherever lo and hi cut its lines and slabs.
        count = count_multi_indices(order, dimension)
        assume(count <= 400_000)
        hi = data.draw(st.integers(1, count), label="hi")
        lo = data.draw(st.integers(0, hi - 1), label="lo")
        columns = dict(lattice._colex_rows(order, dimension, lo, hi))
        assert sorted(columns) == list(range(dimension + 1))
        got = np.stack([columns[column] for column in range(dimension + 1)], axis=1)
        assert np.array_equal(got, enumerate_multi_indices(order, dimension)[lo:hi])

    def test_layouts(self):
        # The direct evaluator's BLAS products take their last bits from the
        # operands' layout: the index table is a C-ordered (count, D+1) int64
        # array, and the grid, whole or in blocks, the (rows, D+1) view of a
        # C-ordered (D+1, rows) float buffer.
        for order, dimension in [(7, 1), (12, 3), (30, 5)]:
            indices = enumerate_multi_indices(order, dimension)
            assert indices.shape == (count_multi_indices(order, dimension), dimension + 1)
            assert indices.dtype == np.int64 and indices.flags.c_contiguous
            for w in [grid_weights(order, dimension), *grid_weight_blocks(order, dimension)]:
                assert w.shape[1] == dimension + 1
                assert w.dtype == np.float64 and w.T.flags.c_contiguous

    def test_size_cap(self):
        assert math.comb(110, 5) > 100_000_000
        with pytest.raises(SizeOverflowError):
            enumerate_multi_indices(105, 5)

    def test_invalid_arguments(self):
        with pytest.raises(DimensionMismatchError):
            enumerate_multi_indices(-1, 2)
        with pytest.raises(DimensionMismatchError):
            enumerate_multi_indices(3, 0)

    def test_rows_are_writable_copies(self):
        a = enumerate_multi_indices(3, 2)
        b = enumerate_multi_indices(3, 2)
        a[0, 0] = 99
        assert b[0, 0] == 3


class TestMultinomials:
    def test_log_of_twelve(self):
        assert log_multinomial([2, 1, 1]) == pytest.approx(math.log(12), rel=1e-14)

    def test_corner_coefficient_is_exactly_zero(self):
        assert log_multinomial([7, 0, 0, 0]) == 0.0

    def test_log_4200(self):
        # 10!/(3! 3! 4!) = 4200 by the factorial oracle.
        assert exact_multinomial((3, 3, 4)) == 4200
        assert log_multinomial([3, 3, 4]) == pytest.approx(math.log(4200), rel=1e-13)

    def test_exact_small_cases(self):
        assert exact_multinomial([1, 1]) == 2
        assert exact_multinomial([2, 2, 2]) == 90
        assert math.exp(log_multinomial([1, 1])) == pytest.approx(2, rel=1e-14)
        assert math.exp(log_multinomial([2, 2, 2])) == pytest.approx(90, rel=1e-14)

    def test_exact_matches_oracle(self, rng):
        # The oracle against the product of binomials C(k_0+..+k_j, k_j).
        for _ in range(100):
            dim = int(rng.integers(1, 5))
            k = rng.multinomial(int(rng.integers(0, 30)), np.full(dim + 1, 1 / (dim + 1)))
            binomials = math.prod(math.comb(int(k[:j + 1].sum()), int(k[j])) for j in range(dim + 1))
            assert exact_multinomial(k.tolist()) == binomials

    def test_log_accuracy_large_order(self, rng):
        # Oracle: log of the exact integer value, computed by Python bignums.
        for _ in range(20):
            k = rng.multinomial(1000, [0.25, 0.25, 0.25, 0.25])
            exact = exact_multinomial(k.tolist())
            assert log_multinomial(k) == pytest.approx(math.log(exact), rel=1e-12)

    def test_log_table_matches_scalar(self, rng):
        indices = enumerate_multi_indices(9, 3)
        table = multinomial_log_table(indices)
        for i in rng.integers(0, len(indices), size=25):
            assert table[i] == pytest.approx(log_multinomial(indices[i]), abs=1e-12)

    def test_log_table_refused_past_the_cap(self):
        # One row asks for max |k| + 1 = 10**9 + 1 log-factorials (8 GB): refused
        # before any is built. A lattice row under the cap still passes.
        with pytest.raises(SizeOverflowError, match=r"1000000001 entries \(cap 100000000\)"):
            multinomial_log_table(np.array([[10**9, 0]]))
        with mock.patch.object(lattice, "SIZE_CAP", 1001):
            assert multinomial_log_table(np.array([[1000, 0, 0, 0]]))[0] == 0.0
            with pytest.raises(SizeOverflowError):
                multinomial_log_table(np.array([[1000, 1, 0, 0]]))

    def test_log_table_against_exact_integers(self):
        # Every multi-index with |k| <= 60 on a triangle, against the log of
        # the exact integer; corner coefficients (value 1) must give 0 exactly.
        # log M = log n! - sum log k_j! cancels, so the error scale is log n!:
        # within two units of 2**-52 of it (scipy's gammaln reached 2.2).
        # A row's bits do not depend on the rows it is tabled with: the table
        # of each order alone, and every 97th row alone, match the whole table.
        lattices = [enumerate_multi_indices(n, 2) for n in range(61)]
        indices = np.vstack(lattices)
        table = multinomial_log_table(indices)
        exact = np.array([math.log(value) for value in exact_multinomial(indices)])
        log_n_factorial = np.array([math.log(math.factorial(n)) for n in range(61)])
        assert np.all(table[exact == 0.0] == 0.0)
        assert np.all(np.abs(table - exact) <= 2.0**-51 * log_n_factorial[indices.sum(axis=1)])
        assert np.array_equal(table, np.concatenate([multinomial_log_table(k) for k in lattices]))
        assert [log_multinomial(k) for k in indices[::97].tolist()] == table[::97].tolist()

    def test_log_table_past_the_factorial_limit(self):
        # Orders above 170 read lgamma; compare with the exact integer.
        for k in ([171, 0], [170, 1], [200, 150, 50], [1000, 1, 999]):
            exact = math.log(exact_multinomial(k))
            assert multinomial_log_table(np.array([k]))[0] == pytest.approx(exact, rel=1e-14)

    def test_log_table_matches_a_per_entry_reference(self):
        # Reference: log(i!) entry by entry, the exact integer up to 170 and
        # lgamma above, summed in the same order. Every case reads the one
        # dense table, the last with few rows and a large max |k| too.
        log_factorial = lambda i: math.log(math.factorial(i)) if i <= 170 else math.lgamma(i + 1)
        cases = [enumerate_multi_indices(60, 3), enumerate_multi_indices(171, 1),
                 enumerate_multi_indices(300, 2),
                 np.array([[10**6 - 3, 3], [500, 400], [171, 0], [2, 5], [180, 180]])]
        for indices in cases:
            expected = [log_factorial(sum(k)) - sum(log_factorial(v) for v in k)
                        for k in indices.tolist()]
            assert np.array_equal(multinomial_log_table(indices), expected)

    def test_exp_log_matches_exact(self):
        for order, dim in [(10, 2), (25, 3), (18, 4)]:
            indices = enumerate_multi_indices(order, dim)
            values = np.exp(multinomial_log_table(indices))
            exact = exact_multinomial(indices).astype(float)
            np.testing.assert_allclose(values, exact, rtol=1e-10)

    def test_newton_multinomial_identity(self, rng):
        # sum over M_n of multinomial * prod a^k == (sum a)^n
        for dim in (1, 2, 3):
            for order in (1, 4, 8, 12):
                a = rng.uniform(0.1, 2.0, size=dim + 1)
                indices = enumerate_multi_indices(order, dim)
                coeffs = np.exp(multinomial_log_table(indices))
                total = float(coeffs @ np.prod(a[None, :] ** indices, axis=1))
                assert total == pytest.approx(float(a.sum() ** order), rel=1e-10)

    def test_all_ones_sum(self):
        indices = enumerate_multi_indices(5, 2)
        total = sum(exact_multinomial(indices))
        assert total == 3**5 == 243


class TestControlPoints:
    def test_interval_midpoint_lattice(self, unit_interval):
        assert sorted(control_points(unit_interval, 2)[:, 0]) == [0.0, 0.5, 1.0]

    def test_vertices_appear(self, rng):
        s = random_simplex(rng, 3)
        n = 4
        indices, points = enumerate_multi_indices(n, 3), control_points(s, n)
        for j in range(4):
            match = points[np.all(indices == n * np.eye(4, dtype=int)[j], axis=1)]
            assert len(match) == 1
            np.testing.assert_allclose(match[0], s.vertices[j], atol=1e-12)

    def test_triangle_degree_three_lattice(self, triangle):
        points = control_points(triangle, 3)
        assert points.shape == (10, 2)
        for p in points:
            assert np.all(triangle.barycentric(p) >= -1e-9)

    def test_iteration_matches_enumeration(self, triangle):
        indices = enumerate_multi_indices(4, 2)
        np.testing.assert_allclose(control_points(triangle, 4), (indices / 4.0) @ triangle.vertices)

    def test_grid_of_resolution_n(self, rng):
        # The control points are the grid of resolution n on the simplex, bit
        # for bit, and read-only.
        for dim, order in [(1, 7), (2, 5), (3, 4), (4, 3)]:
            s = random_simplex(rng, dim)
            points = control_points(s, order)
            assert np.array_equal(points, grid_weights(order, dim) @ s.vertices)
            assert not points.flags.writeable
            with pytest.raises(ValueError):
                points[0, 0] = 1.0

    def test_order_validation(self, triangle):
        with pytest.raises(DimensionMismatchError):
            control_points(triangle, 0)


# Callers of lattice.check_order, each with the order as its one free input.
ORDER_TAKERS = {
    "control_points": lambda n: control_points(standard_simplex(2), n),
    "basis_vector": lambda n: basis_vector(standard_simplex(2), n, [0.2, 0.3]),
    "grid_weights": lambda n: grid_weights(n, 2),
    "ControlNet": lambda n: ControlNet(standard_simplex(2), n, np.ones(10)),
    "error_budget": lambda n: error_budget(standard_simplex(2), [1.0, 0.5], n),
}


class TestOrderRule:
    @pytest.mark.parametrize("take", ORDER_TAKERS.values(), ids=ORDER_TAKERS.keys())
    @pytest.mark.parametrize("order", [2.5, True, 0, -1], ids=["float", "bool", "zero", "negative"])
    def test_bad_order_refused_with_its_value(self, take, order):
        with pytest.raises(DimensionMismatchError, match=f"got {order!r}$"):
            take(order)

    @pytest.mark.parametrize("take", ORDER_TAKERS.values(), ids=ORDER_TAKERS.keys())
    def test_numpy_integer_order_accepted(self, take):
        take(np.int64(3))

    def test_lattice_takes_order_zero(self):
        assert count_multi_indices(0, 2) == 1
        with pytest.raises(DimensionMismatchError, match="got 2.5"):
            count_multi_indices(2.5, 2)


class TestGrids:
    def test_weights_rows_sum_to_one(self):
        w = grid_weights(7, 3)
        assert w.shape == (count_multi_indices(7, 3), 4)
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)
        assert w.min() >= 0.0 and w.max() <= 1.0

    def test_resolution_validated(self):
        with pytest.raises(DimensionMismatchError):
            grid_weights(0, 2)
        with pytest.raises(DimensionMismatchError):
            next(grid_weight_blocks(0, 2))
        with pytest.raises(SizeOverflowError):
            next(grid_weight_blocks(105, 5))

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(dimension=st.integers(1, 5), resolution=st.integers(1, 40),
           parts=st.one_of(st.none(), st.integers(1, 200)))
    def test_blocks_stack_to_the_grid(self, dimension, resolution, parts):
        # The reference is the integer lattice over the resolution. A budget
        # of 1/parts of the grid cuts it anywhere, across slabs and lines: the
        # blocks are its row_chunks(count, D+1) slices, each
        # within the budget or a single block of GEMM_COLUMNS rows.
        count = count_multi_indices(resolution, dimension)
        budget = max(1, count * (dimension + 1) // parts) if parts else lattice._ENTRY_BUDGET
        with mock.patch.object(lattice, "_ENTRY_BUDGET", budget):
            blocks = list(grid_weight_blocks(resolution, dimension))
            chunks = lattice.row_chunks(count, dimension + 1)
        whole = enumerate_multi_indices(resolution, dimension) / float(resolution)
        stacked = np.vstack(blocks)
        assert stacked.dtype == whole.dtype and stacked.shape == whole.shape
        assert np.array_equal(stacked.view(np.int64), whole.view(np.int64))
        assert len(blocks) == len(chunks)
        for block, rows in zip(blocks, chunks):
            assert np.array_equal(block.view(np.int64), whole[rows].view(np.int64))
            assert block.size <= max(budget, lattice.GEMM_COLUMNS * (dimension + 1))

    def test_a_line_is_cut_within_the_budget(self):
        # 2,000,001 points on an interval are one line of 4,000,002 doubles
        # (32 MB). Streamed, as the exp studies stream it, one block of at
        # most _ENTRY_BUDGET doubles and the integer columns it is made from
        # are alive at a time.
        tracemalloc.start()
        try:
            largest = 0
            for block in grid_weight_blocks(2_000_000, 1):
                largest = max(largest, block.size)
                del block
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert largest == lattice._ENTRY_BUDGET
        assert peak <= 3 * 8 * lattice._ENTRY_BUDGET

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(count=st.integers(0, 3000), doubles=st.integers(0, 600), budget=st.integers(1, 5000))
    def test_row_chunks_cover_the_rows(self, count, doubles, budget):
        # Consecutive chunks of one step, the last one short: the largest
        # multiple of GEMM_COLUMNS rows within the budget, or GEMM_COLUMNS rows.
        multiple = lattice.GEMM_COLUMNS
        with mock.patch.object(lattice, "_ENTRY_BUDGET", budget):
            chunks = lattice.row_chunks(count, doubles)
        step = chunks[0].stop if chunks else multiple
        assert chunks == [slice(start, start + step) for start in range(0, count, step)]
        assert step % multiple == 0 and step >= multiple
        per_row = max(1, doubles)
        assert step * per_row <= budget or step == multiple
        assert (step + multiple) * per_row > budget or not chunks
        # The 11 cases of a six-scale study at 32 doubles each, as before.
        assert lattice.row_chunks(2000, 32 * 11)[0] == slice(0, 1488)

    def test_default_resolutions(self):
        assert default_grid_resolution(1) == 50
        assert default_grid_resolution(2) == 50
        assert default_grid_resolution(3) == 15
        assert default_grid_resolution(4) == 8
        assert default_grid_resolution(6) == 8
