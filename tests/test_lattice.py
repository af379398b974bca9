import io
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    multinomial_exact,
    multinomial_log,
    multinomial_log_table,
    standard_simplex,
)

from bezsimplex import lattice

from conftest import random_simplex


def exact_multinomial(k):
    """Independent factorial-ratio oracle."""
    value = math.factorial(sum(k))
    for kj in k:
        value //= math.factorial(kj)
    return value


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
        assert multinomial_log([2, 1, 1]) == pytest.approx(math.log(12), rel=1e-14)

    def test_corner_coefficient_is_exactly_zero(self):
        assert multinomial_log([7, 0, 0, 0]) == 0.0

    def test_log_4200(self):
        # 10!/(3! 3! 4!) = 4200 by the factorial oracle.
        assert exact_multinomial((3, 3, 4)) == 4200
        assert multinomial_log([3, 3, 4]) == pytest.approx(math.log(4200), rel=1e-13)

    def test_exact_small_cases(self):
        assert multinomial_exact([1, 1]) == 2
        assert multinomial_exact([2, 2, 2]) == 90

    def test_exact_matches_oracle(self, rng):
        for _ in range(100):
            dim = int(rng.integers(1, 5))
            k = rng.multinomial(int(rng.integers(0, 30)), np.full(dim + 1, 1 / (dim + 1)))
            assert multinomial_exact(k) == exact_multinomial(k.tolist())

    def test_exact_order_limit(self):
        with pytest.raises(SizeOverflowError):
            multinomial_exact([61, 0])
        multinomial_exact([30, 30])

    def test_log_accuracy_large_order(self, rng):
        # Oracle: log of the exact integer value, computed by Python bignums.
        for _ in range(20):
            k = rng.multinomial(1000, [0.25, 0.25, 0.25, 0.25])
            exact = exact_multinomial(k.tolist())
            assert multinomial_log(k) == pytest.approx(math.log(exact), rel=1e-12)

    def test_log_table_matches_scalar(self, rng):
        indices = enumerate_multi_indices(9, 3)
        table = multinomial_log_table(indices)
        for i in rng.integers(0, len(indices), size=25):
            assert table[i] == pytest.approx(multinomial_log(indices[i]), abs=1e-12)

    def test_log_table_against_exact_integers(self):
        # Every multi-index with |k| <= 60 on a triangle, against the log of
        # the exact integer; corner coefficients (value 1) must give 0 exactly.
        # log M = log n! - sum log k_j! cancels, so the error scale is log n!:
        # within two units of 2**-52 of it (scipy's gammaln reached 2.2).
        indices = np.vstack([enumerate_multi_indices(n, 2) for n in range(61)])
        table = multinomial_log_table(indices)
        exact = np.array([math.log(multinomial_exact(k)) for k in indices])
        log_n_factorial = np.array([math.log(math.factorial(n)) for n in indices.sum(axis=1)])
        assert np.all(table[exact == 0.0] == 0.0)
        assert np.all(np.abs(table - exact) <= 2.0**-51 * log_n_factorial)
        scalar = np.array([multinomial_log(k) for k in indices])
        assert np.array_equal(table, scalar)

    def test_log_table_past_the_factorial_limit(self):
        # Orders above 170 read lgamma; compare with the exact integer.
        for k in ([171, 0], [170, 1], [200, 150, 50], [1000, 1, 999]):
            exact = math.log(exact_multinomial(k))
            assert multinomial_log_table(np.array([k]))[0] == pytest.approx(exact, rel=1e-14)

    def test_huge_index_reads_lgamma_once_per_value(self):
        # Above 170 only the values that occur are read, not every order.
        with mock.patch.object(math, "lgamma", mock.Mock(wraps=math.lgamma)) as calls:
            got = multinomial_log([10**6 - 3, 3])
            assert calls.call_count <= 2
            calls.reset_mock()
            assert multinomial_log([10**6, 0]) == 0.0
            assert calls.call_count <= 1
        exact = math.log(math.comb(10**6, 3))
        assert abs(got - exact) <= 2.0**-51 * math.lgamma(10**6 + 1)

    def test_log_table_matches_a_per_entry_reference(self):
        # Reference: log(i!) entry by entry, the exact integer up to 170 and
        # lgamma above, summed in the same order. Lattices take the dense
        # table; the last case has few rows and reads lgamma per value.
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
            exact = np.array([float(multinomial_exact(k)) for k in indices])
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
        total = sum(multinomial_exact(k) for k in indices)
        assert total == 3**5 == 243

    @pytest.mark.parametrize("multinomial", [multinomial_log, multinomial_exact])
    @pytest.mark.parametrize("index", [[1.5, 0.5, 1.0], [True, False], [2**70, 1]])
    def test_non_integer_entries_rejected(self, multinomial, index):
        with pytest.raises(DimensionMismatchError, match="integers"):
            multinomial(index)

    def test_negative_entries_rejected(self):
        with pytest.raises(DimensionMismatchError):
            multinomial_log([2, -1, 1])
        with pytest.raises(DimensionMismatchError):
            multinomial_log([3])


class TestControlPoints:
    def test_interval_midpoint_lattice(self, unit_interval):
        cps = control_points(unit_interval, 2)
        assert sorted(p[0] for _, p in cps) == [0.0, 0.5, 1.0]

    def test_vertices_appear(self, rng):
        s = random_simplex(rng, 3)
        n = 4
        cps = control_points(s, n)
        for j in range(4):
            target = n * np.eye(4, dtype=int)[j]
            match = [p for k, p in cps if np.array_equal(k, target)]
            assert len(match) == 1
            np.testing.assert_allclose(match[0], s.vertices[j], atol=1e-12)

    def test_triangle_degree_three_lattice(self, triangle):
        cps = control_points(triangle, 3)
        assert len(cps) == 10
        for _, p in cps:
            assert triangle.contains(p, tol=1e-9)

    def test_iteration_matches_enumeration(self, triangle):
        cps = control_points(triangle, 4)
        np.testing.assert_array_equal(cps.indices, enumerate_multi_indices(4, 2))
        np.testing.assert_allclose(cps.points, (cps.indices / 4.0) @ triangle.vertices)

    def test_order_validation(self, triangle):
        with pytest.raises(DimensionMismatchError):
            control_points(triangle, 0)

    def test_csv_export(self, triangle):
        buffer = io.StringIO()
        control_points(triangle, 2).write_csv(buffer)
        lines = buffer.getvalue().splitlines()
        assert lines[0] == "k_0,k_1,k_2,x_1,x_2"
        assert len(lines) == 7
        assert buffer.getvalue().endswith("\n")


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
        # of 1/parts of the grid cuts slabs into sub-slabs and joins them
        # again; only a single line (k_2..k_D fixed) may pass it.
        doubles = count_multi_indices(resolution, dimension) * (dimension + 1)
        budget = max(1, doubles // parts) if parts else lattice._ENTRY_BUDGET
        with mock.patch.object(lattice, "_ENTRY_BUDGET", budget):
            blocks = list(grid_weight_blocks(resolution, dimension))
        whole = enumerate_multi_indices(resolution, dimension) / float(resolution)
        stacked = np.vstack(blocks)
        assert stacked.dtype == whole.dtype and stacked.shape == whole.shape
        assert np.array_equal(stacked.view(np.int64), whole.view(np.int64))
        for block in blocks:
            assert block.size <= budget or np.all(block[:, 2:] == block[0, 2:])
        if whole.size <= budget or dimension == 1:
            assert len(blocks) == 1

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(count=st.integers(0, 3000), doubles=st.integers(0, 600), multiple=st.integers(1, 9),
           budget=st.integers(1, 5000))
    def test_row_chunks_cover_the_rows(self, count, doubles, multiple, budget):
        # Consecutive chunks of one step, the last one short: the largest
        # multiple of `multiple` rows within the budget, or `multiple` rows.
        with mock.patch.object(lattice, "_ENTRY_BUDGET", budget):
            chunks = lattice.row_chunks(count, doubles, multiple)
        step = chunks[0].stop if chunks else multiple
        assert chunks == [slice(start, start + step) for start in range(0, count, step)]
        assert step % multiple == 0 and step >= multiple
        per_row = max(1, doubles)
        assert step * per_row <= budget or step == multiple
        assert (step + multiple) * per_row > budget or not chunks
        # The 11 cases of a six-scale study at 32 doubles each, as before.
        assert lattice.row_chunks(2000, 32 * 11, 8)[0] == slice(0, 1488)

    def test_default_resolutions(self):
        assert default_grid_resolution(1) == 50
        assert default_grid_resolution(2) == 50
        assert default_grid_resolution(3) == 15
        assert default_grid_resolution(4) == 8
        assert default_grid_resolution(6) == 8
