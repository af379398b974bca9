import itertools
import math
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bezsimplex import bernstein, lattice
from bezsimplex.experiments import TestFunction as Function  # not a test class

from bezsimplex import (
    ConfigError,
    ControlNet,
    DimensionMismatchError,
    DomainError,
    EmptyGridError,
    ExpPolynomial,
    FunctionEvaluationError,
    InvalidBarycentricError,
    NegativeWeightError,
    Simplex,
    SizeOverflowError,
    apply_de_casteljau,
    apply_direct,
    basis_vector,
    closed_form_at_weights,
    control_points,
    count_multi_indices,
    enumerate_multi_indices,
    error_budget,
    evaluate_at_weights,
    grid_weights,
    make_function,
    operator_sup_error,
    sample_control_net,
)

from conftest import (direct_forward_bound, exact_multinomial, forward_bound, interior_weights,
                      pointwise, random_simplex)

PROPERTY = settings(max_examples=30, deadline=None, derandomize=True, database=None)
SEEDS = st.integers(0, 2**32 - 1)

ONE = Function("one", lambda points: np.ones(len(points)))


def exp_function(a):
    """exp(a.x) as a batch TestFunction."""
    return Function("exp", lambda points: np.exp(points @ np.asarray(a, dtype=float)))


def brute_force_operator(vertices, order, f, x):
    """Fully independent reference: itertools enumeration, integer factorials,
    a fresh dense solve for the weights, and plain power products."""
    vertices = np.asarray(vertices, dtype=float)
    dim = vertices.shape[1]
    system = np.vstack([np.ones(dim + 1), vertices.T])
    w = np.linalg.solve(system, np.concatenate([[1.0], np.asarray(x, dtype=float)]))
    total = 0.0
    for k in itertools.product(range(order + 1), repeat=dim + 1):
        if sum(k) != order:
            continue
        coeff = math.factorial(order)
        for kj in k:
            coeff //= math.factorial(kj)
        point = sum(k[j] * vertices[j] for j in range(dim + 1)) / order
        basis = coeff * math.prod(w[j] ** k[j] for j in range(dim + 1))
        total += f(point) * basis
    return total


def basis_value(simplex, k, x):
    """B_k(x): basis_vector's entry at the row of k in the enumeration."""
    rows = enumerate_multi_indices(sum(k), simplex.dimension).tolist()
    return basis_vector(simplex, sum(k), x)[rows.index(list(k))]


class TestBasisValue:
    def test_interval_midpoint(self, unit_interval):
        # binom(2; 1,1) * 0.5 * 0.5 = 0.5
        assert basis_value(unit_interval, [1, 1], [0.5]) == pytest.approx(0.5, abs=1e-15)

    def test_vertex_cases(self, triangle):
        vertex = triangle.vertices[1]
        assert basis_value(triangle, [0, 3, 0], vertex) == pytest.approx(1.0, rel=1e-12)
        for k in ([3, 0, 0], [1, 1, 1], [0, 2, 1]):
            assert basis_value(triangle, k, vertex) == pytest.approx(0.0, abs=1e-15)

    def test_centroid_against_exact_multinomial(self, triangle):
        # binom(3; 1,1,1) = 6 by the factorial oracle, times (1/3)^3.
        expected = 6 * (1.0 / 3.0) ** 3
        got = basis_value(triangle, [1, 1, 1], triangle.centroid)
        assert got == pytest.approx(expected, rel=1e-13)
        assert expected == pytest.approx(2.0 / 9.0, rel=1e-15)

    def test_range_and_positivity(self, rng):
        s = random_simplex(rng, 3)
        pts = interior_weights(rng, 3, 30) @ s.vertices
        indices = enumerate_multi_indices(5, 3)
        for p in pts:
            values = basis_vector(s, 5, p)
            assert np.all(values >= 0.0)
            assert np.all(values <= 1.0 + 1e-12)
            w = s.barycentric(p)
            for k in indices[rng.integers(0, len(indices), size=5)]:
                # Reference: the exact multinomial times the plain power product.
                expected = float(exact_multinomial(k)) * float(np.prod(w**k))
                assert basis_value(s, k.tolist(), p) == pytest.approx(expected, abs=1e-14)

    def test_partition_of_unity(self, rng):
        for dim in (1, 2, 3, 4):
            s = random_simplex(rng, dim)
            pts = interior_weights(rng, dim, 50) @ s.vertices
            for order in (1, 6, 20):
                sums = np.array([basis_vector(s, order, p).sum() for p in pts])
                np.testing.assert_allclose(sums, 1.0, atol=1e-12)

    @PROPERTY
    @given(dimension=st.integers(1, 4), order=st.integers(1, 20), seed=SEEDS)
    def test_exact_zeros_positivity_and_unity_on_faces(self, dimension, order, seed):
        # On a face B_k is 0 exactly when some k_j > 0 has a zero weight. A
        # solve for the cartesian point leaves round-off in those weights, so
        # the simplex answers the face weights themselves.
        rng = np.random.default_rng(seed)
        s = random_simplex(rng, dimension)
        indices = enumerate_multi_indices(order, dimension)
        for w in face_weights(rng, dimension, 0):
            x = w @ s.vertices
            supported = ~np.any((indices > 0) & (w == 0.0), axis=1)
            with mock.patch.object(type(s), "barycentric", return_value=w):  # s is frozen
                values = basis_vector(s, order, x)
                assert np.all(values[~supported] == 0.0)
                assert np.all(values[supported] > 0.0)
                assert abs(values.sum() - 1.0) <= 1e-12

    def test_outside_point_rejected(self, triangle):
        with pytest.raises(NegativeWeightError):
            basis_vector(triangle, 3, [1.0, 1.0])

    def test_bad_index_rejected(self, triangle):
        # The order is checked by lattice.check_order, the point's length by the simplex.
        for order in (0, True, 2.0):
            with pytest.raises(DimensionMismatchError, match="order"):
                basis_vector(triangle, order, [0.2, 0.2])
        with pytest.raises(DimensionMismatchError):
            basis_vector(triangle, 2, [0.2])


class TestSampling:
    def test_constant_net(self, triangle):
        net = sample_control_net(triangle, 4, ONE)
        np.testing.assert_array_equal(net.coefficients, np.ones(15))

    def test_identity_on_interval(self, unit_interval):
        net = sample_control_net(unit_interval, 2, Function("x", lambda points: points[:, 0]))
        np.testing.assert_allclose(net.coefficients, [0.0, 0.5, 1.0], atol=1e-15)

    def test_exponential_samples_factorize(self, rng):
        # Entries must equal prod_j exp(a.x_j)^(k_j/n): direct exponentiation.
        s = random_simplex(rng, 2)
        a = rng.normal(size=2)
        n = 5
        net = sample_control_net(s, n, exp_function(a))
        dots = s.vertices @ a
        for k, got in zip(enumerate_multi_indices(n, 2), net.coefficients):
            expected = math.prod(math.exp(d) ** (kj / n) for d, kj in zip(dots, k))
            assert got == pytest.approx(expected, rel=1e-12)

    def test_exception_from_f_propagates_unchanged(self, triangle):
        def broken(points):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="^boom$"):
            sample_control_net(triangle, 2, Function("broken", broken))

    @PROPERTY
    @given(dimension=st.integers(1, 3), order=st.integers(1, 8),
           bad=st.sampled_from(["nan", "inf", "-inf", "overflow"]), seed=SEEDS)
    def test_non_finite_value_names_its_point(self, dimension, order, bad, seed):
        # f is 1 everywhere but at one control point, where it is not finite or
        # overflows: both the sampler and the sup error refuse it by that point,
        # and no numpy warning escapes.
        rng = np.random.default_rng(seed)
        s = random_simplex(rng, dimension)
        points = control_points(s, order)
        target = points[rng.integers(len(points))]

        def spiked(p):
            at = np.all(p == target, axis=1)
            if bad == "overflow":
                return np.exp(np.where(at, 1000.0, 0.0))
            return np.where(at, float(bad), 1.0)

        f = Function("spiked", spiked)
        named = re.escape(f"at point {target.tolist()};")
        grid = np.vstack([interior_weights(rng, dimension, 5) @ s.vertices, target])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FunctionEvaluationError, match=named):
                sample_control_net(s, order, f)
            with pytest.raises(FunctionEvaluationError, match=named):
                operator_sup_error(sample_control_net(s, order, ONE), f, grid)

    def test_batch_of_the_wrong_shape_is_refused(self, triangle):
        column = Function("column", lambda points: np.ones((len(points), 1)))
        with pytest.raises(FunctionEvaluationError, match=r"column gave shape \(6, 1\) at 6"):
            sample_control_net(triangle, 2, column)
        with pytest.raises(FunctionEvaluationError, match="shape"):
            operator_sup_error(sample_control_net(triangle, 2, ONE), column, [[0.2, 0.3]])

    def test_net_length_validated(self, triangle):
        with pytest.raises(DimensionMismatchError):
            ControlNet(triangle, 3, np.ones(9))
        with pytest.raises(DimensionMismatchError):
            ControlNet(triangle, 0, np.ones(1))
        with pytest.raises(ValueError):
            ControlNet(triangle, 2, np.array([1.0, np.nan, 0, 0, 0, 0]))

    def test_non_finite_net_is_typed(self, triangle):
        # The first non-finite entry is named by position and multi-index.
        values = np.array([1.0, 2.0, 3.0, np.inf, np.nan, 0.0])
        with pytest.raises(FunctionEvaluationError,
                           match=r"coefficient 3 \(multi-index \(1, 0, 1\)\) is inf"):
            ControlNet(triangle, 2, values)
        with pytest.raises(FunctionEvaluationError, match="nan"):
            sample_control_net(triangle, 3, Function("nan", lambda p: np.full(len(p), np.nan)))


class TestApplyDirect:
    def test_constant_is_reproduced(self, rng):
        s = random_simplex(rng, 2)
        net = sample_control_net(s, 7, ONE)
        for p in interior_weights(rng, 2, 20) @ s.vertices:
            assert apply_direct(net, p) == pytest.approx(1.0, abs=1e-12)

    def test_affine_against_brute_force(self, rng):
        for dim in (1, 2):
            s = random_simplex(rng, dim)
            v = rng.normal(size=dim)
            b = float(rng.normal())
            affine = lambda p, v=v, b=b: float(p @ v) + b
            for order in (1, 2, 3, 4, 5):
                net = sample_control_net(s, order, pointwise(affine))
                for p in interior_weights(rng, dim, 5) @ s.vertices:
                    got = apply_direct(net, p)
                    oracle = brute_force_operator(s.vertices, order, affine, p)
                    assert got == pytest.approx(oracle, abs=1e-12)
                    assert got == pytest.approx(affine(p), abs=1e-10)

    def test_interval_exponential_hand_value(self, unit_interval):
        # Two-term sum at n=1: 0.5 * exp(0) + 0.5 * exp(1).
        net = sample_control_net(unit_interval, 1, exp_function([1.0]))
        expected = 0.5 * (1.0 + math.e)
        assert expected == pytest.approx(1.8591409142295225, abs=1e-12)
        assert apply_direct(net, [0.5]) == pytest.approx(expected, rel=1e-14)

    def test_outside_point_rejected(self, triangle):
        net = sample_control_net(triangle, 2, ONE)
        with pytest.raises(NegativeWeightError):
            apply_direct(net, [2.0, 2.0])
        with pytest.raises(NegativeWeightError):
            evaluate_at_weights(net, np.array([[1.5, -0.5, 0.0]]))


class TestDeCasteljau:
    def test_single_round_is_convex_combination(self, unit_interval):
        # Enumeration order at n=1 is [(1,0), (0,1)]: coefficients attach to
        # vertex 0 then vertex 1.
        net = ControlNet(unit_interval, 1, np.array([3.0, -1.0]))
        got = apply_de_casteljau(net, [0.25, 0.75])
        assert got == pytest.approx(0.25 * 3.0 + 0.75 * (-1.0), abs=1e-15)

    def test_constants_preserved(self, rng):
        s = random_simplex(rng, 3)
        net = ControlNet(s, 9, np.full(len(control_points(s, 9)), 2.5))
        for t in interior_weights(rng, 3, 10):
            assert apply_de_casteljau(net, t) == pytest.approx(2.5, abs=1e-13)

    def test_matches_direct_on_random_nets(self, rng):
        s = random_simplex(rng, 2)
        count = len(control_points(s, 8))
        net = ControlNet(s, 8, rng.normal(size=count))
        weights = interior_weights(rng, 2, 50)
        scale = float(np.abs(net.coefficients).max())
        for t in weights:
            direct = apply_direct(net, t @ s.vertices)
            stable = apply_de_casteljau(net, t)
            assert abs(stable - direct) <= 1e-10 * scale

    def test_equivalence_sweep(self, rng):
        for dim in (1, 2, 3):
            s = random_simplex(rng, dim)
            for order in (1, 4, 9, 15):
                count = len(control_points(s, order))
                net = ControlNet(s, order, rng.normal(size=count))
                w = interior_weights(rng, dim, 30)
                direct = evaluate_at_weights(net, w, evaluator="direct")
                stable = evaluate_at_weights(net, w, evaluator="decasteljau")
                scale = float(np.abs(net.coefficients).max())
                np.testing.assert_allclose(stable, direct, atol=1e-10 * scale)

    def test_weight_validation(self, triangle):
        net = ControlNet(triangle, 2, np.zeros(6))
        with pytest.raises(InvalidBarycentricError):
            apply_de_casteljau(net, [0.5, 0.2, 0.2])
        with pytest.raises(DimensionMismatchError):
            apply_de_casteljau(net, [0.5, 0.5])

    def test_unknown_evaluator(self, triangle):
        net = ControlNet(triangle, 2, np.zeros(6))
        with pytest.raises(ConfigError, match="horner"):
            evaluate_at_weights(net, np.full((1, 3), 1 / 3), evaluator="horner")


def face_weights(rng, dimension, interior):
    """One point on each non-empty vertex subset (vertices, edges, faces and
    the interior), then `interior` interior points. Subsets without vertex 0
    make the leading weights vanish together: the 0/0 collapsed coordinate."""
    rows = []
    for size in range(1, dimension + 2):
        for support in itertools.combinations(range(dimension + 1), size):
            w = np.zeros(dimension + 1)
            w[list(support)] = rng.dirichlet(np.ones(size))
            rows.append(w)
    return np.vstack(rows + [interior_weights(rng, dimension, interior)])


def random_net(rng, dimension, order):
    s = random_simplex(rng, dimension)
    count = count_multi_indices(order, dimension)
    return ControlNet(s, order, rng.normal(size=count) * rng.uniform(0.1, 10))


def elevate(net):
    """The net of the same polynomial at order n+1 (Farin 1986):
    c'_k = sum_j (k_j / (n+1)) c_(k - e_j), over the j with k_j > 0."""
    order, dimension = net.order, net.simplex.dimension
    position = {tuple(k): i for i, k in
                enumerate(enumerate_multi_indices(order, dimension).tolist())}
    raised = enumerate_multi_indices(order + 1, dimension).tolist()
    coefficients = np.zeros(len(raised))
    for i, k in enumerate(raised):
        for j, kj in enumerate(k):
            if kj:
                lower = tuple(k[:j] + [kj - 1] + k[j + 1:])
                coefficients[i] += kj / (order + 1) * net.coefficients[position[lower]]
    return ControlNet(net.simplex, order + 1, coefficients)


class TestCollapsedKernel:
    @PROPERTY
    @given(dimension=st.integers(1, 4), order=st.integers(1, 20),
           interior=st.integers(0, 40), seed=SEEDS)
    def test_agrees_with_direct_on_faces_and_interior(self, dimension, order, interior, seed):
        rng = np.random.default_rng(seed)
        net = random_net(rng, dimension, order)
        w = face_weights(rng, dimension, interior)
        stable = evaluate_at_weights(net, w, evaluator="decasteljau")
        direct = evaluate_at_weights(net, w, evaluator="direct")
        scale = float(np.abs(net.coefficients).max())
        np.testing.assert_allclose(stable, direct, rtol=0, atol=1e-10 * scale)

    def test_vertices_are_exact(self, rng):
        for dimension in (1, 2, 3, 4):
            net = random_net(rng, dimension, 7)
            corners = np.eye(dimension + 1)
            values = evaluate_at_weights(net, corners, evaluator="decasteljau")
            indices = enumerate_multi_indices(7, dimension)
            expected = [net.coefficients[np.flatnonzero(indices[:, j] == 7)[0]]
                        for j in range(dimension + 1)]
            np.testing.assert_array_equal(values, expected)

    @PROPERTY
    @given(dimension=st.integers(2, 4), order=st.integers(1, 12), chunk=st.sampled_from([8, 16, 24]),
           full=st.integers(0, 3), data=st.data(), seed=SEEDS)
    def test_point_counts_off_the_chunk_size(self, dimension, order, chunk, full, data, seed):
        # A budget of the plan's tables plus `chunk` times the kernel's doubles
        # per point gives chunks of exactly `chunk` points plus a remainder.
        rng = np.random.default_rng(seed)
        net = random_net(rng, dimension, order)
        rest = data.draw(st.integers(1, chunk - 1))
        points = full * chunk + rest
        w = rng.permutation(face_weights(rng, dimension, points))[:points]
        one_by_one = np.array([evaluate_at_weights(net, row[None, :])[0] for row in w])
        *_, held, per_point = bernstein._power_plan(net.coefficients, order, dimension)
        spy = mock.Mock(wraps=bernstein._power_chunk)
        with mock.patch.object(lattice, "_ENTRY_BUDGET", held + chunk * per_point), \
                mock.patch.object(bernstein, "_power_chunk", spy):
            chunked = evaluate_at_weights(net, w, evaluator="decasteljau")
            direct = evaluate_at_weights(net, w, evaluator="direct")
        sizes = [len(call.args[-1]) for call in spy.call_args_list]
        assert sizes == [chunk] * full + [rest]
        np.testing.assert_array_equal(chunked, one_by_one)
        scale = float(np.abs(net.coefficients).max())
        np.testing.assert_allclose(direct, one_by_one, rtol=0, atol=1e-10 * scale)

    @pytest.mark.parametrize("dimension", [1, 2, 3, 4, 5])
    def test_binomials_are_the_exact_ratios_rounded_once(self, dimension):
        # The plan's C(m, i) against each row built from its exact ratios,
        # C(m, i + 1) = C(m, i) (m - i) / (i + 1), then rounded: bit for bit.
        # The plan builds row n alone at D = 1 and rows 0..n beyond, so at
        # D >= 2 order 400 holds every row m <= 400. Row 57 has the first
        # C(m, i) past 2**53, which rounds, and row 67 the first past int64.
        def ratios(order, low):
            return np.array([c for m in range(low, order + 1) for c in itertools.accumulate(
                range(m), lambda c, i: c * (m - i) // (i + 1), initial=1)], dtype=float)

        orders = range(1, 401) if dimension == 1 else [*range(1, 71), 255, 256, 399, 400]
        for order in orders:
            low = order if dimension == 1 else 0
            assert bernstein._binomials(order, low).tobytes() == ratios(order, low).tobytes()

    @pytest.mark.parametrize("dimension, order", [(1, 5), (2, 7), (3, 6), (4, 3)])
    def test_stages_keep_enumeration_order(self, dimension, order, rng):
        # Stage j writes the order-n lattice of dimension D-j in enumeration
        # order: its row r sums the consecutive input rows k_j = i = 0..m, m = k_0
        # of r, each times C(m, i). Stage 1's table holds them forward and reversed.
        net = random_net(rng, dimension, order)
        (table, first_m, stages, scale, *_), _, _ = bernstein._power_plan(
            net.coefficients, order, dimension)
        assert scale == 0 and len(stages) == dimension - 1
        rows = count_multi_indices(order, dimension)
        for d, stage in zip(range(dimension - 1, -1, -1), [(first_m,), *stages]):
            block_m = stage[0]
            np.testing.assert_array_equal(
                block_m, enumerate_multi_indices(order, d)[:, 0] if d else [order])
            starts = np.cumsum(block_m + 1) - (block_m + 1)
            assert starts[-1] + block_m[-1] + 1 == rows
            m = np.repeat(block_m, block_m + 1)
            i = np.arange(rows) - np.repeat(starts, block_m + 1)
            binomials = [float(math.comb(a, b)) for a, b in zip(m.tolist(), i.tolist())]
            if d == dimension - 1:
                run = np.repeat(np.arange(len(block_m)), block_m + 1)
                expected = np.zeros((2, max(2, len(block_m) + len(block_m) % 2), order + 1))
                expected[0, run, i] = expected[1, run, m - i] = net.coefficients * binomials
                np.testing.assert_array_equal(table, expected)
            else:
                for got, want in zip(stage[1:], (starts, i, m - i, binomials)):
                    np.testing.assert_array_equal(got, want)
            rows = len(block_m)

    @PROPERTY
    @given(dimension=st.integers(1, 2), order=st.integers(1, 60), budget=st.integers(1, 300),
           seed=SEEDS)
    def test_single_points_match_the_whole_grid(self, dimension, order, budget, seed):
        # D = 1 is one long block; D = 2 has a group per m = 0..order. A point
        # alone, the whole grid in one chunk and chunks of a few points each
        # must give the same bits.
        rng = np.random.default_rng(seed)
        net = random_net(rng, dimension, order)
        w = np.vstack([face_weights(rng, dimension, 3), grid_weights(3, dimension)])
        whole = evaluate_at_weights(net, w, evaluator="decasteljau")
        one_by_one = [evaluate_at_weights(net, row[None, :], evaluator="decasteljau")[0]
                      for row in w]
        with mock.patch.object(lattice, "_ENTRY_BUDGET", budget * order):
            chunked = evaluate_at_weights(net, w, evaluator="decasteljau")
        np.testing.assert_array_equal(whole, one_by_one)
        np.testing.assert_array_equal(whole, chunked)

    def test_working_set_is_bounded_by_the_entry_budget(self, rng):
        # The plan's tables and a chunk hold at most _ENTRY_BUDGET doubles;
        # beside them there are only the plan's temporaries, fewer than (D+1)
        # numbers per coefficient.
        net = random_net(rng, 3, 60)
        w = grid_weights(15, 3)
        tracemalloc.start()
        try:
            evaluate_at_weights(net, w, evaluator="decasteljau")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * lattice._ENTRY_BUDGET + 8 * 4 * count_multi_indices(60, 3)

    @PROPERTY
    @given(dimension=st.integers(1, 4), order=st.integers(1, 20), seed=SEEDS)
    def test_monotone_in_the_net(self, dimension, order, seed):
        rng = np.random.default_rng(seed)
        upper = random_net(rng, dimension, order)
        gap = np.abs(rng.normal(size=upper.coefficients.shape))
        lower = ControlNet(upper.simplex, order, upper.coefficients - gap)
        w = face_weights(rng, dimension, 20)
        hi = evaluate_at_weights(upper, w, evaluator="decasteljau")
        lo = evaluate_at_weights(lower, w, evaluator="decasteljau")
        scale = float(np.abs(lower.coefficients).max())
        assert np.all(hi - lo >= -1e-12 * scale)

    def test_order_160_matches_closed_form(self, triangle):
        a = np.array([1.0, 1.0])
        net = sample_control_net(triangle, 160, exp_function(a))
        w = grid_weights(30, 2)
        exact = closed_form_at_weights(triangle, 160, a, w)
        stable = evaluate_at_weights(net, w, evaluator="decasteljau")
        direct = evaluate_at_weights(net, w, evaluator="direct")
        scale = float(np.abs(exact).max())
        assert np.abs(stable - exact).max() <= 1e-12 * scale
        assert np.abs(stable - direct).max() <= 1e-12 * scale

    @pytest.mark.parametrize("order", [160, 400])
    def test_direct_at_high_order_matches_closed_form(self, triangle, rng, order):
        # The direct evaluator carries the log-multinomial table to |k| = order.
        a = np.array([1.0, 1.0])
        net = ControlNet(triangle, order, np.exp(control_points(triangle, order) @ a))
        w = np.vstack([grid_weights(10, 2), interior_weights(rng, 2, 20)])
        exact = closed_form_at_weights(triangle, order, a, w)
        direct = evaluate_at_weights(net, w, evaluator="direct")
        assert np.abs(direct / exact - 1.0).max() <= 1e-12


class TestPowerFormRange:
    @PROPERTY
    @given(dimension=st.integers(1, 2), data=st.data(), seed=SEEDS)
    def test_matches_closed_form_to_the_order_limit(self, dimension, data, seed):
        # Against the closed form of exp(a.x), whose net has positive entries,
        # so sum_k |c_k| B_k is the closed form itself: decasteljau is as close
        # as direct is on the same points, or within its a-priori bound.
        order = data.draw(st.integers(1, bernstein.DE_CASTELJAU_MAX_ORDER))
        rng = np.random.default_rng(seed)
        s = random_simplex(rng, dimension)
        a = rng.normal(size=dimension)
        a *= math.sqrt(dimension) / np.linalg.norm(a)
        net = ControlNet(s, order, np.exp(control_points(s, order) @ a))
        w = np.vstack([np.eye(dimension + 1), interior_weights(rng, dimension, 6)])
        exact = closed_form_at_weights(s, order, a, w)
        stable = evaluate_at_weights(net, w, evaluator="decasteljau")
        direct = evaluate_at_weights(net, w, evaluator="direct")
        bound = np.maximum(np.abs(direct - exact), forward_bound(order, dimension) * exact
                           + 2.0**-270 * net.coefficients.max())
        assert np.all(np.abs(stable - exact) <= bound)

    def test_the_limit_order_evaluates(self, unit_interval, rng):
        order = bernstein.DE_CASTELJAU_MAX_ORDER
        net = ControlNet(unit_interval, order, np.exp(control_points(unit_interval, order)[:, 0]))
        w = np.vstack([np.eye(2), interior_weights(rng, 1, 20)])
        exact = closed_form_at_weights(unit_interval, order, [1.0], w)
        stable = evaluate_at_weights(net, w, evaluator="decasteljau")
        assert np.all(np.abs(stable / exact - 1.0) <= forward_bound(order, 1))
        np.testing.assert_array_equal(stable[:2], net.coefficients[[0, -1]])

    def test_past_the_limit_is_refused_before_any_table(self, unit_interval):
        order = bernstein.DE_CASTELJAU_MAX_ORDER + 1
        net = ControlNet(unit_interval, order, np.ones(order + 1))
        plan = mock.Mock(wraps=bernstein._power_plan)
        lattice_rows = mock.Mock(wraps=bernstein.enumerate_multi_indices)
        with mock.patch.object(bernstein, "_power_plan", plan), \
                mock.patch.object(bernstein, "enumerate_multi_indices", lattice_rows), \
                pytest.raises(SizeOverflowError, match="--evaluator direct"):
            evaluate_at_weights(net, np.eye(2), evaluator="decasteljau")
        assert not plan.called and not lattice_rows.called
        np.testing.assert_array_equal(evaluate_at_weights(net, np.eye(2), evaluator="direct"), 1.0)


class TestDirectKernel:
    @pytest.mark.parametrize("dimension, order", [(1, 5000), (2, 400), (3, 60)])
    def test_vertices_return_the_pure_index_coefficients(self, rng, dimension, order):
        # Each k_j >= 1 at a zero weight must give an exact 0 up to the order
        # where log C(5000, 2500) is about 3461, so the vertex value is one
        # coefficient bit for bit.
        net = random_net(rng, dimension, order)
        indices = enumerate_multi_indices(order, dimension)
        values = evaluate_at_weights(net, np.eye(dimension + 1), evaluator="direct")
        expected = [net.coefficients[np.flatnonzero(indices[:, j] == order)[0]]
                    for j in range(dimension + 1)]
        np.testing.assert_array_equal(values, expected)

    def test_basis_vector_at_a_vertex(self, triangle):
        values = basis_vector(triangle, 300, triangle.vertices[2])
        [hit] = np.flatnonzero(values)
        assert values[hit] == 1.0
        assert enumerate_multi_indices(300, 2)[hit].tolist() == [0, 0, 300]

    def test_working_set_is_bounded_by_the_entry_budget(self, rng):
        # One reused tile buffer per face and row block, released before the
        # next one is built, within _ENTRY_BUDGET doubles; beside it the lattice
        # table, its float copy and the log-multinomial table's temporaries,
        # (D+1) numbers per coefficient each.
        net = random_net(rng, 3, 60)
        w = grid_weights(15, 3)
        tracemalloc.start()
        try:
            evaluate_at_weights(net, w, evaluator="direct")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * lattice._ENTRY_BUDGET + 3 * 8 * 4 * count_multi_indices(60, 3)

    def test_tiles_of_a_wide_face_fit_the_entry_budget(self, rng):
        # The triangle's interior face at n = 400 has C(402, 2) = 80,601 rows,
        # more than a tile of GEMM_COLUMNS points can span in _ENTRY_BUDGET
        # doubles; each yielded tile is a view, so the buffer it is cut from counts.
        indices = enumerate_multi_indices(400, 2)
        w = np.vstack([grid_weights(3, 2), interior_weights(rng, 2, 70)])
        sizes = [block[2].base.size for block in bernstein._direct_blocks(indices, w)]
        assert sizes and max(sizes) <= lattice._ENTRY_BUDGET

    @PROPERTY
    @given(dimension=st.integers(1, 4), data=st.data(), seed=SEEDS)
    def test_points_have_the_same_bits_alone_in_batches_and_whole(self, dimension, data, seed):
        # Each face's points go in tiles of one shape, zero-padded, so a point's
        # value depends neither on the points evaluated beside it nor on its
        # place among them.
        order = data.draw(st.integers(1, {1: 60, 2: 40, 3: 20, 4: 10}[dimension]))
        rng = np.random.default_rng(seed)
        net = random_net(rng, dimension, order)
        w = rng.permutation(np.vstack([face_weights(rng, dimension, 30),
                                       grid_weights(4, dimension)]))
        cuts = sorted(set(data.draw(st.lists(st.integers(1, len(w) - 1), max_size=8))))
        whole = evaluate_at_weights(net, w, evaluator="direct")
        alone = [evaluate_at_weights(net, row[None, :], evaluator="direct")[0] for row in w]
        batches = [evaluate_at_weights(net, w[a:b], evaluator="direct")
                   for a, b in zip([0, *cuts], [*cuts, len(w)])]
        np.testing.assert_array_equal(whole, alone)
        np.testing.assert_array_equal(whole, np.concatenate(batches))
        np.testing.assert_array_equal(whole, evaluate_at_weights(net, w[::-1], "direct")[::-1])

    @pytest.mark.parametrize("dimension, order", [(1, 301), (2, 41), (3, 22), (4, 12)])
    def test_place_in_a_tile_does_not_change_the_bits(self, rng, dimension, order):
        # Lattices of C(n + D, D) rows, not a multiple of GEMM_COLUMNS, and a net
        # on the last 9 rows only: OpenBLAS takes the last columns of an unpadded
        # log-weights x indices product along an edge path whose bits depend on
        # the point's row in the tile, and here the value is made of those columns.
        coefficients = np.zeros(count_multi_indices(order, dimension))
        coefficients[-9:] = rng.normal(size=9)
        net = ControlNet(random_simplex(rng, dimension), order, coefficients)
        w = interior_weights(rng, dimension, 200)
        whole = evaluate_at_weights(net, w, evaluator="direct")
        reversed_order = evaluate_at_weights(net, w[::-1], evaluator="direct")[::-1]
        rolled = np.roll(evaluate_at_weights(net, np.roll(w, 5, axis=0), evaluator="direct"), -5)
        np.testing.assert_array_equal(whole, reversed_order)
        np.testing.assert_array_equal(whole, rolled)

    @PROPERTY
    @given(dimension=st.integers(1, 4), order=st.integers(1, 30), seed=SEEDS)
    def test_matches_closed_form_over_random_directions(self, dimension, order, seed):
        rng = np.random.default_rng(seed)
        s = random_simplex(rng, dimension)
        a = rng.normal(size=dimension)
        a *= math.sqrt(dimension) / np.linalg.norm(a)
        net = ControlNet(s, order, np.exp(control_points(s, order) @ a))
        w = face_weights(rng, dimension, 10)
        exact = closed_form_at_weights(s, order, a, w)
        direct = evaluate_at_weights(net, w, evaluator="direct")
        np.testing.assert_allclose(direct, exact, rtol=1e-12, atol=0)

    def test_rule_breaking_rows_refused(self):
        # f = 1 + x on the standard triangle at n = 3. A NaN weight is not read
        # as a zero weight, and a row summing to 1.8 is not evaluated as given:
        # both evaluators refuse each row instead of disagreeing on it.
        s = Simplex([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        net = sample_control_net(s, 3, Function("1+x", lambda points: 1.0 + points[:, 0]))
        for row in ([np.nan, 0.5, 0.5], [0.6, 0.6, 0.6]):
            w = np.array([[0.2, 0.3, 0.5], row])
            for evaluator in bernstein.EVALUATORS:
                with pytest.raises(InvalidBarycentricError):
                    evaluate_at_weights(net, w, evaluator=evaluator)


class TestOperatorProperties:
    @PROPERTY
    @given(dimension=st.integers(1, 4), order=st.integers(1, 16),
           evaluator=st.sampled_from(bernstein.EVALUATORS), seed=SEEDS)
    def test_vertex_permutation_invariance(self, dimension, order, evaluator, seed):
        # Vertex i of the relabelled simplex is vertex perm[i]: a point keeps
        # its place with weights w[:, perm], and the coefficient of k moves to
        # the multi-index k[perm] of the relabelled net.
        rng = np.random.default_rng(seed)
        net = random_net(rng, dimension, order)
        perm = rng.permutation(dimension + 1)
        indices = enumerate_multi_indices(order, dimension)
        position = {tuple(k): i for i, k in enumerate(indices[:, perm].tolist())}
        relabelled = ControlNet(Simplex(net.simplex.vertices[perm]), order,
                                net.coefficients[[position[tuple(k)] for k in indices.tolist()]])
        w = face_weights(rng, dimension, 20)
        values = evaluate_at_weights(net, w, evaluator=evaluator)
        moved = evaluate_at_weights(relabelled, w[:, perm], evaluator=evaluator)
        scale = float(np.abs(net.coefficients).max())
        np.testing.assert_allclose(moved, values, rtol=0, atol=1e-12 * scale)

    @PROPERTY
    @given(dimension=st.integers(1, 4), order=st.integers(1, 12),
           evaluator=st.sampled_from(bernstein.EVALUATORS), seed=SEEDS)
    def test_degree_elevation(self, dimension, order, evaluator, seed):
        # The elevated net is the same polynomial written at order n+1.
        rng = np.random.default_rng(seed)
        net = random_net(rng, dimension, order)
        w = face_weights(rng, dimension, 20)
        values = evaluate_at_weights(net, w, evaluator=evaluator)
        raised = evaluate_at_weights(elevate(net), w, evaluator=evaluator)
        scale = float(np.abs(net.coefficients).max())
        np.testing.assert_allclose(raised, values, rtol=0, atol=1e-12 * scale)

    @PROPERTY
    @given(dimension=st.integers(1, 4), order=st.integers(1, 30),
           evaluator=st.sampled_from(bernstein.EVALUATORS), seed=SEEDS)
    def test_affine_reproduction(self, dimension, order, evaluator, seed):
        # The operator reproduces v.x + b at every order, faces included.
        rng = np.random.default_rng(seed)
        s = random_simplex(rng, dimension)
        v, b = rng.normal(size=dimension), float(rng.normal())
        net = ControlNet(s, order, control_points(s, order) @ v + b)
        w = face_weights(rng, dimension, 20)
        values = evaluate_at_weights(net, w, evaluator=evaluator)
        scale = float(np.abs(net.coefficients).max())
        np.testing.assert_allclose(values, (w @ s.vertices) @ v + b, rtol=0, atol=1e-10 * scale)

    @PROPERTY
    @given(dimension=st.integers(1, 3), order=st.integers(1, 40), terms=st.integers(1, 3),
           epsilon=st.floats(1e-3, 1.0), evaluator=st.sampled_from(bernstein.EVALUATORS),
           seed=SEEDS)
    def test_convergence_estimate(self, dimension, order, terms, epsilon, evaluator, seed):
        # The paper's estimate: B_n is positive with norm one, so for any g
        #   |B_n f - f| <= |B_n (f - g)| + |B_n g - g| + |g - f|
        #              <= max_ctrl |f - g| + |B_n g - g| + |f - g|,
        # here with g a random exp-polynomial, f = g + eps runge and B_n g its
        # closed form term by term, every quantity as computed. The rounding
        # terms are first order in u; at these sizes each is below 1e-12
        # relative, so the u**2 terms they drop are below 1e-12 of them:
        # - the evaluator's forward bound (module docstring of bernstein), over
        #   sum_k B_k(w) = (sum_j w_j)**n <= (1 + u)**n, since w_j = fl(k_j / m);
        # - g at a computed point, against g at the exact point: the point is off
        #   by (D + 2) u max_j |x_j|, per coordinate, its dot a.x by D u more, exp
        #   by 4 ulps (8 u) and the sum over T terms by T u, so
        #   |c_i| E_i u ((2D + 2) A_i + 8 + T), E_i = max_j exp(a_i.x_j) and
        #   A_i = sum_d |a_id| max_j |x_jd|, which bounds |a_i.x| and the dots;
        # - the closed form: the exponents a.x_j / n are off by (D + 1) u A_i / n,
        #   each exp by 8 u, the weighted sum by (D + 1) u, log by 8 u |log S|,
        #   times n by u, and the last exp by 8 u, so n log S <= A_i gives
        #   |c_i| E_i u ((D + 10) A_i + (D + 9) n + 8), plus T u for the sum of terms;
        # - each computed max |a - b| is within u of its value, and the bound's
        #   own sums are within a few u: the factor 1 + 16 u.
        rng = np.random.default_rng(seed)
        s = random_simplex(rng, dimension)
        c = rng.normal(size=terms)
        a = rng.normal(size=(terms, dimension))
        a *= rng.uniform(0.1, 3.0, size=(terms, 1)) / np.linalg.norm(a, axis=1, keepdims=True)
        g = ExpPolynomial(zip(c, a))
        runge = make_function("runge", s).batch
        f = Function("g + eps runge",
                     lambda points: g.evaluate_many(points) + epsilon * runge(points))
        net = sample_control_net(s, order, f)
        w = grid_weights({1: 60, 2: 14, 3: 7}[dimension], dimension)
        points = w @ s.vertices
        f_grid, g_grid = f.evaluate(points), g.evaluate_many(points)
        closed = sum(ci * closed_form_at_weights(s, order, ai, w) for ci, ai in zip(c, a))
        observed = np.abs(evaluate_at_weights(net, w, evaluator=evaluator) - f_grid).max()
        at_control = np.abs(net.coefficients - g.evaluate_many(control_points(s, order))).max()
        estimate = at_control + np.abs(f_grid - g_grid).max() + np.abs(closed - g_grid).max()

        u = 2.0**-53
        reach = np.abs(s.vertices).max(axis=0)
        size_a, peak = np.abs(a) @ reach, np.abs(c) * np.exp((s.vertices @ a.T).max(axis=0))
        unity = 1.0 + 2.0 * order * u  # >= (1 + u)**n
        largest = np.abs(net.coefficients).max()
        if evaluator == "decasteljau":
            kernel = forward_bound(order, dimension) * largest * unity + 2.0**-270 * largest
        else:
            kernel = direct_forward_bound(order, dimension, w) * largest * unity
        at_points = u * peak @ ((2 * dimension + 2) * size_a + 8 + terms)
        closed_form = u * peak @ ((dimension + 10) * size_a + (dimension + 9) * order + 8 + terms)
        rounding = kernel + at_points * unity + closed_form + at_control * (unity - 1.0)
        assert observed <= (estimate + rounding) * (1.0 + 16.0 * u)

    def test_vertex_interpolation(self, rng):
        s = random_simplex(rng, 2)
        order = 6
        net = ControlNet(s, order, rng.normal(size=len(control_points(s, order))))
        indices = enumerate_multi_indices(order, 2)
        for j in range(3):
            corner = np.where((indices[:, j] == order))[0][0]
            got = apply_direct(net, s.vertices[j])
            assert got == pytest.approx(net.coefficients[corner], abs=1e-12)

    def test_monotonicity_at_net_level(self, rng):
        s = random_simplex(rng, 2)
        order = 5
        count = len(control_points(s, order))
        w = interior_weights(rng, 2, 40)
        for _ in range(20):
            upper = rng.normal(size=count)
            lower = upper - np.abs(rng.normal(size=count))
            hi = evaluate_at_weights(ControlNet(s, order, upper), w)
            lo = evaluate_at_weights(ControlNet(s, order, lower), w)
            assert np.all(hi - lo >= -1e-12)

    def test_contraction(self, rng):
        s = random_simplex(rng, 3)
        order = 4
        count = len(control_points(s, order))
        w = interior_weights(rng, 3, 40)
        for _ in range(20):
            coeffs = rng.normal(size=count) * rng.uniform(0.1, 10)
            values = evaluate_at_weights(ControlNet(s, order, coeffs), w)
            assert np.abs(values).max() <= np.abs(coeffs).max() + 1e-12

    def test_norm_attained_by_constants(self, rng):
        s = random_simplex(rng, 2)
        net = ControlNet(s, 3, np.full(10, 4.0))
        w = interior_weights(rng, 2, 10)
        values = evaluate_at_weights(net, w)
        assert np.abs(values).max() == pytest.approx(4.0, abs=1e-12)


class TestSupError:
    def test_constant_function(self, triangle, rng):
        net = sample_control_net(triangle, 5, ONE)
        grid = interior_weights(rng, 2, 30) @ triangle.vertices
        assert operator_sup_error(net, ONE, grid) <= 1e-12

    def test_affine_linear_precision(self, rng):
        s = random_simplex(rng, 2)
        affine = Function("affine", lambda p: 2.0 * p[:, 0] - p[:, 1] + 0.5)
        net = sample_control_net(s, 6, affine)
        grid = interior_weights(rng, 2, 50) @ s.vertices
        assert operator_sup_error(net, affine, grid) <= 1e-10

    def test_exponential_within_first_order_bound(self, unit_interval, rng):
        a = np.array([1.0])
        f = exp_function(a)
        grid = np.linspace(0.0, 1.0, 60)[:, None]
        sup_f = math.e
        for order in (40, 80):
            net = sample_control_net(unit_interval, order, f)
            err = operator_sup_error(net, f, grid)
            bound = error_budget(unit_interval, a, order) * sup_f
            assert err <= 1.25 * bound

    def test_nan_point_refused(self, triangle):
        net = sample_control_net(triangle, 2, ONE)
        with pytest.raises(DomainError, match="finite"):
            operator_sup_error(net, ONE, np.array([[np.nan, 0.2]]))

    def test_empty_grid(self, triangle):
        net = sample_control_net(triangle, 2, ONE)
        with pytest.raises(EmptyGridError):
            operator_sup_error(net, ONE, np.empty((0, 2)))
