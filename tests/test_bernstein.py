import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bezsimplex import bernstein, lattice

from bezsimplex import (
    ConfigError,
    ControlNet,
    DimensionMismatchError,
    EmptyGridError,
    FunctionEvaluationError,
    InvalidBarycentricError,
    NegativeWeightError,
    Simplex,
    apply_de_casteljau,
    apply_direct,
    basis_value,
    basis_vector,
    closed_form_at_weights,
    control_points,
    count_multi_indices,
    enumerate_multi_indices,
    error_budget,
    evaluate_at_weights,
    grid_weights,
    operator_sup_error,
    read_control_net_csv,
    sample_control_net,
    write_control_net_csv,
)

from conftest import interior_weights, random_simplex

PROPERTY = settings(max_examples=30, deadline=None, derandomize=True, database=None)
SEEDS = st.integers(0, 2**32 - 1)


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
            for i in rng.integers(0, len(indices), size=5):
                assert basis_value(s, indices[i], p) == pytest.approx(values[i], abs=1e-14)

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
            with mock.patch.object(s, "barycentric", return_value=w):
                values = basis_vector(s, order, x)
                assert np.all(values[~supported] == 0.0)
                assert np.all(values[supported] > 0.0)
                assert abs(values.sum() - 1.0) <= 1e-12
                for i in rng.integers(0, len(indices), size=4):
                    np.testing.assert_allclose(basis_value(s, indices[i], x), values[i],
                                               rtol=1e-14, atol=0)

    def test_outside_point_rejected(self, triangle):
        with pytest.raises(NegativeWeightError):
            basis_vector(triangle, 3, [1.0, 1.0])

    @pytest.mark.parametrize("index", [[1.5, 0.5, 1.0], [True, True, False], [1.0, 1.0, 1.0]])
    def test_non_integer_index_rejected(self, triangle, index):
        with pytest.raises(DimensionMismatchError, match="integers"):
            basis_value(triangle, index, [0.2, 0.2])

    def test_bad_index_rejected(self, triangle):
        with pytest.raises(DimensionMismatchError):
            basis_value(triangle, [1, 1], [0.2, 0.2])
        with pytest.raises(DimensionMismatchError):
            basis_value(triangle, [0, 0, 0], [0.2, 0.2])
        with pytest.raises(DimensionMismatchError):
            basis_vector(triangle, 0, [0.2, 0.2])


class TestSampling:
    def test_constant_net(self, triangle):
        net = sample_control_net(triangle, 4, lambda p: 1.0)
        np.testing.assert_array_equal(net.coefficients, np.ones(15))

    def test_identity_on_interval(self, unit_interval):
        net = sample_control_net(unit_interval, 2, lambda p: p[0])
        np.testing.assert_allclose(net.coefficients, [0.0, 0.5, 1.0], atol=1e-15)

    def test_exponential_samples_factorize(self, rng):
        # Entries must equal prod_j exp(a.x_j)^(k_j/n): direct exponentiation.
        s = random_simplex(rng, 2)
        a = rng.normal(size=2)
        n = 5
        net = sample_control_net(s, n, lambda p: math.exp(float(a @ p)))
        dots = s.vertices @ a
        for (k, _), got in zip(control_points(s, n), net.coefficients):
            expected = math.prod(math.exp(d) ** (kj / n) for d, kj in zip(dots, k))
            assert got == pytest.approx(expected, rel=1e-12)

    def test_failure_reports_control_point(self, triangle):
        def broken(p):
            if p[0] > 0.9:
                raise RuntimeError("boom")
            return 0.0

        with pytest.raises(FunctionEvaluationError, match=r"\[1\.0, 0\.0\]"):
            sample_control_net(triangle, 2, broken)

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
            sample_control_net(triangle, 3, lambda p: float("nan"))


class TestApplyDirect:
    def test_constant_is_reproduced(self, rng):
        s = random_simplex(rng, 2)
        net = sample_control_net(s, 7, lambda p: 1.0)
        for p in interior_weights(rng, 2, 20) @ s.vertices:
            assert apply_direct(net, p) == pytest.approx(1.0, abs=1e-12)

    def test_affine_against_brute_force(self, rng):
        for dim in (1, 2):
            s = random_simplex(rng, dim)
            v = rng.normal(size=dim)
            b = float(rng.normal())
            affine = lambda p, v=v, b=b: float(p @ v) + b
            for order in (1, 2, 3, 4, 5):
                net = sample_control_net(s, order, affine)
                for p in interior_weights(rng, dim, 5) @ s.vertices:
                    got = apply_direct(net, p)
                    oracle = brute_force_operator(s.vertices, order, affine, p)
                    assert got == pytest.approx(oracle, abs=1e-12)
                    assert got == pytest.approx(affine(p), abs=1e-10)

    def test_interval_exponential_hand_value(self, unit_interval):
        # Two-term sum at n=1: 0.5 * exp(0) + 0.5 * exp(1).
        net = sample_control_net(unit_interval, 1, lambda p: math.exp(p[0]))
        expected = 0.5 * (1.0 + math.e)
        assert expected == pytest.approx(1.8591409142295225, abs=1e-12)
        assert apply_direct(net, [0.5]) == pytest.approx(expected, rel=1e-14)

    def test_outside_point_rejected(self, triangle):
        net = sample_control_net(triangle, 2, lambda p: 1.0)
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
            direct = apply_direct(net, s.point_from_barycentric(t))
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
    @given(dimension=st.integers(2, 4), order=st.integers(1, 12), chunk=st.integers(2, 9),
           full=st.integers(0, 3), data=st.data(), seed=SEEDS)
    def test_point_counts_off_the_chunk_size(self, dimension, order, chunk, full, data, seed):
        # A budget of `chunk` times the kernel's doubles per point gives
        # chunks of exactly `chunk` points plus a remainder.
        rng = np.random.default_rng(seed)
        net = random_net(rng, dimension, order)
        rest = data.draw(st.integers(1, chunk - 1))
        points = full * chunk + rest
        w = rng.permutation(face_weights(rng, dimension, points))[:points]
        one_by_one = np.array([evaluate_at_weights(net, row[None, :])[0] for row in w])
        budget = chunk * bernstein._stage_plan(order, dimension)[1]
        spy = mock.Mock(wraps=bernstein._collapsed_chunk)
        with mock.patch.object(lattice, "_ENTRY_BUDGET", budget), \
                mock.patch.object(bernstein, "_collapsed_chunk", spy):
            chunked = evaluate_at_weights(net, w, evaluator="decasteljau")
            direct = evaluate_at_weights(net, w, evaluator="direct")
        # A lone remainder point calls the kernel again as a pair.
        sizes = [len(call.args[3]) for call in spy.call_args_list]
        assert sizes[:full + 1] == [chunk] * full + [rest]
        np.testing.assert_array_equal(chunked, one_by_one)
        scale = float(np.abs(net.coefficients).max())
        np.testing.assert_allclose(direct, one_by_one, rtol=0, atol=1e-10 * scale)

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
        # A chunk holds at most _ENTRY_BUDGET doubles; beside it there are
        # only the plan and the lattice table, (D+1) integers per
        # coefficient, that the plan is built from.
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
        net = sample_control_net(triangle, 160, lambda p: math.exp(float(a @ p)))
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
        cps = control_points(triangle, order)
        net = ControlNet(triangle, order, np.exp(cps.points @ a))
        w = np.vstack([grid_weights(10, 2), interior_weights(rng, 2, 20)])
        exact = closed_form_at_weights(triangle, order, a, w)
        direct = evaluate_at_weights(net, w, evaluator="direct")
        assert np.abs(direct / exact - 1.0).max() <= 1e-12


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
        # One reused chunk of at most _ENTRY_BUDGET doubles; beside it the
        # lattice table, its float copy and the log-multinomial table's
        # temporaries, (D+1) numbers per coefficient each.
        net = random_net(rng, 3, 60)
        w = grid_weights(15, 3)
        tracemalloc.start()
        try:
            evaluate_at_weights(net, w, evaluator="direct")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * lattice._ENTRY_BUDGET + 3 * 8 * 4 * count_multi_indices(60, 3)

    @PROPERTY
    @given(dimension=st.integers(1, 4), order=st.integers(1, 30), seed=SEEDS)
    def test_matches_closed_form_over_random_directions(self, dimension, order, seed):
        rng = np.random.default_rng(seed)
        s = random_simplex(rng, dimension)
        a = rng.normal(size=dimension)
        a *= math.sqrt(dimension) / np.linalg.norm(a)
        net = ControlNet(s, order, np.exp(control_points(s, order).points @ a))
        w = face_weights(rng, dimension, 10)
        exact = closed_form_at_weights(s, order, a, w)
        direct = evaluate_at_weights(net, w, evaluator="direct")
        np.testing.assert_allclose(direct, exact, rtol=1e-12, atol=0)

    def test_rule_breaking_rows_refused(self):
        # f = 1 + x on the standard triangle at n = 3. A NaN weight is not read
        # as a zero weight, and a row summing to 1.8 is not evaluated as given:
        # both evaluators refuse each row instead of disagreeing on it.
        s = Simplex([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        net = sample_control_net(s, 3, lambda p: 1.0 + p[0])
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
        net = ControlNet(s, order, control_points(s, order).points @ v + b)
        w = face_weights(rng, dimension, 20)
        values = evaluate_at_weights(net, w, evaluator=evaluator)
        scale = float(np.abs(net.coefficients).max())
        np.testing.assert_allclose(values, (w @ s.vertices) @ v + b, rtol=0, atol=1e-10 * scale)

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


class TestNetSerialization:
    def test_round_trip(self, rng, triangle):
        import io

        net = ControlNet(triangle, 3, rng.normal(size=10))
        buf = io.StringIO()
        write_control_net_csv(net, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "k_0,k_1,k_2,coefficient"
        assert len(lines) == 11
        restored = read_control_net_csv(triangle, io.StringIO(buf.getvalue()))
        assert restored.order == 3
        np.testing.assert_array_equal(restored.coefficients, net.coefficients)

    def test_rejects_scrambled_rows(self, triangle):
        import io

        net = ControlNet(triangle, 2, np.arange(6.0))
        buf = io.StringIO()
        write_control_net_csv(net, buf)
        lines = buf.getvalue().splitlines()
        scrambled = "\n".join([lines[0]] + lines[2:] + [lines[1]]) + "\n"
        with pytest.raises(DimensionMismatchError):
            read_control_net_csv(triangle, io.StringIO(scrambled))

    @pytest.mark.parametrize("line,cell", [
        ("1.5,0,0,1.0", "invalid literal"),
        ("2,0,0", "expected 4 cells, got 3"),
        ("2,0,0,abc", "could not convert"),
        ("2,0,0,nan", "non-finite coefficient"),
        ("2,0,0,1.0,7", "expected 4 cells, got 5"),
    ])
    def test_rejects_malformed_row(self, triangle, line, cell):
        import io

        net = ControlNet(triangle, 2, np.arange(6.0))
        buf = io.StringIO()
        write_control_net_csv(net, buf)
        lines = buf.getvalue().splitlines()
        lines[3] = line
        with pytest.raises(DimensionMismatchError, match=f"line 4: {cell}"):
            read_control_net_csv(triangle, io.StringIO("\n".join(lines) + "\n"))

    def test_rejects_a_file_that_is_not_utf8(self, unit_interval, tmp_path):
        path = tmp_path / "net.csv"
        write_control_net_csv(ControlNet(unit_interval, 1, np.array([0.5, 2.0])), path)
        text = path.read_bytes().decode("ascii")
        assert read_control_net_csv(unit_interval, path).order == 1
        path.write_bytes(text.encode("utf-16"))
        with pytest.raises(DimensionMismatchError, match="net.csv: not UTF-8"):
            read_control_net_csv(unit_interval, path)

    def test_rejects_empty(self, triangle):
        import io

        with pytest.raises(DimensionMismatchError):
            read_control_net_csv(triangle, io.StringIO("k_0,k_1,k_2,coefficient\n"))


class TestSupError:
    def test_constant_function(self, triangle, rng):
        net = sample_control_net(triangle, 5, lambda p: 1.0)
        grid = interior_weights(rng, 2, 30) @ triangle.vertices
        assert operator_sup_error(net, lambda p: 1.0, grid) <= 1e-12

    def test_affine_linear_precision(self, rng):
        s = random_simplex(rng, 2)
        affine = lambda p: 2.0 * p[0] - p[1] + 0.5
        net = sample_control_net(s, 6, affine)
        grid = interior_weights(rng, 2, 50) @ s.vertices
        assert operator_sup_error(net, affine, grid) <= 1e-10

    def test_exponential_within_first_order_bound(self, unit_interval, rng):
        a = np.array([1.0])
        f = lambda p: math.exp(float(a @ p))
        grid = np.linspace(0.0, 1.0, 60)[:, None]
        sup_f = math.e
        for order in (40, 80):
            net = sample_control_net(unit_interval, order, f)
            err = operator_sup_error(net, f, grid)
            bound = error_budget(unit_interval, a, order).predicted_rel_error * sup_f
            assert err <= 1.25 * bound

    def test_nan_point_refused(self, triangle):
        net = sample_control_net(triangle, 2, lambda p: 1.0)
        with pytest.raises(InvalidBarycentricError, match="finite"):
            operator_sup_error(net, lambda p: 1.0, np.array([[np.nan, 0.2]]))

    def test_empty_grid(self, triangle):
        net = sample_control_net(triangle, 2, lambda p: 1.0)
        with pytest.raises(EmptyGridError):
            operator_sup_error(net, lambda p: 1.0, np.empty((0, 2)))
