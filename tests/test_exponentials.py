import json
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bezsimplex import (
    ConfigError,
    ControlNet,
    DimensionMismatchError,
    DomainError,
    EmptyGridError,
    ExpOverflowError,
    ExpPolynomial,
    InvalidBarycentricError,
    NegativeWeightError,
    Simplex,
    SizeOverflowError,
    apply_direct,
    closed_form_at_weights,
    control_points,
    error_budget,
    evaluate_at_weights,
    grid_weight_blocks,
    grid_weights,
    make_function,
    relative_error_at_weights,
    relative_error_report,
    residual_at_weights,
    residual_constants,
    standard_simplex,
)

from bezsimplex import exponentials, lattice

from conftest import interior_weights, random_simplex


def at_point(kernel, s, order, direction, x):
    """A weight kernel's value at one cartesian point, from its barycentric row."""
    return float(kernel(s, order, direction, s.barycentric(x)[None, :])[0])


def exp_value(poly, x):
    """An exponential polynomial's value at one point."""
    return float(poly.evaluate_many(np.asarray(x, dtype=float)[None, :])[0])


def exp_polynomial_image(s, order, poly, x):
    """The Bernstein image of sum_i c_i exp(a_i.x) at x: the sum of c_i times
    each term's closed form."""
    return sum(c * at_point(closed_form_at_weights, s, order, a, x)
               for c, a in zip(poly.coefficients, poly.directions))


class TestExpPolynomial:
    def test_constant_term(self):
        poly = ExpPolynomial([(1.0, [0.0, 0.0])])
        assert exp_value(poly, [0.3, -2.0]) == 1.0

    def test_cancellation(self):
        poly = ExpPolynomial([(1.0, [1.0, 2.0]), (-1.0, [1.0, 2.0])])
        for x in ([0.0, 0.0], [0.5, 0.3], [-1.0, 2.0]):
            assert exp_value(poly, x) == pytest.approx(0.0, abs=1e-12)

    def test_single_direction(self):
        poly = ExpPolynomial([(1.0, [1.0, 0.0])])
        assert exp_value(poly, [0.5, 0.3]) == pytest.approx(math.exp(0.5), rel=1e-15)

    def test_batch_matches_scalar(self, rng):
        poly = ExpPolynomial([(c, a) for c, a in
                              zip(rng.normal(size=3), rng.normal(size=(3, 2)))])
        pts = rng.uniform(-1, 1, size=(20, 2))
        batch = poly.evaluate_many(pts)
        for i, p in enumerate(pts):
            assert batch[i] == pytest.approx(exp_value(poly, p), rel=1e-14)

    def test_needs_a_term(self):
        with pytest.raises(DimensionMismatchError):
            ExpPolynomial([])

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(DimensionMismatchError):
            ExpPolynomial([(1.0, [1.0]), (1.0, [1.0, 2.0])])

    @pytest.mark.parametrize("terms", [
        [(math.nan, [1.0, 1.0])],
        [(1.0, [1.0, math.inf])],
        [(1.0, [0.0, 0.0]), (math.inf, [1.0, 0.0])],
    ], ids=["nan-coefficient", "inf-direction", "second-term"])
    def test_non_finite_entries_are_typed(self, terms):
        with pytest.raises(DomainError, match="finite") as caught:
            ExpPolynomial(terms)
        assert isinstance(caught.value, ValueError)

    @pytest.mark.parametrize("terms", [
        [(10**400, [1.0])],
        [(1.0, [10**400])],
    ], ids=["huge-coefficient", "huge-direction"])
    def test_integers_past_a_double_are_typed(self, terms):
        with pytest.raises(SizeOverflowError, match="doubles") as caught:
            ExpPolynomial(terms)
        assert isinstance(caught.value, OverflowError)

    def test_overflow_guard(self):
        poly = ExpPolynomial([(1.0, [1000.0])])
        with pytest.raises(ExpOverflowError):
            exp_value(poly, [1.0])
        exp_value(poly, [0.5])

    def test_non_finite_exponents_are_refused(self):
        # -inf once passed the guard. The error names the first bad a.x and its row.
        poly = ExpPolynomial([(1.0, [1e10])])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ExpOverflowError, match="reaches -inf at point 1"):
                poly.evaluate_many(np.array([[-0.5], [-1e300]]))
            with pytest.raises(ExpOverflowError, match="reaches -inf at vertex 1"):
                closed_form_at_weights(Simplex([[0.0], [-1e300]]), 40, [1e10], np.eye(2))
            with pytest.raises(ExpOverflowError, match="reaches inf at vertex 1"):
                error_budget(Simplex([[0.0], [1e300]]), [1e10], 40)

    def test_json_round_trip(self):
        poly = ExpPolynomial([(2.0, [1.0, -0.5]), (-1.5, [0.0, 3.0])])
        spec = {"terms": [{"c": 2.0, "a": [1.0, -0.5]}, {"c": -1.5, "a": [0.0, 3.0]}]}
        restored = make_function(json.dumps(spec), standard_simplex(2)).exp_terms
        np.testing.assert_array_equal(restored.coefficients, poly.coefficients)
        np.testing.assert_array_equal(restored.directions, poly.directions)

    @pytest.mark.parametrize("data, message", [
        ({"terms": [{"c": 1.0}]}, "missing 'a'"),
        ({"terms": [{"a": [1.0]}]}, "missing 'c'"),
        ({"terms": 3}, "malformed"),
        ({"terms": [5]}, "malformed"),
        ({"terms": [{"c": "x", "a": [1.0]}]}, "malformed"),
        ({"terms": [{"c": 10**400, "a": [1.0]}]}, "malformed"),
    ])
    def test_malformed_terms_are_typed(self, data, message):
        for source in (data, json.dumps(data)):
            with pytest.raises(ConfigError, match=message):
                make_function(source, standard_simplex(1))


class TestClosedForm:
    def test_vertex_interpolation(self, rng):
        for dim in (1, 2, 3):
            s = random_simplex(rng, dim)
            a = rng.normal(size=dim)
            for n in (1, 3, 10):
                for j in range(dim + 1):
                    got = at_point(closed_form_at_weights, s, n, a, s.vertices[j])
                    expected = math.exp(float(a @ s.vertices[j]))
                    assert got == pytest.approx(expected, rel=1e-12)

    def test_zero_direction_gives_one(self, rng, triangle):
        for n in (1, 7, 40):
            for p in interior_weights(rng, 2, 10) @ triangle.vertices:
                got = at_point(closed_form_at_weights, triangle, n, [0.0, 0.0], p)
                assert got == pytest.approx(1.0, abs=1e-12)

    def test_interval_hand_value(self, unit_interval):
        got = at_point(closed_form_at_weights, unit_interval, 1, [1.0], [0.5])
        assert got == pytest.approx(0.5 * (1.0 + math.e), rel=1e-14)

    def test_matches_operator_on_sampled_nets(self, rng):
        # The closed form must agree with the explicit basis sum.
        for dim in (1, 2, 3):
            s = random_simplex(rng, dim)
            w = interior_weights(rng, dim, 25)
            pts = w @ s.vertices
            for n in (1, 4, 12):
                a = rng.normal(size=dim)
                a *= min(1.0, 2.0 / (np.linalg.norm(a) + 1e-12))
                net = ControlNet(s, n, np.exp(control_points(s, n) @ a))
                direct = evaluate_at_weights(net, w, evaluator="direct")
                closed = np.array([at_point(closed_form_at_weights, s, n, a, p) for p in pts])
                np.testing.assert_allclose(closed, direct, rtol=1e-10)

    def test_outside_point_rejected(self, triangle):
        with pytest.raises(NegativeWeightError):
            at_point(closed_form_at_weights, triangle, 3, [1.0, 1.0], [1.0, 1.0])

    def test_vertex_dot_overflow_guard(self, unit_interval):
        with pytest.raises(ExpOverflowError):
            at_point(closed_form_at_weights, unit_interval, 5, [800.0], [0.5])

    def test_direction_length_checked(self, triangle):
        with pytest.raises(DimensionMismatchError, match="direction"):
            closed_form_at_weights(triangle, 5, [1.0], np.array([[0.2, 0.3, 0.5]]))


WEIGHT_KERNELS = {
    "closed_form": lambda s, w: closed_form_at_weights(s, 4, [1.0, -0.5], w),
    "residual": lambda s, w: residual_at_weights(s, 4, [1.0, -0.5], w),
    "relative_error": lambda s, w: relative_error_at_weights(s, [1.0, -0.5], 4, w),
}


@pytest.mark.parametrize("kernel", WEIGHT_KERNELS.values(), ids=WEIGHT_KERNELS.keys())
@pytest.mark.parametrize("row", [[np.nan, 0.5, 0.5], [0.6, 0.6, 0.6]], ids=["nan", "sum"])
def test_weight_kernels_refuse_rule_breaking_rows(triangle, kernel, row):
    with pytest.raises(InvalidBarycentricError):
        kernel(triangle, np.array([[0.2, 0.3, 0.5], row]))


class TestResidual:
    def test_zero_direction(self, triangle, rng):
        for p in interior_weights(rng, 2, 10) @ triangle.vertices:
            assert abs(at_point(residual_at_weights, triangle, 10, [0.0, 0.0], p)) <= 1e-13

    def test_interval_hand_value(self, unit_interval):
        # At the right endpoint: exp(1/10) - 1 - 1/10.
        got = at_point(residual_at_weights, unit_interval, 10, [1.0], [1.0])
        expected = math.exp(0.1) - 1.1
        assert expected == pytest.approx(0.0051709180756477, abs=1e-14)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_scaled_magnitude_stays_bounded(self, rng):
        for dim in (1, 2):
            s = random_simplex(rng, dim)
            a = rng.normal(size=dim)
            w = grid_weights(12, dim)
            for n in (10, 100, 1000):
                coeff, _ = residual_constants(s, a, n)
                worst = float(np.abs(residual_at_weights(s, n, a, w)).max())
                assert n**2 * worst <= coeff + 0.01

    def test_batch_matches_scalar(self, unit_interval):
        # The batch takes the weights that the scalar path solves for.
        pts = grid_weights(10, 1) @ unit_interval.vertices
        w = np.array([unit_interval.barycentric(p) for p in pts])
        batch = residual_at_weights(unit_interval, 7, [1.5], w)
        for i, p in enumerate(pts):
            assert batch[i] == at_point(residual_at_weights, unit_interval, 7, [1.5], p)

    def test_per_order_coefficient_is_one_sided(self, unit_interval):
        # The order-dependent coefficient underestimates the residual when a
        # vertex dot is strongly negative at small order: the Lagrange factor
        # exp(xi) sits between exp(u) and 1, not below exp(u). Known sharp
        # case: exp(-0.2) - 1 + 0.2 scaled by n^2 exceeds the coefficient.
        coeff, _ = residual_constants(unit_interval, [-2.0], 10)
        worst = 100.0 * abs(at_point(residual_at_weights, unit_interval, 10, [-2.0], [1.0]))
        assert worst == pytest.approx(100 * (math.exp(-0.2) - 0.8), rel=1e-12)
        assert worst - coeff == pytest.approx(0.235614, abs=1e-5)

    def test_order_independent_cap_always_bounds(self, rng):
        # Unlike the per-order coefficient, the cap majorizes n^2 |r| for
        # every draw: per vertex, |exp(u)-1-u| <= u^2/2 * exp(max(0, u)).
        for _ in range(30):
            dim = int(rng.integers(1, 4))
            s = random_simplex(rng, dim)
            a = rng.normal(size=dim) * rng.uniform(0.2, 3.0)
            w = grid_weights(10, dim)
            for n in (1, 10, 100):
                _, cap = residual_constants(s, a, n)
                worst = float(np.abs(residual_at_weights(s, n, a, w)).max())
                assert n**2 * worst <= cap + 1e-9


class TestErrorBudget:
    def test_zero_direction(self, triangle):
        assert residual_constants(triangle, [0.0, 0.0], 10) == (0.0, 0.0)
        assert error_budget(triangle, [0.0, 0.0], 10) == 0.0

    def test_order_checked(self, triangle):
        with pytest.raises(DimensionMismatchError, match="order"):
            error_budget(triangle, [1.0, 1.0], 0)
        with pytest.raises(SizeOverflowError, match="order 1000.* overflows a double"):
            error_budget(triangle, [1.0, 1.0], 10**400)

    @pytest.mark.parametrize("a", [-1e300, 700.0])
    def test_overflowing_budget_is_typed(self, unit_interval, a):
        # A vertex dot of -1e300 squares to inf; one of 700 gives 700^2 e^700.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for constants in (error_budget, residual_constants):
                with pytest.raises(ExpOverflowError, match="error budget .* overflows a double"):
                    constants(unit_interval, [a], 40)

    def test_interval_closed_form(self, unit_interval):
        # Vertex dots are (0, 1): cap = e/2, and the prediction is (cap + 1/2) / n.
        coeff, cap = residual_constants(unit_interval, [1.0], 10)
        assert coeff == pytest.approx(0.5 * math.exp(0.1), rel=1e-14)
        assert cap == pytest.approx(math.e / 2, rel=1e-14)
        assert error_budget(unit_interval, [1.0], 10) == (cap + 0.5 * 1.0) / 10

    def test_cap_majorizes_coefficient(self, rng):
        for _ in range(20):
            dim = int(rng.integers(1, 4))
            s = random_simplex(rng, dim)
            a = rng.normal(size=dim) * rng.uniform(0.1, 3.0)
            for n in (1, 2, 10, 1000):
                coeff, cap = residual_constants(s, a, n)
                assert cap >= coeff
                assert error_budget(s, a, n) == (cap + 0.5 * float((s.vertices @ a).max())) / n

    def test_constant_grows_with_simplex_scale(self, triangle):
        # Vertex-wise comparison: same direction, growing simplex.
        budgets = [error_budget(triangle.scaled(f), [1.0, 1.0], 20)
                   for f in (0.5, 1.0, 2.0, 4.0)]
        assert all(b < c for b, c in zip(budgets, budgets[1:]))


class TestRelativeErrorReport:
    def test_zero_direction(self, triangle):
        grid = grid_weights(10, 2) @ triangle.vertices
        assert relative_error_report(triangle, [0.0, 0.0], 25, grid) <= 1e-12

    def test_error_halves_when_order_doubles(self, unit_interval):
        grid = grid_weights(50, 1) @ unit_interval.vertices
        errors = {n: relative_error_report(unit_interval, [1.0], n, grid) for n in (20, 40, 80)}
        assert 0.4 <= errors[40] / errors[20] <= 0.6
        assert 0.4 <= errors[80] / errors[40] <= 0.6
        # A flat grid on an interval is P points, not one point.
        assert relative_error_report(unit_interval, [1.0], 20, grid.ravel()) == errors[20]

    def test_observed_below_prediction_at_high_order(self, triangle):
        grid = grid_weights(50, 2) @ triangle.vertices
        for n in (40, 80, 160):
            assert relative_error_report(triangle, [1.0, 1.0], n, grid) \
                <= error_budget(triangle, [1.0, 1.0], n)

    def test_non_finite_point_is_a_domain_error(self, triangle):
        # The point rule's one owner is barycentric_many; it names the first bad row.
        with pytest.raises(DomainError, match=r"finite: row 1 is \[nan, 0.2\]"):
            relative_error_report(triangle, [1.0, 1.0], 10, [[0.2, 0.2], [np.nan, 0.2]])

    def test_empty_grid(self, triangle):
        with pytest.raises(EmptyGridError):
            relative_error_report(triangle, [1.0, 1.0], 10, np.empty((0, 2)))
        with pytest.raises(EmptyGridError):
            relative_error_at_weights(triangle, [1.0, 1.0], 10, np.empty((0, 3)))

    def test_translation_invariance(self, triangle):
        # a = (-1, -1) on the triangle moved by t(1, 1): from t = 1e4 on,
        # every exp(a.x_j / n) underflows and the weighted mean needs a shift.
        w = grid_weights(20, 2)
        errors = {t: relative_error_at_weights(Simplex(triangle.vertices + t), [-1.0, -1.0], 10, w)
                  for t in (0.0, 1e2, 1e3, 1e4)}
        for t, error in errors.items():
            assert error == pytest.approx(errors[0.0], rel=1e-8), t
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            closed = closed_form_at_weights(Simplex(triangle.vertices + 1e4), 10, [-1.0, -1.0], w)
        assert np.all(closed == 0.0)

    def test_overflowing_relative_error_is_typed(self, triangle):
        # At the weight (0.05, 0.95, 0) of the 1e3-scaled triangle with
        # a = (-1e3, -1e3) the closed form over exp(a.x) is about e^950000.
        with pytest.raises(ExpOverflowError, match="largest double"):
            relative_error_at_weights(triangle.scaled(1e3), [-1e3, -1e3], 10, grid_weights(20, 2))

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(dimension=st.integers(1, 4), order=st.integers(1, 640),
           interior=st.integers(0, 30), seed=st.integers(0, 2**32 - 1))
    def test_kernel_matches_closed_form_over_exp(self, dimension, order, interior, seed):
        # Independent reference: the closed form divided by exp(a.x) at the
        # cartesian points of the weights.
        rng = np.random.default_rng(seed)
        s = random_simplex(rng, dimension)
        a = rng.normal(size=dimension) * rng.uniform(0.1, 3.0)
        w = np.vstack([np.eye(dimension + 1), interior_weights(rng, dimension, interior)])
        observed = relative_error_at_weights(s, a, order, w)
        closed = closed_form_at_weights(s, order, a, w)
        expected = float(np.abs(closed / np.exp((w @ s.vertices) @ a) - 1.0).max())
        assert abs(observed - expected) <= 1e-12 * expected + order * 1e-14

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(dimension=st.integers(1, 5), order=st.integers(1, 640),
           scale=st.floats(0.05, 20.0), seed=st.integers(0, 2**32 - 1))
    def test_max_rel_error_is_the_full_reduction(self, dimension, order, scale, seed):
        # Only the extremes of the log ratio are reduced; since expm1 is
        # monotone that gives the bits of |expm1| over every weight row.
        rng = np.random.default_rng(seed)
        s = random_simplex(rng, dimension, scale=scale)
        a = rng.normal(size=dimension) * rng.uniform(0.1, 3.0)
        w = np.vstack([grid_weights(3, dimension), interior_weights(rng, dimension, 40)])
        dots = exponentials.vertex_dots(s, a, order)
        log_ratio = exponentials.log_ratios(*exponentials.case_table([(dots, order)]), w)[0]
        observed = relative_error_at_weights(s, a, order, w)
        assert observed == float(np.abs(np.expm1(log_ratio)).max())
        # The plain formula takes two matrix-vector products, whose sums
        # round otherwise than the kernel's one matrix product.
        plain = np.abs(np.expm1(order * np.log(w @ np.exp(dots / order)) - w @ dots)).max()
        assert abs(observed - plain) <= 1e-12 * plain + order * 1e-14


    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(dimension=st.integers(1, 5), count=st.integers(1, 12), resolution=st.integers(1, 400),
           underflow=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_reports_do_not_depend_on_the_batch(self, dimension, count, resolution, underflow,
                                                 seed):
        # Each case's error has the same bits alone over the whole grid, in a
        # batch over the streamed blocks, in any case order, and over blocks of
        # a few rows. An underflowing case (the shifted triangle of
        # test_translation_invariance, in D dimensions) is rescued alone.
        rng = np.random.default_rng(seed)
        resolution = min(resolution, {1: 400, 2: 60, 3: 20, 4: 12, 5: 9}[dimension])
        s = random_simplex(rng, dimension)
        cases = [(exponentials.vertex_dots(s, rng.normal(size=dimension) * rng.uniform(0.1, 3.0),
                                            n), n)
                 for n in rng.integers(1, 641, size=count).tolist()]
        if underflow:
            shifted = Simplex(s.vertices + 1e4)
            cases.insert(int(rng.integers(count + 1)),
                         (exponentials.vertex_dots(shifted, -np.ones(dimension), 10), 10))
        grid = grid_weights(resolution, dimension)
        alone = [exponentials.sup_relative_errors([case], [grid])[0] for case in cases]
        blocks = lambda: grid_weight_blocks(resolution, dimension)
        assert exponentials.sup_relative_errors(cases, blocks()) == alone
        order = rng.permutation(len(cases))
        shuffled = exponentials.sup_relative_errors([cases[i] for i in order], blocks())
        assert shuffled == [alone[i] for i in order]
        with mock.patch.object(lattice, "_ENTRY_BUDGET", 100):
            assert exponentials.sup_relative_errors(cases, blocks()) == alone


    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(dimension=st.integers(1, 4), order=st.integers(1, 400), count=st.integers(0, 40),
           seed=st.integers(0, 2**32 - 1))
    def test_adapters_do_not_depend_on_the_batch(self, dimension, order, count, seed):
        # A weight row's closed form and residual have the same bits alone and
        # inside a batch.
        rng = np.random.default_rng(seed)
        s = random_simplex(rng, dimension)
        a = rng.normal(size=dimension) * rng.uniform(0.1, 3.0)
        w = np.vstack([interior_weights(rng, dimension, count), grid_weights(2, dimension)])
        closed = closed_form_at_weights(s, order, a, w)
        residual = residual_at_weights(s, order, a, w)
        for i in range(len(w)):
            assert closed_form_at_weights(s, order, a, w[i:i + 1])[0] == closed[i]
            assert residual_at_weights(s, order, a, w[i:i + 1])[0] == residual[i]


class TestExpPolynomialImage:
    def test_constant_polynomial(self, triangle, rng):
        poly = ExpPolynomial([(3.0, [0.0, 0.0])])
        for p in interior_weights(rng, 2, 5) @ triangle.vertices:
            got = exp_polynomial_image(triangle, 6, poly, p)
            assert got == pytest.approx(3.0, abs=1e-12)

    def test_linearity_cancellation(self, triangle):
        poly = ExpPolynomial([(1.0, [1.0, 0.5]), (-1.0, [1.0, 0.5])])
        got = exp_polynomial_image(triangle, 4, poly, [0.2, 0.3])
        assert got == pytest.approx(0.0, abs=1e-12)

    def test_matches_direct_sum_on_random_polynomial(self, rng, triangle):
        terms = [(float(c), a) for c, a in
                 zip(rng.normal(size=3), rng.normal(size=(3, 2)))]
        poly = ExpPolynomial(terms)
        net = ControlNet(
            triangle, 6,
            poly.evaluate_many(control_points(triangle, 6)),
        )
        for p in interior_weights(rng, 2, 20) @ triangle.vertices:
            via_closed_form = exp_polynomial_image(triangle, 6, poly, p)
            via_operator = apply_direct(net, p)
            assert via_closed_form == pytest.approx(via_operator, rel=1e-10, abs=1e-12)

    def test_linear_in_coefficients(self, triangle):
        a = [0.7, -0.3]
        one = ExpPolynomial([(1.0, a)])
        scaled = ExpPolynomial([(-2.5, a)])
        x = [0.25, 0.5]
        assert exp_polynomial_image(triangle, 5, scaled, x) == pytest.approx(
            -2.5 * exp_polynomial_image(triangle, 5, one, x), rel=1e-14
        )

    def test_dimension_checked(self, triangle):
        poly = ExpPolynomial([(1.0, [1.0])])
        with pytest.raises(DimensionMismatchError):
            exp_polynomial_image(triangle, 3, poly, [0.2, 0.2])
