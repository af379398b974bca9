import json

import numpy as np
import pytest

from bezsimplex import (
    COORDINATE_TOL,
    ConfigError,
    DegenerateSimplexError,
    DimensionMismatchError,
    DomainError,
    InvalidBarycentricError,
    NegativeWeightError,
    Simplex,
    SizeOverflowError,
    load_simplex,
    standard_simplex,
)
from bezsimplex.geometry import clip_weights

from conftest import interior_weights, random_simplex


class TestConstruction:
    def test_unit_interval(self):
        s = Simplex([[0.0], [1.0]])
        assert s.dimension == 1
        assert s.diameter == 1.0

    def test_standard_triangle(self):
        s = Simplex([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert s.dimension == 2
        assert s.diameter == pytest.approx(np.sqrt(2.0), abs=1e-15)

    def test_collinear_points_rejected(self):
        with pytest.raises(DegenerateSimplexError):
            Simplex([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])

    def test_coincident_points_rejected(self):
        with pytest.raises(DegenerateSimplexError):
            Simplex([[1.0], [1.0]])

    def test_wrong_vertex_count(self):
        with pytest.raises(DimensionMismatchError):
            Simplex([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(DimensionMismatchError):
            Simplex([0.0, 1.0])

    def test_ragged_input(self):
        with pytest.raises((DimensionMismatchError, ValueError)):
            Simplex([[0.0, 0.0], [1.0], [0.0, 1.0]])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Simplex([[0.0], [np.inf]])

    @pytest.mark.parametrize("call, error", [
        (lambda: Simplex([[0.0], [np.inf]]), DomainError),
        (lambda: Simplex([[np.nan, 0.0], [1.0, 0.0], [0.0, 1.0]]), DomainError),
        (lambda: standard_simplex(2).barycentric([np.nan, 0.0]), DomainError),
        (lambda: Simplex([[10**400], [1.0]]), SizeOverflowError),
    ], ids=["inf-vertex", "nan-vertex", "nan-point", "huge-int-vertex"])
    def test_bad_numbers_raise_typed_errors(self, call, error):
        # Typed, and still the builtin type callers may catch.
        builtin = OverflowError if error is SizeOverflowError else ValueError
        with pytest.raises(error) as caught:
            call()
        assert isinstance(caught.value, builtin)

    def test_vertices_read_only(self, triangle):
        with pytest.raises(ValueError):
            triangle.vertices[0, 0] = 5.0

    def test_nearly_degenerate_scale_relative(self):
        # Thin sliver below the scale-relative threshold.
        eps = 1e-15
        with pytest.raises(DegenerateSimplexError):
            Simplex([[0.0, 0.0], [1.0, 0.0], [0.5, eps]])
        # The same shape inflated well past tolerance is fine.
        Simplex([[0.0, 0.0], [1.0, 0.0], [0.5, 1e-3]])

    @pytest.mark.parametrize("factor", [1.0, 2.0**400, 2.0**-400], ids=["1", "2^400", "2^-400"])
    def test_degeneracy_threshold_is_1e_12(self, factor):
        # The triangle (0, 0), (1, 0), (0.5, h) is tested at diameter 1/2, where |det| is
        # h / 4 against 1e-12 * (1/2)^2: h = 1e-11 passes and h = 1e-13 is degenerate,
        # at any power-of-two scale of the vertices.
        thin = lambda height: np.array([[0.0, 0.0], [1.0, 0.0], [0.5, height]]) * factor
        Simplex(thin(1e-11))
        with pytest.raises(DegenerateSimplexError):
            Simplex(thin(1e-13))

    def test_huge_vertices(self, rng):
        # Diameter and degeneracy test run on vertices scaled by a power of
        # two, so nothing overflows and the diameter scales exactly.
        s = random_simplex(rng, 3)
        for factor in (2.0**600, 2.0**-600):
            big = Simplex(s.vertices * factor)
            assert big.diameter == s.diameter * factor
        assert standard_simplex(2).scaled(1e200).diameter == pytest.approx(np.sqrt(2) * 1e200)
        with pytest.raises(DegenerateSimplexError):
            Simplex([[0.0, 0.0], [1e300, 0.0], [2e300, 0.0]])

    def test_centroid_of_huge_vertices(self, rng):
        # The mean is taken on the vertices scaled by a power of two: the same
        # bits as numpy's mean where that is finite, and finite where it is not.
        s = random_simplex(rng, 3)
        assert np.array_equal(s.centroid, s.vertices.mean(axis=0))
        assert Simplex([[1.7e308], [1.6e308]]).centroid[0] == pytest.approx(1.65e308, rel=1e-15)

    def test_diameter_overflow(self, triangle):
        with pytest.raises(SizeOverflowError, match="overflows"):
            Simplex([[-1e308, 0.0], [1e308, 0.0], [0.0, 1e308]])
        with pytest.raises(SizeOverflowError, match="overflows"):
            Simplex(2.0 * triangle.vertices).scaled(1e308)


class TestBarycentric:
    def test_quarter_point(self, triangle):
        w = triangle.barycentric([0.25, 0.25])
        np.testing.assert_allclose(w, [0.5, 0.25, 0.25], atol=1e-14)

    def test_vertices_map_to_unit_weights(self, rng):
        for dim in (1, 2, 3, 4):
            s = random_simplex(rng, dim)
            for j in range(dim + 1):
                w = s.barycentric(s.vertices[j])
                np.testing.assert_allclose(w, np.eye(dim + 1)[j], atol=1e-12)

    def test_centroid_weights(self, rng):
        for dim in (1, 2, 3):
            s = random_simplex(rng, dim)
            w = s.barycentric(s.centroid)
            np.testing.assert_allclose(w, np.full(dim + 1, 1.0 / (dim + 1)), atol=1e-12)

    def test_weights_sum_to_one_even_outside(self, rng, triangle):
        pts = rng.uniform(-10.0, 10.0, size=(200, 2))
        w = triangle.barycentric_many(pts)
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)

    def test_affine_in_the_point(self, rng):
        s = random_simplex(rng, 3)
        x = rng.uniform(-1, 1, size=3)
        y = rng.uniform(-1, 1, size=3)
        for lam in (0.0, 0.25, 0.5, 0.9, 1.0):
            mid = lam * x + (1 - lam) * y
            expected = lam * s.barycentric(x) + (1 - lam) * s.barycentric(y)
            np.testing.assert_allclose(s.barycentric(mid), expected, atol=1e-10)

    def test_batch_matches_single(self, rng):
        s = random_simplex(rng, 2)
        pts = rng.uniform(-1, 1, size=(50, 2))
        batch = s.barycentric_many(pts)
        for i, p in enumerate(pts):
            np.testing.assert_allclose(batch[i], s.barycentric(p), atol=1e-14)

    def test_point_dimension_checked(self, triangle):
        with pytest.raises(DimensionMismatchError):
            triangle.barycentric([0.1, 0.2, 0.3])
        with pytest.raises(DimensionMismatchError):
            triangle.barycentric_many([0.1, 0.2])
        with pytest.raises(ValueError, match="finite"):
            triangle.barycentric([np.nan, 0.2])
        with pytest.raises(DomainError, match=r"finite: row 1 is \[0.1, inf\]"):
            triangle.barycentric_many([[0.1, 0.2], [0.1, np.inf], [np.nan, 0.0]])


class TestPointFromBarycentric:
    def test_unit_weight_gives_vertex(self, rng):
        s = random_simplex(rng, 3)
        for j in range(4):
            e = np.eye(4)[j]
            np.testing.assert_allclose(e @ s.vertices, s.vertices[j], atol=1e-14)

    def test_interval_convex_combination(self, unit_interval):
        x = np.array([0.3, 0.7]) @ unit_interval.vertices
        assert x[0] == pytest.approx(0.7, abs=1e-15)

    def test_round_trip_both_ways(self, rng):
        # Oracle for the inverse map: an independent dense solve per point.
        for dim in (1, 2, 3, 4):
            s = random_simplex(rng, dim)
            system = np.vstack([np.ones(dim + 1), s.vertices.T])
            for t in interior_weights(rng, dim, 20):
                x = t @ s.vertices
                np.testing.assert_allclose(s.barycentric(x), t, atol=1e-10)
                independent = np.linalg.solve(system, np.concatenate([[1.0], x]))
                np.testing.assert_allclose(independent, t, atol=1e-10)
            pts = interior_weights(rng, dim, 20) @ s.vertices
            for p in pts:
                back = s.barycentric(p) @ s.vertices
                np.testing.assert_allclose(back, p, atol=1e-10 * max(1.0, s.diameter))

    def test_invalid_weights_rejected(self, triangle):
        with pytest.raises(InvalidBarycentricError):
            clip_weights([[0.8, 0.4, -0.2]], triangle.dimension)
        with pytest.raises(InvalidBarycentricError):
            clip_weights([[0.5, 0.5, 0.5]], triangle.dimension)
        with pytest.raises(DimensionMismatchError):
            clip_weights([[1.0, 0.0]], triangle.dimension)

    def test_tolerated_face_noise(self, triangle):
        # Values a hair below zero appear when grids are built in floats.
        t = np.array([[0.5, 0.5 + 1e-12, -1e-12]])
        x = clip_weights(t, triangle.dimension) @ triangle.vertices
        assert np.all(np.isfinite(x))


class TestContains:
    # x lies in the closed simplex when every barycentric weight is >= -tol.
    def test_centroid_and_vertices(self, triangle):
        assert np.all(triangle.barycentric(triangle.centroid) >= 0.0)
        for v in triangle.vertices:
            assert np.all(triangle.barycentric(v) >= -1e-12)

    def test_outside_point(self, triangle):
        # At (1, 1) the first weight is exactly -1.
        assert not np.all(triangle.barycentric([1.0, 1.0]) >= -COORDINATE_TOL)
        assert triangle.barycentric([1.0, 1.0])[0] == pytest.approx(-1.0, abs=1e-12)

    def test_random_convex_combinations_inside(self, rng):
        s = random_simplex(rng, 3)
        pts = interior_weights(rng, 3, 50) @ s.vertices
        for p in pts:
            assert np.all(s.barycentric(p) >= -COORDINATE_TOL)


class TestDiameter:
    def test_interval(self, unit_interval):
        assert unit_interval.diameter == 1.0

    def test_triangle_hypotenuse(self, triangle):
        assert triangle.diameter == pytest.approx(np.sqrt(2.0), abs=1e-15)

    def test_scaling_homogeneity(self, rng):
        s = random_simplex(rng, 3)
        doubled = Simplex(2.0 * s.vertices)
        assert doubled.diameter == pytest.approx(2.0 * s.diameter, rel=1e-14)


class TestSerialization:
    def test_round_trip(self, rng):
        s = random_simplex(rng, 3)
        restored = load_simplex(json.dumps({"vertices": s.vertices.tolist()}))
        np.testing.assert_array_equal(restored.vertices, s.vertices)

    def test_schema(self, triangle):
        # "vertices" is a simplex spec's one field, and it is required.
        assert load_simplex({"vertices": triangle.vertices.tolist()}).dimension == 2
        with pytest.raises(ConfigError, match="invalid simplex: missing 'vertices'"):
            load_simplex({})


class TestValidateBarycentric:
    # clip_weights is the one check of barycentric weights, a single vector included.
    def test_accepts_valid(self):
        t = clip_weights([[0.2, 0.3, 0.5]], 2)
        assert t.dtype == float

    def test_rejects_bad_sum(self):
        with pytest.raises(InvalidBarycentricError):
            clip_weights([[0.2, 0.3, 0.4]], 2)
        with pytest.raises(InvalidBarycentricError, match="finite"):
            clip_weights([[0.5, np.nan, 0.5]], 2)

    def test_rejects_negative_beyond_tol(self):
        with pytest.raises(InvalidBarycentricError):
            clip_weights([[1.1, -0.1, 0.0]], 2)

    def test_allows_tolerated_negative(self):
        slack = COORDINATE_TOL / 2
        clip_weights([[0.5, 0.5 + slack, -slack]], 2)

    # The README's contract, read by value rather than through the constants, so a
    # looser rule fails here.
    def test_weight_tolerance_is_1e_9(self):
        with pytest.raises(NegativeWeightError, match="-2.000e-09 below -1e-09"):
            clip_weights([[0.5, 0.5 + 2e-9, -2e-9]], 2)
        clipped = clip_weights([[0.5, 0.5 + 5e-10, -5e-10]], 2)
        assert clipped[0, 2] == 0.0 and clipped[0, 1] == 0.5 + 5e-10

    def test_sum_tolerance_is_1e_12(self):
        with pytest.raises(InvalidBarycentricError, match="sum to 1"):
            clip_weights([[0.5, 0.5 + 5e-12, 0.0]], 2)
        np.testing.assert_array_equal(clip_weights([[0.5, 0.5 + 5e-13, 0.0]], 2),
                                      [[0.5, 0.5 + 5e-13, 0.0]])

    def test_clip_weights_shape_checked(self):
        with pytest.raises(DimensionMismatchError):
            clip_weights([0.2, 0.3, 0.5], 2)
        with pytest.raises(DimensionMismatchError):
            clip_weights([[0.5, 0.5]], 2)


def test_standard_simplex_builder():
    s = standard_simplex(3)
    assert s.dimension == 3
    np.testing.assert_array_equal(s.vertices[0], np.zeros(3))
    with pytest.raises(DimensionMismatchError):
        standard_simplex(0)
