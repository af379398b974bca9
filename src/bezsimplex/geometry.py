"""Simplex geometry and barycentric coordinate maps.

Points are plain numpy arrays of length D. Barycentric coordinates are
arrays of length D+1: the unique weights t with x = sum_i t_i x_i and
sum_i t_i = 1. For points outside the simplex some weights are negative;
the solve still succeeds. clip_weights, which every kernel calls, refuses
a weight below -COORDINATE_TOL.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DegenerateSimplexError,
    DimensionMismatchError,
    DomainError,
    EmptyGridError,
    InvalidBarycentricError,
    NegativeWeightError,
    SizeOverflowError,
)

# Absolute slack on barycentric non-negativity. Admits face points produced
# by floating-point grid generation.
COORDINATE_TOL = 1e-9

# Tolerance on sum(t) == 1 for every row of weights a kernel is given.
WEIGHT_SUM_TOL = 1e-12


def clip_weights(weights, dimension: int) -> np.ndarray:
    """(P, D+1) float weights, round-off negatives set to 0 (uncopied if none).

    The one check of the barycentric invariants: every entry finite, every
    row summing to 1 within WEIGHT_SUM_TOL, and no weight below
    -COORDINATE_TOL. Raises InvalidBarycentricError (NegativeWeightError for
    a point outside the simplex) otherwise.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 2 or weights.shape[1] != dimension + 1:
        raise DimensionMismatchError(
            f"expected weights of shape (P, {dimension + 1}), got {weights.shape}"
        )
    # A row with a non-finite entry has a non-finite sum, so it fails too.
    deviation = np.abs(weights.sum(axis=1) - 1.0)
    if not deviation.max(initial=0.0) <= WEIGHT_SUM_TOL:
        row = int(np.argmin(deviation <= WEIGHT_SUM_TOL))
        raise InvalidBarycentricError(
            f"barycentric weights must be finite and sum to 1: row {row} is {weights[row].tolist()}"
        )
    lowest = weights.min(initial=0.0)
    if lowest < -COORDINATE_TOL:
        raise NegativeWeightError(
            f"barycentric weight {lowest:.3e} below -{COORDINATE_TOL:g}: point outside simplex"
        )
    return np.clip(weights, 0.0, None) if lowest < 0.0 else weights


def power_of_two_scaled(x, reduce, what: str) -> tuple:
    """reduce(x) for a reduce of degree one (a norm, a mean, a scaling), as
    reduce(u) * 2**e with u = x / 2**e and every |u| <= 1: exact while u is
    normal, and no square or sum of a huge x overflows. Returns reduce(x), u and reduce(u); raises
    SizeOverflowError only if reduce(x) overflows a double."""
    e = int(np.frexp(np.abs(x).max(initial=0.0))[1])
    unit = np.ldexp(x, -e)
    unit_value = reduce(unit)
    with np.errstate(over="ignore"):
        value = np.ldexp(unit_value, e)
    if not np.all(np.isfinite(value)):
        raise SizeOverflowError(f"{what} overflows a double at scale 2**{e}")
    return value, unit, unit_value


def grid_points(simplex: Simplex, grid) -> np.ndarray:
    """A non-empty grid as (P, D) points; a 1-d grid is P points of an
    interval, or one point of a higher-dimensional simplex."""
    points = np.asarray(grid, dtype=float)
    if points.ndim == 1:
        points = points[:, None] if simplex.dimension == 1 else points[None, :]
    if points.shape[0] == 0:
        raise EmptyGridError("sup requested over an empty grid")
    return points


class Frozen:
    """Base of the value types (Simplex, ExpPolynomial, ControlNet, TestFunction and
    ExperimentConfig), and their one immutability rule: __init__ checks its arguments
    and sets every attribute once, through _set; assigning or deleting an attribute
    afterwards raises AttributeError."""

    def _set(self, **values) -> None:
        vars(self).update(values)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")


class Simplex(Frozen):
    """Closed, non-degenerate simplex spanned by D+1 vertices in R^D: its
    `dimension` D, its read-only (D+1, D) `vertices` (row j is vertex x_j) and
    its `diameter`, the largest pairwise vertex distance (the longest side).

    The (D+1)x(D+1) affine system (ones row stacked on the vertex columns)
    that maps cartesian to barycentric coordinates is built once at
    construction and solved per query. Instances are safe to share across threads.
    """

    def __init__(self, vertices) -> None:
        try:
            vtx = np.array(vertices, dtype=float)
        except OverflowError as exc:
            raise SizeOverflowError(f"simplex vertices must be doubles: {exc}") from exc
        if vtx.ndim != 2:
            raise DimensionMismatchError(
                f"vertices must be a 2-d array of shape (D+1, D), got ndim={vtx.ndim}"
            )
        n_vertices, dim = vtx.shape
        if dim < 1 or n_vertices != dim + 1:
            raise DimensionMismatchError(
                f"expected D+1 vertices of length D, got {n_vertices} of length {dim}"
            )
        if not np.all(np.isfinite(vtx)):
            raise DomainError("simplex vertices must be finite")

        # Diameter and degeneracy test on the vertices scaled by a power of
        # two, so huge vertices overflow no square or det.
        side = lambda unit: float(np.sqrt(((unit[:, None] - unit[None]) ** 2).sum(axis=2)).max())
        diameter, unit, unit_diameter = power_of_two_scaled(vtx, side, "simplex diameter")

        # Column i of the system matrix is (1, x_i). Scale-relative
        # degeneracy threshold, on the scaled system: insensitive to units.
        system = np.vstack([np.ones(n_vertices), vtx.T])
        det = float(np.linalg.det(np.vstack([np.ones(n_vertices), unit.T])))
        if abs(det) <= 1e-12 * unit_diameter**dim:
            raise DegenerateSimplexError(
                f"vertices are affinely dependent (|det| = {abs(det):.3e} scaled to at most 1)"
            )

        vtx.setflags(write=False)
        system.setflags(write=False)
        self._set(vertices=vtx, dimension=dim, diameter=float(diameter), _system=system)

    @property
    def centroid(self) -> np.ndarray:
        return power_of_two_scaled(self.vertices, lambda unit: unit.mean(axis=0), "centroid")[0]

    def __repr__(self) -> str:
        return f"Simplex(dimension={self.dimension}, diameter={self.diameter:.6g})"

    def barycentric(self, x) -> np.ndarray:
        """Barycentric coordinates of x; signed, so valid outside the simplex too."""
        return self.barycentric_many(np.asarray(x, dtype=float)[None])[0]

    def barycentric_many(self, points) -> np.ndarray:
        """Barycentric coordinates of a (P, D) batch of points, shape (P, D+1).

        The one check of a point: D coordinates, each finite. Raises
        DimensionMismatchError, or DomainError naming the first non-finite row.
        """
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.dimension:
            raise DimensionMismatchError(
                f"expected points of shape (P, {self.dimension}), got {pts.shape}"
            )
        finite = np.isfinite(pts).all(axis=1)
        if not finite.all():
            row = int(np.argmin(finite))
            raise DomainError(f"point coordinates must be finite: row {row} is {pts[row].tolist()}")
        rhs = np.empty((self.dimension + 1, pts.shape[0]))
        rhs[0] = 1.0
        rhs[1:] = pts.T
        return np.linalg.solve(self._system, rhs).T

    def scaled(self, factor: float) -> "Simplex":
        """Simplex with all vertices scaled about the origin."""
        scale = lambda unit: unit * float(factor)
        return Simplex(power_of_two_scaled(self.vertices, scale, f"scaling by {factor!r}")[0])


def standard_simplex(dimension: int) -> Simplex:
    """Simplex with vertices at the origin and the unit coordinate points."""
    if dimension < 1:
        raise DimensionMismatchError("dimension must be >= 1")
    vertices = np.vstack([np.zeros(dimension), np.eye(dimension)])
    return Simplex(vertices)
