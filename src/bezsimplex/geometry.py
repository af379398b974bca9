"""Simplex geometry and barycentric coordinate maps.

Points are plain numpy arrays of length D. Barycentric coordinates are
arrays of length D+1: the unique weights t with x = sum_i t_i x_i and
sum_i t_i = 1. For points outside the simplex some weights are negative;
the solve still succeeds and callers use the signs for containment.
"""

from __future__ import annotations

import math

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


def validate_barycentric(weights, dimension: int) -> np.ndarray:
    """Check one weight vector against the barycentric invariants of clip_weights.

    Returns the weights as a float array of length dimension+1. Raises
    DimensionMismatchError on wrong length, InvalidBarycentricError as
    clip_weights does.
    """
    t = np.asarray(weights, dtype=float)
    if t.ndim != 1 or t.shape[0] != dimension + 1:
        raise DimensionMismatchError(
            f"expected {dimension + 1} barycentric weights, got shape {t.shape}"
        )
    clip_weights(t[None, :], dimension)
    return t


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


def grid_points(simplex: Simplex, grid) -> np.ndarray:
    """A non-empty grid as (P, D) points; a 1-d grid is P points of an
    interval, or one point of a higher-dimensional simplex."""
    points = np.asarray(grid, dtype=float)
    if points.ndim == 1:
        points = points[:, None] if simplex.dimension == 1 else points[None, :]
    if points.shape[0] == 0:
        raise EmptyGridError("sup requested over an empty grid")
    return points


class Simplex:
    """Closed, non-degenerate simplex spanned by D+1 vertices in R^D.

    The (D+1)x(D+1) affine system (ones row stacked on the vertex columns)
    that maps cartesian to barycentric coordinates is built once at
    construction and solved per query. Vertex order is fixed for the
    lifetime of the instance; instances are immutable and safe to share
    across threads.
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
        # two to at most 1 in magnitude: the scaling is exact, so ordinary
        # diameters are unchanged, and huge vertices overflow no square or det.
        e = int(np.frexp(np.abs(vtx).max())[1])
        unit = np.ldexp(vtx, -e)
        deltas = unit[:, None, :] - unit[None, :, :]
        unit_diameter = float(np.sqrt((deltas**2).sum(axis=2)).max())
        try:
            diameter = math.ldexp(unit_diameter, e)
        except OverflowError as exc:
            raise SizeOverflowError(
                f"simplex diameter {unit_diameter!r} * 2**{e} overflows a double"
            ) from exc

        # Column i of the system matrix is (1, x_i). Scale-relative
        # degeneracy threshold, on the scaled system: insensitive to units.
        system = np.vstack([np.ones(n_vertices), vtx.T])
        det = float(np.linalg.det(np.vstack([np.ones(n_vertices), unit.T])))
        if abs(det) <= 1e-12 * unit_diameter**dim:
            raise DegenerateSimplexError(
                f"vertices are affinely dependent (|det| = {abs(det):.3e} at scale 2**{-e})"
            )

        vtx.setflags(write=False)
        self._vertices = vtx
        self._dimension = dim
        self._diameter = diameter
        system.setflags(write=False)
        self._system = system

    @property
    def dimension(self) -> int:
        return self._dimension

    @property
    def vertices(self) -> np.ndarray:
        """Read-only (D+1, D) vertex array; row j is vertex x_j."""
        return self._vertices

    @property
    def diameter(self) -> float:
        """Largest pairwise vertex distance (the longest side)."""
        return self._diameter

    @property
    def centroid(self) -> np.ndarray:
        return self._vertices.mean(axis=0)

    def __repr__(self) -> str:
        return f"Simplex(dimension={self._dimension}, diameter={self._diameter:.6g})"

    def _check_point(self, x) -> np.ndarray:
        p = np.asarray(x, dtype=float)
        if p.ndim != 1 or p.shape[0] != self._dimension:
            raise DimensionMismatchError(
                f"expected point of length {self._dimension}, got shape {p.shape}"
            )
        if not np.all(np.isfinite(p)):
            raise DomainError("point coordinates must be finite")
        return p

    def barycentric(self, x) -> np.ndarray:
        """Barycentric coordinates of x; signed, so valid outside the simplex too."""
        return self.barycentric_many(self._check_point(x)[None, :])[0]

    def barycentric_many(self, points) -> np.ndarray:
        """Barycentric coordinates of a (P, D) batch of points, shape (P, D+1)."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self._dimension:
            raise DimensionMismatchError(
                f"expected points of shape (P, {self._dimension}), got {pts.shape}"
            )
        rhs = np.empty((self._dimension + 1, pts.shape[0]))
        rhs[0] = 1.0
        rhs[1:] = pts.T
        return np.linalg.solve(self._system, rhs).T

    def point_from_barycentric(self, weights) -> np.ndarray:
        """Map validated barycentric weights back to a cartesian point."""
        t = validate_barycentric(weights, self._dimension)
        return t @ self._vertices

    def contains(self, x, tol: float = COORDINATE_TOL) -> bool:
        """True iff every barycentric weight of x is >= -tol (closed simplex)."""
        if tol < 0:
            raise DomainError("tolerance must be non-negative")
        return bool(np.all(self.barycentric(x) >= -tol))

    def scaled(self, factor: float) -> "Simplex":
        """Simplex with all vertices scaled about the origin."""
        with np.errstate(over="ignore"):
            vertices = self._vertices * float(factor)
        if not np.all(np.isfinite(vertices)):
            raise SizeOverflowError(f"scaling by {factor!r} overflows the vertex coordinates")
        return Simplex(vertices)

    def to_dict(self) -> dict:
        return {"vertices": self._vertices.tolist()}

    @classmethod
    def from_dict(cls, data: dict) -> "Simplex":
        if not isinstance(data, dict) or "vertices" not in data:
            raise DimensionMismatchError('simplex JSON must be {"vertices": [[...], ...]}')
        return cls(data["vertices"])


def standard_simplex(dimension: int) -> Simplex:
    """Simplex with vertices at the origin and the unit coordinate points."""
    if dimension < 1:
        raise DimensionMismatchError("dimension must be >= 1")
    vertices = np.vstack([np.zeros(dimension), np.eye(dimension)])
    return Simplex(vertices)
