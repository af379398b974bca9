"""Bernstein operator on a simplex: basis evaluation and control nets.

The operator maps a function sampled at the control points to the degree-n
polynomial sum_k f(R(k/n)) B_k^n(x), where B_k^n(x) is the multinomial
coefficient times prod_j s_j(x)^k_j over the barycentric weights s of x.

Two evaluators are provided. Direct summation computes each basis value in
log space and is the correctness reference: per chunk of points, one matrix
product of log weights and indices, one add and one in-place exp, where a
finite log-0 sentinel makes zero weights give exact zeros without a mask.
The production path, named
``decasteljau``, sums the net out one collapsed coordinate at a time
(Ainsworth-Andriamaro-Davydov 2011, Kirby 2011): each axis is a 1-D de
Casteljau, so only convex combinations appear and it stays stable at high
order, and a point costs O(n^D) instead of O(n^{D+1}).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .csvio import emit_csv, open_csv
from .errors import DimensionMismatchError, FunctionEvaluationError
from .geometry import Simplex, clip_weights, grid_points, validate_barycentric
from .lattice import (
    control_points,
    count_multi_indices,
    enumerate_multi_indices,
    multinomial_log_table,
)

DIRECT = "direct"
DE_CASTELJAU = "decasteljau"
DEFAULT_EVALUATOR = DE_CASTELJAU

# Largest lattice size x chunk points either evaluator holds at once; bounds
# the working set independently of the grid size.
_ENTRY_BUDGET = 1 << 19
_LOG_ZERO = -1000.0  # the direct evaluator's finite log 0; see _basis_matrix


@dataclass(frozen=True)
class ControlNet:
    """Coefficient vector of a degree-n Bernstein polynomial on a simplex.

    Entry i holds the coefficient for the i-th multi-index in enumeration
    order; for a sampled net that is f at the i-th control point.
    """

    simplex: Simplex
    order: int
    coefficients: np.ndarray

    def __post_init__(self):
        if self.order < 1:
            raise DimensionMismatchError("control net order must be >= 1")
        c = np.asarray(self.coefficients, dtype=float)
        expected = count_multi_indices(self.order, self.simplex.dimension)
        if c.ndim != 1 or c.shape[0] != expected:
            raise DimensionMismatchError(
                f"net of order {self.order} needs {expected} coefficients, got shape {c.shape}"
            )
        bad = np.flatnonzero(~np.isfinite(c))
        if bad.size:
            i = int(bad[0])
            k = enumerate_multi_indices(self.order, self.simplex.dimension)[i]
            raise FunctionEvaluationError(
                f"control net coefficient {i} (multi-index {tuple(k.tolist())}) is {float(c[i])!r};"
                " coefficients must be finite"
            )
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coefficients", c)


def sample_control_net(simplex: Simplex, order: int, f) -> ControlNet:
    """Sample f at every control point, in enumeration order."""
    cps = control_points(simplex, order)
    values = np.empty(len(cps))
    for i, (k, point) in enumerate(cps):
        try:
            values[i] = float(f(point))
        except Exception as exc:
            raise FunctionEvaluationError(
                f"function failed at control point {point.tolist()} (index {tuple(k)})"
            ) from exc
    return ControlNet(simplex=simplex, order=order, coefficients=values)


@dataclass(frozen=True)
class BernsteinOperator:
    """Degree-n sampling operator attached to a simplex.

    Thin convenience over sample_control_net + evaluation: norm-1, positive,
    exact on affine functions. Stores only the geometry and the order, never
    the function.
    """

    simplex: Simplex
    order: int

    def __post_init__(self):
        if self.order < 1:
            raise DimensionMismatchError("operator order must be >= 1")

    def sample(self, f) -> ControlNet:
        return sample_control_net(self.simplex, self.order, f)

    def apply(self, f, x, evaluator: str = DEFAULT_EVALUATOR) -> float:
        """Value of the operator image of f at x (resamples f each call)."""
        net = self.sample(f)
        weights = self.simplex.barycentric(x)
        return float(evaluate_at_weights(net, weights[None, :], evaluator=evaluator)[0])


def write_control_net_csv(net: ControlNet, destination) -> None:
    """Columns k_0..k_D then coefficient, one row per lattice entry."""
    d1 = net.simplex.dimension + 1
    header = [f"k_{j}" for j in range(d1)] + ["coefficient"]
    indices = enumerate_multi_indices(net.order, net.simplex.dimension)
    rows = [tuple(k) + (c,) for k, c in zip(indices, net.coefficients)]
    emit_csv(rows, destination, header)


def read_control_net_csv(simplex: Simplex, source) -> ControlNet:
    """Load a net written by write_control_net_csv; order is inferred.

    The multi-index columns must reproduce the enumeration order exactly;
    that is the portability contract for coefficient vectors.
    """
    with open_csv(source, "r") as handle:
        rows = list(csv.reader(handle))
    d1 = simplex.dimension + 1
    if len(rows) < 2:
        raise DimensionMismatchError("control net CSV has no data rows")
    indices = np.empty((len(rows) - 1, d1), dtype=np.int64)
    coefficients = np.empty(len(rows) - 1)
    for i, row in enumerate(rows[1:]):
        where = f"control net CSV line {i + 2}"
        if len(row) != d1 + 1:
            raise DimensionMismatchError(f"{where}: expected {d1 + 1} cells, got {len(row)}")
        try:
            indices[i] = [int(v) for v in row[:d1]]
            coefficients[i] = float(row[d1])
        except (ValueError, OverflowError) as exc:
            raise DimensionMismatchError(f"{where}: {exc}") from exc
        if not np.isfinite(coefficients[i]):
            raise DimensionMismatchError(f"{where}: non-finite coefficient {row[d1]!r}")
    order = int(indices[0].sum())
    if order < 1 or not np.array_equal(indices, enumerate_multi_indices(order, simplex.dimension)):
        raise DimensionMismatchError(
            "control net CSV rows are not the lattice enumeration of a single order"
        )
    return ControlNet(simplex=simplex, order=order, coefficients=coefficients)


def _basis_matrix(indices_t: np.ndarray, log_multinomials: np.ndarray,
                  weights: np.ndarray) -> np.ndarray:
    # B[p, i] = B_{k_i} at weight row p, in log space. log 0 reads as _LOG_ZERO:
    # k_j = 0 adds exactly 0, and k_j >= 1 at a zero weight bounds the value by
    # (n e^_LOG_ZERO)^k_j, which exp rounds to exactly 0 for any n < e^255.
    w = clip_weights(weights)
    logw = np.full(w.shape, _LOG_ZERO)
    np.log(w, out=logw, where=w != 0.0)
    log_basis = logw @ indices_t
    log_basis += log_multinomials
    return np.exp(log_basis, out=log_basis)


def basis_vector(simplex: Simplex, order: int, x) -> np.ndarray:
    """All basis values B_k^order(x) in enumeration order."""
    if order < 1:
        raise DimensionMismatchError("basis order must be >= 1")
    indices = enumerate_multi_indices(order, simplex.dimension)
    w = simplex.barycentric(x)
    return _basis_matrix(indices.T.astype(float), multinomial_log_table(indices), w[None, :])[0]


def basis_value(simplex: Simplex, index, x) -> float:
    """Single basis value B_k^n(x) for the multi-index k, n = |k|."""
    k = np.asarray(index, dtype=np.int64)
    if k.ndim != 1 or k.shape[0] != simplex.dimension + 1 or np.any(k < 0):
        raise DimensionMismatchError(
            f"multi-index must have {simplex.dimension + 1} non-negative entries"
        )
    order = int(k.sum())
    if order < 1:
        raise DimensionMismatchError("basis order |k| must be >= 1")
    w = simplex.barycentric(x)
    return float(_basis_matrix(k[:, None].astype(float), multinomial_log_table(k[None, :]),
                               w[None, :])[0, 0])


def _stage_plan(order: int, dimension: int) -> list:
    # Stage j sums out k_j. In colex order every run of rows sharing
    # (k_{j+1}..k_D) is one contiguous block k_j = 0..m_j, starting where
    # k_j = 0; its sum is one row of the next stage. Each stage keeps the
    # flat Pascal-triangle position of (m_j, k_j) per row and the block starts.
    tails = enumerate_multi_indices(order, dimension)[:, 1:]
    plan = []
    for _ in range(dimension):
        k = tails[:, 0]
        m = order - tails[:, 1:].sum(axis=1)
        starts = np.flatnonzero(k == 0)
        plan.append((m * (m + 1) // 2 + k, starts))
        tails = tails[starts, 1:]
    return plan


def _pascal_triangle(u: np.ndarray, order: int) -> np.ndarray:
    # Rows m = 0..order of b^m_k(u) = C(m, k) u^k (1-u)^(m-k), one column per
    # point, row m starting at m(m+1)/2. Built by convex combinations only:
    # b^m_k = (1-u) b^(m-1)_k + u b^(m-1)_(k-1).
    v = 1.0 - u
    tri = np.empty(((order + 1) * (order + 2) // 2, u.shape[0]))
    tri[0] = 1.0
    for m in range(1, order + 1):
        prev = tri[(m - 1) * m // 2:m * (m + 1) // 2]
        row = tri[m * (m + 1) // 2:(m + 1) * (m + 2) // 2]
        np.multiply(prev, v, out=row[:m])
        row[m] = 0.0
        row[1:] += prev * u
    return tri


def _collapsed_chunk(coefficients: np.ndarray, order: int, plan: list,
                     weights: np.ndarray) -> np.ndarray:
    # Collapsed coordinates u_j = s_j / (s_0 + .. + s_j) turn the basis into
    # prod_j b^(m_j)_(k_j)(u_j). Where the denominator is 0 every factor in
    # u_j has degree 0, so u_j = 0 keeps faces, edges and vertices exact.
    partial = np.cumsum(weights, axis=1).T
    u = np.divide(weights.T, partial, out=np.zeros(partial.shape), where=partial > 0.0)
    values = coefficients[:, None]
    for j, (flat, starts) in enumerate(plan, start=1):
        terms = _pascal_triangle(u[j], order)[flat]
        terms *= values
        values = np.add.reduceat(terms, starts, axis=0)
    return values[0]


def evaluate_at_weights(net: ControlNet, weights, evaluator: str = DEFAULT_EVALUATOR) -> np.ndarray:
    """Evaluate the net at a (P, D+1) batch of barycentric weights."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 2 or w.shape[1] != net.simplex.dimension + 1:
        raise DimensionMismatchError(
            f"expected weights of shape (P, {net.simplex.dimension + 1}), got {w.shape}"
        )
    order, count = net.order, len(net.coefficients)
    if evaluator == DIRECT:
        indices = enumerate_multi_indices(order, net.simplex.dimension)
        logm = multinomial_log_table(indices)
        indices_t = indices.T.astype(float)
        entries = count
        kernel = lambda part: _basis_matrix(indices_t, logm, part) @ net.coefficients
    elif evaluator == DE_CASTELJAU:
        w = clip_weights(w)
        plan = _stage_plan(order, net.simplex.dimension)
        # For D = 1 the Pascal triangle outgrows the lattice.
        entries = max(count, (order + 1) * (order + 2) // 2)
        kernel = lambda part: _collapsed_chunk(net.coefficients, order, plan, part)
    else:
        raise ValueError(f"unknown evaluator {evaluator!r}; use {DIRECT!r} or {DE_CASTELJAU!r}")
    out = np.empty(w.shape[0])
    step = max(1, _ENTRY_BUDGET // entries)
    for start in range(0, w.shape[0], step):
        out[start:start + step] = kernel(w[start:start + step])
    return out


def apply_direct(net: ControlNet, x) -> float:
    """Reference evaluation at a point: explicit sum of coefficient * basis."""
    w = net.simplex.barycentric(x)
    return float(evaluate_at_weights(net, w[None, :], evaluator=DIRECT)[0])


def apply_de_casteljau(net: ControlNet, weights) -> float:
    """Stable evaluation at validated barycentric weights."""
    t = validate_barycentric(weights, net.simplex.dimension)
    return float(evaluate_at_weights(net, t[None, :], evaluator=DE_CASTELJAU)[0])


def operator_sup_error(net: ControlNet, f, grid, evaluator: str = DEFAULT_EVALUATOR) -> float:
    """Max over the grid of |net(x) - f(x)|; the discretized sup-norm error."""
    points = grid_points(net.simplex, grid)
    weights = net.simplex.barycentric_many(points)
    values = evaluate_at_weights(net, weights, evaluator=evaluator)
    exact = np.array([float(f(p)) for p in points])
    return float(np.abs(values - exact).max())
