"""Bernstein operator on a simplex: basis evaluation and control nets.

The operator maps a function sampled at the control points to the degree-n
polynomial sum_k f(R(k/n)) B_k^n(x), where B_k^n(x) is the multinomial
coefficient times prod_j s_j(x)^k_j over the barycentric weights s of x.

Two evaluators are provided. Direct summation computes each basis value in
log space and is the correctness reference. It groups points by the face
their nonzero weights span, where B_k vanishes if k_j > 0 at a zero weight,
and sums each group over that face's lattice rows only (Farin 1986,
Lai-Schumaker 2007): per chunk, one matrix product of log weights and
indices, one add and one in-place exp, every log finite. The production
path, named ``decasteljau``, sums the net out one collapsed coordinate at a
time (Ainsworth-Andriamaro-Davydov 2011, Kirby 2011), O(n^D) a point instead
of O(n^{D+1}): each stage streams Pascal rows of convex combinations (stable
at high order) across the whole chunk and contracts every block with its row
off BLAS, so results do not depend on the chunking or the thread count.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .csvio import emit_lattice_csv, open_csv
from .errors import ConfigError, DimensionMismatchError, FunctionEvaluationError
from .geometry import Simplex, clip_weights, grid_points, validate_barycentric
from .lattice import (
    _check_index,
    check_order,
    control_points,
    count_multi_indices,
    enumerate_multi_indices,
    multinomial_log_table,
    row_chunks,
)

DIRECT = "direct"
DE_CASTELJAU = "decasteljau"
EVALUATORS = (DIRECT, DE_CASTELJAU)
DEFAULT_EVALUATOR = DE_CASTELJAU


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
        check_order(self.order)
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


def write_control_net_csv(net: ControlNet, destination) -> None:
    """Columns k_0..k_D then coefficient, one row per lattice entry."""
    indices = enumerate_multi_indices(net.order, net.simplex.dimension)
    emit_lattice_csv(indices, net.coefficients, destination, ["coefficient"])


def read_control_net_csv(simplex: Simplex, source) -> ControlNet:
    """Load a net written by write_control_net_csv; order is inferred.

    The multi-index columns must reproduce the enumeration order exactly;
    that is the portability contract for coefficient vectors.
    """
    try:
        with open_csv(source, "r") as handle:
            rows = list(csv.reader(handle))
    except UnicodeDecodeError as exc:
        raise DimensionMismatchError(f"control net CSV {source}: not UTF-8 (byte {exc.start})") from exc
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
    if not np.array_equal(indices, enumerate_multi_indices(order, simplex.dimension)):
        raise DimensionMismatchError(
            "control net CSV rows are not the lattice enumeration of a single order"
        )
    return ControlNet(simplex=simplex, order=order, coefficients=coefficients)


def _direct_blocks(indices: np.ndarray, w: np.ndarray):
    # Yields (points, rows, B), B[p, i] = B_{k_rows[i]} at weight row points[p];
    # the rows left out are structural zeros there. Points are grouped by their
    # nonzero weights; a zero weight's log reads 0, which every kept row
    # multiplies by k_j = 0. Chunks share one buffer that holds the largest, so
    # a caller holding a block never keeps two alive.
    logm = multinomial_log_table(indices)
    patterns, group = np.unique(w != 0.0, axis=0, return_inverse=True)
    faces = []
    for key, live in enumerate(patterns):
        rows = slice(None)  # interior points: the whole lattice, uncopied
        if not live.all():
            rows = np.flatnonzero(~indices[:, ~live].any(axis=1))
        points, width = np.flatnonzero(group == key), len(logm[rows])
        faces.append((live, rows, points, width, row_chunks(len(points), width)))
    buffer = np.empty(max((points[chunks[0]].size * width
                           for _, _, points, width, chunks in faces), default=0))
    for live, rows, points, width, chunks in faces:
        indices_t, log_multinomials = indices[rows].T.astype(float), logm[rows]
        for chunk in chunks:
            part = points[chunk]
            basis = buffer[:len(part) * width].reshape(len(part), width)
            logw = np.log(w[part], out=np.zeros((len(part), len(live))), where=live)
            np.matmul(logw, indices_t, out=basis)
            basis += log_multinomials
            yield part, rows, np.exp(basis, out=basis)


def _basis_at(indices: np.ndarray, simplex: Simplex, x) -> np.ndarray:
    # Basis values at one point in the order of `indices`, zero off its face.
    w = clip_weights(simplex.barycentric(x)[None, :], simplex.dimension)
    values = np.zeros(len(indices))
    for _, rows, basis in _direct_blocks(indices, w):
        values[rows] = basis[0]
    return values


def basis_vector(simplex: Simplex, order: int, x) -> np.ndarray:
    """All basis values B_k^order(x) in enumeration order."""
    check_order(order)
    return _basis_at(enumerate_multi_indices(order, simplex.dimension), simplex, x)


def basis_value(simplex: Simplex, index, x) -> float:
    """Single basis value B_k^n(x) for the multi-index k, n = |k|."""
    k = _check_index(index)
    if k.shape[0] != simplex.dimension + 1:
        raise DimensionMismatchError(f"multi-index must have {simplex.dimension + 1} entries")
    check_order(k.sum())
    return float(_basis_at(k[None, :], simplex, x)[0])


def _stage_plan(order: int, dimension: int) -> tuple:
    # Stage j sums out k_j. In colex order every run of rows sharing
    # (k_{j+1}..k_D) is one block k_j = 0..m_j, m_j = k_0 + .. + k_j, whose sum
    # is a row of the next stage; rows are stored grouped by m_j. A stage is
    # its group bounds and, per m, its (blocks, m+1) input rows. Also returns
    # the doubles a chunk holds per point: two Pascal rows, a stage's output,
    # input and largest gather (stage 1 reads the net, without a point axis).
    tails = enumerate_multi_indices(order, dimension)[:, 1:]
    where = np.arange(len(tails))  # storage row of each colex row
    plan, entries = [], 0
    for stage in range(dimension):
        starts = np.flatnonzero(tails[:, 0] == 0)
        block_m = order - tails[starts, 1:].sum(axis=1)
        rank = np.argsort(block_m, kind="stable")
        bounds = np.searchsorted(block_m[rank], np.arange(order + 2))
        # One gather of every block's rows, blocks in rank order, sliced per m.
        size = block_m[rank] + 1
        edges = np.concatenate([[0], np.cumsum(size)])
        rows = where[np.repeat(starts[rank] - edges[:-1], size) + np.arange(len(tails))]
        groups = [rows[edges[bounds[m]]:edges[bounds[m + 1]]].reshape(-1, m + 1)
                  for m in range(order + 1)]
        plan.append((bounds, groups))
        gathered = len(tails) + max(g.size for g in groups) if stage else 0
        entries = max(entries, len(starts) + gathered)
        tails, where = tails[starts, 1:], np.argsort(rank)
    return plan, entries + 2 * (order + 1)


def _collapsed_chunk(coefficients: np.ndarray, order: int, plan: list,
                     weights: np.ndarray) -> np.ndarray:
    # numpy contracts a lone point with a dot kernel, wider chunks column by
    # column: a point is evaluated as a pair so its sums never depend on the chunk.
    if weights.shape[0] == 1:
        return _collapsed_chunk(coefficients, order, plan, np.repeat(weights, 2, axis=0))[:1]
    # Collapsed coordinates u_j = s_j / (s_0 + .. + s_j) turn the basis into
    # prod_j b^(m_j)_(k_j)(u_j). Where the denominator is 0 every factor in
    # u_j has degree 0, so u_j = 0 keeps faces, edges and vertices exact.
    partial = np.cumsum(weights, axis=1).T
    u = np.divide(weights.T, partial, out=np.zeros(partial.shape), where=partial > 0.0)
    v = 1.0 - u
    values = coefficients
    for j, (bounds, groups) in enumerate(plan, start=1):
        # Row m of b^m_k(u_j) = C(m, k) u^k (1-u)^(m-k) comes from row m-1 by
        # convex combinations, b^m_k = (1-u) b^(m-1)_k + u b^(m-1)_(k-1), and
        # meets every block of that m in an einsum, never in BLAS.
        out = np.empty((bounds[-1], weights.shape[0]))
        row, spare = np.zeros((2, order + 1, weights.shape[0]))  # entry m is 0 until row m
        row[0] = 1.0
        for m, positions in enumerate(groups):
            if m:
                np.multiply(row[:m], v[j], out=spare[:m])
                row[:m] *= u[j]
                spare[1:m + 1] += row[:m]
                row, spare = spare, row
            if len(positions):
                np.einsum("bk...,k...->b...", values[positions], row[:m + 1],
                          out=out[bounds[m]:bounds[m + 1]])
        values = out
    return values[0]


def evaluate_at_weights(net: ControlNet, weights, evaluator: str = DEFAULT_EVALUATOR) -> np.ndarray:
    """Evaluate the net at a (P, D+1) batch of barycentric weights."""
    w = clip_weights(weights, net.simplex.dimension)
    order, out = net.order, np.empty(w.shape[0])
    if evaluator == DIRECT:
        indices = enumerate_multi_indices(order, net.simplex.dimension)
        for points, rows, basis in _direct_blocks(indices, w):
            out[points] = basis @ net.coefficients[rows]
    elif evaluator == DE_CASTELJAU:
        plan, entries = _stage_plan(order, net.simplex.dimension)
        for chunk in row_chunks(w.shape[0], entries):
            out[chunk] = _collapsed_chunk(net.coefficients, order, plan, w[chunk])
    else:
        raise ConfigError(f"unknown evaluator {evaluator!r}; use one of {EVALUATORS}")
    return out


def apply_direct(net: ControlNet, x) -> float:
    """Reference evaluation at a point: explicit sum of coefficient * basis."""
    w = net.simplex.barycentric(x)
    return float(evaluate_at_weights(net, w[None, :], evaluator=DIRECT)[0])


def apply_de_casteljau(net: ControlNet, weights) -> float:
    """Stable evaluation at validated barycentric weights."""
    t = validate_barycentric(weights, net.simplex.dimension)
    return float(evaluate_at_weights(net, t[None, :], evaluator=DE_CASTELJAU)[0])


def operator_sup_error(net: ControlNet, f, grid) -> float:
    """Max over the grid of |net(x) - f(x)|; the discretized sup-norm error."""
    points = grid_points(net.simplex, grid)
    weights = net.simplex.barycentric_many(points)
    values = evaluate_at_weights(net, weights)
    exact = np.array([float(f(p)) for p in points])
    return float(np.abs(values - exact).max())
