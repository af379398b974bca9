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
of O(n^{D+1}), in the scaled power form (Schumaker-Volk 1986): stage 1 is a
zero-padded matrix product on BLAS in one-thread tiles, each later stage one
product and one sum over runs; no result depends on chunking or thread count.
Its forward error is at most g(N) sum_k |c_k| B_k(w) + 2**-270 max |c_k|, with
g(N) = N u / (1 - N u), u = 2**-53 and N = n (3 D^2 + 11 D) / 2 + 5 D.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass

import numpy as np

from .csvio import emit_lattice_csv, open_csv
from .errors import ConfigError, DimensionMismatchError, FunctionEvaluationError, SizeOverflowError
from .geometry import Simplex, clip_weights, grid_points, validate_barycentric
from .lattice import (GEMM_COLUMNS, check_order, control_points, count_multi_indices,
                      enumerate_multi_indices, multinomial_log_table, row_chunks)

DIRECT = "direct"
DE_CASTELJAU = "decasteljau"
EVALUATORS = (DIRECT, DE_CASTELJAU)
DEFAULT_EVALUATOR = DE_CASTELJAU
DE_CASTELJAU_MAX_ORDER = 1022  # t**m >= 2**-m and C(m, i) <= 2**m stay normal doubles
_TILE = 1 << 18  # most multiply-adds a product tile takes: OpenBLAS runs it on one thread


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
    """The net of f, a TestFunction: one f.evaluate call on every control point."""
    return ControlNet(simplex, order, f.evaluate(control_points(simplex, order)))


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
    bits = 1 << np.arange(w.shape[1] - 1, -1, -1)  # a face's integer sorts as its row of w != 0
    patterns, group = np.unique((w != 0.0) @ bits, return_inverse=True)
    faces = []
    for key, live in enumerate((patterns[:, None] & bits) != 0):
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


def basis_vector(simplex: Simplex, order: int, x) -> np.ndarray:
    """All basis values B_k^order(x) in enumeration order, zero off x's face."""
    check_order(order)
    indices = enumerate_multi_indices(order, simplex.dimension)
    w = clip_weights(simplex.barycentric(x)[None, :], simplex.dimension)
    values = np.zeros(len(indices))
    for _, rows, basis in _direct_blocks(indices, w):
        values[rows] = basis[0]
    return values


def _power_plan(coefficients: np.ndarray, order: int, dimension: int) -> tuple:
    # Stage j sums out k_j: each run of rows sharing (k_(j+1)..k_D) is a block k_j = i = 0..m,
    # the runs being the rows of the order-n lattice of dimension D-j, m their k_0; a stage is
    # m, the run starts and per row i, m - i, C(m, i), stage 1 a table of c C(m, i) 2**-scale.
    low = order if dimension == 1 else 0  # C(m, i) is needed for these m only
    comb = np.array([c for m in range(low, order + 1) for c in itertools.accumulate(
        range(m), lambda c, i: c * (m - i) // (i + 1), initial=1)], dtype=float)
    scale = max(0, int(np.frexp(np.abs(coefficients).max(initial=0.0))[1]) + order - 1023)
    stages = []
    for d in range(dimension - 1, -1, -1):
        block_m = enumerate_multi_indices(order, d)[:, 0] if d else np.array([order])
        starts = np.cumsum(block_m + 1) - (block_m + 1)
        m = np.repeat(block_m, block_m + 1)
        i = np.arange(len(m)) - np.repeat(starts, block_m + 1)
        stages.append((block_m, starts, i, m - i, comb[(m * (m + 1) - low * (low + 1)) // 2 + i]))
    (first_m, _, i, reverse, c), *stages = stages
    run = np.repeat(np.arange(len(first_m)), first_m + 1)
    table = np.zeros((2, max(2, len(first_m) + len(first_m) % 2), order + 1))  # even: no gemv
    table[0, run, i] = table[1, run, reverse] = c * np.ldexp(coefficients, -scale)
    held = table.size + first_m.size + sum(a.size for stage in stages for a in stage)
    return table, first_m, stages, scale, held, 4 * len(first_m) + (2 * order + 8) * (dimension + 1)


def _power_chunk(table, first_m, stages, scale, order: int, weights: np.ndarray) -> np.ndarray:
    # Collapsed coordinates u_j = s_j / (s_0 + .. + s_j) make the basis prod_j C(m, i) r^e t^m:
    # p = s_0 + .. + s_(j-1), r = min(p, s_j) / max(p, s_j), t = max(p, s_j) / (p + s_j), e = i
    # if s_j <= p else m - i (r = 0, t = 1 where p = s_j = 0: faces stay exact). Points are
    # sorted by e's choice; a tile of stage 1's low half may spill into high columns, redone.
    rank = np.lexsort((weights[:, 1:] > np.cumsum(weights, axis=1)[:, :-1]).T[::-1])
    low = int(np.count_nonzero(weights[:, 1] <= weights[:, 0]))
    split = -(-low // GEMM_COLUMNS) * GEMM_COLUMNS  # each of stage 1's two gemms is padded
    column = np.concatenate([np.arange(low), np.arange(split, split + len(weights) - low)])
    s = np.zeros((weights.shape[1], split - (low - len(weights)) // GEMM_COLUMNS * GEMM_COLUMNS))
    s[:, column] = weights[rank].T
    p = np.cumsum(s, axis=0)
    hi, high = np.maximum(p[:-1], s[1:]), s[1:] > p[:-1]
    powers = np.ones((order + 1, 2) + hi.shape)  # r**e and t**m of every stage
    powers[1:, 0] = np.divide(np.minimum(p[:-1], s[1:]), hi, out=np.zeros(hi.shape), where=hi > 0)
    powers[1:, 1] = np.divide(hi, p[1:], out=np.ones(hi.shape), where=hi > 0)
    for e in range(2, order + 1):
        powers[e] *= powers[e - 1]
    rows = max(2, min(table.shape[1], int((_TILE / (order + 1)) ** 0.5) // 2 * 2))  # fixed
    step = max(GEMM_COLUMNS, _TILE // (rows * (order + 1)) // GEMM_COLUMNS * GEMM_COLUMNS)
    product = np.empty((table.shape[1], s.shape[1]))
    for half, (o, e) in enumerate(((0, split), (split, s.shape[1]))):
        for a, r in itertools.product(range(o, e, step), range(0, table.shape[1], rows)):
            product[r:r + rows, a:a + step] = table[half, r:r + rows] @ powers[:, 0, 0, a:a + step]
    values = product[:len(first_m)] * powers[:, 1, 0][first_m]
    for j, (block_m, starts, fwd, rev, comb) in enumerate(stages, start=1):
        edges = [0, *(np.flatnonzero(np.diff(high[j])) + 1).tolist(), s.shape[1]]
        gathered = np.empty((len(fwd), s.shape[1]))
        for a, b in zip(edges, edges[1:]):
            gathered[:, a:b] = powers[:, 0, j, a:b][rev if high[j, a] else fwd]
        gathered *= comb[:, None]
        gathered *= values
        values = np.add.reduceat(gathered, starts, axis=0) * powers[:, 1, j][block_m]
    return np.ldexp(values[0, column], scale)[np.argsort(rank)]


def evaluate_at_weights(net: ControlNet, weights, evaluator: str = DEFAULT_EVALUATOR) -> np.ndarray:
    """Evaluate the net at a (P, D+1) batch of barycentric weights."""
    w = clip_weights(weights, net.simplex.dimension)
    order, out = net.order, np.empty(w.shape[0])
    if evaluator == DIRECT:
        indices = enumerate_multi_indices(order, net.simplex.dimension)
        for points, rows, basis in _direct_blocks(indices, w):
            out[points] = basis @ net.coefficients[rows]
    elif evaluator == DE_CASTELJAU:
        if order > DE_CASTELJAU_MAX_ORDER:
            raise SizeOverflowError(f"order > {DE_CASTELJAU_MAX_ORDER}: use --evaluator direct")
        *plan, held, per_point = _power_plan(net.coefficients, order, net.simplex.dimension)
        for chunk in row_chunks(w.shape[0], per_point, GEMM_COLUMNS, held=held):
            out[chunk] = _power_chunk(*plan, order, w[chunk])
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
    """Max over the grid of |net(x) - f(x)|, f a TestFunction: the discrete sup error."""
    points = grid_points(net.simplex, grid)
    values = evaluate_at_weights(net, net.simplex.barycentric_many(points))
    return float(np.abs(values - f.evaluate(points)).max())
