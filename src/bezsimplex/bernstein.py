"""Bernstein operator on a simplex: basis evaluation and control nets.

The operator maps a function sampled at the control points to the degree-n
polynomial sum_k f(R(k/n)) B_k^n(x), where B_k^n(x) is the multinomial
coefficient times prod_j s_j(x)^k_j over the barycentric weights s of x.

Two evaluators are provided. Direct summation computes each basis value in
log space and is the correctness reference. It groups points by the face
their nonzero weights span, where B_k vanishes if k_j > 0 at a zero weight,
and sums each group over that face's lattice rows only (Farin 1986,
Lai-Schumaker 2007), in blocks of at most _FACE_ROWS rows added in order: per
block and tile of one shape, one matrix product of log weights and indices,
one add, one in-place exp and one product with the net. The
production path, ``decasteljau``, sums the net out one collapsed coordinate at
a time (Ainsworth-Andriamaro-Davydov 2011, Kirby 2011), O(n^D) a point instead
of O(n^{D+1}), in the scaled power form (Schumaker-Volk 1986): stage 1 is a
zero-padded matrix product on BLAS in one-thread tiles, each later stage one
product and one sum over runs. No result depends on chunking or thread count.
A computed value at weights w is off B_n c(w) by at most sum_k |c_k| B_k(w) times
the evaluator's forward error bound (Higham 2002), ``decasteljau_bound`` (plus
UNDERFLOW_SHARE max |c_k|) or ``direct_bound``, each derived beside its code with
g(N) = N u / (1 - N u) for N roundings and exp and log within 4 ulps;
``rounding_floor`` bounds the evaluator's rounding in a net's value at grid weights.
"""

from __future__ import annotations

import itertools
import math
import operator

import numpy as np

from .errors import ConfigError, DimensionMismatchError, FunctionEvaluationError, SizeOverflowError
from .geometry import UNIT_ROUNDOFF, Frozen, Simplex, clip_weights
from .lattice import (GEMM_COLUMNS, check_order, chunk_rows, control_point_blocks, control_points,
                      count_multi_indices, enumerate_multi_indices, multi_index, multinomial_log_table,
                      padded)

DIRECT = "direct"
DE_CASTELJAU = "decasteljau"
EVALUATORS = (DIRECT, DE_CASTELJAU)
DEFAULT_EVALUATOR = DE_CASTELJAU
DE_CASTELJAU_MAX_ORDER = 1022  # t**m >= 2**-m and C(m, i) <= 2**m stay normal doubles
_TILE = 1 << 18  # most multiply-adds a product tile takes: OpenBLAS runs it on one thread
# Most lattice rows in one of direct's blocks: a tile of GEMM_COLUMNS points by them fits
# _ENTRY_BUDGET. Fixed at import, so a block's sums, hence the bits, never follow the budget.
_FACE_ROWS = chunk_rows(GEMM_COLUMNS)


class ControlNet(Frozen):
    """Coefficient vector of a degree-n Bernstein polynomial on a simplex: its
    `simplex`, its `order` n and its read-only `coefficients`.

    Entry i holds the coefficient for the i-th multi-index in enumeration
    order; for a sampled net that is f at the i-th control point.
    """

    def __init__(self, simplex: Simplex, order: int, coefficients) -> None:
        check_order(order)
        c = np.asarray(coefficients, dtype=float)
        expected = count_multi_indices(order, simplex.dimension)
        if c.ndim != 1 or c.shape[0] != expected:
            raise DimensionMismatchError(
                f"net of order {order} needs {expected} coefficients, got shape {c.shape}"
            )
        bad = np.flatnonzero(~np.isfinite(c))
        if bad.size:
            i = int(bad[0])
            raise FunctionEvaluationError(
                f"control net coefficient {i} (multi-index {multi_index(order, simplex.dimension, i)})"
                f" is {float(c[i])!r}; coefficients must be finite"
            )
        c = c.copy()
        c.setflags(write=False)
        self._set(simplex=simplex, order=order, coefficients=c)


def sample_control_net(simplex: Simplex, order: int, f) -> ControlNet:
    """The net of f, a TestFunction: one f.evaluate call on every control point."""
    return ControlNet(simplex, order, f.evaluate(control_points(simplex, order)))


def _direct_blocks(indices: np.ndarray, w: np.ndarray):
    # Yields (points, rows, B), B[p, i] = B_{k_rows[i]} at weight row points[p] for p <
    # len(points); rows left out are structural zeros (a zero weight's log reads 0, and kept
    # rows have k_j = 0 there). A face's rows go in blocks of at most _FACE_ROWS, in order; a
    # consumer folds each block's sums into zeros (0.0 + v = v). A block's products take tiles
    # of at most 64 points, or the face's if fewer, by its rows, both counts zero-padded to
    # multiples of GEMM_COLUMNS, so no bits depend on the batch; buffers go before the next block's.
    logm = multinomial_log_table(indices)
    bits = 1 << np.arange(w.shape[1] - 1, -1, -1)  # a face's integer sorts as its row of w != 0
    patterns, group = np.unique((w != 0.0) @ bits, return_inverse=True)
    for key, live in enumerate((patterns[:, None] & bits) != 0):
        face = None if live.all() else np.flatnonzero(~indices[:, ~live].any(axis=1))
        points, total = np.flatnonzero(group == key), len(indices if face is None else face)
        for lo in range(0, total, _FACE_ROWS):
            rows = slice(lo, lo + _FACE_ROWS) if face is None else face[lo:lo + _FACE_ROWS]
            width = min(_FACE_ROWS, total - lo)
            table = np.zeros((len(live) + 1, padded(width)))
            table[:-1, :width], table[-1, :width] = indices[rows].T, logm[rows]  # pad: exp(0)
            tile = min(64, padded(len(points)), chunk_rows(table.shape[1]))
            logw = np.zeros((-(-len(points) // tile) * tile, len(live)))
            np.log(w[points], out=logw[:len(points)], where=live)
            basis = np.empty((tile, table.shape[1]))
            for start in range(0, len(points), tile):
                np.matmul(logw[start:start + tile], table[:-1], out=basis)  # 0 in the pad rows
                real = basis[:len(points) - start]
                np.exp(np.add(real, table[-1], out=real), out=real)
                yield points[start:start + tile], rows, basis[:, :width]
            del table, logw, basis, real


def basis_blocks(simplex: Simplex, order: int, x):
    """(indices, values) per block of control_point_blocks, its points unused: B_k^order(x) for each
    multi-index k, zero off x's face. The order, SIZE_CAP and then x are checked at the call."""
    blocks = control_point_blocks(simplex, order)
    w = clip_weights(simplex.barycentric(x)[None, :], simplex.dimension)
    def fold(indices):  # one point, one face, a block under _FACE_ROWS rows: one tile at most
        values = np.zeros(len(indices))
        for _, rows, basis in _direct_blocks(indices, w):
            values[rows] = basis[0]
        return indices, values
    return (fold(k) for k, _ in blocks)


def basis_vector(simplex: Simplex, order: int, x) -> np.ndarray:
    """All basis values B_k^order(x) in enumeration order, zero off x's face."""
    return np.concatenate([values for _, values in basis_blocks(simplex, order, x)])


def _binomials(order: int, low: int) -> np.ndarray:
    # C(m, i), i = 0..m, for m = low..order back to back, each rounded once: row `low` from
    # its exact ratios, each later row from the last by one add of Python integers (Pascal).
    # Only the row being built is held as integers; each is rounded into the table when made.
    comb = np.empty((order + 1) * (order + 2) // 2 - low * (low + 1) // 2)
    row = [*itertools.accumulate(range(low), lambda c, i: c * (low - i) // (i + 1), initial=1)]
    start = 0  # row m starts here
    for m in range(low, order + 1):
        comb[start:start + m + 1] = row
        start += m + 1
        row[1:] = map(operator.add, row, row[1:])
        row.append(1)
    return comb


def _power_plan(coefficients: np.ndarray, order: int, dimension: int) -> tuple:
    # Stage j sums out k_j: each run of rows sharing (k_(j+1)..k_D) is a block k_j = i = 0..m,
    # the runs being the rows of the order-n lattice of dimension D-j, m their k_0; a stage is
    # m, the run starts and per row i, m - i, C(m, i), stage 1 a table of c C(m, i) 2**-scale.
    # Returned: _power_chunk's arguments, among them stage 1's tile (`rows` of the table by
    # `step` points, at most _TILE multiply-adds), then the doubles a point's chunk state takes.
    low = order if dimension == 1 else 0  # C(m, i) is needed for these m only
    comb = _binomials(order, low)
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
    rows = max(2, min(table.shape[1], int((_TILE / (order + 1)) ** 0.5) // 2 * 2))
    kernel = table, first_m, stages, scale, rows, chunk_rows(rows * (order + 1), _TILE), order
    return kernel, 4 * len(first_m) + (2 * order + 8) * (dimension + 1)


def _power_chunk(table, first_m, stages, scale, rows, step, order, weights) -> np.ndarray:
    # Collapsed coordinates u_j = s_j / (s_0 + .. + s_j) make the basis prod_j C(m, i) r^e t^m:
    # p = s_0 + .. + s_(j-1), r = min(p, s_j) / max(p, s_j), t = max(p, s_j) / (p + s_j), e = i
    # if s_j <= p else m - i (r = 0, t = 1 where p = s_j = 0: faces stay exact). Points are
    # sorted by e's choice; a tile of stage 1's low half may spill into high columns, redone.
    rank = np.lexsort((weights[:, 1:] > np.cumsum(weights, axis=1)[:, :-1]).T[::-1])
    low = int(np.count_nonzero(weights[:, 1] <= weights[:, 0]))
    split = padded(low)  # each of stage 1's two gemms is padded
    column = np.concatenate([np.arange(low), np.arange(split, split + len(weights) - low)])
    s = np.zeros((weights.shape[1], split + padded(len(weights) - low)))
    s[:, column] = weights[rank].T
    p = np.cumsum(s, axis=0)
    hi, high = np.maximum(p[:-1], s[1:]), s[1:] > p[:-1]
    powers = np.ones((order + 1, 2) + hi.shape)  # r**e and t**m of every stage
    powers[1:, 0] = np.divide(np.minimum(p[:-1], s[1:]), hi, out=np.zeros(hi.shape), where=hi > 0)
    powers[1:, 1] = np.divide(hi, p[1:], out=np.ones(hi.shape), where=hi > 0)
    for e in range(2, order + 1):
        powers[e] *= powers[e - 1]
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
    order, out = net.order, np.zeros(w.shape[0])
    if evaluator == DIRECT:
        indices = enumerate_multi_indices(order, net.simplex.dimension)
        for points, rows, basis in _direct_blocks(indices, w):
            out[points] += (net.coefficients[rows] @ basis.T)[:len(points)]  # BLAS, unlike B @ c
            del basis  # its buffer goes before the next block's is built
    elif evaluator == DE_CASTELJAU:
        if order > DE_CASTELJAU_MAX_ORDER:
            raise SizeOverflowError(f"order > {DE_CASTELJAU_MAX_ORDER}: use --evaluator direct")
        kernel, per_point = _power_plan(net.coefficients, order, net.simplex.dimension)
        step = chunk_rows(per_point)
        for lo in range(0, w.shape[0], step):
            out[lo:lo + step] = _power_chunk(*kernel, w[lo:lo + step])
    else:
        raise ConfigError(f"unknown evaluator {evaluator!r}; use one of {EVALUATORS}")
    return out


UNDERFLOW_SHARE = 2.0**-270  # decasteljau's absolute error bound, a share of max |c_k|


def _gamma(terms: int) -> float:
    return terms * UNIT_ROUNDOFF / (1.0 - terms * UNIT_ROUNDOFF)


def decasteljau_bound(order: int, dimension: int) -> float:
    """g(N), N = n (3 D^2 + 11 D) / 2 + 5 D. Stage j adds (3j + 4) n + 5 roundings to each
    term: r and t are rounded j and 2j + 1 times (a prefix sum, then a division) and raised
    to the powers e and m <= n by as many products; C(m, i), two products, the scale and a
    sum of at most n + 1 terms add n + 4 more. UNDERFLOW_SHARE covers every r**e that
    underflows below 2**-1022: there C(m, e) t^m is below 2**760 for m <= 1022, and at most
    2**27 terms each carry e < 2**10 half-ulps of 2**-1074."""
    return _gamma(order * (3 * dimension**2 + 11 * dimension) // 2 + 5 * dimension)


def direct_bound(order: int, dimension: int, smallest_weight: float) -> float:
    """r + g(W) (1 + r) at weights whose nonzero entries are at least smallest_weight:
    W = C(n + D, D) bounds the rows of a face and r = exp(h) (1 + 8 u) - 1 the relative error
    of a basis value, from its exponent's error h = g(D + 10) n L + 2 g(D + 9) log n!,
    L = -log smallest_weight: the logs (8 u), the (D+1)-term product (g(D + 1)) and the add
    (u) of terms of at most n L, the log-factorial table (8 u) and its D + 1 sums (g(D + 1))
    of log n! + sum_j log k_j! <= 2 log n!; the W-term sum adds g(W)."""
    largest_log = -float(np.log(smallest_weight))
    h = (_gamma(dimension + 10) * order * largest_log
         + 2 * _gamma(dimension + 9) * math.lgamma(order + 1))
    r = math.exp(h) * (1.0 + 8.0 * UNIT_ROUNDOFF) - 1.0
    return r + _gamma(math.comb(order + dimension, dimension)) * (1.0 + r)


def rounding_floor(net: ControlNet, evaluator: str, smallest_weight: float) -> float:
    """A bound on the evaluator's own rounding in the net's value at grid weights fl(k_j / m),
    nonzero ones at least smallest_weight: its bound times max |c_k| (1 + 2 n u), as sum_k |c_k|
    B_k(w) <= max |c_k| (sum_j w_j)^n <= max |c_k| (1 + u)^n; for decasteljau UNDERFLOW_SHARE
    max |c_k| more."""
    order, dimension = net.order, net.simplex.dimension
    unity, largest = 1.0 + 2.0 * order * UNIT_ROUNDOFF, float(np.abs(net.coefficients).max())
    if evaluator == DE_CASTELJAU:
        return decasteljau_bound(order, dimension) * largest * unity + UNDERFLOW_SHARE * largest
    return direct_bound(order, dimension, smallest_weight) * largest * unity


def apply_direct(net: ControlNet, x) -> float:
    """Reference evaluation at a point: explicit sum of coefficient * basis."""
    w = net.simplex.barycentric(x)
    return float(evaluate_at_weights(net, w[None, :], evaluator=DIRECT)[0])


def apply_de_casteljau(net: ControlNet, weights) -> float:
    """Stable evaluation at one vector of barycentric weights, a one-row batch."""
    t = np.asarray(weights, dtype=float)[None]
    return float(evaluate_at_weights(net, t, evaluator=DE_CASTELJAU)[0])

