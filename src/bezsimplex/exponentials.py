"""Exponential functions and their exact Bernstein images on a simplex.

For f(x) = exp(a.x) the Bernstein polynomial collapses, via the multinomial
theorem, to the closed form

    [ sum_j s_j(x) exp(a.x_j / n) ]^n

over the barycentric weights s_j of x. Exponentials are therefore the one
family with an a-priori first-order error estimate: ``error_budget`` returns
it, the one prediction in the package, ``residual_constants`` the Taylor
residual's constants it builds on, and ``relative_error_at_weights`` measures
the observed error alone.

The closed form, its first-order residual and the relative error depend on
the weights alone: a.x is sum_j s_j a.x_j, so the ``*_at_weights`` kernels
take a (P, D+1) batch of barycentric weights and never form cartesian
points; ``relative_error_report`` adapts a (P, D) batch of points for the benchmark's tracer.

Every quantity is read off one padded matrix product of a ``case_table``
(each (vertex dots, order) case's exp(a.x_j / n), then its a.x_j) with the
weights: the closed form, its residual and the log ratio that
``sup_relative_errors`` reduces, one product per block of the grid;
``log_ratio_rounding`` bounds the rounding in that log ratio.
A value has the same bits alone or in a batch, in any order and chunking.
This is the collapse of Bernstein sums to a power of one weighted sum that
Kirby (Numer. Math. 2011) and Ainsworth-Andriamaro-Davydov (SISC 2011) use.
"""

from __future__ import annotations

import numpy as np

from .errors import (DimensionMismatchError, DomainError, EmptyGridError, ExpOverflowError,
                     SizeOverflowError)
from .lattice import check_order, padded
from .geometry import UNIT_ROUNDOFF, Frozen, Simplex, clip_weights

# exp() overflows double precision near 709; stay clear with a round guard.
EXP_ARG_LIMIT = 700.0

# log of the largest finite double; a relative error past exp of it overflows.
_LOG_DOUBLE_MAX = float(np.log(np.finfo(float).max))


def _term(coefficient, direction) -> tuple:
    try:
        return float(coefficient), [float(v) for v in np.atleast_1d(direction)]
    except OverflowError as exc:
        raise SizeOverflowError(f"exponential term entries must be doubles: {exc}") from exc


class ExpPolynomial(Frozen):
    """Finite linear combination sum_i c_i exp(a_i . x) of (c_i, a_i) pairs,
    held as a read-only (T,) `coefficients` and (T, D) `directions` array."""

    def __init__(self, terms) -> None:
        pairs = [_term(c, a) for c, a in terms]
        if not pairs:
            raise DimensionMismatchError("exponential polynomial needs at least one term")
        dim = len(pairs[0][1])
        if any(len(a) != dim for _, a in pairs):
            raise DimensionMismatchError("all term directions must share one dimension")
        coefficients = np.array([c for c, _ in pairs])
        directions = np.array([a for _, a in pairs]).reshape(len(pairs), dim)
        if not (np.isfinite(coefficients).all() and np.isfinite(directions).all()):
            raise DomainError("exponential polynomial entries must be finite")
        coefficients.setflags(write=False)
        directions.setflags(write=False)
        self._set(coefficients=coefficients, directions=directions, dimension=dim)

    def __len__(self) -> int:
        return len(self.coefficients)

    def __repr__(self) -> str:
        return f"ExpPolynomial({len(self)} terms, dimension={self.dimension})"

    def evaluate_many(self, points) -> np.ndarray:
        dots = _exponents(np.asarray(points, dtype=float), self.directions.T, "point")
        return np.exp(dots) @ self.coefficients


def _exponents(points: np.ndarray, directions: np.ndarray, row: str) -> np.ndarray:
    # points @ directions, refused unless every a.x is finite and at most
    # EXP_ARG_LIMIT. Huge points times a huge direction overflow to +-inf (or
    # inf - inf = nan); the error names the first such a.x and its row.
    with np.errstate(over="ignore", invalid="ignore"):
        dots = points @ directions
    bad = ~(np.isfinite(dots) & (dots <= EXP_ARG_LIMIT))
    if bad.any():
        at = np.unravel_index(np.argmax(bad), bad.shape)
        raise ExpOverflowError(f"a.x reaches {dots[at]:.3g} at {row} {at[0]}; an exponent"
                               f" must be finite and at most {EXP_ARG_LIMIT:g}")
    return dots


def vertex_dots(simplex: Simplex, direction, order: int) -> np.ndarray:
    """A case's vertex dots a.x_j, one per vertex, after checking the order and the direction."""
    check_order(order)
    a = np.asarray(direction, dtype=float)
    if a.ndim != 1 or a.shape[0] != simplex.dimension:
        raise DimensionMismatchError(
            f"direction must have length {simplex.dimension}, got shape {a.shape}"
        )
    return _exponents(simplex.vertices, a, "vertex")


def case_table(cases: list) -> tuple:
    """The (2C, D+1) table of C (vertex dots, order) cases that the weight
    kernels take: the rows exp(a.x_j / n) of every case, then the rows a.x_j;
    and the orders as a (C, 1) float column."""
    dots = np.array([d for d, _ in cases], dtype=float)
    orders = np.array([[float(n)] for _, n in cases])
    return np.vstack([np.exp(dots / orders), dots]), orders


def _weighted_sums(table: np.ndarray, w: np.ndarray) -> np.ndarray:
    # table @ w.T (2C, P): each case's sum_j s_j exp(a.x_j / n), then its a.x.
    # Two or more rows and padded columns (zeros) make it a gemm whose bits
    # hold across case counts, chunks and threads.
    rows, columns = w.shape[0], w.T
    if padded(rows) != rows:
        columns = np.zeros((w.shape[1], padded(rows)))
        columns[:, :rows] = w.T
    return (table @ columns)[:, :rows]


def _log_powers(table: np.ndarray, orders: np.ndarray, w: np.ndarray) -> np.ndarray:
    # _weighted_sums with each case's sum replaced in place by n times its
    # natural log, the log of the closed form. A sum below the smallest normal
    # double is summed again, shifted by its largest weighted a.x_j / n; every
    # other sum keeps its plain log.
    out, count = _weighted_sums(table, w), orders.shape[0]
    sums, tiny = out[:count], np.finfo(float).tiny
    if not sums.min(initial=np.inf) < tiny:
        np.log(sums, out=sums)
    else:
        case, row = np.nonzero(sums < tiny)
        sub = w[row]
        peak = np.where(sub > 0.0, table[count:][case] / orders[case], -np.inf)
        shift = peak.max(axis=1)
        sums[case, row] = (sub * np.exp(peak - shift[:, None])).sum(axis=1)
        np.log(sums, out=sums)
        sums[case, row] += shift
    sums *= orders
    return out


def closed_form_at_weights(simplex: Simplex, order: int, direction,
                           weights: np.ndarray) -> np.ndarray:
    """Bernstein image of exp(a.x) at a (P, D+1) batch of barycentric weights.

    Evaluated as exp(n * log(sum_j s_j exp(a.x_j / n))) so high orders never
    overflow an intermediate power.
    """
    dots = vertex_dots(simplex, direction, order)
    w = clip_weights(weights, simplex.dimension)
    return np.exp(_log_powers(*case_table([(dots, order)]), w)[0])


def residual_at_weights(simplex: Simplex, order: int, direction,
                        weights: np.ndarray) -> np.ndarray:
    """First-order residual sum_j s_j exp(a.x_j/n) - 1 - a.x/n, batched."""
    table, _ = case_table([(vertex_dots(simplex, direction, order), order)])
    sums, dots = _weighted_sums(table, clip_weights(weights, simplex.dimension))
    return sums - 1.0 - dots / order


def residual_constants(simplex: Simplex, direction, order: int) -> tuple:
    """The Taylor-residual constants (coeff, cap) of exp(a.x) at the given order:
    coeff = 1/2 sum_j (a.x_j)^2 exp(a.x_j / n) bounds n^2 times the residual, and
    cap = 1/2 sum_j (a.x_j)^2 exp(max(a.x_j, 0)) majorizes coeff at every order.
    A cap past a double raises ExpOverflowError."""
    dots = vertex_dots(simplex, direction, order)
    with np.errstate(over="ignore", invalid="ignore"):  # inf, or inf * 0 = nan
        coeff = 0.5 * float(np.sum(dots**2 * np.exp(dots / order)))
        cap = 0.5 * float(np.sum(dots**2 * np.exp(np.maximum(dots, 0.0))))
    if not np.isfinite(cap):  # the coefficient is at most the cap
        raise ExpOverflowError(f"the error budget of a.x = {dots.tolist()} overflows a double")
    return coeff, cap


def error_budget(simplex: Simplex, direction, order: int) -> float:
    """The first-order predicted relative error of exp(a.x) at the given order,
    (cap + 1/2 max_j a.x_j) / n with the cap of residual_constants: the one
    prediction, which converge prints and bound-check compares against. The
    max of the linear functional a.x over the simplex is attained at a vertex.
    """
    _, cap = residual_constants(simplex, direction, order)
    return (cap + 0.5 * float(vertex_dots(simplex, direction, order).max())) / order


def sup_relative_errors(cases: list, blocks) -> list:
    """The observed sup relative error, a float, of each (vertex dots, order)
    case in a single pass over blocks of weights that passed clip_weights
    (grid weights need no clipping), such as grid_weight_blocks with 2 C
    doubles beside each row for the (2C, rows) product. Each block takes one
    _log_powers call for every case, whose log closed form less a.x is the log
    ratio, formed without either huge factor; only its extremes are kept."""
    table, orders = case_table(cases)
    lowest, largest = np.full(len(cases), np.inf), np.full(len(cases), -np.inf)
    for w in blocks:
        log_ratio, dots = np.split(_log_powers(table, orders, w), 2)
        log_ratio -= dots
        # np.minimum and np.maximum keep a NaN, as one reduction over all rows does
        np.minimum(lowest, log_ratio.min(axis=1), out=lowest)
        np.maximum(largest, log_ratio.max(axis=1), out=largest)
        del w, log_ratio, dots  # free this block and its product before the next block is built
    errors = []
    for low, high in zip(lowest, largest):
        if high > _LOG_DOUBLE_MAX:
            raise ExpOverflowError(f"relative error reaches exp({high:.6g}), beyond the largest double")
        # expm1 is monotone, so |expm1| peaks at an extreme of the log ratio
        errors.append(float(max(abs(np.expm1(high)), abs(np.expm1(low)))))
    return errors


def log_ratio_rounding(dots, order: int) -> float:
    """A bound on the rounding in the log ratio n log S - a.x that sup_relative_errors forms at
    grid weights fl(k_j / m) from a case's vertex dots as computed, S = sum_j s_j exp(a.x_j / n):
    (D + 15) n u (1 + M / n), M = max_j |a.x_j|. a.x_j / n is off by u M / n, each exp by 8 u,
    the weights and the gemm sum of D + 1 positive terms by (D + 3) u, log by 8 u M / n and
    the product by n by u M; the dot a.x by (D + 3) u M and the difference by 2 u M."""
    reach = float(np.abs(dots).max())
    return (len(dots) + 14) * order * UNIT_ROUNDOFF * (1 + reach / order)


def relative_error_at_weights(simplex: Simplex, direction, order: int,
                              weights: np.ndarray) -> float:
    """Max relative error of the closed form against exp(a.x) over a (P, D+1)
    batch of barycentric weights: the observation alone, with no prediction
    (bound-check compares observations with error_budget). A relative error
    past the largest double raises ExpOverflowError.
    """
    dots = vertex_dots(simplex, direction, order)
    w = clip_weights(weights, simplex.dimension)
    if w.shape[0] == 0:
        raise EmptyGridError("relative error requested over no weights")
    return sup_relative_errors([(dots, order)], [w])[0]


def relative_error_report(simplex: Simplex, direction, order: int, points) -> float:
    """relative_error_at_weights at a (P, D) batch of cartesian points. Kept only because
    perfbench/tracer.py binds it by name: ROADMAP item 1 drops that binding, then item 11 deletes it."""
    return relative_error_at_weights(simplex, direction, order, simplex.barycentric_many(points))
