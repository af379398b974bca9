"""Correctness gates: each workload's CSV checked against an independent recomputation.

Nothing here imports bezsimplex. The lattice, the closed form for exp(a.x)
and the first-order prediction are recomputed with plain numpy from the
workload's inputs, and compared with what the CLI wrote.
Each gate returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

# Relative agreement required of every recomputed value; the seed commit
# sits at 2e-11 (exp rows) and 2e-14 (direct against de Casteljau).
REL_TOL = 1e-9
# The scaling error is expm1(n log(inner) - a.x); n log(inner) carries an
# absolute rounding error of order n * eps in both computations, which at the
# smallest scales (errors near 1e-6) exceeds 1e-9 relative.
SCALING_ABS_TOL_PER_ORDER = 1e-14


def lattice(order: int, dim: int) -> np.ndarray:
    """All k in N^(dim+1) with |k| = order, one per row, in no promised order."""
    tails = np.zeros((1, 0), dtype=np.int64)
    for _ in range(dim):
        room = order - tails.sum(axis=1) + 1
        column = np.concatenate([np.arange(r) for r in room])
        tails = np.hstack([np.repeat(tails, room, axis=0), column[:, None]])
    return np.hstack([order - tails.sum(axis=1, keepdims=True), tails])


def _rel(observed: float, expected: float) -> float:
    if observed == expected:
        return 0.0
    return abs(observed - expected) / max(abs(expected), np.finfo(float).tiny)


class GateError(Exception):
    pass


def read_rows(path: Path, expected_header: list) -> list:
    """Data rows of a CSV whose header must be expected_header."""
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows or rows[0] != expected_header:
        raise GateError(f"{path.name}: header {rows[:1]} != {expected_header}")
    return rows[1:]


def _exp_closed_form(weights, vertices, direction, order):
    """[sum_j s_j exp(a.x_j / n)]^n, in log space."""
    inner = weights @ np.exp(vertices @ direction / order)
    return np.exp(order * np.log(inner))


def _predicted_rel_error(vertices, direction, order):
    dots = vertices @ direction
    cap = 0.5 * float(np.sum(dots**2 * np.exp(np.maximum(dots, 0.0))))
    return (cap + 0.5 * float(dots.max())) / order


CONVERGE_HEADER = ["n", "sup_error", "sup_relative_error", "predicted_rel_error", "evaluator"]


def check_tri_exp_sweep(plan, out: Path) -> list:
    errors = []
    rows = read_rows(out / "converge.csv", CONVERGE_HEADER)
    v, a = plan.vertices, plan.direction
    grid = plan.sizes["grid"]
    weights = lattice(grid, v.shape[1]) / grid
    exact = np.exp(weights @ v @ a)
    sup_f = float(np.abs(exact).max())
    if [int(r[0]) for r in rows] != plan.sizes["n_values"]:
        errors.append(f"converge.csv: orders {[r[0] for r in rows]} != {plan.sizes['n_values']}")
    for n_text, sup_err, sup_rel, predicted, evaluator in rows:
        n = int(n_text)
        want = float(np.abs(_exp_closed_form(weights, v, a, n) - exact).max())
        checks = (
            ("sup_error", float(sup_err), want, REL_TOL),
            ("sup_relative_error", float(sup_rel), want / sup_f, REL_TOL),
            ("predicted_rel_error", float(predicted), _predicted_rel_error(v, a, n), 1e-12),
        )
        for column, got, expected, tol in checks:
            if _rel(got, expected) > tol:
                errors.append(f"n={n}: {column} {got!r} vs closed form {expected!r}")
        if evaluator != "decasteljau":
            errors.append(f"n={n}: evaluator {evaluator!r}")
    return errors


def check_tet_runge_xcheck(plan, out: Path) -> list:
    errors = []
    direct = read_rows(out / "direct.csv", CONVERGE_HEADER)
    casteljau = read_rows(out / "decasteljau.csv", CONVERGE_HEADER)
    grid = plan.sizes["grid"]
    points = lattice(grid, plan.vertices.shape[1]) / grid @ plan.vertices
    centroid = plan.vertices.mean(axis=0)
    sup_f = float((1.0 / (1.0 + 25.0 * ((points - centroid) ** 2).sum(axis=1))).max())
    orders = plan.sizes["n_values"]
    for label, rows in (("direct", direct), ("decasteljau", casteljau)):
        if [int(r[0]) for r in rows] != orders:
            errors.append(f"{label}.csv: orders {[r[0] for r in rows]} != {orders}")
        for n, sup_err, sup_rel, predicted, evaluator in rows:
            if evaluator != label or predicted != "":
                errors.append(f"{label}.csv n={n}: evaluator {evaluator!r}, prediction {predicted!r}")
            if _rel(float(sup_rel), float(sup_err) / sup_f) > REL_TOL:
                errors.append(f"{label}.csv n={n}: sup_relative_error {sup_rel} != {sup_err}/{sup_f!r}")
    for d_row, c_row in zip(direct, casteljau):
        for column, d_val, c_val in zip(CONVERGE_HEADER[1:3], d_row[1:3], c_row[1:3]):
            if _rel(float(c_val), float(d_val)) > REL_TOL:
                errors.append(f"n={d_row[0]}: {column} direct {d_val} vs decasteljau {c_val}")
    return errors


SCALING_HEADER = [
    "diameter_scale", "magnitude_scale", "diameter", "direction_norm", "n", "sup_relative_error",
]


def check_simplex5_exp_scaling(plan, out: Path) -> list:
    errors = []
    rows = read_rows(out / "scaling.csv", SCALING_HEADER)
    scales = [float(s) for s in plan.sizes["scales"]]
    order, grid = plan.sizes["order"], plan.sizes["grid"]
    weights = lattice(grid, plan.vertices.shape[1]) / grid
    expected_keys = [(d, m) for d in scales for m in scales]
    if [(float(r[0]), float(r[1])) for r in rows] != expected_keys:
        return errors + ["scaling.csv: (diameter_scale, magnitude_scale) rows out of order"]
    for (d_scale, m_scale), row in zip(expected_keys, rows):
        v = plan.vertices * d_scale
        a = plan.direction * m_scale
        log_ratio = order * np.log(weights @ np.exp(v @ a / order)) - weights @ v @ a
        diameter = float(np.linalg.norm(v[:, None, :] - v[None, :, :], axis=2).max())
        for column, got, expected in (("diameter", float(row[2]), diameter),
                                      ("direction_norm", float(row[3]), float(np.linalg.norm(a)))):
            if _rel(got, expected) > 1e-12:
                errors.append(f"scale ({d_scale}, {m_scale}): {column} {got!r} vs {expected!r}")
        got, expected = float(row[5]), float(np.abs(np.expm1(log_ratio)).max())
        if abs(got - expected) > REL_TOL * expected + SCALING_ABS_TOL_PER_ORDER * order:
            errors.append(f"scale ({d_scale}, {m_scale}): sup_relative_error {got!r} vs {expected!r}")
        if int(row[4]) != order:
            errors.append(f"scale ({d_scale}, {m_scale}): n {row[4]} != {order}")
    return errors


CHECKS = {
    "tri-exp-sweep": check_tri_exp_sweep,
    "tet-runge-xcheck": check_tet_runge_xcheck,
    "simplex5-exp-scaling": check_simplex5_exp_scaling,
}


def check(plan, out: Path) -> list:
    """Failure messages for the CSVs a workload wrote under out; empty on a pass."""
    try:
        return CHECKS[plan.name](plan, out)
    except (GateError, OSError, ValueError, IndexError) as exc:
        return [f"{type(exc).__name__}: {exc}"]
