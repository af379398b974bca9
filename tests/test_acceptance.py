"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one `[acceptance] <name>: PASS/FAIL` line (visible with
`pytest -s` or in captured output on failure) and then asserts. Criteria
with a runtime budget measure wall time and enforce it.
"""

import math
import time

import numpy as np
import pytest

from bezsimplex import (
    ControlNet,
    basis_vector,
    closed_form_at_weights,
    control_points,
    count_multi_indices,
    enumerate_multi_indices,
    evaluate_at_weights,
    grid_weights,
    load_config,
    multinomial_log_table,
    residual_at_weights,
    residual_constants,
    run_bound_check,
    run_convergence,
    run_scaling_study,
    standard_simplex,
)
from bezsimplex.cli import main as cli_main

from conftest import exact_multinomial, interior_weights, random_simplex

TRIANGLE_SPEC = {"vertices": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]}

SWEEP_CONFIG = {
    "simplex": TRIANGLE_SPEC,
    "function": {"terms": [{"c": 1.0, "a": [1.0, 1.0]}]},
    "n_values": [10, 20, 40, 80, 160],
    "grid_resolution": 50,
    "seed": 0,
}


def report(name, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"{name} failed{suffix}"


@pytest.fixture(scope="module")
def sweep_rows():
    return run_convergence(load_config(dict(SWEEP_CONFIG)))


def test_partition_of_unity():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for dim in (1, 2, 3, 4):
        simplex = random_simplex(rng, dim)
        points = interior_weights(rng, dim, 200) @ simplex.vertices
        for order in (1, 5, 10, 20):
            sums = np.array([basis_vector(simplex, order, p).sum() for p in points])
            worst = max(worst, float(np.abs(sums - 1.0).max()))
    elapsed = time.perf_counter() - started
    report(
        "partition-of-unity",
        worst <= 1e-12 and elapsed < 10.0,
        f"max |sum-1| = {worst:.2e}, {elapsed:.1f}s",
    )


def test_unit_preservation():
    rng = np.random.default_rng(102)
    worst = 0.0
    for dim in (1, 2, 3, 4):
        simplex = random_simplex(rng, dim)
        config = load_config({
            "simplex": {"vertices": simplex.vertices.tolist()},
            "function": "const1",
            "n_values": [1, 5, 10, 20],
        })
        for row in run_convergence(config):
            worst = max(worst, row.sup_error)
    report("unit-preservation", worst <= 1e-12, f"max sup error = {worst:.2e}")


def test_linear_precision():
    rng = np.random.default_rng(103)
    worst = 0.0
    for dim in (1, 2, 3):
        simplex = random_simplex(rng, dim)
        resolution = 20 if dim <= 2 else 10
        weights = grid_weights(resolution, dim)
        points = weights @ simplex.vertices
        for order in range(1, 11):
            lattice_points = control_points(simplex, order)
            for _ in range(20):
                v = rng.normal(size=dim)
                b = float(rng.normal())
                net = ControlNet(simplex, order, lattice_points @ v + b)
                values = evaluate_at_weights(net, weights)
                worst = max(worst, float(np.abs(values - (points @ v + b)).max()))
    report("linear-precision", worst <= 1e-10, f"max sup error = {worst:.2e}")


def test_closed_form_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(104)
    resolutions = {1: 99, 2: 13, 3: 7}
    worst = 0.0
    for dim in (1, 2, 3):
        simplex = random_simplex(rng, dim)
        weights = grid_weights(resolutions[dim], dim)
        points = weights @ simplex.vertices
        for _ in range(10):
            a = rng.normal(size=dim)
            norm = float(np.linalg.norm(a))
            if norm > 2.0:
                a *= 2.0 / norm
            samples = np.exp(points @ a)
            for order in range(1, 13):
                net = ControlNet(
                    simplex, order, np.exp(control_points(simplex, order) @ a)
                )
                direct = evaluate_at_weights(net, weights, evaluator="direct")
                closed = closed_form_at_weights(simplex, order, a, weights)
                worst = max(worst, float(np.abs((closed - direct) / direct).max()))
            assert samples.shape == (weights.shape[0],)
    elapsed = time.perf_counter() - started
    report(
        "closed-form-equivalence",
        worst <= 1e-10 and elapsed < 30.0,
        f"max rel dev = {worst:.2e}, {elapsed:.1f}s",
    )


def test_evaluator_equivalence():
    rng = np.random.default_rng(105)
    worst = 0.0
    for dim in (1, 2, 3):
        simplex = random_simplex(rng, dim)
        weights = interior_weights(rng, dim, 100)
        for order in (1, 3, 7, 15):
            for _ in range(3):
                coeffs = rng.normal(size=count_multi_indices(order, dim))
                net = ControlNet(simplex, order, coeffs)
                direct = evaluate_at_weights(net, weights, evaluator="direct")
                stable = evaluate_at_weights(net, weights, evaluator="decasteljau")
                scale = float(np.abs(coeffs).max())
                worst = max(worst, float(np.abs(stable - direct).max()) / scale)
    report("evaluator-equivalence", worst <= 1e-10, f"max scaled dev = {worst:.2e}")


def test_contraction_and_monotonicity():
    rng = np.random.default_rng(106)
    worst_order = 0.0
    worst_bound = 0.0
    pairs = 0
    while pairs < 100:
        dim = 1 + pairs % 3
        order = (3, 6, 11)[pairs % 3]
        simplex = random_simplex(rng, dim)
        weights = interior_weights(rng, dim, 50)
        upper = rng.normal(size=count_multi_indices(order, dim)) * rng.uniform(0.5, 5.0)
        lower = upper - np.abs(rng.normal(size=upper.shape))
        hi = evaluate_at_weights(ControlNet(simplex, order, upper), weights)
        lo = evaluate_at_weights(ControlNet(simplex, order, lower), weights)
        worst_order = max(worst_order, float((lo - hi).max()))
        worst_bound = max(
            worst_bound,
            float(np.abs(hi).max()) - float(np.abs(upper).max()),
            float(np.abs(lo).max()) - float(np.abs(lower).max()),
        )
        pairs += 1
    report(
        "contraction-and-monotonicity",
        worst_order <= 1e-12 and worst_bound <= 1e-12,
        f"order slack = {worst_order:.2e}, norm slack = {worst_bound:.2e}",
    )


def test_convergence_rate(sweep_rows):
    started = time.perf_counter()
    rows = run_convergence(load_config(dict(SWEEP_CONFIG)))
    elapsed = time.perf_counter() - started
    errors = [r.sup_relative_error for r in rows]
    slope = np.polyfit(np.log([r.n for r in rows]), np.log(errors), 1)[0]
    report(
        "convergence-rate",
        -1.2 <= slope <= -0.8 and elapsed < 60.0,
        f"slope = {slope:.4f}, sweep took {elapsed:.1f}s",
    )
    assert all(a.sup_error == b.sup_error for a, b in zip(rows, sweep_rows))


def test_bound_check(sweep_rows):
    rows = run_bound_check(load_config(dict(SWEEP_CONFIG)))
    checked = [row for row in rows if row.n >= 40]
    ok = not any(row.violation for row in rows) and checked and all(
        row.observed_rel_error <= 1.25 * row.predicted_rel_error for row in checked
    )
    ratios = ", ".join(f"n={row.n}: {row.ratio:.3f}" for row in checked)
    report("bound-check", bool(ok), ratios)
    for row, conv in zip(rows, sweep_rows):
        assert row.predicted_rel_error == conv.predicted_rel_error


def test_residual_bound():
    rng = np.random.default_rng(0)
    worst_margin = -np.inf
    worst_cap_margin = -np.inf
    for dim in (1, 2, 3):
        simplex = random_simplex(rng, dim)
        direction = rng.normal(size=dim)
        weights = grid_weights(12, dim)
        for order in (10, 100, 1000):
            coeff, cap = residual_constants(simplex, direction, order)
            scaled = order**2 * np.abs(residual_at_weights(simplex, order, direction, weights))
            worst_margin = max(worst_margin, float(scaled.max()) - coeff)
            worst_cap_margin = max(worst_cap_margin, float(scaled.max()) - cap)
    # The order-independent cap must hold outright; see the exponentials
    # module tests for why the per-order coefficient needs the 0.01 slack.
    report(
        "residual-bound",
        worst_margin <= 0.01 and worst_cap_margin <= 1e-9,
        f"max n^2|r| - coeff = {worst_margin:.2e}, - cap = {worst_cap_margin:.2e}",
    )


def test_combinatorics():
    count_ok = True
    worst = 0.0
    for dim in range(1, 6):
        for order in range(0, 31):
            indices = enumerate_multi_indices(order, dim)
            if indices.shape[0] != math.comb(order + dim, dim):
                count_ok = False
            if not np.all(indices.sum(axis=1) == order):
                count_ok = False
            if dim > 4 or order > 25:
                continue
            approx = np.exp(multinomial_log_table(indices))
            exact = exact_multinomial(indices).astype(float)
            worst = max(worst, float(np.abs(approx / exact - 1.0).max()))
    report(
        "combinatorics",
        count_ok and worst <= 1e-10,
        f"counts ok = {count_ok}, max multinomial rel dev = {worst:.2e}",
    )


def test_scaling_study():
    simplex = standard_simplex(2)
    rows = run_scaling_study(simplex, [1.0, 1.0], 80, 50, [0.5, 1.0, 2.0, 4.0])
    table = {(r.diameter_scale, r.magnitude_scale): r.sup_relative_error for r in rows}
    ratios = []
    ok = True
    for lo, hi in ((0.5, 1.0), (1.0, 2.0), (2.0, 4.0)):
        diameter_ratio = table[(hi, 1.0)] / table[(lo, 1.0)]
        magnitude_ratio = table[(1.0, hi)] / table[(1.0, lo)]
        ratios.extend([diameter_ratio, magnitude_ratio])
        ok = ok and 1.5 <= diameter_ratio <= 4.5 and 1.5 <= magnitude_ratio <= 4.5
    report(
        "scaling-study",
        ok,
        "doubling ratios: " + ", ".join(f"{r:.2f}" for r in ratios),
    )


def test_determinism(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(
        '{"simplex": {"vertices": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]}, '
        '"function": {"terms": [{"c": 1.0, "a": [1.0, 1.0]}]}, '
        '"n_values": [5, 10, 15], "grid_resolution": 20, "seed": 7}'
    )
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    assert cli_main(["converge", "--config", str(config), "--out", str(first)]) == 0
    assert cli_main(["converge", "--config", str(config), "--out", str(second)]) == 0
    identical = first.read_bytes() == second.read_bytes()
    report("determinism", identical, f"{first.stat().st_size} bytes compared")
