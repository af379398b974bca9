import csv
import errno
import io
import json
import math
import os
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import bezsimplex
from bezsimplex import (
    ConfigError,
    ConvergenceRow,
    FunctionEvaluationError,
    SizeOverflowError,
    control_points,
    emit_csv,
    enumerate_multi_indices,
    error_budget,
    evaluate_at_weights,
    grid_weights,
    load_config,
    make_function,
    relative_error_at_weights,
    relative_error_report,
    run_bound_check,
    run_convergence,
    run_metadata,
    run_scaling_study,
    sample_control_net,
    standard_simplex,
)
from bezsimplex import bernstein, experiments, exponentials, lattice
from bezsimplex.csvio import emit_lattice_csv
from bezsimplex.experiments import (
    BOUND_CHECK_COLUMNS,
    CONVERGENCE_COLUMNS,
    SCALING_COLUMNS,
)
from bezsimplex.geometry import UNIT_ROUNDOFF

from conftest import exp_config, random_simplex, traced_peak

TRIANGLE_SPEC = {"vertices": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]}
INTERVAL_SPEC = {"vertices": [[0.0], [1.0]]}
EXP_11 = {"terms": [{"c": 1.0, "a": [1.0, 1.0]}]}
EXP_1 = {"terms": [{"c": 1.0, "a": [1.0]}]}


def config_dict(**overrides):
    base = {
        "simplex": TRIANGLE_SPEC,
        "function": "const1",
        "n_values": [2, 4, 8],
        "grid_resolution": 10,
        "seed": 0,
    }
    base.update(overrides)
    return base


def _as_numpy(value):
    """The numpy scalar that holds a Python bool, int or float."""
    return {bool: np.bool_, int: np.int64, float: np.float64}[type(value)](value)


def expected_cell(value) -> str:
    """The CSV text of one cell: empty, true/false, repr of the double or the integer's digits."""
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(int(value))


NAMED_DOUBLES = [0.0, -0.0, 5e-324, 1e16, 1e-5]
NUMBERS = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(NAMED_DOUBLES),
                    st.integers(-2**63, 2**63 - 1), st.booleans())
CELLS = st.one_of(NUMBERS, NUMBERS.map(_as_numpy), st.none(),
                  st.integers(2**63, 2**200), st.integers(-2**200, -2**63 - 1))


def value(fn, x):
    """A test function's value at one point."""
    return float(fn.evaluate(np.asarray(x, dtype=float)[None, :])[0])


class TestMakeFunction:
    def setup_method(self):
        self.triangle = standard_simplex(2)

    def test_const1(self):
        fn = make_function("const1", self.triangle)
        assert value(fn, [0.4, 0.1]) == 1.0
        np.testing.assert_array_equal(fn.evaluate([[0, 0], [0.5, 0.5]]), [1.0, 1.0])
        assert fn.exp_terms is None

    def test_affine(self):
        fn = make_function("affine:2,-1,0.5", self.triangle)
        assert value(fn, [0.25, 0.5]) == pytest.approx(2 * 0.25 - 0.5 + 0.5)
        batch = fn.evaluate([[0.0, 0.0], [1.0, 0.0]])
        np.testing.assert_allclose(batch, [0.5, 2.5])

    def test_affine_parameter_count(self):
        with pytest.raises(ConfigError, match="affine"):
            make_function("affine:1,2", self.triangle)
        with pytest.raises(ConfigError, match="non-numeric"):
            make_function("affine:1,x,3", self.triangle)

    def test_abs_is_distance_along_diagonal(self):
        fn = make_function("abs", self.triangle)
        centroid = self.triangle.centroid
        assert value(fn, centroid) == pytest.approx(0.0, abs=1e-15)
        u = np.ones(2) / math.sqrt(2)
        x = np.array([0.6, 0.1])
        assert value(fn, x) == pytest.approx(abs((x - centroid) @ u), abs=1e-15)

    def test_overflow_is_ieee_and_a_non_finite_value_is_typed(self):
        # runge far from its centroid squares past the largest double and reads
        # 0; an affine f past it is inf at a point, which is refused by name.
        far = bezsimplex.Simplex([[0.0], [1e300]])
        assert make_function("runge", far).evaluate([[0.0], [1e300]]).tolist() == [0.0, 0.0]
        with pytest.raises(FunctionEvaluationError, match=r"is inf at point \[1\.0\]"):
            make_function("affine:1e308,1e308", bezsimplex.Simplex([[0.0], [1.0]])).evaluate(
                [[0.0], [1.0]])

    def test_runge(self):
        fn = make_function("runge", self.triangle)
        centroid = self.triangle.centroid
        assert value(fn, centroid) == pytest.approx(1.0)
        x = centroid + [0.2, 0.0]
        assert value(fn, x) == pytest.approx(1.0 / (1.0 + 25 * 0.04))

    def test_exp_polynomial_dict(self):
        fn = make_function(EXP_11, self.triangle)
        assert fn.exp_terms is not None
        np.testing.assert_array_equal(fn.single_exponential(), [1.0, 1.0])
        assert value(fn, [0.5, 0.5]) == pytest.approx(math.e, rel=1e-14)
        again = make_function(fn.exp_terms, self.triangle)
        assert again.exp_terms is fn.exp_terms

    def test_multi_term_is_not_single(self):
        fn = make_function(
            {"terms": [{"c": 1.0, "a": [1.0, 0.0]}, {"c": 2.0, "a": [0.0, 1.0]}]},
            self.triangle,
        )
        assert fn.single_exponential() is None

    def test_zero_coefficient_is_not_single(self):
        fn = make_function({"terms": [{"c": 0.0, "a": [1.0, 0.0]}]}, self.triangle)
        assert fn.single_exponential() is None

    def test_inline_json_string(self):
        fn = make_function(json.dumps(EXP_11), self.triangle)
        assert fn.exp_terms is not None

    def test_json_file(self, tmp_path):
        path = tmp_path / "poly.json"
        path.write_text(json.dumps(EXP_11))
        fn = make_function(str(path), self.triangle)
        assert fn.exp_terms is not None
        from_path = make_function(Path(path), self.triangle).exp_terms
        np.testing.assert_array_equal(from_path.coefficients, fn.exp_terms.coefficients)
        np.testing.assert_array_equal(from_path.directions, fn.exp_terms.directions)

    def test_unknown_name(self):
        with pytest.raises(ConfigError, match="unknown function"):
            make_function("sine", self.triangle)
        with pytest.raises(ConfigError, match="function spec must be a mapping or path"):
            make_function(5, self.triangle)

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigError, match="dimension"):
            make_function(EXP_1, self.triangle)

    @pytest.mark.parametrize("term, message", [
        ({"a": [1.0, 1.0]}, "missing 'c'"),
        ({"c": 1.0}, "missing 'a'"),
        ({"c": "x", "a": [1.0, 1.0]}, "malformed"),
        ({"c": float("nan"), "a": [1.0, 1.0]}, "finite"),
        ({"c": 10**400, "a": [1.0, 1.0]}, "malformed"),
        # numpy reads a string or a bool as a number; a term has only c and a.
        pytest.param({"c": 1.0, "a": "12"}, r"terms\[0\]\.a: need a list, got str", id="a-str"),
        pytest.param({"c": 1.0, "a": [1.0, "2"]}, r"terms\[0\]\.a\[1\]: need a number, got str",
                     id="a-entry-str"),
        pytest.param({"c": True, "a": [1.0, 1.0]}, r"terms\[0\]\.c: need a number, got bool",
                     id="c-true"),
        pytest.param({"c": "2", "a": [1.0, 1.0]}, r"terms\[0\]\.c: need a number, got str",
                     id="c-str"),
        pytest.param({"c": 1.0, "a": [1.0, 1.0], "zz": 5},
                     r"unknown field\(s\) \['zz'\]; known fields: \['a', 'c'\]", id="term-key"),
    ])
    def test_malformed_exp_term(self, term, message):
        with pytest.raises(ConfigError, match=message):
            make_function({"terms": [term]}, self.triangle)
        with pytest.raises(ConfigError, match=message):
            make_function(json.dumps({"terms": [term]}), self.triangle)

    def test_terms_not_a_list(self):
        with pytest.raises(ConfigError, match="malformed"):
            make_function({"terms": 3}, self.triangle)

    @pytest.mark.parametrize("spec, message", [
        ({"coefficients": []}, r"unknown field\(s\) \['coefficients'\]; known fields: \['terms'\]"),
        ({**EXP_11, "extra": 1}, r"unknown field\(s\) \['extra'\]; known fields: \['terms'\]"),
    ], ids=["no-terms", "extra-key"])
    def test_malformed_exp_spec(self, spec, message):
        with pytest.raises(ConfigError, match=message):
            make_function(spec, self.triangle)


class TestLoadConfig:
    def test_from_dict(self):
        config = load_config(config_dict())
        assert config.n_values == (2, 4, 8)
        assert config.grid_resolution == 10

    def test_from_file_and_inline(self, tmp_path):
        payload = json.dumps(config_dict())
        path = tmp_path / "config.json"
        path.write_text(payload)
        from_file = load_config(str(path))
        from_inline = load_config(payload)
        assert from_file.n_values == from_inline.n_values

    def test_simplex_from_file(self, tmp_path):
        spath = tmp_path / "simplex.json"
        spath.write_text(json.dumps(TRIANGLE_SPEC))
        config = load_config(config_dict(simplex=str(spath)))
        assert config.simplex.dimension == 2

    def test_path_objects_are_sources(self, tmp_path):
        spath = tmp_path / "simplex.json"
        spath.write_text(json.dumps(TRIANGLE_SPEC))
        assert experiments.load_simplex(spath).dimension == 2
        cpath = tmp_path / "config.json"
        cpath.write_text(json.dumps(config_dict(simplex=str(spath))))
        assert load_config(cpath).simplex.dimension == 2

    def test_json_error_has_line_info(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "simplex": ]\n}')
        with pytest.raises(ConfigError, match="line 2"):
            load_config(str(path))
        path.write_text("[1]")  # the top level is checked by _fields, as every JSON object is
        with pytest.raises(ConfigError, match=r"config file .*: need a JSON object with \["
                                              r"'function', 'grid_resolution', 'n_values',"
                                              r" 'seed', 'simplex'\], got list"):
            load_config(str(path))

    @pytest.mark.parametrize("payload, message", [
        ("[0]".encode("utf-16"), "not UTF-8"),
        (b"[" * 100_000, "JSON nested too deeply"),
    ], ids=["utf-16", "deep"])
    def test_unreadable_json_file_is_a_config_error(self, tmp_path, payload, message):
        path = tmp_path / "config.json"
        path.write_bytes(payload)
        with pytest.raises(ConfigError, match=f"config file .*: {message}"):
            load_config(str(path))
        with pytest.raises(ConfigError, match=f"simplex file .*: {message}"):
            experiments.load_simplex(str(path))

    @pytest.mark.parametrize("load, source, name, reason", [
        (lambda path: load_config(config_dict(function=str(path))), "function", "nope.json",
         errno.ENOENT),
        (load_config, "config", "nope_config.json", errno.ENOENT),
        (experiments.load_simplex, "simplex", "nope.json", errno.ENOENT),
        (experiments.load_simplex, "simplex", "", errno.EISDIR),
    ], ids=["function-in-config", "config", "simplex", "simplex-directory"])
    def test_missing_or_unreadable_file_is_a_config_error(self, tmp_path, load, source, name,
                                                          reason):
        # A JSON file that cannot be opened is refused naming its source and the OS reason.
        path = tmp_path / name
        with pytest.raises(ConfigError, match=re.escape(
                f"{source} file {str(path)!r}: {os.strerror(reason)}")):
            load(path)

    def test_deep_inline_json_is_a_config_error(self):
        with pytest.raises(ConfigError, match="config: JSON nested too deeply"):
            load_config('{"simplex": ' + "[" * 100_000)

    def test_huge_integer_vertex_is_a_config_error(self):
        with pytest.raises(ConfigError, match="invalid simplex"):
            experiments.load_simplex('{"vertices": [[1%s], [1.0]]}' % ("0" * 400))

    @pytest.mark.parametrize("spec, message", [
        ({"vertices": [["0"], ["1"]]}, r"vertices\[0\]\[0\]: need a number, got str"),
        ({"vertices": [[False], [True]]}, r"vertices\[0\]\[0\]: need a number, got bool"),
        ({**INTERVAL_SPEC, "typo": 1}, r"unknown field\(s\) \['typo'\]; known fields: \['vertices'\]"),
        ({"points": []}, r"unknown field\(s\) \['points'\]"),
        ({"vertices": [[0, 0], [1, 0], [2, 0]]}, "affinely dependent"),
        ({"vertices": [[10**400], [1.0]]}, "must be doubles"),
    ], ids=["coordinate-str", "coordinate-bool", "extra-key", "no-vertices", "collinear", "huge"])
    def test_malformed_simplex_spec(self, spec, message):
        for source in (spec, json.dumps(spec)):
            with pytest.raises(ConfigError, match=f"invalid simplex: .*{message}"):
                experiments.load_simplex(source)

    def test_spec_of_wrong_type(self):
        with pytest.raises(ConfigError, match="config must be a mapping or path"):
            load_config(5)
        with pytest.raises(ConfigError, match="simplex spec must be a mapping or path"):
            experiments.load_simplex(5)

    def test_missing_field_named(self):
        with pytest.raises(ConfigError, match="'n_values'"):
            load_config({"simplex": TRIANGLE_SPEC, "function": "const1"})

    def test_unknown_field_named(self):
        with pytest.raises(ConfigError, match="orders"):
            load_config(config_dict(orders=[1, 2, 3]))

    @pytest.mark.parametrize(
        "bad", [[], [3, 3], [4, 2], [0, 1], ["2", "4"], [True, 2]]
    )
    def test_bad_n_values(self, bad):
        with pytest.raises(ConfigError, match="n_values"):
            load_config(config_dict(n_values=bad))

    def test_bad_resolution(self):
        with pytest.raises(ConfigError, match="grid_resolution"):
            load_config(config_dict(grid_resolution=1))
        with pytest.raises(ConfigError, match="grid_resolution"):
            load_config(config_dict(grid_resolution=True))

    @pytest.mark.parametrize("bad", [True, False, 1.5, "0"])
    def test_bad_seed(self, bad):
        with pytest.raises(ConfigError, match="seed"):
            load_config(config_dict(seed=bad))

    def test_default_resolution_by_dimension(self):
        config = load_config({k: v for k, v in config_dict().items() if k != "grid_resolution"})
        assert config.grid_resolution == 50

    def test_bad_evaluator(self):
        # The evaluator is a run option (converge --evaluator), not a config field.
        with pytest.raises(ConfigError, match=r"unknown field\(s\) \['evaluator'\]"):
            load_config(config_dict(evaluator="direct"))

    def test_bad_output(self):
        # The CSV target is a run option (--out), not a config field.
        with pytest.raises(ConfigError, match=r"unknown field\(s\) \['output'\]"):
            load_config(config_dict(output="rows.csv"))

    def test_degenerate_simplex_reported_as_config_error(self):
        spec = {"vertices": [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]}
        with pytest.raises(ConfigError, match="simplex"):
            load_config(config_dict(simplex=spec))

    def test_evaluator_names_come_from_bernstein(self):
        from bezsimplex import cli

        assert cli.EVALUATORS is bernstein.EVALUATORS
        assert experiments.DEFAULT_EVALUATOR is bernstein.DEFAULT_EVALUATOR
        assert experiments.ExperimentConfig.FIELDS == (
            "simplex", "function", "n_values", "grid_resolution", "seed")

    @pytest.mark.parametrize("field, bad", [
        ("n_values", ()), ("n_values", (4, 2)), ("n_values", (0, 1)), ("n_values", ("2",)),
        ("n_values", (True, 2)), ("n_values", 8), ("grid_resolution", 1),
        ("grid_resolution", True), ("grid_resolution", 2.5), ("seed", 1.5), ("seed", False),
    ])
    def test_fields_checked_at_construction(self, field, bad):
        config = load_config(config_dict())
        with pytest.raises(ConfigError, match=f"field '{field}'"):
            experiments.ExperimentConfig(**{**vars(config), field: bad})
        fields = {"n_values": (2,), "grid_resolution": 10, field: bad}
        with pytest.raises(ConfigError, match=f"field '{field}'"):
            experiments.ExperimentConfig(config.simplex, config.function, **fields)

    def test_numpy_integer_orders_are_plain_ints(self):
        # lattice.check_order takes numpy integers; the config stores plain ints,
        # so its metadata stays JSON-serialisable. A bool is still refused.
        config = load_config(config_dict())
        built = experiments.ExperimentConfig(config.simplex, config.function,
                                             [np.int64(2), np.int64(4)], np.int64(10))
        assert built.n_values == (2, 4) and built.grid_resolution == 10
        assert {type(n) for n in built.n_values} | {type(built.grid_resolution)} == {int}
        json.dumps(run_metadata(built))
        for field, bad in (("n_values", (True, 2)), ("grid_resolution", np.bool_(True))):
            with pytest.raises(ConfigError, match=f"field '{field}'"):
                experiments.ExperimentConfig(**{**vars(built), field: bad})

    def test_direct_construction_keeps_a_tuple(self):
        config = load_config(config_dict())
        built = experiments.ExperimentConfig(config.simplex, config.function, [2, 4], 10)
        assert built.n_values == (2, 4)
        assert [row.n for row in run_convergence(built)[0]] == [2, 4]


class TestRunConvergence:
    def test_constant_function_is_exact(self):
        rows, metadata = run_convergence(load_config(config_dict(n_values=[1, 5, 10, 20])))
        assert [row.n for row in rows] == [1, 5, 10, 20]
        for row, wall_ms in zip(rows, metadata["wall_ms"], strict=True):
            assert row.sup_error <= 1e-12
            assert row.predicted_rel_error is None
            assert row.evaluator == "decasteljau"
            assert wall_ms >= 0.0

    def test_affine_linear_precision(self):
        rows, _ = run_convergence(load_config(config_dict(function="affine:1.5,-2,0.25")))
        for row in rows:
            assert row.sup_error <= 1e-10

    @pytest.mark.parametrize("evaluator", bernstein.EVALUATORS)
    def test_affine_rows_lie_within_their_rounding_floors(self, evaluator):
        # B_n reproduces f = x + y, so every digit of a row's sup_error is rounding: the
        # kernel's, at most its rounding_floor, and f's own. On the standard triangle a point
        # is its weights (w_1, w_2), exactly, and f there fl(w_1 + w_2). So a control value is
        # off (k_1 + k_2) / n by 2 u (1 + u), and B_n of the net off B_n f by that times
        # 1 + 2 n u; B_n f at the computed weights is (w_1 + w_2)(sum_j w_j)^(n - 1), off
        # w_1 + w_2 by 2 n u (1 + u); f at the grid point is off w_1 + w_2 by u (1 + u).
        config = load_config(config_dict(function="affine:1,1,0", n_values=[10, 40, 160],
                                         grid_resolution=50))
        rows, metadata = run_convergence(config, evaluator)
        for row, floor in zip(rows, metadata["rounding_floor"], strict=True):
            f_rounding = (2 * row.n + 4) * UNIT_ROUNDOFF * (1.0 + 2.0 * row.n * UNIT_ROUNDOFF)
            assert row.sup_error <= floor + f_rounding

    def test_exponential_errors_decrease(self):
        config = load_config(config_dict(
            simplex=INTERVAL_SPEC, function=EXP_1,
            n_values=[10, 20, 40, 80, 160], grid_resolution=50,
        ))
        rows, _ = run_convergence(config)
        errors = [row.sup_error for row in rows]
        for before, after in zip(errors, errors[1:]):
            assert after <= 1.05 * before
        for row in rows:
            assert row.predicted_rel_error is not None
            assert row.sup_relative_error <= row.predicted_rel_error

    def test_abs_function_decays_slower_than_first_order(self):
        config = load_config(config_dict(
            simplex=INTERVAL_SPEC, function="abs",
            n_values=[10, 20, 40, 80, 160], grid_resolution=50,
        ))
        rows, _ = run_convergence(config)
        errors = [row.sup_error for row in rows]
        for before, after in zip(errors, errors[1:]):
            assert after <= 1.05 * before
        slope = np.polyfit(np.log([row.n for row in rows]), np.log(errors), 1)[0]
        assert -1.0 < slope < -0.2

    def test_direct_evaluator_recorded(self):
        rows, _ = run_convergence(load_config(config_dict()), evaluator="direct")
        assert all(row.evaluator == "direct" for row in rows)
        with pytest.raises(ConfigError, match="horner"):
            run_convergence(load_config(config_dict()), evaluator="horner")

    def test_budget_past_a_double_gives_no_prediction(self):
        # exp(700 x) on [0, 1]: its sup errors are finite, its error budget is
        # not, so the rows carry no prediction instead of refusing the run.
        # The scaling study prints no prediction and never forms one; only
        # the bound check, which prints it, refuses.
        config = load_config(config_dict(simplex=INTERVAL_SPEC, n_values=[4, 8],
                                         function={"terms": [{"c": 1.0, "a": [700.0]}]}))
        with pytest.raises(bezsimplex.ExpOverflowError, match="overflows a double"):
            run_bound_check(config)
        rows, _ = run_convergence(config)
        assert [row.predicted_rel_error for row in rows] == [None, None]
        assert all(math.isfinite(row.sup_error) and 0 < row.sup_relative_error < 1
                   for row in rows)
        for order in config.n_values:
            (row,), _ = run_scaling_study(
                exp_config(config.simplex, [700.0], [order], config.grid_resolution), [1.0])
            assert math.isfinite(row.sup_relative_error) and row.sup_relative_error > 1.0

    def test_deterministic_rows(self):
        config = load_config(config_dict(function=EXP_11))
        first, _ = run_convergence(config)
        second, _ = run_convergence(config)
        for a, b in zip(first, second):
            assert (a.n, a.sup_error, a.sup_relative_error, a.predicted_rel_error) == (
                b.n, b.sup_error, b.sup_relative_error, b.predicted_rel_error
            )

    @pytest.mark.parametrize("evaluator", bernstein.EVALUATORS)
    @pytest.mark.parametrize("dimension, resolution, blocks, orders", [
        (1, 400, 8, (3, 10, 25)), (2, 30, 3, (3, 10, 25)), (3, 12, 2, (3, 10, 25)),
        (2, 3, 2, (400,)),  # C(402, 2) = 80,601 interior rows: direct sums them in two blocks
    ], ids=["1-400-8", "2-30-3", "3-12-2", "2-3-2-wide-face"])
    def test_rows_match_the_whole_grid(self, rng, evaluator, dimension, resolution, blocks,
                                       orders):
        # Streamed in several blocks, with the kernels in small chunks too, each
        # row is the max over the blocks of one evaluation per block, bit for
        # bit. Neither evaluator's values depend on the chunk, so its rows are
        # the whole-grid sups. The two evaluators agree within the sum of their
        # rounding floors.
        s = random_simplex(rng, dimension)
        direction = rng.normal(size=dimension)
        weights = grid_weights(resolution, dimension)
        rows = -(-len(weights) // (blocks * lattice.GEMM_COLUMNS)) * lattice.GEMM_COLUMNS
        budget = mock.patch.object(lattice, "_ENTRY_BUDGET", rows * (2 * dimension + 4))
        for function in ("runge", {"terms": [{"c": 1.0, "a": direction.tolist()}]}):
            f = make_function(function, s)
            config = experiments.ExperimentConfig(s, f, orders, resolution)
            nets = [sample_control_net(s, n, f) for n in config.n_values]
            exact = f.evaluate(weights @ s.vertices)
            sup_f = float(np.abs(exact).max())
            whole = [float(np.abs(evaluate_at_weights(net, weights, evaluator) - exact).max())
                     for net in nets]
            for net in nets:
                bound = sum(bernstein.rounding_floor(net, e, 1.0 / resolution)
                            for e in bernstein.EVALUATORS)
                assert np.abs(evaluate_at_weights(net, weights, "direct")
                              - evaluate_at_weights(net, weights, "decasteljau")).max() <= bound
            with budget:
                parts = [slice(start, start + rows) for start in range(0, len(weights), rows)]
                assert [len(w) for w in lattice.grid_weight_blocks(
                    resolution, dimension, dimension + 3)] == [
                    len(weights[p]) for p in parts] and len(parts) == blocks
                per_block = [max(float(np.abs(evaluate_at_weights(net, weights[p], evaluator)
                                              - exact[p]).max()) for p in parts) for net in nets]
                result, _ = run_convergence(config, evaluator)
            assert [(row.sup_error, row.sup_relative_error) for row in result] == [
                (e, e / sup_f) for e in per_block]
            assert per_block == whole

    def test_points_have_their_whole_grid_bits(self, rng):
        # On an interval weights @ vertices is a gemv, whose last rows take
        # another path with other bits; f sees each grid point as one
        # whole-grid product makes it, whatever the blocks.
        s = random_simplex(rng, 1)
        seen = []
        f = make_function("runge", s)
        recording = experiments.TestFunction(
            "runge", lambda points: seen.append(points) or f.batch(points))
        config = experiments.ExperimentConfig(s, recording, (4,), 2000)
        with mock.patch.object(lattice, "_ENTRY_BUDGET", 6 * 37):
            run_convergence(config)
        blocks = [seen[0], *seen[2:]]  # seen[1] is the control net, sampled after f's first block
        assert len(blocks) > 50
        whole = grid_weights(2000, 1) @ s.vertices
        assert np.array_equal(np.vstack(blocks).view(np.int64), whole.view(np.int64))

    def test_errors_of_a_later_block_come_after_the_nets(self):
        # f is inf at the grid point 321/400 (spike) or past 0.8 (above). On one
        # block that point is named, as a whole-grid pass names it. Streamed,
        # f's later blocks come after every net is sampled on the first block,
        # so a control point where f fails, or an order past the de Casteljau
        # cap, raises first.
        interval = bezsimplex.Simplex([[0.0], [1.0]])
        spike = experiments.TestFunction(
            "spike", lambda points: np.where(points[:, 0] == 0.8025, np.inf, 1.0))
        above = experiments.TestFunction(
            "above", lambda points: np.where(points[:, 0] > 0.8, np.inf, 1.0))
        config = lambda f, n: experiments.ExperimentConfig(interval, f, (n,), 400)
        for f, n in ((above, 7), (spike, bernstein.DE_CASTELJAU_MAX_ORDER + 1)):
            with pytest.raises(FunctionEvaluationError, match=r"is inf at point \[0\.8025\]"):
                run_convergence(config(f, n))
        with mock.patch.object(lattice, "_ENTRY_BUDGET", 6 * 37):
            with pytest.raises(FunctionEvaluationError, match=r"at point \[0\.857142857142857"):
                run_convergence(config(above, 7))  # the control point 6/7
            with pytest.raises(bezsimplex.SizeOverflowError, match="use --evaluator direct"):
                run_convergence(config(spike, bernstein.DE_CASTELJAU_MAX_ORDER + 1))
            with pytest.raises(FunctionEvaluationError, match=r"is inf at point \[0\.8025\]"):
                run_convergence(config(spike, bernstein.DE_CASTELJAU_MAX_ORDER + 1), "direct")

    @pytest.mark.parametrize("evaluator", bernstein.EVALUATORS)
    def test_memory_is_bounded_by_the_entry_budget(self, evaluator):
        # A budget of 2**16 doubles and 250,001 grid points, 2 MB a column: one
        # pass over the whole grid would hold its weights, points, f and each
        # order's values at once, each of them past the bound. The grid spans at
        # least 20 blocks, as 2,000,001 points do at the default budget. The
        # collapsed kernel loops in Python over the order on each of its chunks,
        # of about budget / (4 n) points on an interval: at n = 80 that is some
        # 1,400 chunks and 3 s. Orders 4 and 8 stream the same blocks, which the
        # bound is about, in some 200 chunks each.
        orders = [40, 80] if evaluator == bernstein.DIRECT else [4, 8]
        config = load_config(config_dict(
            simplex=INTERVAL_SPEC, function={"terms": [{"c": 1.0, "a": [2.0]}]},
            n_values=orders, grid_resolution=250_000))
        with mock.patch.object(lattice, "_ENTRY_BUDGET", 1 << 16):
            assert sum(1 for _ in lattice.grid_weight_blocks(250_000, 1, 4)) >= 20
            peak = traced_peak(lambda: run_convergence(config, evaluator))
            assert peak <= 4 * 8 * lattice._ENTRY_BUDGET

    def test_metadata_notes_grid_semantics(self):
        config = load_config(config_dict())
        meta = run_metadata(config)
        assert meta["grid_resolution"] == 10
        assert "lower bound" in meta["note"]


class TestBoundCheck:
    def test_zero_direction_never_violates(self):
        config = load_config(config_dict(
            function={"terms": [{"c": 1.0, "a": [0.0, 0.0]}]},
            n_values=[10, 40, 100],
        ))
        rows, metadata = run_bound_check(config)
        assert not any(row.violation for row in rows)
        for row, floor in zip(rows, metadata["rounding_floor"], strict=True):
            # B_n reproduces exp(0.x) = 1: the observed error is the log ratio's rounding.
            assert (row.predicted_rel_error, row.ratio) == (0.0, 0.0)
            assert row.observed_rel_error <= min(floor, experiments.ZERO_OBSERVED_FLOOR)

    def test_interval_ratios_stay_below_margin(self):
        config = load_config(config_dict(
            simplex=INTERVAL_SPEC, function=EXP_1,
            n_values=[10, 20, 40, 80, 160], grid_resolution=50,
        ))
        rows, _ = run_bound_check(config)
        assert not any(row.violation for row in rows)
        checked = [row for row in rows if row.n >= 40]
        assert checked
        for row in checked:
            assert row.ratio < 1.25
        ratios = [row.ratio for row in checked]
        assert max(ratios) <= 2.0 * min(ratios)

    def test_requires_single_exponential(self):
        with pytest.raises(ConfigError, match="single"):
            run_bound_check(load_config(config_dict(function="const1")))

    def test_ratio_is_observed_over_predicted(self):
        # On the triangle with a = (1, 1) the first-order prediction holds
        # from n = 40 on; each ratio is the quotient of its row's two errors.
        config = load_config(config_dict(function=EXP_11, n_values=[40, 80, 160],
                                         grid_resolution=50))
        rows, _ = run_bound_check(config)
        assert [row.n for row in rows] == [40, 80, 160]
        for row in rows:
            assert row.observed_rel_error <= row.predicted_rel_error
            assert row.ratio == row.observed_rel_error / row.predicted_rel_error
            assert not row.violation

    def test_violation_needs_the_minimum_order_and_the_margin(self):
        # Here every ratio is near 0.039; with each prediction cut by 50 it is
        # near 2: a violation from BOUND_CHECK_MIN_ORDER on at margin 0.25,
        # none below it, and none at all once the margin is past the ratio.
        config = load_config(config_dict(function=EXP_11, n_values=[20, 40, 80],
                                         grid_resolution=20))
        shrunk = lambda *args: error_budget(*args) / 50.0
        with mock.patch.object(experiments, "error_budget", shrunk):
            rows, metadata = run_bound_check(config)
            assert all(1.5 < row.ratio < 2.5 for row in rows)
            assert [row.violation for row in rows] == [False, True, True]
            assert (metadata["margin"], metadata["passed"]) == (0.25, False)
            with mock.patch.object(experiments, "BOUND_CHECK_MARGIN", 10.0):
                rows, metadata = run_bound_check(config)
                assert not any(row.violation for row in rows)
                assert (metadata["margin"], metadata["passed"]) == (10.0, True)

    def test_rows_match_the_whole_grid_kernel(self, rng):
        # Streamed in several blocks, each row's observation is the one-batch
        # kernel's and its prediction is error_budget's, bit for bit.
        s = random_simplex(rng, 3)
        direction = rng.normal(size=3)
        config = experiments.ExperimentConfig(
            s, make_function({"terms": [{"c": 1.0, "a": direction.tolist()}]}, s),
            (5, 40, 160, 640), 9)
        with mock.patch.object(lattice, "_ENTRY_BUDGET", 200):
            assert len(list(lattice.grid_weight_blocks(9, 3))) > 1
            rows, _ = run_bound_check(config)
        grid = grid_weights(9, 3)
        for row in rows:
            assert row.observed_rel_error == relative_error_at_weights(s, direction, row.n, grid)
            assert row.predicted_rel_error == error_budget(s, direction, row.n)
            assert row.ratio == row.observed_rel_error / row.predicted_rel_error


class TestScalingStudy:
    def test_error_vanishes_with_simplex_size(self):
        s = standard_simplex(2)
        rows, _ = run_scaling_study(exp_config(s, [1.0, 1.0], [40], 12), [1e-3, 1.0])
        small = [r for r in rows if r.diameter_scale == 1e-3 and r.magnitude_scale == 1e-3]
        large = [r for r in rows if r.diameter_scale == 1.0 and r.magnitude_scale == 1.0]
        assert small[0].sup_relative_error < 1e-6 * large[0].sup_relative_error

    def test_doubling_bands(self):
        s = standard_simplex(2)
        rows, _ = run_scaling_study(exp_config(s, [1.0, 1.0], [80], 20), [0.5, 1.0, 2.0])
        by_key = {(r.diameter_scale, r.magnitude_scale): r.sup_relative_error for r in rows}
        for lo, hi in ((0.5, 1.0), (1.0, 2.0)):
            assert 1.5 <= by_key[(hi, 1.0)] / by_key[(lo, 1.0)] <= 4.5
            assert 1.5 <= by_key[(1.0, hi)] / by_key[(1.0, lo)] <= 4.5

    def test_rows_record_geometry(self):
        s = standard_simplex(2)
        rows, _ = run_scaling_study(exp_config(s, [2.0, 0.0], [10], 8), [1.0, 3.0])
        assert len(rows) == 4
        for row in rows:
            assert row.diameter == pytest.approx(row.diameter_scale * s.diameter, rel=1e-14)
            assert row.direction_norm == pytest.approx(2.0 * row.magnitude_scale, rel=1e-14)

    def test_huge_direction_norm_and_overflowing_scale(self):
        # |a| = 1e154 squares past the largest double, its norm does not;
        # a direction scaled past it is refused.
        s = bezsimplex.Simplex([[0.0], [1e-300]])
        rows, _ = run_scaling_study(exp_config(s, [1e154], [4], 2), [1.0, 2.0])
        assert [r.direction_norm for r in rows] == [1e154, 2e154] * 2
        with pytest.raises(SizeOverflowError, match="scaling by 1e\\+154 overflows"):
            run_scaling_study(exp_config(s, [1e300], [4], 2), [1.0, 1e154])

    def test_bad_scales(self):
        s = standard_simplex(2)
        with pytest.raises(ConfigError):
            run_scaling_study(exp_config(s, [1.0, 0.0], [10], 8), [0.0, 1.0])
        with pytest.raises(ConfigError):
            run_scaling_study(exp_config(s, [1.0, 0.0], [10], 8), [])
        for scales in ([math.nan, 1.0], [1.0, math.inf], [float("1e400")]):
            with pytest.raises(ConfigError, match="finite"):
                run_scaling_study(exp_config(s, [1.0, 0.0], [10], 8), scales)

    def test_rows_match_report_on_each_scaled_grid(self, rng):
        # The study shares one weight grid across scales; the reference
        # rebuilds the cartesian grid of every scaled simplex.
        s = random_simplex(rng, 3)
        direction = rng.normal(size=3)
        order, resolution, scales = 160, 9, [0.25, 1.0, 3.0]
        rows, _ = run_scaling_study(exp_config(s, direction, [order], resolution), scales)
        assert len(rows) == len(scales) ** 2
        for row in rows:
            scaled = s.scaled(row.diameter_scale)
            points = grid_weights(resolution, 3) @ scaled.vertices
            expected = relative_error_report(scaled, direction * row.magnitude_scale, order, points)
            assert abs(row.sup_relative_error - expected) <= 1e-12 * expected + order * 1e-14

    @pytest.mark.parametrize("scales, cases", [
        ([0.25, 0.5, 1.0, 2.0], 7),
        ([0.1, 0.2, 0.4], 5),
        ([1.0, 3.0], 4),
    ])
    def test_kernel_takes_each_distinct_vertex_dots_once(self, rng, scales, cases):
        # A ratio-2 ladder of k scales has 2k-1 distinct products d*m, and
        # doubling is exact, so those pairs share their vertex dots bit for
        # bit. Scaling by 3 rounds: on this simplex the dots of (1, 3) and
        # (3, 1) differ in the last bits, so the two pairs are two cases.
        # The grid streams in blocks and row chunks; every kernel call gets
        # the same table of the distinct cases.
        s = random_simplex(rng, 3)
        direction = rng.normal(size=3)
        order, resolution = 40, 6
        spy = mock.Mock(wraps=exponentials._log_powers)
        with mock.patch.object(lattice, "_ENTRY_BUDGET", 100), \
                mock.patch.object(exponentials, "_log_powers", spy):
            rows, _ = run_scaling_study(exp_config(s, direction, [order], resolution), scales)
        assert spy.call_count > 1
        distinct = {exponentials.vertex_dots(s.scaled(d), direction * m, order).tobytes()
                    for d in scales for m in scales}
        assert len(distinct) == cases
        for call in spy.call_args_list:
            table, orders, _ = call.args
            assert orders.tolist() == [[order]] * cases
            assert {row.tobytes() for row in table[cases:]} == distinct
        grid = grid_weights(resolution, 3)
        for row in rows:
            expected = relative_error_at_weights(
                s.scaled(row.diameter_scale), direction * row.magnitude_scale, order, grid
            )
            assert row.sup_relative_error == expected

    @pytest.mark.parametrize("study", ["bound-check", "scaling"])
    def test_each_block_and_its_product_fit_the_entry_budget(self, rng, study):
        # Each _log_powers call takes one whole grid block: its D+1 weight
        # columns and the (2C, rows) product of its C cases fill the budget,
        # in a multiple of GEMM_COLUMNS rows.
        s = random_simplex(rng, 5)
        direction = rng.normal(size=5)
        spy = mock.Mock(wraps=exponentials._log_powers)
        with mock.patch.object(exponentials, "_log_powers", spy):
            if study == "scaling":
                run_scaling_study(exp_config(s, direction, [640], 30), [0.5, 1.0, 2.0])
            else:
                run_bound_check(experiments.ExperimentConfig(
                    s, make_function({"terms": [{"c": 1.0, "a": direction.tolist()}]}, s),
                    (40, 80, 160), 30))
        table = spy.call_args_list[0].args[0]
        rows = [call.args[2].shape[0] for call in spy.call_args_list]
        per_row = 6 + table.shape[0]
        assert sum(rows) == bezsimplex.count_multi_indices(30, 5)
        step = lattice._ENTRY_BUDGET // per_row // lattice.GEMM_COLUMNS * lattice.GEMM_COLUMNS
        assert rows[:-1] == [step] * (len(rows) - 1)
        assert len(rows) > 1 and rows[-1] * per_row <= lattice._ENTRY_BUDGET

    @pytest.mark.parametrize("resolution", [30, 40])
    def test_memory_is_bounded_by_the_entry_budget(self, rng, resolution):
        # 324,632 and 1,221,759 grid rows (15.6 and 58.6 MB as one array);
        # the streamed pass holds one block and its kernel temporaries.
        s = random_simplex(rng, 5)
        config = exp_config(s, rng.normal(size=5), [640], resolution)
        peak = traced_peak(lambda: run_scaling_study(config, [1.0, 2.0]))
        assert peak <= 3 * 8 * lattice._ENTRY_BUDGET


class TestEmitCsv:
    def test_empty_rows_give_header_only(self):
        buf = io.StringIO()
        emit_csv([], buf, CONVERGENCE_COLUMNS)
        assert buf.getvalue() == ",".join(CONVERGENCE_COLUMNS) + "\n"

    def test_three_rows_four_lines(self):
        rows = [ConvergenceRow(n, 1.0 / n, 2.0 / n, None, "direct") for n in (1, 2, 3)]
        buf = io.StringIO()
        emit_csv(rows, buf, CONVERGENCE_COLUMNS)
        lines = buf.getvalue().splitlines()
        assert len(lines) == 4
        assert lines[1] == "1,1.0,2.0,,direct"

    def test_wall_ms_not_in_convergence_columns(self):
        # Wall time varies run to run; the CSV contract stays byte-stable, and the
        # metadata holds one wall_ms per order.
        assert "wall_ms" not in CONVERGENCE_COLUMNS
        assert CONVERGENCE_COLUMNS == ConvergenceRow._fields
        rows, metadata = run_convergence(load_config(config_dict()))
        assert len(metadata["wall_ms"]) == len(rows) == 3

    def test_round_trip_is_textually_stable(self, tmp_path):
        import csv as csv_module

        config = load_config(config_dict(function=EXP_11, n_values=[3, 6, 12]))
        rows, _ = run_convergence(config)
        path = tmp_path / "rows.csv"
        emit_csv(rows, str(path), CONVERGENCE_COLUMNS)
        text = path.read_text()
        parsed = list(csv_module.reader(io.StringIO(text)))
        rebuilt = io.StringIO()
        writer = csv_module.writer(rebuilt, lineterminator="\n")
        writer.writerows(parsed)
        assert rebuilt.getvalue() == text
        # And the floats parse back to the exact same doubles.
        for row, line in zip(rows, parsed[1:]):
            assert float(line[1]) == row.sup_error
            assert float(line[2]) == row.sup_relative_error

    def test_bool_and_numpy_formatting(self):
        buf = io.StringIO()
        emit_csv(
            [(np.int64(3), np.float64(0.5), True, None)],
            buf,
            ("a", "b", "c", "d"),
        )
        assert buf.getvalue().splitlines()[1] == "3,0.5,true,"

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(row=st.lists(CELLS, min_size=1, max_size=6))
    @example(row=[*NAMED_DOUBLES, *map(_as_numpy, NAMED_DOUBLES), 2**63, -2**63 - 1,
                  np.int64(-2**63), True, False, np.bool_(True), np.bool_(False), None])
    def test_cells_follow_one_rule(self, row):
        # csv.writer formats every number; a numpy scalar reads as the Python value
        # it holds and a bool as true/false, so either spelling gives the same text.
        buf = io.StringIO()
        emit_csv([row], buf, [f"c{i}" for i in range(len(row))])
        header, cells = csv.reader(io.StringIO(buf.getvalue()))
        assert cells == [expected_cell(v) for v in row]

    def test_lattice_rows_stream(self, tmp_path):
        # The triangle at n = 300 has 45,451 rows. Built as one list, its rows
        # of numpy scalars take about nine times the index array's 1.09 MB;
        # streamed, the writer holds one row beside csv.writer's own 128 KiB
        # record buffer, under half of the smaller array it reads from.
        indices = enumerate_multi_indices(300, 2)
        points = control_points(standard_simplex(2), 300)
        assert len(indices) > 45_000
        with open(os.devnull, "w", newline="") as sink:
            peak = traced_peak(emit_lattice_csv, [(indices, points)], sink, 2, ["x_1", "x_2"])
        assert peak < min(indices.nbytes, points.nbytes) / 2
        # A path is opened, written and closed: the same bytes as a borrowed stream.
        buffer, path = io.StringIO(), tmp_path / "lattice.csv"
        emit_lattice_csv([(indices[:50], points[:50])], buffer, 2, ["x_1", "x_2"])
        emit_lattice_csv([(indices[:50], points[:50])], path, 2, ["x_1", "x_2"])
        assert path.read_text(encoding="utf-8") == buffer.getvalue()
        assert buffer.getvalue().count("\n") == 51

    def test_scaling_and_bound_columns_cover_fields(self):
        assert BOUND_CHECK_COLUMNS == ("n", "observed_rel_error", "predicted_rel_error", "ratio", "violation")
        assert SCALING_COLUMNS[-1] == "sup_relative_error"
