import dataclasses
import io
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from bezsimplex import (
    BoundCheckResult,
    BoundCheckRow,
    ConfigError,
    ConvergenceRow,
    InsufficientDataError,
    ZeroError,
    emit_csv,
    fit_power_law,
    fit_rate,
    grid_weights,
    load_config,
    make_function,
    relative_error_at_weights,
    relative_error_report,
    run_bound_check,
    run_convergence,
    run_metadata,
    run_scaling_study,
    standard_simplex,
)
from bezsimplex import bernstein, experiments, exponentials, lattice
from bezsimplex.experiments import (
    BOUND_CHECK_COLUMNS,
    CONVERGENCE_COLUMNS,
    SCALING_COLUMNS,
)

from conftest import random_simplex

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


class TestMakeFunction:
    def setup_method(self):
        self.triangle = standard_simplex(2)

    def test_const1(self):
        fn = make_function("const1", self.triangle)
        assert fn([0.4, 0.1]) == 1.0
        np.testing.assert_array_equal(fn.evaluate([[0, 0], [0.5, 0.5]]), [1.0, 1.0])
        assert fn.exp_terms is None

    def test_affine(self):
        fn = make_function("affine:2,-1,0.5", self.triangle)
        assert fn([0.25, 0.5]) == pytest.approx(2 * 0.25 - 0.5 + 0.5)
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
        assert fn(centroid) == pytest.approx(0.0, abs=1e-15)
        u = np.ones(2) / math.sqrt(2)
        x = np.array([0.6, 0.1])
        assert fn(x) == pytest.approx(abs((x - centroid) @ u), abs=1e-15)

    def test_runge(self):
        fn = make_function("runge", self.triangle)
        centroid = self.triangle.centroid
        assert fn(centroid) == pytest.approx(1.0)
        x = centroid + [0.2, 0.0]
        assert fn(x) == pytest.approx(1.0 / (1.0 + 25 * 0.04))

    def test_exp_polynomial_dict(self):
        fn = make_function(EXP_11, self.triangle)
        assert fn.exp_terms is not None
        np.testing.assert_array_equal(fn.single_exponential(), [1.0, 1.0])
        assert fn([0.5, 0.5]) == pytest.approx(math.e, rel=1e-14)
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

    def test_unknown_name(self):
        with pytest.raises(ConfigError, match="unknown function"):
            make_function("sine", self.triangle)
        with pytest.raises(ConfigError, match="string or mapping"):
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
    ])
    def test_malformed_exp_term(self, term, message):
        with pytest.raises(ConfigError, match=message):
            make_function({"terms": [term]}, self.triangle)
        with pytest.raises(ConfigError, match=message):
            make_function(json.dumps({"terms": [term]}), self.triangle)

    def test_terms_not_a_list(self):
        with pytest.raises(ConfigError, match="malformed"):
            make_function({"terms": 3}, self.triangle)


class TestLoadConfig:
    def test_from_dict(self):
        config = load_config(config_dict())
        assert config.n_values == (2, 4, 8)
        assert config.grid_resolution == 10
        assert config.evaluator == "decasteljau"

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
        path.write_text("[1]")
        with pytest.raises(ConfigError, match="top level must be a JSON object"):
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

    def test_deep_inline_json_is_a_config_error(self):
        with pytest.raises(ConfigError, match="config: JSON nested too deeply"):
            load_config('{"simplex": ' + "[" * 100_000)

    def test_huge_integer_vertex_is_a_config_error(self):
        with pytest.raises(ConfigError, match="invalid simplex"):
            experiments.load_simplex('{"vertices": [[1%s], [1.0]]}' % ("0" * 400))

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
        with pytest.raises(ConfigError, match="evaluator"):
            load_config(config_dict(evaluator="horner"))

    def test_bad_output(self):
        with pytest.raises(ConfigError, match="output"):
            load_config(config_dict(output=5))

    def test_degenerate_simplex_reported_as_config_error(self):
        spec = {"vertices": [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]}
        with pytest.raises(ConfigError, match="simplex"):
            load_config(config_dict(simplex=spec))

    def test_evaluator_override(self):
        config = dataclasses.replace(load_config(config_dict()), evaluator="direct")
        assert config.evaluator == "direct"
        with pytest.raises(ConfigError):
            dataclasses.replace(config, evaluator="nope")

    def test_evaluator_names_come_from_bernstein(self):
        assert experiments.EVALUATORS is bernstein.EVALUATORS

    def test_unknown_evaluator_fails_at_construction(self):
        config = load_config(config_dict())
        with pytest.raises(ConfigError, match="horner"):
            dataclasses.replace(config, evaluator="horner")
        with pytest.raises(ConfigError, match="horner"):
            experiments.ExperimentConfig(config.simplex, config.function, (2,), 10,
                                         evaluator="horner")

    @pytest.mark.parametrize("field, bad", [
        ("n_values", ()), ("n_values", (4, 2)), ("n_values", (0, 1)), ("n_values", ("2",)),
        ("n_values", (True, 2)), ("n_values", 8), ("grid_resolution", 1),
        ("grid_resolution", True), ("grid_resolution", 2.5), ("seed", 1.5), ("seed", False),
        ("output", 5),
    ])
    def test_fields_checked_at_construction(self, field, bad):
        config = load_config(config_dict())
        with pytest.raises(ConfigError, match=f"field '{field}'"):
            dataclasses.replace(config, **{field: bad})
        fields = {"n_values": (2,), "grid_resolution": 10, field: bad}
        with pytest.raises(ConfigError, match=f"field '{field}'"):
            experiments.ExperimentConfig(config.simplex, config.function, **fields)

    def test_direct_construction_keeps_a_tuple(self):
        config = load_config(config_dict())
        built = experiments.ExperimentConfig(config.simplex, config.function, [2, 4], 10)
        assert built.n_values == (2, 4)
        assert [row.n for row in run_convergence(built)] == [2, 4]


class TestRunConvergence:
    def test_constant_function_is_exact(self):
        rows = run_convergence(load_config(config_dict(n_values=[1, 5, 10, 20])))
        assert [row.n for row in rows] == [1, 5, 10, 20]
        for row in rows:
            assert row.sup_error <= 1e-12
            assert row.predicted_rel_error is None
            assert row.evaluator == "decasteljau"
            assert row.wall_ms >= 0.0

    def test_affine_linear_precision(self):
        rows = run_convergence(load_config(config_dict(function="affine:1.5,-2,0.25")))
        for row in rows:
            assert row.sup_error <= 1e-10

    def test_exponential_errors_decrease(self):
        config = load_config(config_dict(
            simplex=INTERVAL_SPEC, function=EXP_1,
            n_values=[10, 20, 40, 80, 160], grid_resolution=50,
        ))
        rows = run_convergence(config)
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
        rows = run_convergence(config)
        errors = [row.sup_error for row in rows]
        for before, after in zip(errors, errors[1:]):
            assert after <= 1.05 * before
        fit = fit_rate(rows)
        assert -1.0 < fit.slope < -0.2

    def test_direct_evaluator_recorded(self):
        config = load_config(config_dict(evaluator="direct"))
        rows = run_convergence(config)
        assert all(row.evaluator == "direct" for row in rows)

    def test_deterministic_rows(self):
        config = load_config(config_dict(function=EXP_11))
        first = run_convergence(config)
        second = run_convergence(config)
        for a, b in zip(first, second):
            assert (a.n, a.sup_error, a.sup_relative_error, a.predicted_rel_error) == (
                b.n, b.sup_error, b.sup_relative_error, b.predicted_rel_error
            )

    def test_metadata_notes_grid_semantics(self):
        config = load_config(config_dict())
        meta = run_metadata(config)
        assert meta["grid_resolution"] == 10
        assert "lower bound" in meta["note"]


class TestRateFit:
    def test_exact_first_order_power_law(self):
        ns = np.array([10, 20, 40, 80, 160])
        fit = fit_power_law(ns, 3.7 / ns)
        assert fit.slope == pytest.approx(-1.0, abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_exact_second_order_power_law(self):
        ns = np.array([5, 10, 20, 40])
        fit = fit_power_law(ns, 0.8 / ns**2)
        assert fit.slope == pytest.approx(-2.0, abs=1e-9)

    def test_exponential_sweep_slope(self):
        config = load_config(config_dict(
            simplex=INTERVAL_SPEC, function=EXP_1,
            n_values=[10, 20, 40, 80, 160], grid_resolution=50,
        ))
        fit = fit_rate(run_convergence(config))
        assert -1.2 <= fit.slope <= -0.8

    def test_too_few_rows(self):
        rows = [ConvergenceRow(n, 1.0 / n, 1.0 / n, None, "direct", 0.0) for n in (2, 4)]
        with pytest.raises(InsufficientDataError):
            fit_rate(rows)
        rows.append(ConvergenceRow(8, 1e-16, 1e-16, None, "direct", 0.0))
        with pytest.raises(InsufficientDataError, match="only 2 rows above the noise floor"):
            fit_rate(rows)
        with pytest.raises(InsufficientDataError, match="at least 3"):
            fit_power_law([2, 4], [0.5, 0.25])

    def test_exact_reproduction_raises_zero_error(self):
        rows = [ConvergenceRow(n, 1e-16, 1e-16, None, "direct", 0.0) for n in (2, 4, 8)]
        with pytest.raises(ZeroError):
            fit_rate(rows)

    def test_noise_floor_rows_dropped(self):
        rows = [ConvergenceRow(n, 1.0 / n, 1.0 / n, None, "direct", 0.0)
                for n in (2, 4, 8, 16)]
        rows.append(ConvergenceRow(32, 5e-14, 5e-14, None, "direct", 0.0))
        fit = fit_rate(rows)
        assert fit.slope == pytest.approx(-1.0, abs=1e-9)

    def test_nonpositive_errors_rejected(self):
        with pytest.raises(InsufficientDataError):
            fit_power_law([1, 2, 3], [0.1, 0.0, 0.01])

    @pytest.mark.parametrize("orders, errors", [
        ([1, 2, 3], [1.0, np.nan, 0.1]),
        ([1, 2, 3], [1.0, np.inf, 0.1]),
        ([1, np.nan, 3], [1.0, 0.5, 0.1]),
        ([1, 2, np.inf], [1.0, 0.5, 0.1]),
        ([0, 2, 3], [1.0, 0.5, 0.1]),
    ], ids=["nan-error", "inf-error", "nan-order", "inf-order", "zero-order"])
    def test_non_finite_pairs_rejected(self, orders, errors):
        with pytest.raises(InsufficientDataError, match="finite"):
            fit_power_law(orders, errors)


class TestBoundCheck:
    def test_zero_direction_never_violates(self):
        config = load_config(config_dict(
            function={"terms": [{"c": 1.0, "a": [0.0, 0.0]}]},
            n_values=[10, 40, 100],
        ))
        result = run_bound_check(config)
        assert result.passed
        assert all(row.ratio == 0.0 for row in result.rows)

    def test_interval_ratios_stay_below_margin(self):
        config = load_config(config_dict(
            simplex=INTERVAL_SPEC, function=EXP_1,
            n_values=[10, 20, 40, 80, 160], grid_resolution=50,
        ))
        result = run_bound_check(config, margin=0.25)
        assert result.passed
        checked = [row for row in result.rows if row.n >= 40]
        assert checked
        for row in checked:
            assert row.ratio < 1.25
        ratios = [row.ratio for row in checked]
        assert max(ratios) <= 2.0 * min(ratios)

    def test_requires_single_exponential(self):
        with pytest.raises(ConfigError, match="single"):
            run_bound_check(load_config(config_dict(function="const1")))

    def test_negative_margin_rejected(self):
        config = load_config(config_dict(function=EXP_11))
        for margin in (-0.1, math.nan, math.inf):
            with pytest.raises(ConfigError, match="margin"):
                run_bound_check(config, margin=margin)

    def test_rows_match_the_whole_grid_kernel(self, rng):
        # Streamed in several blocks, each row is the one-batch report bit for bit.
        s = random_simplex(rng, 3)
        direction = rng.normal(size=3)
        config = experiments.ExperimentConfig(
            s, make_function({"terms": [{"c": 1.0, "a": direction.tolist()}]}, s),
            (5, 40, 160, 640), 9)
        with mock.patch.object(lattice, "_ENTRY_BUDGET", 200):
            assert len(list(lattice.grid_weight_blocks(9, 3))) > 1
            result = run_bound_check(config)
        grid = grid_weights(9, 3)
        for row in result.rows:
            expected = relative_error_at_weights(s, direction, row.n, grid)
            assert (row.observed_rel_error, row.predicted_rel_error, row.ratio) == (
                expected.max_rel_error, expected.predicted_rel_error, expected.ratio)

    def test_violation_flag_controls_passed(self):
        rows = (
            BoundCheckRow(40, 1.0, 0.5, 2.0, True),
            BoundCheckRow(80, 0.1, 0.5, 0.2, False),
        )
        assert not BoundCheckResult(rows=rows, margin=0.25).passed


class TestScalingStudy:
    def test_error_vanishes_with_simplex_size(self):
        s = standard_simplex(2)
        rows = run_scaling_study(s, [1.0, 1.0], 40, 12, [1e-3, 1.0])
        small = [r for r in rows if r.diameter_scale == 1e-3 and r.magnitude_scale == 1e-3]
        large = [r for r in rows if r.diameter_scale == 1.0 and r.magnitude_scale == 1.0]
        assert small[0].sup_relative_error < 1e-6 * large[0].sup_relative_error

    def test_doubling_bands(self):
        s = standard_simplex(2)
        rows = run_scaling_study(s, [1.0, 1.0], 80, 20, [0.5, 1.0, 2.0])
        by_key = {(r.diameter_scale, r.magnitude_scale): r.sup_relative_error for r in rows}
        for lo, hi in ((0.5, 1.0), (1.0, 2.0)):
            assert 1.5 <= by_key[(hi, 1.0)] / by_key[(lo, 1.0)] <= 4.5
            assert 1.5 <= by_key[(1.0, hi)] / by_key[(1.0, lo)] <= 4.5

    def test_rows_record_geometry(self):
        s = standard_simplex(2)
        rows = run_scaling_study(s, [2.0, 0.0], 10, 8, [1.0, 3.0])
        assert len(rows) == 4
        for row in rows:
            assert row.diameter == pytest.approx(row.diameter_scale * s.diameter, rel=1e-14)
            assert row.direction_norm == pytest.approx(2.0 * row.magnitude_scale, rel=1e-14)

    def test_bad_scales(self):
        s = standard_simplex(2)
        with pytest.raises(ConfigError):
            run_scaling_study(s, [1.0, 0.0], 10, 8, [0.0, 1.0])
        with pytest.raises(ConfigError):
            run_scaling_study(s, [1.0, 0.0], 10, 8, [])
        for scales in ([math.nan, 1.0], [1.0, math.inf], [float("1e400")]):
            with pytest.raises(ConfigError, match="finite"):
                run_scaling_study(s, [1.0, 0.0], 10, 8, scales)

    def test_rows_match_report_on_each_scaled_grid(self, rng):
        # The study shares one weight grid across scales; the reference
        # rebuilds the cartesian grid of every scaled simplex.
        s = random_simplex(rng, 3)
        direction = rng.normal(size=3)
        order, resolution, scales = 160, 9, [0.25, 1.0, 3.0]
        rows = run_scaling_study(s, direction, order, resolution, scales)
        assert len(rows) == len(scales) ** 2
        for row in rows:
            scaled = s.scaled(row.diameter_scale)
            points = grid_weights(resolution, 3) @ scaled.vertices
            expected = relative_error_report(
                scaled, direction * row.magnitude_scale, order, points
            ).max_rel_error
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
        spy = mock.Mock(wraps=exponentials.log_ratios)
        with mock.patch.object(lattice, "_ENTRY_BUDGET", 100), \
                mock.patch.object(exponentials, "log_ratios", spy):
            rows = run_scaling_study(s, direction, order, resolution, scales)
        assert spy.call_count > 1
        distinct = {exponentials._vertex_dots(s.scaled(d), direction * m, order).tobytes()
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
            assert row.sup_relative_error == expected.max_rel_error

    @pytest.mark.parametrize("resolution", [30, 40])
    def test_memory_is_bounded_by_the_entry_budget(self, rng, resolution):
        # 324,632 and 1,221,759 grid rows (15.6 and 58.6 MB as one array);
        # the streamed pass holds one block and its kernel temporaries.
        s = random_simplex(rng, 5)
        direction = rng.normal(size=5)
        tracemalloc.start()
        try:
            run_scaling_study(s, direction, 640, resolution, [1.0, 2.0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 8 * lattice._ENTRY_BUDGET


class TestEmitCsv:
    def test_empty_rows_give_header_only(self):
        buf = io.StringIO()
        emit_csv([], buf, CONVERGENCE_COLUMNS)
        assert buf.getvalue() == ",".join(CONVERGENCE_COLUMNS) + "\n"

    def test_three_rows_four_lines(self):
        rows = [ConvergenceRow(n, 1.0 / n, 2.0 / n, None, "direct", 1.25) for n in (1, 2, 3)]
        buf = io.StringIO()
        emit_csv(rows, buf, CONVERGENCE_COLUMNS)
        lines = buf.getvalue().splitlines()
        assert len(lines) == 4
        assert lines[1] == "1,1.0,2.0,,direct"

    def test_wall_ms_not_in_convergence_columns(self):
        # Wall time varies run to run; the CSV contract stays byte-stable.
        assert "wall_ms" not in CONVERGENCE_COLUMNS
        assert set(ConvergenceRow._fields) - set(CONVERGENCE_COLUMNS) == {"wall_ms"}

    def test_round_trip_is_textually_stable(self, tmp_path):
        import csv as csv_module

        config = load_config(config_dict(function=EXP_11, n_values=[3, 6, 12]))
        rows = run_convergence(config)
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

    def test_scaling_and_bound_columns_cover_fields(self):
        assert BOUND_CHECK_COLUMNS == ("n", "observed_rel_error", "predicted_rel_error", "ratio", "violation")
        assert SCALING_COLUMNS[-1] == "sup_relative_error"
