import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bezsimplex
from bezsimplex import basis_vector, closed_form_at_weights, count_multi_indices, standard_simplex
from bezsimplex.bernstein import DE_CASTELJAU_MAX_ORDER
from bezsimplex.cli import main
from bezsimplex.experiments import BoundCheckRow

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
SOURCE = str(Path(bezsimplex.__file__).resolve().parents[1])  # the src/ that tests import
TRIANGLE = {"vertices": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]}
INTERVAL = {"vertices": [[0.0], [1.0]]}


def write_config(tmp_path, name="config.json", **overrides):
    payload = {
        "simplex": TRIANGLE,
        "function": {"terms": [{"c": 1.0, "a": [1.0, 1.0]}]},
        "n_values": [5, 10, 20],
        "grid_resolution": 12,
        "seed": 0,
    }
    payload.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_rows(path):
    with open(path) as handle:
        return list(csv.DictReader(handle))


class TestConverge:
    def test_writes_csv_and_metadata(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "rows.csv"
        assert main(["converge", "--config", config, "--out", str(out)]) == 0
        rows = read_rows(out)
        assert [row["n"] for row in rows] == ["5", "10", "20"]
        assert all(row["evaluator"] == "decasteljau" for row in rows)
        assert float(rows[0]["sup_error"]) > float(rows[-1]["sup_error"])
        meta = json.loads(capsys.readouterr().err)
        assert meta["grid_resolution"] == 12
        assert meta["evaluator"] == "decasteljau"
        assert len(meta["wall_ms"]) == 3

    def test_stdout_when_no_out(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["converge", "--config", config]) == 0
        out = capsys.readouterr().out
        assert out.startswith("n,sup_error,sup_relative_error,predicted_rel_error,evaluator\n")
        assert len(out.splitlines()) == 4

    def test_evaluator_override(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "rows.csv"
        assert main(["converge", "--config", config, "--evaluator", "direct",
                     "--out", str(out)]) == 0
        assert all(row["evaluator"] == "direct" for row in read_rows(out))

    def test_inline_config(self, tmp_path, capsys):
        inline = json.dumps({
            "simplex": INTERVAL,
            "function": "const1",
            "n_values": [1, 2],
            "grid_resolution": 5,
        })
        assert main(["converge", "--config", inline]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3

    def test_byte_identical_reruns(self, tmp_path):
        config = write_config(tmp_path)
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert main(["converge", "--config", config, "--out", str(first)]) == 0
        assert main(["converge", "--config", config, "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_evaluator_in_metadata_of_converge_only(self, tmp_path, capsys):
        # Only converge takes --evaluator; the exp studies never run an evaluator.
        config = write_config(tmp_path)
        assert main(["converge", "--config", config, "--evaluator", "direct"]) == 0
        assert json.loads(capsys.readouterr().err)["evaluator"] == "direct"
        for argv in (["bound-check"], ["scaling", "--scales", "1,2"]):
            assert main([*argv, "--config", config]) == 0
            assert "evaluator" not in json.loads(capsys.readouterr().err)

    def test_budget_past_a_double_leaves_the_prediction_empty(self, tmp_path, capsys):
        # exp(700 x) on [0, 1]: finite sup errors, an error budget past a double.
        # scaling prints no prediction, so it runs; bound-check prints one, so it refuses.
        config = write_config(tmp_path, simplex=INTERVAL, n_values=[4, 8],
                              function={"terms": [{"c": 1.0, "a": [700.0]}]})
        assert main(["converge", "--config", config]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [row["predicted_rel_error"] for row in rows] == ["", ""]
        assert main(["scaling", "--config", config, "--scales", "1"]) == 0
        (row,) = csv.DictReader(io.StringIO(capsys.readouterr().out))
        assert row["n"] == "8" and np.isfinite(float(row["sup_relative_error"]))
        assert main(["bound-check", "--config", config]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and "overflows a double" in err

    def test_order_past_the_decasteljau_limit(self, tmp_path, capsys):
        limit = DE_CASTELJAU_MAX_ORDER
        for order, code in ((limit, 0), (limit + 1, 1)):
            config = write_config(tmp_path, simplex=INTERVAL, function="runge",
                                  n_values=[order], grid_resolution=4)
            assert main(["converge", "--config", config]) == code
            err = capsys.readouterr().err
            if code:
                assert err.count("\n") == 1 and err.startswith("error: ")
                assert "--evaluator direct" in err
        assert main(["converge", "--config", config, "--evaluator", "direct"]) == 0

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["converge", "--config", str(tmp_path / "nope.json")]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("term, missing", [({"a": [1.0, 1.0]}, "'c'"), ({"c": 1.0}, "'a'")])
    def test_exp_term_missing_key(self, tmp_path, capsys, term, missing):
        config = write_config(tmp_path, function={"terms": [term]})
        assert main(["converge", "--config", config]) == 1
        assert f"missing {missing}" in capsys.readouterr().err

    def test_overflowing_function_values(self, tmp_path, capsys):
        # Each term is finite; their sum is not, at every control point.
        terms = [{"c": 1e308, "a": [0, 0]}, {"c": 1e308, "a": [0, 0]}]
        config = write_config(tmp_path, function={"terms": terms})
        assert main(["converge", "--config", config]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "finite" in err

    def test_bad_config_field(self, tmp_path, capsys):
        config = write_config(tmp_path, n_values=[4, 2])
        assert main(["converge", "--config", config]) == 1
        assert "n_values" in capsys.readouterr().err


class TestBoundCheck:
    def test_passes_for_interval_exponential(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            simplex=INTERVAL,
            function={"terms": [{"c": 1.0, "a": [1.0]}]},
            n_values=[10, 40, 80],
            grid_resolution=40,
        )
        out = tmp_path / "bound.csv"
        assert main(["bound-check", "--config", config, "--out", str(out)]) == 0
        rows = read_rows(out)
        assert [row["violation"] for row in rows] == ["false", "false", "false"]
        meta = json.loads(capsys.readouterr().err)
        assert meta["passed"] is True
        assert meta["margin"] == 0.25

    def test_violation_exit_code(self, tmp_path, capsys, monkeypatch):
        # One violating row among passing ones fails the check; the margin is echoed.
        rows = [BoundCheckRow(40, 1.0, 0.1, 10.0, True), BoundCheckRow(80, 0.1, 0.5, 0.2, False)]
        monkeypatch.setattr("bezsimplex.cli.run_bound_check", lambda config: rows)
        config = write_config(tmp_path)
        assert main(["bound-check", "--config", config]) == 2
        meta = json.loads(capsys.readouterr().err)
        assert meta["passed"] is False and meta["margin"] == 0.25

    def test_rejects_non_exponential(self, tmp_path, capsys):
        config = write_config(tmp_path, function="runge")
        assert main(["bound-check", "--config", config]) == 1
        assert "single" in capsys.readouterr().err


class TestScaling:
    def test_table_over_scales(self, tmp_path, capsys):
        config = write_config(tmp_path, n_values=[40], grid_resolution=15)
        out = tmp_path / "scaling.csv"
        assert main(["scaling", "--config", config, "--scales", "0.5,1,2",
                     "--out", str(out)]) == 0
        rows = read_rows(out)
        assert len(rows) == 9
        assert {row["n"] for row in rows} == {"40"}
        meta = json.loads(capsys.readouterr().err)
        assert meta["scales"] == [0.5, 1.0, 2.0]

    def test_bad_scales(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["scaling", "--config", config, "--scales", "1,zwei"]) == 1
        assert "scales" in capsys.readouterr().err

    @pytest.mark.parametrize("scales", ["nan,1", "1,inf", "1e400"])
    def test_non_finite_scales(self, tmp_path, capsys, scales):
        config = write_config(tmp_path)
        assert main(["scaling", "--config", config, "--scales", scales]) == 1
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("scales", ["1e200,1", "1,1e200"])
    def test_huge_scales_overflow_the_exponent(self, tmp_path, capsys, scales):
        config = write_config(tmp_path)
        assert main(["scaling", "--config", config, "--scales", scales]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: a.x reaches") and "affinely" not in err

    def test_overflowing_relative_error(self, tmp_path, capsys):
        # The (1e3, 1e3) row's relative error is about e^950000.
        config = write_config(tmp_path, function={"terms": [{"c": 1.0, "a": [-1.0, -1.0]}]},
                              n_values=[10], grid_resolution=20)
        assert main(["scaling", "--config", config, "--scales", "1e3,1"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: relative error reaches exp(")
        assert captured.out == ""

    def test_requires_exponential(self, tmp_path, capsys):
        config = write_config(tmp_path, function="abs")
        assert main(["scaling", "--config", config, "--scales", "1,2"]) == 1
        assert "single-exponential" in capsys.readouterr().err

    @pytest.mark.parametrize("scales", ["1,,2", "1,2,", ""])
    def test_empty_scale_entries_are_a_config_error(self, tmp_path, capsys, scales):
        # As with --point, an empty entry is refused, not dropped: "1,,2" never runs [1, 2].
        config = write_config(tmp_path)
        assert main(["scaling", "--config", config, "--scales", scales]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --scales: ") and captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize("scales", ["-1,2", "-0.5"])
    def test_negative_scales_are_a_config_error(self, tmp_path, capsys, scales):
        config = write_config(tmp_path)
        assert main(["scaling", "--config", config, "--scales", scales]) == 1
        assert "error: scale factors must be finite and positive" in capsys.readouterr().err


# A vertex at -1e300 makes a vertex dot -inf; both exp studies once wrote NaN rows.
MINUS_INF_DOT = {"simplex": {"vertices": [[0.0], [-1e300]]}, "n_values": [40, 80]}


@pytest.mark.parametrize("argv", [
    ["bound-check", "--config",
     json.dumps({**MINUS_INF_DOT, "function": {"terms": [{"c": 1.0, "a": [1e10]}]}})],
    ["scaling", "--config",
     json.dumps({**MINUS_INF_DOT, "function": {"terms": [{"c": 1.0, "a": [1e154]}]}}),
     "--scales", "0.5,1,2"],
], ids=["bound-check", "scaling"])
def test_a_vertex_dot_of_minus_inf_is_a_typed_error(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: a.x reaches -inf at vertex 1; an exponent must be finite" \
        " and at most 700\n"


def test_direction_norm_of_a_huge_direction(capsys):
    # |a| = 1e154 squares past the largest double; the norm itself does not.
    config = {"simplex": {"vertices": [[0.0], [1e-300]]}, "n_values": [4],
              "function": {"terms": [{"c": 1.0, "a": [1e154]}]}}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["scaling", "--config", json.dumps(config), "--scales", "1,2"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [row["direction_norm"] for row in rows] == ["1e+154", "2e+154"] * 2


# Configs whose f, or the centroid it is built on, overflows on the way.
OVERFLOWING_F = {
    "runge-1e300": ([[0.0], [1e300]], "runge"),
    "runge-tetrahedron-1e154": ((1e154 * np.vstack([np.zeros(3), np.eye(3)])).tolist(), "runge"),
    "affine-1e308": ([[0.0], [1.0]], "affine:1e308,1e308"),
    "runge-centroid": ([[1.7e308], [1.6e308]], "runge"),
    "abs-centroid": ([[1.7e308], [1.6e308]], "abs"),
}


@pytest.mark.parametrize("vertices, function", OVERFLOWING_F.values(), ids=OVERFLOWING_F.keys())
def test_overflow_in_f_is_ieee_or_a_typed_error(capsys, vertices, function):
    config = {"simplex": {"vertices": vertices}, "function": function, "n_values": [4, 8]}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["converge", "--config", json.dumps(config)])
    captured = capsys.readouterr()
    if function.startswith("affine"):  # f is inf at x = 0.8 and beyond
        assert code == 1
        assert captured.err == ("error: function affine:1e308,1e308 is inf at point [0.8];"
                                " values must be finite\n")
    else:
        assert code == 0
        cells = [cell for row in captured.out.splitlines()[1:] for cell in row.split(",")]
        assert not any(cell.lstrip("-") in ("nan", "inf") for cell in cells)


# Hostile-config property: a valid config with one field replaced by a
# hostile value, run in process with warnings as errors.
HOSTILE_VALUES = [None, True, False, "x", "nope\u0000.json", "", [], {}, [[]], {"k": 1}, 10**400,
                  -10**400, float("nan"), float("inf"), -float("inf"), 1e300, -1e300, 5e-324, 0,
                  -1, 2.5]
HOSTILE_FIELDS = [
    ("simplex",), ("simplex", "vertices"), ("simplex", "vertices", 0),
    ("simplex", "vertices", 1, 0),
    ("function",), ("function", "terms"), ("function", "terms", 0), ("function", "terms", 0, "c"),
    ("function", "terms", 0, "a"), ("function", "terms", 0, "a", 0), ("n_values",),
    ("n_values", 0), ("grid_resolution",), ("seed",), ("evaluator",), ("output",), ("unknown",),
]


@st.composite
def hostile_calls(draw):
    dim = draw(st.integers(1, 3))
    vertices = np.vstack([np.zeros(dim), np.eye(dim)]) + draw(st.sampled_from([0.0, 0.25]))
    vertices *= draw(st.sampled_from([1.0, 1.0, 1e154, 1e300]))
    function = draw(st.sampled_from([{"terms": [{"c": 1.0, "a": [0.5] * dim}]}, "runge", "abs",
                                     "const1", "affine:" + ",".join(["2.0"] * (dim + 1))]))
    config = {"simplex": {"vertices": vertices.tolist()}, "function": function,
              "n_values": sorted(draw(st.sets(st.integers(1, 40), min_size=1, max_size=3))),
              "grid_resolution": draw(st.integers(2, 6))}
    path = draw(st.sampled_from(HOSTILE_FIELDS + [None]))
    if path is not None:
        config = with_hostile_value(config, path, draw(st.sampled_from(HOSTILE_VALUES)))
    command = draw(st.sampled_from(["converge", "bound-check", "scaling"]))
    extra = []
    if command == "scaling":
        extra = ["--scales", draw(st.sampled_from(["0.5,1,2", "1,1e154", "1e154"]))]
    return [command, "--config", json.dumps(config), *extra]


def with_hostile_value(config, path, value):
    """config with its entry at path set to value, where the path exists in it."""
    parent = config
    try:
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    except (TypeError, KeyError, IndexError):  # the path does not exist in this config
        pass
    return config


def assert_exit_0_1_or_2_without_warnings(argv, out):
    with warnings.catch_warnings(), contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("error")
        code = main(argv + ["--out", str(out)])
    assert code in (0, 1, 2)
    if code != 1:
        cells = [cell for row in out.read_text().splitlines()[1:] for cell in row.split(",")]
        assert not any(cell.lstrip("-") in ("nan", "inf") for cell in cells)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(argv=hostile_calls())
def test_hostile_configs_exit_0_1_or_2_without_warnings(tmp_path_factory, argv):
    assert_exit_0_1_or_2_without_warnings(argv, tmp_path_factory.mktemp("hostile") / "rows.csv")


# Every hostile value at every field, once each, on one small valid config: the property
# above reaches only the pairs its fixed examples happen to draw.
SMALL_CONFIG = {"simplex": TRIANGLE, "function": {"terms": [{"c": 1.0, "a": [0.5, 0.5]}]},
                "n_values": [2, 4], "grid_resolution": 4}


@pytest.mark.parametrize("value", HOSTILE_VALUES, ids=[f"{v!r:.12}" for v in HOSTILE_VALUES])
@pytest.mark.parametrize("path", HOSTILE_FIELDS,
                         ids=[".".join(map(str, p)) for p in HOSTILE_FIELDS])
def test_every_hostile_value_at_every_field_exits_0_1_or_2(tmp_path, path, value):
    config = with_hostile_value(json.loads(json.dumps(SMALL_CONFIG)), path, value)
    assert_exit_0_1_or_2_without_warnings(["converge", "--config", json.dumps(config)],
                                          tmp_path / "rows.csv")


def converge_on(vertices, function, n_values, **fields):
    """converge's argv for a config of these fields."""
    config = {"simplex": {"vertices": vertices}, "function": function, "n_values": n_values}
    return ["converge", "--config", json.dumps({**config, **fields})]


EXP_700 = json.dumps({"simplex": INTERVAL, "function": {"terms": [{"c": 1.0, "a": [700.0]}]},
                      "n_values": [4, 8]})

# Console calls on hostile inputs; None expects exit 0, a string exit 1 with one error line
# holding it.
HOSTILE_CALLS = {
    "minus-inf-dot": (["bound-check", "--config", json.dumps(
        {**MINUS_INF_DOT, "function": {"terms": [{"c": 1.0, "a": [1e10]}]}})],
        "a.x reaches -inf at vertex 1"),
    "string-direction": (converge_on([[0.0], [1.0]], {"terms": [{"c": 1.0, "a": "12"}]}, [4, 8]),
                         "terms[0].a: need a list, got str"),
    "simplex-extra-key": (["basis", "--simplex", json.dumps({**INTERVAL, "typo": 1}), "--n", "2",
                           "--point", "0.5"], "unknown field(s) ['typo']"),
    "missing-function-file": (converge_on([[0.0], [1.0]], "nope.json", [4, 8]),
                              "function file 'nope.json'"),
    # Inline text starting with "[" is JSON, as a file holding it is: not an object.
    "inline-list-config": (["converge", "--config", "[1]"],
                           "config: need a JSON object with ['function', 'grid_resolution',"
                           " 'n_values', 'seed', 'simplex'], got list"),
    # |a| = 1e154, whose square overflows: the direction norm is still finite.
    "huge-direction-norm": (["scaling", "--config", json.dumps(
        {"simplex": {"vertices": [[0.0], [1e-300]]}, "n_values": [4],
         "function": {"terms": [{"c": 1.0, "a": [1e154]}]}}), "--scales", "1,2"], None),
    # runge on [0, 1e300]: its square overflows to inf, so f reads 0.
    "runge-1e300": (converge_on([[0.0], [1e300]], "runge", [4, 8]), None),
    # exp(700 x) on [0, 1]: finite sup errors and an error budget past a double, so
    # converge leaves predicted_rel_error empty and scaling, which prints none, forms none.
    "exp-700-converge": (["converge", "--config", EXP_700], None),
    "exp-700-scaling": (["scaling", "--scales", "1", "--config", EXP_700], None),
    # direct at n = 1100: exp(log multinomial) of a tile's pad row would overflow; pad rows
    # are never exponentiated.
    "direct-pad-rows": (converge_on([[0.0], [1.0]], {"terms": [{"c": 1.0, "a": [2.0]}]}, [1100],
                                    grid_resolution=5) + ["--evaluator", "direct"], None),
    # direct at n = 400 on the triangle: the interior face's 80,601 lattice rows go in two
    # row blocks, each tile within the entry budget.
    "direct-row-blocks": (converge_on(TRIANGLE["vertices"],
                                      {"terms": [{"c": 1.0, "a": [1.0, -0.5]}]}, [400],
                                      grid_resolution=3) + ["--evaluator", "direct"], None),
}


@pytest.mark.parametrize("argv, error", HOSTILE_CALLS.values(), ids=HOSTILE_CALLS.keys())
def test_hostile_calls_exit_0_or_1_with_one_error_line(capsys, argv, error):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error: ")]
    if error is None:
        assert (code, errors) == (0, [])
    else:
        assert code == 1 and len(errors) == 1 and error in errors[0]


# Two sources the JSON reader once let escape as a bare ValueError: a path with a NUL byte,
# which no file can have, and an integer past Python's 4300-digit limit (json.dumps refuses
# to write one, so it is written as bytes).
NUL_PATH_CONFIG = json.dumps({"simplex": INTERVAL, "function": "nope\u0000.json", "n_values": [2]})
HUGE_INT_CONFIG = (b'{"simplex": {"vertices": [[1' + b"0" * 5000 + b'], [1.0]]},'
                   b' "function": "const1", "n_values": [2]}')


@pytest.mark.parametrize("flag, payload", [
    ("--config", json.dumps({"simplex": TRIANGLE, "function": "const1", "n_values": [2]})
     .encode("utf-16")),
    ("--simplex", json.dumps(TRIANGLE).encode("utf-16")),
    ("--config", b"[" * 100_000),
    ("--config", NUL_PATH_CONFIG.encode()),
    ("--config", HUGE_INT_CONFIG),
], ids=["utf-16-config", "utf-16-simplex", "deep-config", "nul-function-path", "5001-digit-vertex"])
def test_unreadable_spec_file_is_an_error(tmp_path, capsys, flag, payload):
    # A file that is not UTF-8, JSON nested past the parser's limit, a config naming a
    # function file by a path with a NUL byte, or an integer past Python's digit limit.
    path = tmp_path / "spec.json"
    path.write_bytes(payload)
    if flag == "--config":
        argv = ["converge", "--config", str(path)]
    else:
        argv = ["basis", "--simplex", str(path), "--n", "2", "--point", "0.2,0.2"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err


class TestBasis:
    def test_prints_all_values(self, tmp_path, capsys):
        simplex = tmp_path / "simplex.json"
        simplex.write_text(json.dumps(TRIANGLE))
        assert main(["basis", "--simplex", str(simplex), "--n", "3",
                     "--point", "0.25,0.25"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "k_0,k_1,k_2,basis_value"
        assert len(lines) == 1 + count_multi_indices(3, 2)
        values = np.array([float(line.split(",")[-1]) for line in lines[1:]])
        assert values.sum() == pytest.approx(1.0, abs=1e-12)
        expected = basis_vector(standard_simplex(2), 3, [0.25, 0.25])
        np.testing.assert_allclose(values, expected, atol=1e-15)

    def test_inline_simplex(self, capsys):
        assert main(["basis", "--simplex", json.dumps(INTERVAL), "--n", "2",
                     "--point", "0.5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:] == ["2,0,0.25", "1,1,0.5", "0,2,0.25"]

    def test_outside_point_fails(self, capsys):
        assert main(["basis", "--simplex", json.dumps(TRIANGLE), "--n", "2",
                     "--point", "2,2"]) == 1
        assert "outside" in capsys.readouterr().err

    @pytest.mark.parametrize("point", ["-0.25,0.25", "-.25,0.25"])
    def test_negative_first_coordinate(self, capsys, point):
        simplex = {"vertices": [[-1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]}
        assert main(["basis", "--simplex", json.dumps(simplex), "--n", "2",
                     "--point", point]) == 0
        values = [float(line.split(",")[-1]) for line in capsys.readouterr().out.splitlines()[1:]]
        expected = basis_vector(bezsimplex.Simplex(simplex["vertices"]), 2, [-0.25, 0.25])
        np.testing.assert_array_equal(values, expected)

    def test_bad_point(self, capsys):
        assert main(["basis", "--simplex", json.dumps(TRIANGLE), "--n", "2",
                     "--point", "a,b"]) == 1
        assert "point" in capsys.readouterr().err

    def test_non_finite_point(self, capsys):
        assert main(["basis", "--simplex", json.dumps(TRIANGLE), "--n", "2",
                     "--point", "nan,0.2"]) == 1
        assert "point coordinates must be finite" in capsys.readouterr().err

    def test_malformed_simplex_json(self, capsys):
        assert main(["basis", "--simplex", "{bad", "--n", "2", "--point", "0.2,0.2"]) == 1
        assert "simplex: invalid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["NaN", "Infinity"])
    def test_non_finite_vertex(self, capsys, bad):
        spec = '{"vertices": [[0, 0], [1, %s], [0, 1]]}' % bad
        assert main(["basis", "--simplex", spec, "--n", "2", "--point", "0.2,0.2"]) == 1
        assert "finite" in capsys.readouterr().err


class TestControlPoints:
    def test_csv_layout(self, tmp_path):
        out = tmp_path / "cps.csv"
        assert main(["control-points", "--simplex", json.dumps(TRIANGLE),
                     "--n", "3", "--out", str(out)]) == 0
        rows = read_rows(out)
        assert len(rows) == 10
        assert list(rows[0]) == ["k_0", "k_1", "k_2", "x_1", "x_2"]
        corner = [r for r in rows if r["k_1"] == "3"]
        assert corner[0]["x_1"] == "1.0"

    def test_csv_export(self, capsys):
        assert main(["control-points", "--simplex", json.dumps(TRIANGLE), "--n", "2"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == "k_0,k_1,k_2,x_1,x_2"
        assert len(lines) == 7
        assert out.endswith("\n")

    def test_stdout(self, capsys):
        assert main(["control-points", "--simplex", json.dumps(INTERVAL), "--n", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "k_0,k_1,x_1"
        assert len(lines) == 4

    def test_degenerate_simplex(self, capsys):
        bad = json.dumps({"vertices": [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]})
        assert main(["control-points", "--simplex", bad, "--n", "2"]) == 1
        assert "affinely dependent" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["control-points", "--simplex", json.dumps(INTERVAL), "--n", "abc"],
    ["basis", "--simplex", json.dumps(TRIANGLE), "--n", "2", "--point"],
    ["converge"],
    ["no-such-command"],
    ["bound-check", "--config", "{}", "--margin", "0.5"],  # the margin is a constant
])
def test_usage_errors_exit_1(capsys, argv):
    # Exit code 2 is reserved for bound violations.
    with pytest.raises(SystemExit) as stop:
        main(argv)
    assert stop.value.code == 1
    assert "error:" in capsys.readouterr().err


def test_readme_sample_output(tmp_path):
    # The README's sample converge output is what its sample config produces.
    config = README.split("```json\n", 1)[1].split("```", 1)[0]
    sample = README.split("Sample `converge` output", 1)[1].split("```\n", 2)[1]
    out = tmp_path / "rows.csv"
    assert main(["converge", "--config", config, "--out", str(out)]) == 0
    assert out.read_text() == sample


def test_readme_library_use_runs():
    # The README's library snippet runs against the current API.
    namespace = {}
    exec(README.split("```python\n", 1)[1].split("```", 1)[0], namespace)
    triangle = namespace["triangle"]
    expected = closed_form_at_weights(triangle, 12, [1.0, 1.0],
                                      triangle.barycentric([0.2, 0.3])[None, :])[0]
    assert namespace["value"] == pytest.approx(expected, rel=1e-13)
    assert 0.0 < namespace["error"] < 0.05


def test_import_loads_numpy_and_stdlib_only():
    # scipy's import cost was most of every CLI call's start-up time.
    probe = (
        f"import sys; sys.path.insert(0, {SOURCE!r}); import bezsimplex.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            check=True, timeout=60)
    assert result.stdout.strip() == "[]"


def test_import_leaves_dataclasses_out():
    # The value types share geometry.Frozen; dataclasses cost start-up time to generate code.
    probe = (
        f"import sys; sys.path.insert(0, {SOURCE!r}); import bezsimplex.cli; "
        "print('dataclasses' in sys.modules)"
    )
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            check=True, timeout=60)
    assert result.stdout.strip() == "False"


TETRAHEDRON_RUNGE = {"simplex": {"vertices": [[0.1, -0.2, 0.0], [1.2, 0.1, 0.3], [-0.1, 0.9, 0.2],
                                              [0.2, 0.3, 1.1]]},
                     "function": "runge", "n_values": [10, 20], "grid_resolution": 8}
TRIANGLE_EXP = {"simplex": {"vertices": [[0.1, -0.2], [1.2, 0.1], [-0.1, 0.9]]},
                "function": {"terms": [{"c": 1.0, "a": [1.0, -0.5]}]},
                "n_values": [10, 20, 40, 80], "grid_resolution": 50}
FIVE_EXP = {"simplex": {"vertices": np.vstack([np.zeros(5), np.eye(5) + 0.1]).tolist()},
            "function": {"terms": [{"c": 1.0, "a": [1.0, -0.5, 0.25, 0.8, -1.2]}]},
            "n_values": [40, 160, 640], "grid_resolution": 30}


def stdout_at_one_and_two_blas_threads(args):
    """The distinct stdouts of `python *args` at 1 and 2 BLAS threads."""
    outputs = set()
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=SOURCE, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        outputs.add(subprocess.run([sys.executable, *args], capture_output=True, check=True,
                                   env=env, timeout=120).stdout)
    return outputs


@pytest.mark.parametrize("command, fields, header", [
    (["converge", "--evaluator", "direct"], TETRAHEDRON_RUNGE, b"n,sup_error,"),
    (["converge", "--evaluator", "decasteljau"], TETRAHEDRON_RUNGE, b"n,sup_error,"),
    (["converge", "--evaluator", "decasteljau"], TRIANGLE_EXP, b"n,sup_error,"),
    (["scaling", "--scales", "0.5,1,2"], FIVE_EXP, b"diameter_scale,"),
    (["bound-check"], FIVE_EXP, b"n,observed_rel_error,"),
], ids=["direct", "decasteljau", "decasteljau-triangle", "scaling", "bound-check"])
def test_csv_bytes_do_not_depend_on_blas_threads(tmp_path, command, fields, header):
    # The direct evaluator is two products per tile, de Casteljau's first
    # stage a set of product tiles per chunk (the triangle at n = 80 on grid 50
    # takes several chunks and tiles), and the exp studies one product per grid
    # block (a 5-simplex grid of 30 spans several blocks); the CSV must be the
    # same whatever number of threads the BLAS may split them over.
    config = write_config(tmp_path, **fields)
    outputs = stdout_at_one_and_two_blas_threads(
        ["-m", "bezsimplex.cli", command[0], "--config", config, *command[1:]])
    assert len(outputs) == 1
    assert next(iter(outputs)).startswith(header)


def test_values_do_not_depend_on_blas_threads():
    # A CSV's sup hides a point whose last bits move, so this hashes every
    # point's value: runge on the triangle at n = 80 over grid 50, whose
    # products are large enough for the BLAS to split over threads.
    probe = (
        "import hashlib, json, sys; import bezsimplex as b; "
        "s = b.Simplex(json.loads(sys.argv[1])); "
        "net = b.sample_control_net(s, 80, b.make_function('runge', s)); "
        "w = b.grid_weights(50, 2); "
        "print([hashlib.sha256(b.evaluate_at_weights(net, w, e).tobytes()).hexdigest()"
        " for e in b.bernstein.EVALUATORS])"
    )
    vertices = json.dumps(TRIANGLE_EXP["simplex"]["vertices"])
    assert len(stdout_at_one_and_two_blas_threads(["-c", probe, vertices])) == 1


def entry_process(args):
    """A `python -m bezsimplex.cli` child. PYTHONUNBUFFERED is dropped, since
    writing through at once would hide what the entry's final flush does."""
    env = dict(os.environ, PYTHONPATH=SOURCE)
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.Popen([sys.executable, "-m", "bezsimplex.cli", *args], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


class TestProcessEntry:
    def test_piped_output_is_complete(self, tmp_path):
        args = ["control-points", "--simplex", json.dumps(TRIANGLE), "--n", "400"]
        out, err = entry_process(args).communicate(timeout=60)
        assert main(args + ["--out", str(tmp_path / "cps.csv")]) == 0
        assert out.count(b"\n") == 1 + count_multi_indices(400, 2) == 80_602
        assert out == (tmp_path / "cps.csv").read_bytes()
        assert err == b""

    @pytest.mark.parametrize("args", [
        ["converge", "--config", "{\"simplex\": 1}"],
        ["no-such-command"],
        ["converge", "--config", NUL_PATH_CONFIG],
        ["converge", "--config", HUGE_INT_CONFIG],
    ], ids=["malformed-config", "usage", "nul-function-path", "5001-digit-vertex"])
    def test_error_exits_1_with_one_error_line(self, tmp_path, args):
        if isinstance(args[-1], bytes):  # the content of a config file, passed by its path
            path = tmp_path / "config.json"
            path.write_bytes(args[-1])
            args = [*args[:-1], str(path)]
        child = entry_process(args)
        _, err = child.communicate(timeout=60)
        assert child.returncode == 1
        assert len([line for line in err.decode().splitlines() if "error:" in line]) == 1

    @pytest.mark.parametrize("n", ["2", "400"], ids=["at-exit-flush", "during-main"])
    def test_reader_closed_the_pipe(self, n):
        # A short CSV waits in the buffer for the final flush; a long one
        # fails while main is still writing it.
        with entry_process(["control-points", "--simplex", json.dumps(TRIANGLE), "--n", n]) as child:
            child.stdout.close()
            err = child.stderr.read().decode()
            assert child.wait(timeout=60) == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err


def test_direct_evaluator_never_imports_numpy_ma(tmp_path):
    # A fresh process, because the test session may have imported numpy.ma.
    config = write_config(tmp_path, function="runge", n_values=[4, 8], grid_resolution=6)
    probe = (
        "import sys; import bezsimplex.cli as cli; "
        "code = cli.main(sys.argv[1:]); print(code, 'numpy.ma' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe, "converge", "--config", config, "--evaluator", "direct",
         "--out", str(tmp_path / "rows.csv")],
        capture_output=True, text=True, check=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=SOURCE),
    )
    assert result.stdout.split() == ["0", "False"]
