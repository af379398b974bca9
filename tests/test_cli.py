import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bezsimplex
from bezsimplex import basis_vector, count_multi_indices, standard_simplex
from bezsimplex.cli import main
from bezsimplex.experiments import BoundCheckResult, BoundCheckRow

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

    def test_config_output_field_used(self, tmp_path, capsys):
        # Each study writes to the config's output, and --out wins over it.
        target = tmp_path / "from_config.csv"
        config = write_config(tmp_path, output=str(target))
        for argv in (["converge"], ["bound-check"], ["scaling", "--scales", "1,2"]):
            assert main([*argv, "--config", config]) == 0
            assert capsys.readouterr().out == "" and target.exists()
            target.unlink()
            out = tmp_path / f"{argv[0]}.csv"
            assert main([*argv, "--config", config, "--out", str(out)]) == 0
            assert out.exists() and not target.exists()

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
        rows = (BoundCheckRow(40, 1.0, 0.1, 10.0, True),)
        monkeypatch.setattr(
            "bezsimplex.cli.run_bound_check",
            lambda config, margin: BoundCheckResult(rows=rows, margin=margin),
        )
        config = write_config(tmp_path)
        assert main(["bound-check", "--config", config]) == 2
        assert json.loads(capsys.readouterr().err)["passed"] is False

    @pytest.mark.parametrize("margin", ["nan", "inf", "-0.5"])
    def test_bad_margin(self, tmp_path, capsys, margin):
        config = write_config(tmp_path)
        assert main(["bound-check", "--config", config, f"--margin={margin}"]) == 1
        captured = capsys.readouterr()
        assert "margin" in captured.err and "Traceback" not in captured.err
        assert captured.out == ""

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

    @pytest.mark.parametrize("scales", ["-1,2", "-0.5"])
    def test_negative_scales_are_a_config_error(self, tmp_path, capsys, scales):
        config = write_config(tmp_path)
        assert main(["scaling", "--config", config, "--scales", scales]) == 1
        assert "error: scale factors must be finite and positive" in capsys.readouterr().err


@pytest.mark.parametrize("flag, payload", [
    ("--config", json.dumps({"simplex": TRIANGLE, "function": "const1", "n_values": [2]})
     .encode("utf-16")),
    ("--simplex", json.dumps(TRIANGLE).encode("utf-16")),
    ("--config", b"[" * 100_000),
], ids=["utf-16-config", "utf-16-simplex", "deep-config"])
def test_unreadable_spec_file_is_an_error(tmp_path, capsys, flag, payload):
    # A file that is not UTF-8, or JSON nested past the parser's limit.
    path = tmp_path / "spec.json"
    path.write_bytes(payload)
    if flag == "--config":
        argv = ["converge", "--config", str(path)]
    else:
        argv = ["basis", "--simplex", str(path), "--n", "2", "--point", "0.2,0.2"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


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
        assert "non-finite" in capsys.readouterr().err

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
])
def test_usage_errors_exit_1(capsys, argv):
    # Exit code 2 is reserved for bound violations.
    with pytest.raises(SystemExit) as stop:
        main(argv)
    assert stop.value.code == 1
    assert "error:" in capsys.readouterr().err


def test_readme_sample_output(tmp_path):
    # The README's sample converge output is what its sample config produces.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    config = readme.split("```json\n", 1)[1].split("```", 1)[0]
    sample = readme.split("Sample `converge` output", 1)[1].split("```\n", 2)[1]
    out = tmp_path / "rows.csv"
    assert main(["converge", "--config", config, "--out", str(out)]) == 0
    assert out.read_text() == sample


def test_import_loads_numpy_and_stdlib_only():
    # scipy's import cost was most of every CLI call's start-up time.
    source = str(Path(bezsimplex.__file__).resolve().parents[1])
    probe = (
        f"import sys; sys.path.insert(0, {source!r}); import bezsimplex.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            check=True, timeout=60)
    assert result.stdout.strip() == "[]"


@pytest.mark.parametrize("evaluator", ["direct", "decasteljau"])
def test_csv_bytes_do_not_depend_on_blas_threads(tmp_path, evaluator):
    # The direct evaluator is a matrix product per chunk; the CSV must be the
    # same whatever number of threads the BLAS splits it over.
    tetrahedron = {"vertices": [[0.1, -0.2, 0.0], [1.2, 0.1, 0.3], [-0.1, 0.9, 0.2],
                                [0.2, 0.3, 1.1]]}
    config = write_config(tmp_path, simplex=tetrahedron, function="runge",
                          n_values=[10, 20], grid_resolution=8)
    source = str(Path(bezsimplex.__file__).resolve().parents[1])
    outputs = set()
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=source, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        result = subprocess.run(
            [sys.executable, "-m", "bezsimplex.cli", "converge", "--config", config,
             "--evaluator", evaluator],
            capture_output=True, check=True, env=env, timeout=120,
        )
        outputs.add(result.stdout)
    assert len(outputs) == 1
    assert next(iter(outputs)).startswith(b"n,sup_error,")
