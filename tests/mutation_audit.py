"""Mutation audit of the owned rules: each mutant is a one-line change to src/, run against the
suite with -x in a copy of the repository, and its verdict is printed beside the expected one.

Run it with python tests/mutation_audit.py. The exit code is 1 when any verdict differs from
the expected one. pytest does not collect this file (it is not named test_*.py).
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (file, exact text, replacement, expected): each is a contract the README states or an
# owner's check. "caught" means some test fails; "equivalent" gives why none can.
MUTANTS = [
    ("src/bezsimplex/geometry.py", "COORDINATE_TOL = 1e-9", "COORDINATE_TOL = 1e-8", "caught"),
    ("src/bezsimplex/geometry.py", "WEIGHT_SUM_TOL = 1e-12", "WEIGHT_SUM_TOL = 1e-11", "caught"),
    ("src/bezsimplex/geometry.py", "np.isfinite(pts).all(axis=1)", "np.isfinite(pts).any(axis=1)", "caught"),
    ("src/bezsimplex/geometry.py", "return np.clip(weights, 0.0, None) if lowest < 0.0 else weights",
     "return weights", "caught"),
    ("src/bezsimplex/exponentials.py", "w.shape[0] == 0", "w.shape[0] < 0", "caught"),
    ("src/bezsimplex/exponentials.py", "(cap + 0.5 * float(", "(cap + 0.25 * float(", "caught"),
    ("src/bezsimplex/exponentials.py", "if not sums.min(initial=np.inf) < tiny:", "if True:", "caught"),
    ("src/bezsimplex/lattice.py", "order < least", "order < least - 1", "caught"),
    ("src/bezsimplex/lattice.py", "if count * columns > SIZE_CAP:", "if count > SIZE_CAP:", "caught"),
    ("src/bezsimplex/lattice.py", "return -(-count // GEMM_COLUMNS) * GEMM_COLUMNS",
     "return -(-count // 4) * 4", "caught"),
    ("src/bezsimplex/lattice.py", "capacity // max(1, per_row) // GEMM_COLUMNS)",
     "capacity // max(1, per_row) // GEMM_COLUMNS + 1)", "caught"),
    ("src/bezsimplex/bernstein.py", "+ order - 1023)", "+ order - 1033)", "caught"),
    ("src/bezsimplex/experiments.py", "unknown = set(data) - set(known)", "unknown = set()", "caught"),
    ("src/bezsimplex/experiments.py", "if isinstance(value, bool) or not isinstance(value, numbers.Real):",
     "if not isinstance(value, numbers.Real):", "caught"),
    ("src/bezsimplex/experiments.py", 'return [float(v) for v in text.split(",")]',
     'return [float(v) for v in text.split(",") if v.strip()]', "caught"),
    ("src/bezsimplex/experiments.py", '"passed": not any(row.violation for row in rows)}',
     '"passed": True}', "caught"),
    ("src/bezsimplex/lattice.py", "count = _capped_count(resolution, dimension, dimension + 1)",
     "count = count_multi_indices(resolution, dimension)", "caught"),
    ("src/bezsimplex/experiments.py", "values.shape != points.shape[:1]", "values.ndim != 1", "caught"),
    ("src/bezsimplex/exponentials.py", "if high > _LOG_DOUBLE_MAX:", "if high > _LOG_DOUBLE_MAX + 1:",
     "caught"),
    ("src/bezsimplex/geometry.py", "abs(det) <= 1e-12 *", "abs(det) <= 1e-10 *", "caught"),
    ("src/bezsimplex/csvio.py", '("false", "true")', '("False", "True")', "caught"),
    ("src/bezsimplex/csvio.py", "value = value.item()", "pass", "caught"),
    ("src/bezsimplex/csvio.py", "k.tolist() + v.tolist()", "list(k) + list(v)",
     "equivalent: _format_cell turns the numpy scalars of list() into the Python values tolist() gives"),
    ("src/bezsimplex/bernstein.py",
     "return _gamma(order * (3 * dimension**2 + 11 * dimension) // 2 + 5 * dimension)",
     "return _gamma(order * (3 * dimension**2 + 11 * dimension) // 2 + 5 * dimension) / 100", "caught"),
    ("src/bezsimplex/bernstein.py", "return r + _gamma(math.comb(order + dimension, dimension)) * (1.0 + r)",
     "return (r + _gamma(math.comb(order + dimension, dimension)) * (1.0 + r)) / 100", "caught"),
    ("src/bezsimplex/exponentials.py",
     "return (len(dots) + 14) * order * UNIT_ROUNDOFF * (1 + reach / order)",
     "return (len(dots) + 14) * order * UNIT_ROUNDOFF * (1 + reach / order) / 100", "caught"),
    ("src/bezsimplex/bernstein.py", "s[1:] > p[:-1]", "s[1:] >= p[:-1]",
     "equivalent: at a tie s_j = p > 0, r = 1, so r**i and r**(m - i) are both 1; at s_j = p = 0 the"
     " orientations differ only in rows of k_0 + .. + k_j > 0, which the first later nonzero weight"
     " multiplies by r**e = 0"),
    ("src/bezsimplex/bernstein.py", "tile = min(64, padded(len(points)), chunk_rows(table.shape[1]))",
     "tile = min(48, padded(len(points)), chunk_rows(table.shape[1]))",
     "equivalent: the tile sets how many points share one product, a multiple of GEMM_COLUMNS"
     " at 48 as at 64; a point's value has the same bits alone, in any batch and at any place"
     " in a tile, so it does not follow the tile's length"),
    # direct folds each row block into zeros: writing in place of adding keeps the last block
    # only, which a face of more than one block (the triangle's interior at n = 400) shows.
    ("src/bezsimplex/bernstein.py", "out[points] +=", "out[points] =", "caught"),
    # A chunk's own state is the one memory rule: a per-point count 4x low overruns the
    # working-set bound, and chunks half the budget's length miss the spied chunk sizes.
    ("src/bezsimplex/bernstein.py", "return kernel, 4 * len(first_m)", "return kernel, len(first_m)",
     "caught"),
    ("src/bezsimplex/bernstein.py", "step = chunk_rows(per_point)", "step = chunk_rows(2 * per_point)",
     "caught"),
    # A lone point's direct tile is GEMM_COLUMNS rows, not 64 or the budget's: a basis block's
    # fold then fits its derived bound.
    ("src/bezsimplex/bernstein.py", "tile = min(64, padded(len(points)), chunk_rows(table.shape[1]))",
     "tile = min(64, chunk_rows(table.shape[1]))", "caught"),
    # The plan's binomials hold one integer row at a time: keeping every row, as the whole
    # Pascal triangle once was kept, passes the table's tracemalloc bound.
    ("src/bezsimplex/bernstein.py", "row.append(1)",
     "row.append(1); _binomials.__dict__.setdefault('rows', []).append(row[:])", "caught"),
    # basis_blocks writes x's tile into zeros at its face's rows: at the block's first rows
    # in place of them, a face point's values land on the wrong rows.
    ("src/bezsimplex/bernstein.py", "values[rows] = basis[0]", "values[:len(basis[0])] = basis[0]", "caught"),
    ("src/bezsimplex/bernstein.py", "values[rows] = basis[0]", "values[rows] += basis[0]",
     "equivalent: each row of a block is written at most once, into a zero, and 0.0 + v is v"),
    # The lattice is checked at the call: blocks drawn lazily check the order and the cap
    # only once --out is open, after the point.
    ("src/bezsimplex/bernstein.py", "blocks = control_point_blocks(simplex, order)",
     "blocks = (b for n in [order] for b in control_point_blocks(simplex, n))", "caught"),
    # A row's multi-index is read off the walk of that row alone.
    ("src/bezsimplex/lattice.py", "_colex_rows(order, dimension, row, row + 1)",
     "_colex_rows(order, dimension, 0, row + 1)", "caught"),
    # Every block source checks its lattice at the call: a grid_weight_blocks that is a
    # generator again checks only at the first block, and so do the sources over it.
    ("src/bezsimplex/lattice.py", "return (_weights(resolution, dimension, lo,",
     "yield from (_weights(resolution, dimension, lo,", "caught"),
]


def run(path, old, new):
    """The verdict, "caught" or "SURVIVED", of the suite with -x on a copy whose path has old
    replaced by new."""
    with tempfile.TemporaryDirectory() as root:
        # tests/test_cli.py reads README.md at import, so the copy needs it.
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, os.path.join(root, name),
                            ignore=shutil.ignore_patterns("__pycache__"))
        for name in ("README.md", "pyproject.toml"):
            shutil.copy(ROOT / name, root)
        target = Path(root, path)
        text = target.read_text()
        assert text.count(old) == 1, f"{path}: {old!r} matches {text.count(old)} times"
        target.write_text(text.replace(old, new))
        suite = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "tests"],
                               cwd=root, env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")),
                               capture_output=True)
        return "caught" if suite.returncode else "SURVIVED"


def main():
    unexpected = 0
    for path, old, new, expected in MUTANTS:
        start = time.perf_counter()
        verdict = run(path, old, new)
        as_expected = (verdict == "caught") == (expected == "caught")
        unexpected += not as_expected
        print(f"{verdict} ({'as expected' if as_expected else 'UNEXPECTED'}, {expected}): {path}:"
              f" {old!r} -> {new!r} ({time.perf_counter() - start:.1f} s)", flush=True)
    print(f"{len(MUTANTS) - unexpected} of {len(MUTANTS)} mutants as expected")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
