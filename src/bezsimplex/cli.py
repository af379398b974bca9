"""Command line interface for convergence and bound experiments.

Subcommands write deterministic CSV to --out (or stdout) and a JSON
metadata line to stderr. Exit codes: 0 success, 2 bound violation, 1 error.
``main(argv)`` is the in-process API and returns the exit code; ``entry``
is the process entry of ``python -m bezsimplex.cli`` and the console script.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import sys
from dataclasses import replace

import numpy as np

from .bernstein import EVALUATORS, basis_vector
from .csvio import emit_csv, emit_lattice_csv
from .errors import BezSimplexError, ConfigError
from .experiments import (
    BOUND_CHECK_COLUMNS,
    CONVERGENCE_COLUMNS,
    SCALING_COLUMNS,
    exp_study_direction,
    load_config,
    load_simplex,
    run_bound_check,
    run_convergence,
    run_metadata,
    run_scaling_study,
)
from .lattice import control_points, enumerate_multi_indices


def _report(args, config, rows, columns, **extra) -> None:
    """A study's CSV to --out, the config's output or stdout; its metadata to stderr."""
    emit_csv(rows, args.out or config.output or sys.stdout, columns)
    print(json.dumps({**run_metadata(config), **extra}, sort_keys=True), file=sys.stderr)


def _cmd_converge(args) -> int:
    config = load_config(args.config)
    if args.evaluator:
        config = replace(config, evaluator=args.evaluator)
    rows = run_convergence(config)
    _report(args, config, rows, CONVERGENCE_COLUMNS,
            wall_ms=[round(row.wall_ms, 3) for row in rows])
    return 0


def _cmd_bound_check(args) -> int:
    config = load_config(args.config)
    result = run_bound_check(config, margin=args.margin)
    _report(args, config, result.rows, BOUND_CHECK_COLUMNS,
            margin=result.margin, passed=result.passed)
    return 0 if result.passed else 2


def _cmd_scaling(args) -> int:
    config = load_config(args.config)
    direction = exp_study_direction(config.function)
    try:
        scales = [float(s) for s in args.scales.split(",") if s.strip()]
    except ValueError as exc:
        raise ConfigError(f"--scales: non-numeric entry in {args.scales!r}") from exc
    order = max(config.n_values)
    rows = run_scaling_study(config.simplex, direction, order, config.grid_resolution, scales)
    _report(args, config, rows, SCALING_COLUMNS, scales=scales, order=order)
    return 0


def _cmd_basis(args) -> int:
    simplex = load_simplex(args.simplex)
    try:
        point = np.array([float(v) for v in args.point.split(",")])
    except ValueError as exc:
        raise ConfigError(f"--point: non-numeric entry in {args.point!r}") from exc
    if not np.all(np.isfinite(point)):
        raise ConfigError(f"--point: non-finite entry in {args.point!r}")
    values = basis_vector(simplex, args.n, point)
    indices = enumerate_multi_indices(args.n, simplex.dimension)
    emit_lattice_csv(indices, values, args.out or sys.stdout, ["basis_value"])
    return 0


def _cmd_control_points(args) -> int:
    simplex = load_simplex(args.simplex)
    control_points(simplex, args.n).write_csv(args.out or sys.stdout)
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 2 means a bound violation
        self.exit(1, f"{self.format_usage()}{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bezsimplex",
        description="Bernstein-Bezier approximation experiments on simplices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    converge = sub.add_parser("converge", help="sup-error sweep over polynomial orders")
    converge.add_argument("--config", required=True, help="config JSON: path or inline object")
    converge.add_argument("--evaluator", choices=EVALUATORS, help="override config evaluator")
    converge.add_argument("--out", help="CSV output path (default stdout)")
    converge.set_defaults(handler=_cmd_converge)

    bound = sub.add_parser("bound-check", help="observed error vs first-order bound")
    bound.add_argument("--config", required=True)
    bound.add_argument("--margin", type=float, default=0.25,
                       help="allowed overshoot of the predicted bound (default 0.25)")
    bound.add_argument("--out")
    bound.set_defaults(handler=_cmd_bound_check)

    scaling = sub.add_parser("scaling", help="error growth with diameter and direction size")
    scaling.add_argument("--config", required=True)
    scaling.add_argument("--scales", required=True, help="comma-separated positive factors")
    scaling.add_argument("--out")
    scaling.set_defaults(handler=_cmd_scaling)

    basis = sub.add_parser("basis", help="print all basis values at a point")
    basis.add_argument("--simplex", required=True, help="simplex JSON: path or inline object")
    basis.add_argument("--n", type=int, required=True)
    basis.add_argument("--point", required=True, help="comma-separated coordinates")
    basis.add_argument("--out")
    basis.set_defaults(handler=_cmd_basis)

    cpoints = sub.add_parser("control-points", help="export the control point lattice")
    cpoints.add_argument("--simplex", required=True)
    cpoints.add_argument("--n", type=int, required=True)
    cpoints.add_argument("--out")
    cpoints.set_defaults(handler=_cmd_control_points)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes "-0.25,0.25" after --point or --scales for an option
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] in ("--point", "--scales") and re.match(r"-[\d.]", argv[i]):
            argv[i - 1:i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (BezSimplexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    """Run main(), flush stdout and stderr, then end the process at once.

    os._exit skips the interpreter's teardown, whose garbage collection over
    numpy's objects takes longer than most commands: nothing is left to
    release, since every file the package opens is closed and it registers
    no atexit handler. A flush that fails, as when the reader closed the
    pipe, ends in exit code 1 with one error line.
    """
    try:
        code = main()
    except SystemExit as stop:  # argparse: usage errors and --help
        code = stop.code
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError as exc:
        if code != 1:  # main has not reported an error of its own
            with contextlib.suppress(OSError):
                print(f"error: {exc}", file=sys.stderr, flush=True)
        code = 1
    os._exit(code)


if __name__ == "__main__":
    entry()
