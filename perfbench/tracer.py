"""Traced CLI run: spans around the calls between bezsimplex's modules.

Run as a child process in place of ``python -m bezsimplex.cli``:

    python3 perfbench/tracer.py SPANS_JSON TRACE_ID <bezsimplex CLI arguments>

It wraps the public functions each module calls, at the name the calling
module bound them to, then calls ``bezsimplex.cli.main``. Spans (name,
start, end, parent and a few computed counts) stay in memory and are written
to SPANS_JSON when the CLI returns. Nothing under src/ is changed.
``layer_metrics`` turns the span files of one traced run into the per-layer
metrics.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
import tracemalloc

# bezsimplex is imported inside the functions that need it: run.py imports
# this module for layer_metrics without src/ on its path.

LAYERS = ("geometry", "lattice", "bernstein", "exponentials", "experiments", "cli")

# Per-layer metrics, with units; the ones marked computed are counts derived
# from call arguments, which must repeat exactly between runs.
METRICS = {
    "bernstein.decasteljau_s": "s",
    "bernstein.decasteljau_flops": "flop",
    "bernstein.direct_s": "s",
    "bernstein.peak_mb": "MB",
    "bernstein.coeff_points": "count",
    "lattice.enumerate_s": "s",
    "lattice.control_points_s": "s",
    "lattice.rows": "count",
    "experiments.emit_csv_s": "s",
    "experiments.csv_bytes": "B",
    "exponentials.relative_error_report_s": "s",
    "exponentials.evaluate_many_s": "s",
    "exponentials.error_budget_s": "s",
    "geometry.barycentric_many_s": "s",
    "geometry.points": "count",
    "experiments.load_config_s": "s",
    "experiments.sample_s": "s",
    "experiments.run_self_s": "s",
    "cli.main_s": "s",
    "cli.cpu_s": "s",
    "trace.overhead_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
}
COMPUTED = (
    "bernstein.decasteljau_flops",
    "bernstein.coeff_points",
    "lattice.rows",
    "geometry.points",
    "experiments.csv_bytes",
)


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self, trace_id: int) -> None:
        self.trace_id = trace_id
        self.spans: list = []
        self._stack: list = []

    def wrap(self, name: str, func, counts=None, measure_memory: bool = False):
        """func wrapped in a span; counts(args, kwargs, result) gives span counts."""

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": self._stack[-1] if self._stack else None}
            index = len(self.spans)
            self.spans.append(span)
            self._stack.append(index)
            if measure_memory:
                tracemalloc.start()
            span["start"] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                if measure_memory:
                    span["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                self._stack.pop()
            if counts is not None:
                span.update(counts(args, kwargs, result))
            return result

        return traced

    def dump(self, path: str, **extra) -> None:
        with open(path, "w") as handle:
            json.dump({"trace_id": self.trace_id, "spans": self.spans, **extra}, handle)


def _evaluate_counts(args, kwargs, result):
    from bezsimplex.bernstein import DEFAULT_EVALUATOR

    net, weights = args[0], args[1]
    evaluator = args[2] if len(args) > 2 else kwargs.get("evaluator", DEFAULT_EVALUATOR)
    order, dim, points = net.order, net.simplex.dimension, len(weights)
    if evaluator == "direct":
        return {"evaluator": evaluator, "coeff_points": math.comb(order + dim, dim) * points}
    # Round m of the reduction forms C(m-1+D, D) values, each from D+1
    # products and D sums; summed over m = 1..n that is C(n+D, D+1) values.
    flops = (2 * dim + 1) * math.comb(order + dim, dim + 1) * points
    return {"evaluator": evaluator, "flops": flops}


def install(tracer: Tracer) -> None:
    """Replace each traced function at every name a caller looks it up by."""
    from bezsimplex import bernstein, cli, experiments, exponentials, geometry, lattice

    targets = (
        # (span name, function, the (owner, attribute) bindings callers use, counts)
        ("cli.main", cli.main, [(cli, "main")], None),
        ("experiments.load_config", experiments.load_config, [(cli, "load_config")], None),
        ("experiments.run_convergence", experiments.run_convergence,
         [(cli, "run_convergence")], None),
        ("experiments.run_scaling_study", experiments.run_scaling_study,
         [(cli, "run_scaling_study")], None),
        ("experiments.emit_csv", experiments.emit_csv, [(cli, "emit_csv")], None),
        ("experiments.sample", experiments.TestFunction.evaluate,
         [(experiments.TestFunction, "evaluate")], None),
        ("bernstein.evaluate_at_weights", bernstein.evaluate_at_weights,
         [(experiments, "evaluate_at_weights")], _evaluate_counts),
        ("lattice.control_points", lattice.control_points,
         [(experiments, "control_points")], None),
        ("lattice.grid_weights", lattice.grid_weights, [(experiments, "grid_weights")], None),
        ("lattice.enumerate_multi_indices", lattice.enumerate_multi_indices,
         [(lattice, "enumerate_multi_indices"), (bernstein, "enumerate_multi_indices")],
         lambda args, kwargs, result: {"rows": int(result.shape[0])}),
        ("exponentials.relative_error_report", exponentials.relative_error_report,
         [(experiments, "relative_error_report")], None),
        ("exponentials.error_budget", exponentials.error_budget,
         [(experiments, "error_budget"), (exponentials, "error_budget")], None),
        ("exponentials.evaluate_many", exponentials.ExpPolynomial.evaluate_many,
         [(exponentials.ExpPolynomial, "evaluate_many")], None),
        ("geometry.barycentric_many", geometry.Simplex.barycentric_many,
         [(geometry.Simplex, "barycentric_many")],
         lambda args, kwargs, result: {"points": int(result.shape[0])}),
    )
    for name, func, bindings, counts in targets:
        traced = tracer.wrap(name, func, counts,
                             measure_memory=name == "bernstein.evaluate_at_weights")
        for owner, attribute in bindings:
            setattr(owner, attribute, traced)


def _self_times(spans: list) -> list:
    own = [span["end"] - span["start"] for span in spans]
    for span in spans:
        if span["parent"] is not None:
            own[span["parent"]] -= span["end"] - span["start"]
    return own


def layer_metrics(span_files: list, csv_bytes: int, overhead_s: float) -> dict:
    """Per-layer metric values from the span files of one traced run."""
    values = dict.fromkeys(METRICS, 0.0)
    for key in COMPUTED:
        values[key] = 0
    values["experiments.csv_bytes"] = csv_bytes
    values["trace.overhead_s"] = overhead_s
    inclusive = {
        "lattice.enumerate_multi_indices": "lattice.enumerate_s",
        "lattice.control_points": "lattice.control_points_s",
        "experiments.emit_csv": "experiments.emit_csv_s",
        "exponentials.relative_error_report": "exponentials.relative_error_report_s",
        "exponentials.evaluate_many": "exponentials.evaluate_many_s",
        "exponentials.error_budget": "exponentials.error_budget_s",
        "geometry.barycentric_many": "geometry.barycentric_many_s",
        "experiments.load_config": "experiments.load_config_s",
        "experiments.sample": "experiments.sample_s",
        "cli.main": "cli.main_s",
    }
    for path in span_files:
        with open(path) as handle:
            record = json.load(handle)
        spans = record["spans"]
        values["cli.cpu_s"] += record["cpu_s"]
        for span, own in zip(spans, _self_times(spans)):
            name = span["name"]
            duration = span["end"] - span["start"]
            values[f"{name.split('.')[0]}.self_s"] += own
            if name in inclusive:
                values[inclusive[name]] += duration
            if name.startswith("experiments.run_"):
                values["experiments.run_self_s"] += own
            if name == "bernstein.evaluate_at_weights":
                values["bernstein.peak_mb"] = max(values["bernstein.peak_mb"], span["peak_mb"])
                if span["evaluator"] == "direct":
                    values["bernstein.direct_s"] += duration
                    values["bernstein.coeff_points"] += span["coeff_points"]
                else:
                    values["bernstein.decasteljau_s"] += duration
                    values["bernstein.decasteljau_flops"] += span["flops"]
            values["lattice.rows"] += span.get("rows", 0)
            values["geometry.points"] += span.get("points", 0)
    return values


def main(argv: list) -> int:
    spans_path, trace_id, cli_args = argv[0], int(argv[1]), argv[2:]
    from bezsimplex import cli

    tracer = Tracer(trace_id)
    install(tracer)
    cpu = time.process_time()
    try:
        return cli.main(cli_args)
    finally:
        tracer.dump(spans_path, cpu_s=time.process_time() - cpu)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
