"""Kernel times: evaluate_at_weights per evaluator and the lattice walker, each the best of 5
in process, and the peak RSS and wall time of streamed CLI studies in child processes.

Run it with python tests/kernel_times.py; it imports bezsimplex from src/ of this checkout. It
prints timings and is not a gate. pytest does not collect this file (it is not named test_*.py).
"""

import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))

import numpy as np

from bezsimplex import (ControlNet, control_points, enumerate_multi_indices, evaluate_at_weights,
                        grid_weight_blocks, grid_weights, standard_simplex)

# (D, n, grid) of the kernel rows.
KERNEL_ROWS = [(1, 400, 200), (2, 80, 50), (2, 160, 50), (2, 320, 50),
               (3, 40, 15), (3, 60, 15), (3, 80, 15), (3, 120, 15), (4, 30, 8)]

# The launcher prints a child's peak RSS and its wall time, from before its start to its exit.
# It imports no numpy, so that its own RSS is not carried into the child's.
LAUNCHER = ("import resource, subprocess, sys, time; start = time.perf_counter();"
            " subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL, check=True);"
            " print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,"
            " time.perf_counter() - start)")


def best_of_5_ms(call):
    times = []
    for _ in range(5):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return min(times) * 1000


def consume(blocks):
    for block in blocks:
        del block


def best_ms(net, weights, evaluator):
    return best_of_5_ms(lambda: evaluate_at_weights(net, weights, evaluator))


def child_rss_and_wall(*call):
    run = subprocess.run([sys.executable, "-c", LAUNCHER, sys.executable, "-m", "bezsimplex.cli", *call],
                         capture_output=True, text=True, check=True)
    return map(float, run.stdout.split())


def main():
    print(f"enumerate_multi_indices(30, 5): {best_of_5_ms(lambda: enumerate_multi_indices(30, 5)):.2f} ms,"
          f" consumed grid_weight_blocks(30, 5): {best_of_5_ms(lambda: consume(grid_weight_blocks(30, 5))):.2f} ms")
    tracemalloc.start()
    consume(grid_weight_blocks(2_000_000, 1))
    print(f"consumed grid_weight_blocks(2_000_000, 1): tracemalloc peak {tracemalloc.get_traced_memory()[1] / 1e6:.1f} MB")
    tracemalloc.stop()

    for dimension, order, grid in KERNEL_ROWS:
        simplex = standard_simplex(dimension)
        net = ControlNet(simplex, order, np.exp(control_points(simplex, order).sum(axis=1)))
        weights = grid_weights(grid, dimension)
        alone = weights[len(weights) // 2][None, :]
        print(f"D={dimension} n={order} grid {grid} ({len(weights)} points):"
              f" decasteljau {best_ms(net, weights, 'decasteljau'):.1f} ms,"
              f" direct {best_ms(net, weights, 'direct'):.1f} ms,"
              f" one point decasteljau {best_ms(net, alone, 'decasteljau'):.2f} ms")

    # Each study streams the grid: the peak RSS of a CLI process on 2,000,001 points.
    interval = json.dumps({"simplex": {"vertices": [[0.0], [1.0]]},
                           "function": {"terms": [{"c": 1.0, "a": [2.0]}]},
                           "n_values": [40, 80], "grid_resolution": 2_000_000})
    for call in (["converge", "--evaluator", "direct"], ["converge", "--evaluator", "decasteljau"],
                 ["bound-check"]):
        rss, wall = child_rss_and_wall(*call, "--config", interval)
        print(f"{' '.join(call)} on [0, 1], exp(2x), n 40 and 80, grid 2,000,000:"
              f" child peak RSS {rss:.1f} MB, wall {wall:.2f} s")
    # The lattice CSV streams its rows: control-points on 501,501 rows of a triangle.
    triangle = json.dumps({"vertices": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]})
    rss, wall = child_rss_and_wall("control-points", "--simplex", triangle, "--n", "1000")
    print(f"control-points --n 1000 on the standard triangle: child peak RSS {rss:.1f} MB, wall {wall:.2f} s")


if __name__ == "__main__":
    main()
