"""The benchmark's workloads: seeded inputs and the CLI calls that use them.

Each workload draws its simplex from a random well-conditioned affine image
of the standard simplex, and its exp direction from the sphere of fixed
radius sqrt(D). The seed changes only those numbers; the dimension, the
orders, the grid resolution and the scale factors are fixed per workload,
so the amount of work does not depend on the seed.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Full sizes. The paper's headline sweep goes to n = 160 (about 13 s per
# process on a 2-core VM); it is cut to n = 80, and the tetrahedron uses the
# package's default D=3 grid (15), so that one run holds several samples.
# The de Casteljau kernel still takes about 75 % and 55-70 % of their
# wall time (98 % and 84-88 % of in-process cli.main_s); interpreter start-up is
# most of the rest, so kernel gains show diluted in wall_s. A CSV export
# workload (control-points and basis at n = 400) is left out: over ten
# 20-second runs its wall-time medians spread 19-23 % on that VM, close to
# the largest bound allowed, against 9-11 % for the three kept here.
SIZES = {
    "tri-exp-sweep": {"dim": 2, "n_values": [10, 20, 40, 80], "grid": 50},
    "tet-runge-xcheck": {"dim": 3, "n_values": [10, 20, 30, 40], "grid": 15},
    "simplex5-exp-scaling": {
        "dim": 5, "order": 640, "grid": 30, "scales": [0.25, 0.5, 1, 2, 4, 8],
    },
}

# Smoke sizes: every workload, gate and span in a few seconds each.
SMOKE_SIZES = {
    "tri-exp-sweep": {"dim": 2, "n_values": [4, 8, 16], "grid": 10},
    "tet-runge-xcheck": {"dim": 3, "n_values": [4, 8], "grid": 6},
    "simplex5-exp-scaling": {"dim": 5, "order": 40, "grid": 6, "scales": [0.5, 1, 2]},
}

NAMES = tuple(SIZES)


@dataclass
class Plan:
    """One workload instance: its inputs on disk and the CLI calls to make.

    ``calls`` holds one argument list per CLI process, without ``--out``;
    ``outputs`` holds the CSV file name each call writes, in the same order.
    """

    name: str
    seed: int
    sizes: dict
    vertices: np.ndarray
    direction: np.ndarray
    config_path: Path
    calls: list
    outputs: list

    def describe(self) -> dict:
        return {
            "workload": self.name,
            "seed": self.seed,
            "sizes": self.sizes,
            "vertices": self.vertices.tolist(),
            "direction": self.direction.tolist(),
            "calls": [" ".join(call) for call in self.calls],
        }


def _rng(name: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


def _orthogonal(rng: np.random.Generator, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def random_simplex(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Vertices A e_j + b of the standard simplex under a random affine map.

    A = U diag(s) V^T with s in [0.75, 1.25], so cond(A) <= 5/3, and b is a
    shift of at most 0.25 per coordinate.
    """
    a = _orthogonal(rng, dim) @ np.diag(rng.uniform(0.75, 1.25, dim)) @ _orthogonal(rng, dim).T
    shift = rng.uniform(-0.25, 0.25, dim)
    standard = np.vstack([np.zeros(dim), np.eye(dim)])
    return standard @ a.T + shift


def random_direction(rng: np.random.Generator, dim: int) -> np.ndarray:
    u = rng.standard_normal(dim)
    return u / np.linalg.norm(u) * np.sqrt(dim)


def prepare(name: str, seed: int, workdir: Path, smoke: bool = False) -> Plan:
    """Write the workload's config under workdir and list its CLI calls."""
    sizes = (SMOKE_SIZES if smoke else SIZES)[name]
    dim = sizes["dim"]
    rng = _rng(name, seed)
    vertices = random_simplex(rng, dim)
    direction = random_direction(rng, dim)
    config_path = workdir / "config.json"
    config = {
        "simplex": {"vertices": vertices.tolist()},
        "function": {"terms": [{"c": 1.0, "a": direction.tolist()}]},
        "seed": seed,
    }
    if name == "tri-exp-sweep":
        config.update(n_values=sizes["n_values"], grid_resolution=sizes["grid"])
        calls = [["converge", "--config", str(config_path)]]
        outputs = ["converge.csv"]
    elif name == "tet-runge-xcheck":
        config.update(function="runge", n_values=sizes["n_values"], grid_resolution=sizes["grid"])
        calls = [
            ["converge", "--config", str(config_path), "--evaluator", "direct"],
            ["converge", "--config", str(config_path), "--evaluator", "decasteljau"],
        ]
        outputs = ["direct.csv", "decasteljau.csv"]
    else:
        config.update(n_values=[sizes["order"]], grid_resolution=sizes["grid"])
        scales = ",".join(repr(float(s)) for s in sizes["scales"])
        calls = [["scaling", "--config", str(config_path), "--scales", scales]]
        outputs = ["scaling.csv"]
    config_path.write_text(json.dumps(config, sort_keys=True) + "\n")
    return Plan(name, seed, sizes, vertices, direction, config_path, calls, outputs)
