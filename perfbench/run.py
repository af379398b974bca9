"""bezsimplex benchmark: times the CLI end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a source tree. The benchmark spawns the ``bezsimplex``
CLI from ``src/`` as fresh processes in a closed loop (one client, one child
process at a time, BLAS threads set to the number of usable cores) and
repeats the workload until S seconds have passed. It prints, as the last line
of stdout, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer metrics
of a separate traced run with ``--trace 1``.

End-to-end metrics, per workload:
  wall_s       median over loop iterations of spawn-of-first-call to exit-of-last-call
  setup_s      median over fresh interpreters of ``import bezsimplex.cli`` + ``load_config``
  peak_rss_mb  median over iterations of the largest child ru_maxrss (os.wait4)

Failures are counted per CLI call: a non-zero exit, a failed correctness gate
(perfbench/gates.py), or CSV bytes that differ from the first iteration's.
``failed / attempted`` is the failure share. Each run leaves a record with
its provenance under .perfbench_out/records/.

``--smoke`` runs every workload at tiny sizes, with its traced run and every
gate, and exits non-zero if anything fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np
import scipy

import gates
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_ROOT = ROOT / ".perfbench_out"
BENCH_DIR = Path(__file__).resolve().parent

SETUP_REPEATS = 9
TRACED_REPEATS = 2
CALL_TIMEOUT_S = 150.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_SNIPPET = "import sys, bezsimplex.cli as cli; cli.load_config(sys.argv[1])"
PROBE_SNIPPET = "import bezsimplex.cli, bezsimplex; print(bezsimplex.__file__)"


class SetupError(Exception):
    """The program under test cannot be found or started; no result is printed."""


def child_env() -> dict:
    cores = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in BLAS_THREAD_VARS:
        env[var] = str(cores)
    return env


def spawn(args: list, env: dict, stderr_path: Path) -> tuple[int, float, float]:
    """Run one child to exit: (exit code, wall seconds, ru_maxrss in MB)."""
    with open(stderr_path, "w") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(args, env=env, stdout=subprocess.DEVNULL, stderr=err, cwd=ROOT)
        killer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def sha256(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


def run_iteration(plan, out: Path, env: dict, traced: bool) -> dict:
    """One pass over the workload's CLI calls, one process at a time."""
    out.mkdir(parents=True, exist_ok=True)
    codes, rss, span_files, stderr_tails = [], [], [], []
    started = time.perf_counter()
    for index, (call, name) in enumerate(zip(plan.calls, plan.outputs)):
        csv_path = out / name
        if traced:
            spans = out / f"spans_{index}.json"
            span_files.append(spans)
            prefix = [sys.executable, str(BENCH_DIR / "tracer.py"), str(spans), str(index)]
        else:
            prefix = [sys.executable, "-m", "bezsimplex.cli"]
        stderr_path = out / f"stderr_{index}.txt"
        code, _, maxrss = spawn(prefix + call + ["--out", str(csv_path)], env, stderr_path)
        if code != 0:
            stderr_tails.append(stderr_path.read_text()[-1000:])
        codes.append(code)
        rss.append(maxrss)
    wall = time.perf_counter() - started
    hashes = {name: sha256(out / name) for name in plan.outputs}
    return {"wall": wall, "codes": codes, "rss": max(rss), "hashes": hashes,
            "span_files": span_files, "stderr": stderr_tails,
            "csv_bytes": sum((out / name).stat().st_size for name in plan.outputs
                             if (out / name).exists())}


def measure_setup(plan, env: dict, workdir: Path, repeats: int) -> list:
    samples = []
    for _ in range(repeats):
        code, wall, _ = spawn([sys.executable, "-c", SETUP_SNIPPET, str(plan.config_path)],
                              env, workdir / "stderr_setup.txt")
        if code != 0:
            raise SetupError(f"setup probe exited {code}: "
                             + (workdir / "stderr_setup.txt").read_text()[-2000:])
        samples.append(wall)
    return samples


def probe(env: dict) -> str:
    """Check that bezsimplex imports from this tree's src/; return its path."""
    if not (ROOT / "src" / "bezsimplex" / "cli.py").is_file():
        raise SetupError(f"no src/bezsimplex/cli.py under {ROOT}")
    result = subprocess.run([sys.executable, "-c", PROBE_SNIPPET], env=env, cwd=ROOT,
                            capture_output=True, text=True, timeout=120)
    location = Path(result.stdout.strip() or ".").resolve()
    if result.returncode != 0 or not location.is_relative_to(ROOT / "src"):
        raise SetupError(f"bezsimplex does not import from {ROOT / 'src'}: "
                         f"{result.stdout.strip()} {result.stderr[-2000:]}")
    return str(location)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=30)
    except OSError:
        return None
    return result.stdout.strip() or None


def provenance(env: dict, seed: int) -> dict:
    return {
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: env[var] for var in BLAS_THREAD_VARS},
        "seed": seed,
    }


def benchmark(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Run one workload; return the record, including the result line."""
    env = child_env()
    module_path = probe(env)
    OUT_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-s{seed}-", dir=OUT_ROOT))
    try:
        plan = workloads.prepare(name, seed, workdir, smoke=smoke)
        setup = measure_setup(plan, env, workdir, 1 if smoke else SETUP_REPEATS)

        untraced = []
        loop_start = time.perf_counter()
        while not untraced or time.perf_counter() - loop_start < seconds:
            untraced.append(run_iteration(plan, workdir / f"iter{len(untraced)}", env, False))
        traced = [run_iteration(plan, workdir / f"traced{i}", env, True)
                  for i in range(TRACED_REPEATS if trace else 0)]

        # The first clean iteration is gated; every other iteration must
        # match its bytes, so the gate's verdict carries over to it.
        clean = [it for it in untraced if not any(it["codes"])]
        reference = clean[0]["hashes"] if clean else None
        gate_errors = (gates.check(plan, workdir / f"iter{untraced.index(clean[0])}")
                       if clean else ["no iteration exited cleanly"])
        errors = list(gate_errors)
        attempted = failed = 0
        for i, iteration in enumerate(untraced + traced):
            for code, out_name in zip(iteration["codes"], plan.outputs):
                attempted += 1
                digest = iteration["hashes"][out_name]
                if code != 0 or gate_errors or digest is None or digest != reference[out_name]:
                    failed += 1
            if any(iteration["codes"]) or iteration["hashes"] != reference:
                errors.append(f"iteration {i}: exit codes {iteration['codes']}, "
                              f"CSV bytes differ from the first clean iteration "
                              f"{iteration['stderr']}")

        walls = [it["wall"] for it in untraced]
        wall_median = statistics.median(walls)
        metrics = {}
        if trace:
            layer_runs = [
                tracer.layer_metrics(it["span_files"], it["csv_bytes"], it["wall"] - wall_median)
                for it in traced if not any(it["codes"])
            ]
            if len(layer_runs) == TRACED_REPEATS:
                for key in tracer.COMPUTED:
                    counts = {run[key] for run in layer_runs}
                    if len(counts) != 1:
                        errors.append(f"computed count {key} differs between traced runs: {counts}")
                for key, unit in tracer.METRICS.items():
                    value = (layer_runs[0][key] if key in tracer.COMPUTED
                             else statistics.median(run[key] for run in layer_runs))
                    metrics[key] = {"value": value, "unit": unit}
            else:
                errors.append("a traced run failed")
        else:
            metrics = {
                "wall_s": {"value": wall_median, "unit": "s"},
                "setup_s": {"value": statistics.median(setup), "unit": "s"},
                "peak_rss_mb": {"value": statistics.median(it["rss"] for it in untraced),
                                "unit": "MB"},
            }
        result = {"correct": not errors and failed == 0, "attempted": attempted,
                  "failed": failed, "metrics": metrics}
        return {
            "result": result,
            "errors": errors,
            "provenance": {**provenance(env, seed), "bezsimplex": module_path},
            "plan": plan.describe(),
            "trace": trace,
            "smoke": smoke,
            "seconds": seconds,
            "samples": {"wall_s": walls, "setup_s": setup,
                        "peak_rss_mb": [it["rss"] for it in untraced],
                        "traced_wall_s": [it["wall"] for it in traced]},
            "csv_sha256": reference,
            "computed_counts": list(tracer.COMPUTED) if trace else [],
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def save(record: dict) -> Path:
    records = OUT_ROOT / "records"
    records.mkdir(parents=True, exist_ok=True)
    plan = record["plan"]
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = records / (f"{plan['workload']}-s{plan['seed']}-t{int(record['trace'])}"
                      f"-{stamp}-{os.getpid()}.json")
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return path


def smoke() -> int:
    started = time.perf_counter()
    status = 0
    for name in workloads.NAMES:
        record = benchmark(name, seed=0, seconds=0, trace=True, smoke=True)
        result = record["result"]
        ok = result["correct"] and result["attempted"] > 0
        status |= not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {result['attempted']} calls, "
              f"{result['failed']} failed {record['errors'] or ''}")
    print(f"smoke {'passed' if status == 0 else 'FAILED'} in {time.perf_counter() - started:.1f} s")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes of every workload")
    args = parser.parse_args()
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required unless --smoke is given")
        record = benchmark(args.workload, args.seed, args.seconds, bool(args.trace), False)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    saved = save(record)
    for error in record["errors"]:
        print(f"perfbench: {error}", file=sys.stderr)
    print(f"perfbench: record written to {saved.relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
