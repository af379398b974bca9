"""Summarise benchmark records into one trajectory point, BENCH_<label>.json.

    python3 perfbench/trajectory.py LABEL

Reads the records run.py left under .perfbench_out/records, keeps those of
the current src/ tree, and writes
perfbench/trajectory/BENCH_<LABEL>.json: per workload and metric, the number
of runs, the median and the quartiles of the per-run values, plus the
provenance of the runs. Exits non-zero if no record matches, or if two
runs with the same workload and seed wrote different CSV bytes.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from run import ROOT, OUT_ROOT, source_digest


def summarise(values: list) -> dict:
    quartiles = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"runs": len(values), "median": statistics.median(values),
            "q1": quartiles[0], "q3": quartiles[2]}


def main(argv: list) -> int:
    label = argv[0]
    record_dir = OUT_ROOT / "records"
    digest = source_digest()
    records = [json.loads(p.read_text()) for p in sorted(record_dir.glob("*.json"))]
    records = [r for r in records
               if r["provenance"]["src_sha256"] == digest and not r["smoke"]]
    if not records:
        print(f"no records of this src/ tree under {record_dir}", file=sys.stderr)
        return 1

    # Runs of one tree with one seed must have written the same CSV bytes.
    by_input: dict = {}
    for record in records:
        key = (record["plan"]["workload"], record["plan"]["seed"])
        by_input.setdefault(key, set()).add(json.dumps(record["csv_sha256"], sort_keys=True))
    mismatched = sorted(key for key, digests in by_input.items() if len(digests) > 1)

    workloads: dict = {}
    for record in records:
        entry = workloads.setdefault(record["plan"]["workload"],
                                     {"seeds": [], "failed": 0, "attempted": 0, "metrics": {}})
        result = record["result"]
        entry["seeds"].append(record["plan"]["seed"])
        entry["failed"] += result["failed"]
        entry["attempted"] += result["attempted"]
        for key, metric in result["metrics"].items():
            entry["metrics"].setdefault(key, {"unit": metric["unit"], "values": []})
            entry["metrics"][key]["values"].append(metric["value"])
    for entry in workloads.values():
        entry["seeds"].sort()
        entry["fail_frac"] = entry["failed"] / entry["attempted"]
        for metric in entry["metrics"].values():
            metric.update(summarise(metric.pop("values")))

    provenance = {key: value for key, value in records[0]["provenance"].items()
                  if key not in ("seed", "bezsimplex")}
    point = {"label": label, "provenance": provenance, "csv_mismatches": mismatched,
             "run_seconds": sorted({r["seconds"] for r in records}),
             "workloads": dict(sorted(workloads.items()))}
    target = Path(__file__).resolve().parent / "trajectory" / f"BENCH_{label}.json"
    target.parent.mkdir(exist_ok=True)
    target.write_text(json.dumps(point, indent=1, sort_keys=True) + "\n")
    print(f"wrote {target.relative_to(ROOT)} from {len(records)} records")
    for workload, seed in mismatched:
        print(f"{workload} seed {seed}: CSV bytes differ between runs", file=sys.stderr)
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
