#!/usr/bin/env python3
"""Writes a benchmark snapshot of a parent and a change commit from
alternating rpcg_bench runs.

    python3 bench/bench_pairs.py --parent-commit SHA --change-commit SHA \\
        --parent P1.json P2.json ... --change C1.json C2.json ... \\
        --out BENCH_PRnn.json

Each file is one untraced run of one workload (`rpcg_bench --out FILE`, an
rpcg-benchmark/v1 report, read through rpcg_bench/reports.py), and the two
sides ran alternately as rpcg_bench/README.md describes. The snapshot
(schema rpcg-bench-pairs/v1) holds the two commits, the host CPU, the seeds
of each workload, the run order (every report by the time it was written,
so run the script on the reports as the runs left them), and for every
workload run on both sides, per side and end-to-end metric of
BENCHMARK.json: n, median, q1 and q3 over the runs (quartiles as
compare_bench.py takes them) and the runs' values in run order.

Exit status 1 when a report fails to load or is traced, 2 on a usage error;
0 otherwise.
"""

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave rpcg_bench/ as it is
sys.path.insert(0, str(ROOT / "rpcg_bench"))
import reports  # noqa: E402

SCHEMA = "rpcg-bench-pairs/v1"


def host_cpu():
    """The CPU model name, from /proc/cpuinfo where there is one."""
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def summary(values):
    """n, median, q1, q3 and the values themselves."""
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": statistics.median(values),
            "q1": q1, "q3": q3, "values": values}


def snapshot(args):
    spec = reports.load_benchmark()
    runs = []  # (mtime, side, report)
    for side, paths in (("parent", args.parent), ("change", args.change)):
        for path in paths:
            report = reports.load_report(path)
            if report["trace"]:
                raise reports.ReportError(f"{path} is a traced run")
            runs.append((os.path.getmtime(path), side, report))
    runs.sort(key=lambda run: run[0])
    workloads = {}
    for w in spec["workloads"]:
        name = w["name"]
        sides = {side: [r for _, s, r in runs
                        if s == side and r["workload"] == name]
                 for side in ("parent", "change")}
        if not sides["parent"] or not sides["change"]:
            continue
        workloads[name] = {
            "seeds": sorted({r["seed"] for rs in sides.values() for r in rs}),
            **{side: {
                "failed": sum(r["failed"] for r in rs),
                "attempted": sum(r["attempted"] for r in rs),
                "metrics": {
                    metric: summary([r["metrics"][metric]["value"]
                                     for r in rs])
                    for metric in spec["end_to_end"]},
            } for side, rs in sides.items()},
        }
    return {
        "schema": SCHEMA,
        "parent_commit": args.parent_commit,
        "change_commit": args.change_commit,
        "host_cpu": host_cpu(),
        "run_order": [f"{side} {r['workload']} {r['seed']}"
                      for _, side, r in runs],
        "workloads": workloads,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent-commit", required=True)
    parser.add_argument("--change-commit", required=True)
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    try:
        out = snapshot(args)
    except (OSError, KeyError, reports.ReportError) as e:
        print(f"bench_pairs.py: {e}", file=sys.stderr)
        return 1
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(out, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
