#!/usr/bin/env python3
"""Checks rpcg_bench runs against the best value every committed benchmark
snapshot holds, metric by metric.

    python3 bench/check_best.py REPORT.json ...

Each REPORT is one untraced run of one workload (`rpcg_bench --out FILE`,
an rpcg-benchmark/v1 report, read through rpcg_bench/reports.py); several
runs of a workload count by their median. The snapshots are the
rpcg-bench-pairs/v1 files at the repository root (BENCH_*.json, written by
bench/bench_pairs.py). For each workload x end-to-end metric of
BENCHMARK.json the script prints the candidate's median beside the best
median any snapshot holds for it, on either side, by the metric's
direction, and where that best comes from. A comparison with the parent
alone lets a metric drift by less than its bound in every change; this
one holds every change to the best the repository has shown.

Exit status 1 when a candidate median is worse than the best by more than
the metric's bound (a share of the best), when no snapshot loads, or when a
report fails to load or is traced; 2 on a usage error; 0 otherwise. A
workload without a report, or without a committed value, is listed and
not checked.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave rpcg_bench/ as it is
sys.path.insert(0, str(ROOT / "rpcg_bench"))
import reports  # noqa: E402

SCHEMA = "rpcg-bench-pairs/v1"


def load_snapshots():
    """(file name, snapshot) of every pairs snapshot at the root."""
    out = []
    for path in sorted(ROOT.glob("BENCH_*.json")):
        with open(path, "r", encoding="utf-8") as f:
            snapshot = json.load(f)
        if snapshot.get("schema") == SCHEMA:
            out.append((path.name, snapshot))
    if not out:
        raise reports.ReportError(f"no {SCHEMA} snapshot in {ROOT}")
    return out


def best(snapshots, workload, metric, better):
    """The best committed median and where it comes from, or None."""
    values = []
    for name, snapshot in snapshots:
        sides = snapshot["workloads"].get(workload)
        if sides is None:
            continue
        for side in ("parent", "change"):
            metrics = sides[side]["metrics"]
            if metric in metrics:
                values.append((metrics[metric]["median"], f"{name} {side}"))
    if not values:
        return None
    pick = min if better == "lower" else max
    return pick(values, key=lambda v: v[0])


def check(report_paths):
    """Prints one line per workload x metric; returns the failure count."""
    spec = reports.load_benchmark()
    snapshots = load_snapshots()
    runs = {}
    for path in report_paths:
        report = reports.load_report(path)
        if report["trace"]:
            raise reports.ReportError(f"{path} is a traced run")
        runs.setdefault(report["workload"], []).append(report)
    print(f"best of {', '.join(name for name, _ in snapshots)}")
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        if workload not in runs:
            print(f"--   {workload:18} no report")
            continue
        for metric, m in spec["end_to_end"].items():
            median = statistics.median(r["metrics"][metric]["value"]
                                       for r in runs[workload])
            found = best(snapshots, workload, metric, m["better"])
            if found is None:
                print(f"--   {workload:18} {metric:18} {median:>12.6g}  "
                      "no committed value")
                continue
            value, source = found
            if m["better"] == "lower":
                worse = median > value * (1.0 + m["bound"])
            else:
                worse = median < value * (1.0 - m["bound"])
            diff = f"{(median - value) / value:+8.1%}" if value else "       -"
            print(f"{'FAIL' if worse else 'ok  '} {workload:18} {metric:18} "
                  f"{median:>12.6g}  best {value:>12.6g} {diff}  "
                  f"({source}, bound {m['bound']:.0%})")
            failures += worse
    return failures


def main(argv):
    if not argv or argv[0].startswith("-"):
        print("usage: " + __doc__.splitlines()[3].strip(), file=sys.stderr)
        return 2
    try:
        failures = check(argv)
    except (OSError, KeyError, json.JSONDecodeError,
            reports.ReportError) as e:
        print(f"check_best.py: {e!r}", file=sys.stderr)
        return 1
    print(f"{failures} metric(s) worse than the best by more than the bound")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
