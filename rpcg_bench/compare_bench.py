#!/usr/bin/env python3
"""Compares two sets of rpcg-benchmark/v1 runs, parent against change.

    python3 rpcg_bench/compare_bench.py --parent P1.json P2.json ... \\
                                        --change C1.json C2.json ...

Each file is one untraced run (rpcg_bench --out FILE); a set holds several
runs per workload. For every workload run on both sides and every
end-to-end metric of the repository's BENCHMARK.json it prints both medians
with their quartiles across runs and a verdict.

An exact metric (one read from simulated results, which repeat bit for bit
for the same input) run with the same seeds on both sides gets:

  identical   every seed both sides ran gave the same value
  changed     some seed gave a different value

Any other metric gets:

  worse       the change's median is worse than the parent's by more than
              the metric's bound (a share of the parent's median)
  better      the change's median is better by more than the bound, or
              every change run beats every parent run
  unresolved  the parent's own interquartile range is wider than the bound,
              and not every change run beats every parent run
  unchanged   otherwise

Exit status 1 on any worse or changed verdict, or when a workload's share
of failed requests is higher on the change side; 0 otherwise.
"""

import argparse
import statistics
import sys
from collections import defaultdict

import reports


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(parent, change, better, bound):
    pm, cm = statistics.median(parent), statistics.median(change)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (cm - pm) / pm
    q1, q3 = quartiles(parent)
    spread = (q3 - q1) / abs(pm)
    if better == "lower":
        all_better = max(change) < min(parent)
    else:
        all_better = min(change) > max(parent)
    if spread > bound and not all_better:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if -worse_by > bound or all_better:
        return "better"
    return "unchanged"


def exact_verdict(p_runs, c_runs, name):
    """identical/changed when the metric is exact and both sides share a
    seed; None otherwise."""
    if not all(r["metrics"][name]["exact"] for r in p_runs + c_runs):
        return None
    by_seed = [{r["seed"]: r["metrics"][name]["value"] for r in runs}
               for runs in (p_runs, c_runs)]
    shared = by_seed[0].keys() & by_seed[1].keys()
    if not shared:
        return None
    same = all(by_seed[0][s] == by_seed[1][s] for s in shared)
    return "identical" if same else "changed"


def load_set(paths):
    """workload -> list of untraced reports."""
    runs = defaultdict(list)
    for path in paths:
        report = reports.load_report(path)
        if not report["trace"]:
            runs[report["workload"]].append(report)
    return runs


def failed_share(runs):
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 1.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args()

    try:
        spec = reports.load_benchmark()
        parent, change = load_set(args.parent), load_set(args.change)
    except reports.ReportError as e:
        print(f"compare_bench: {e}", file=sys.stderr)
        return 2
    workloads = [w["name"] for w in spec["workloads"]
                 if w["name"] in parent and w["name"] in change]
    if not workloads:
        print("compare_bench: no workload has runs on both sides",
              file=sys.stderr)
        return 2

    status = 0
    print(f"{'workload':18} {'metric':20} {'unit':7} "
          f"{'parent med [q1, q3]':>34} {'change med [q1, q3]':>34} "
          f"{'delta':>8}  verdict")
    for w in workloads:
        p_runs, c_runs = parent[w], change[w]
        for name, m in spec["end_to_end"].items():
            p = [r["metrics"][name]["value"] for r in p_runs]
            c = [r["metrics"][name]["value"] for r in c_runs]
            v = (exact_verdict(p_runs, c_runs, name)
                 or verdict(p, c, m["better"], m["bound"]))
            if v in ("worse", "changed"):
                status = 1
            cells = []
            for values in (p, c):
                q1, q3 = quartiles(values)
                cells.append(f"{statistics.median(values):.6g} "
                             f"[{q1:.6g}, {q3:.6g}]")
            delta = (statistics.median(c) / statistics.median(p) - 1.0) * 100
            print(f"{w:18} {name:20} {m['unit']:7} {cells[0]:>34} "
                  f"{cells[1]:>34} {delta:+7.2f}%  {v}")
        pf, cf = failed_share(p_runs), failed_share(c_runs)
        if cf > pf:
            status = 1
            print(f"{w:18} failed requests: parent {pf:.2%}, change {cf:.2%}"
                  "  worse")
    return status


if __name__ == "__main__":
    sys.exit(main())
