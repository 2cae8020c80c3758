#!/usr/bin/env python3
"""Checks the simulated metrics of rpcg_bench smoke runs against a
committed snapshot, exactly.

    python3 bench/check_exact_sim.py BENCH_SMOKE_EXACT.json REPORT.json ...

Each REPORT is one `rpcg_bench --workload W --seed S --seconds 0 --smoke
--out REPORT` run (an rpcg-benchmark/v1 report, read through
rpcg_bench/reports.py). The snapshot holds, per workload of BENCHMARK.json,
the smoke run's values of the simulated metrics: sim_time_s,
sim_overhead_ratio and iterations. They are exact for a given input (every
rep and round repeats them, so the run length does not matter), and every
report must reproduce them bit for bit; a change meant to move them (a new
cost model) regenerates the snapshot and says why.

Exit status 1 on any difference, on a workload of BENCHMARK.json that the
snapshot or the reports leave out, on a report of another seed or of a
traced run, or on a report that fails to load; 0 otherwise.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave rpcg_bench/ as it is
sys.path.insert(0, str(ROOT / "rpcg_bench"))
import reports  # noqa: E402

SCHEMA = "rpcg-smoke-exact/v1"
METRICS = ("sim_time_s", "sim_overhead_ratio", "iterations")


def check(snapshot_path, report_paths):
    """Prints one line per workload x metric; returns the failure count."""
    with open(snapshot_path, "r", encoding="utf-8") as f:
        snapshot = json.load(f)
    if snapshot.get("schema") != SCHEMA:
        raise reports.ReportError(f"{snapshot_path} is not an {SCHEMA} "
                                  "snapshot")
    expected = snapshot["workloads"]
    seed = snapshot["seed"]
    failures = 0
    runs = {}
    for path in report_paths:
        report = reports.load_report(path)
        name = report["workload"]
        if report["seed"] != seed or report["trace"]:
            print(f"FAIL {path}: want an untraced run of seed {seed}, got "
                  f"seed {report['seed']}, trace {report['trace']}")
            failures += 1
        elif name in runs:
            print(f"FAIL {path}: a second report of {name}")
            failures += 1
        else:
            runs[name] = report
    for name in reports.load_benchmark()["workloads"]:
        name = name["name"]
        if name not in expected:
            print(f"FAIL {name}: not in {snapshot_path}")
            failures += 1
            continue
        if name not in runs:
            print(f"FAIL {name}: no report")
            failures += 1
            continue
        for metric in METRICS:
            want = expected[name][metric]
            got = runs[name]["metrics"][metric]["value"]
            same = got == want
            print(f"{'ok  ' if same else 'FAIL'} {name:18} {metric:18} "
                  f"{got!r:>22}" + ("" if same else f" (snapshot {want!r})"))
            failures += not same
    for name in sorted(set(runs) - set(expected)):
        print(f"FAIL {name}: reported but not in {snapshot_path}")
        failures += 1
    return failures


def main(argv):
    if len(argv) < 2:
        print("usage: " + __doc__.splitlines()[3].strip(), file=sys.stderr)
        return 2
    try:
        failures = check(argv[0], argv[1:])
    except (OSError, KeyError, json.JSONDecodeError,
            reports.ReportError) as e:
        print(f"check_exact_sim.py: {e!r}", file=sys.stderr)
        return 1
    print(f"{failures} difference(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
