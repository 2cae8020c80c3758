#!/usr/bin/env python3
"""Smoke test of rpcg_bench: every workload of BENCHMARK.json at scale 64
with one rep (8 jobs for the service), once untraced and once traced.

    python3 rpcg_bench/smoke_test.py --binary PATH --work-dir DIR

Each run must exit 0 with every check passed, and report exactly the
metrics BENCHMARK.json lists for its kind, with the same units. Each trace
must parse with every span closed. The whole test must take under 10 s.
"""

import argparse
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import reports

TIME_LIMIT_S = 10.0


def run(binary, workload, trace, metrics):
    """Runs one smoke run; returns a list of problems (empty when fine)."""
    cmd = [binary, "--workload", workload, "--seed", "1", "--seconds", "0",
           "--smoke"]
    if trace is not None:
        cmd += ["--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    kind = "traced" if trace is not None else "untraced"
    where = f"{workload} ({kind})"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()}"]
    try:
        result = reports.parse_result_line(proc.stdout)
        if trace is not None:
            reports.load_trace(trace)
    except reports.ReportError as e:
        return [f"{where}: {e}"]
    problems = []
    if not result["correct"] or result["failed"] != 0:
        problems.append(f"{where}: checks failed: {proc.stderr.strip()}")
    if set(result["metrics"]) != set(metrics):
        problems.append(f"{where}: metric names differ from BENCHMARK.json: "
                        f"{sorted(set(result['metrics']) ^ set(metrics))}")
    for name, m in result["metrics"].items():
        if name in metrics and m["unit"] != metrics[name]["unit"]:
            problems.append(f"{where}: {name} has unit {m['unit']}, "
                            f"BENCHMARK.json says {metrics[name]['unit']}")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--binary", required=True)
    parser.add_argument("--work-dir", required=True)
    args = parser.parse_args()

    spec = reports.load_benchmark()
    work = Path(args.work_dir)
    work.mkdir(parents=True, exist_ok=True)
    runs = []
    for w in spec["workloads"]:
        name = w["name"]
        runs.append((name, None, spec["end_to_end"]))
        runs.append((name, work / f"trace-{name}.json", spec["per_layer"]))
    start = time.monotonic()
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = pool.map(lambda r: run(args.binary, *r), runs)
        problems = [p for result in results for p in result]
    elapsed = time.monotonic() - start
    if elapsed > TIME_LIMIT_S:
        problems.append(f"smoke runs took {elapsed:.1f} s, over the "
                        f"{TIME_LIMIT_S:.0f} s limit")
    for p in problems:
        print(f"FAIL {p}")
    print(f"{len(spec['workloads'])} workloads, {elapsed:.1f} s, "
          f"{'FAILED' if problems else 'ok'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
