#!/usr/bin/env python3
"""Builds rpcg_bench from this checkout and runs one benchmark workload.

    python3 rpcg_bench/run.py --workload W --seed S --seconds T --trace 0|1
                              [--out FILE]

Run it from the root of a checkout. The first run configures and builds the
rpcg library plus rpcg_bench into .bench_build/ (Release); later runs only
rebuild what changed. With --trace 1 rpcg_bench also writes its spans to
.bench_build/trace-W-S.json and reports the per-layer metrics instead of the
end-to-end ones. Its last stdout line is the result JSON; the exit
status is its own (0 ok, 1 a check failed, 2 usage or build error).
--workload all runs every workload, each in its own process.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("m1-iterate", "m8-dense-rows", "m2-recover", "pipelined-latency",
             "service-mix")


def build():
    """Configures (once) and builds rpcg_bench; build output goes to stderr
    so stdout stays the program's. Returns the binary path or None."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        print(f"run.py: {ROOT} holds no rpcg sources to build",
              file=sys.stderr)
        return None
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "rpcg_bench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("run.py: build failed: " + " ".join(cmd), file=sys.stderr)
            return None
    return BUILD / "rpcg_bench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write an rpcg-benchmark/v1 "
                        "report (for compare_bench.py)")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    binary = build()
    if binary is None:
        return 2
    status = 0
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds)]
        if args.trace:
            trace = BUILD / f"trace-{workload}-{args.seed}.json"
            cmd += ["--trace", str(trace)]
        if args.out:
            out = args.out
            if args.workload == "all":
                out = f"{out}.{workload}.json"
            cmd += ["--out", out]
        sys.stdout.flush()
        status = max(status, subprocess.run(cmd).returncode)
    return status


if __name__ == "__main__":
    sys.exit(main())
