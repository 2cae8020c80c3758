"""Readers for the benchmark's documents, shared by compare_bench.py and
smoke_test.py:

* ``BENCHMARK.json`` at the repository root: workloads and the end-to-end
  and per-layer metrics with their units, directions and bounds;
* ``rpcg-benchmark/v1``: one run of one workload, written by
  ``rpcg_bench --out FILE``;
* ``rpcg-trace/v1``: the spans of one traced run, written by
  ``rpcg_bench --trace FILE``;
* the result line: the JSON object on the last stdout line of every run.
"""

import json
from pathlib import Path

REPORT_SCHEMA = "rpcg-benchmark/v1"
TRACE_SCHEMA = "rpcg-trace/v1"
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


class ReportError(Exception):
    """A document failed to load or validate."""


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise ReportError(f"cannot read {path}: {e}") from e


def load_benchmark():
    """Loads the repository's BENCHMARK.json; returns it with each metric
    list turned into a name -> metric dict under the same key."""
    spec = _load_json(BENCHMARK)
    for key in ("workloads", "end_to_end", "per_layer"):
        if not isinstance(spec.get(key), list):
            raise ReportError(f"{BENCHMARK} has no {key} list")
    out = dict(spec)
    for key in ("end_to_end", "per_layer"):
        out[key] = {m["name"]: m for m in spec[key]}
    return out


def parse_result_line(stdout):
    """Parses and validates the result JSON on the last line of a run's
    stdout."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ReportError("run printed nothing")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        raise ReportError(f"last stdout line is not JSON: {e}") from e
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        raise ReportError("result line must have exactly the keys correct, "
                          "attempted, failed, metrics")
    return result


def load_report(path):
    """Loads and validates one rpcg-benchmark/v1 report."""
    report = _load_json(path)
    if report.get("schema") != REPORT_SCHEMA:
        raise ReportError(f"{path} is not an {REPORT_SCHEMA} report")
    for key in ("workload", "seed", "trace", "attempted", "failed",
                "metrics"):
        if key not in report:
            raise ReportError(f"{path} lacks '{key}'")
    for name, metric in report["metrics"].items():
        for key in ("value", "unit", "exact", "n", "q1", "median", "q3"):
            if key not in metric:
                raise ReportError(f"{path}: metric {name} lacks '{key}'")
    return report


def load_trace(path):
    """Loads an rpcg-trace/v1 trace and checks it: ids are unique and dense,
    every parent exists, and every span is closed. Returns the span list."""
    trace = _load_json(path)
    if trace.get("schema") != TRACE_SCHEMA:
        raise ReportError(f"{path} is not an {TRACE_SCHEMA} trace")
    spans = trace.get("spans")
    if not isinstance(spans, list) or not spans:
        raise ReportError(f"{path} has no spans")
    for i, span in enumerate(spans):
        if span.get("id") != i:
            raise ReportError(f"{path}: span {i} has id {span.get('id')}")
        parent = span.get("parent")
        if parent != -1 and not 0 <= parent < len(spans):
            raise ReportError(f"{path}: span {i} has unknown parent {parent}")
        if not span["end_us"] >= span["start_us"]:
            raise ReportError(f"{path}: span {i} ({span['name']}) is not "
                              "closed")
    return spans


def self_times_us(spans):
    """Each span's self time: its duration minus the part of it covered by
    its children (overlapping children are merged first)."""
    children = {}
    for s in spans:
        if s["parent"] >= 0:
            children.setdefault(s["parent"], []).append(
                (s["start_us"], s["end_us"]))
    out = []
    for s in spans:
        covered, end = 0.0, s["start_us"]
        for a, b in sorted(children.get(s["id"], [])):
            a, b = max(a, end), min(b, s["end_us"])
            if b > a:
                covered += b - a
                end = b
        out.append(s["end_us"] - s["start_us"] - covered)
    return out


def main(argv):
    """Prints, per trace file, each span name's count, total time and self
    time, largest self time first."""
    for path in argv:
        spans = load_trace(path)
        totals = {}
        for s, own in zip(spans, self_times_us(spans)):
            row = totals.setdefault((s["layer"], s["name"]), [0, 0.0, 0.0])
            row[0] += 1
            row[1] += s["end_us"] - s["start_us"]
            row[2] += own
        print(f"{path}: {len(spans)} spans")
        print(f"  {'layer':8} {'name':24} {'count':>7} {'total_s':>10} "
              f"{'self_s':>10}")
        for (layer, name), (count, total, own) in sorted(
                totals.items(), key=lambda kv: -kv[1][2]):
            print(f"  {layer:8} {name:24} {count:7d} {total * 1e-6:10.4f} "
                  f"{own * 1e-6:10.4f}")
    return 0


if __name__ == "__main__":
    import sys

    try:
        sys.exit(main(sys.argv[1:]))
    except ReportError as e:
        print(f"reports.py: {e}", file=sys.stderr)
        sys.exit(1)
