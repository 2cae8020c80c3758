#!/usr/bin/env python3
"""Readers and aggregators for rpcg JSON reports.

Two report dialects share a home here:

* ``rpcg-bench-report/v1`` — the per-PR perf snapshots run_all emits
  (BENCH_PR2.json, BENCH_PR3.json, ...). ``load_bench_report`` validates
  one, ``bench_map`` indexes it by bench name, and ``trajectory`` folds a
  sequence of snapshots into a per-bench wall-time table, so the perf
  trajectory of the repo is one command:

      python3 bench/report_tools.py BENCH_PR2.json BENCH_PR3.json ...

* ``rpcg-solve-report/v2`` — the per-solve records the engine emits.
  ``load_solve_report`` validates one (file or already-parsed dict): every
  top-level key must be present, and only the ``checkpoint`` and
  ``scenario`` sections may be null.

* ``rpcg-pipelined-overhead/v1`` — the depth x latency sweep the
  pipelined_overhead bench emits via --metrics-out (run_all embeds it as
  that bench's ``metrics`` field, so it rides inside the per-PR snapshot).
  ``load_pipelined_sweep`` validates one and ``format_sweep`` renders the
  exposed-reduction-time table, one row per (solver, depth), one column per
  latency point; the trajectory command prints it for the newest snapshot
  that carries one.

bench/check_regression.py builds its gate on these readers.
"""

import json
import sys

BENCH_SCHEMA = "rpcg-bench-report/v1"
SOLVE_SCHEMA = "rpcg-solve-report/v2"
SOLVE_KEYS = (
    "schema", "solver", "preconditioner", "converged", "iterations",
    "rel_residual", "solver_residual_norm", "true_residual_norm",
    "delta_metric", "sim_time", "sim_time_phase", "wall_seconds",
    "redundancy_overhead_per_iteration", "reduction_time", "checkpoint",
    "scenario", "checkpoints_written", "rolled_back_iterations", "recoveries",
)
SOLVE_NULLABLE = ("checkpoint", "scenario")
PIPELINED_SCHEMA = "rpcg-pipelined-overhead/v1"


class ReportError(Exception):
    """A report failed to load or validate."""


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise ReportError(f"cannot read {path}: {e}") from e


def load_bench_report(path):
    """Loads and validates one rpcg-bench-report/v1 snapshot."""
    report = _load_json(path)
    if report.get("schema") != BENCH_SCHEMA:
        raise ReportError(f"{path} is not an {BENCH_SCHEMA}")
    if not isinstance(report.get("benches"), list):
        raise ReportError(f"{path} has no benches array")
    return report


def load_solve_report(source):
    """Validates one rpcg-solve-report/v2 record.

    `source` is a path or an already-parsed dict (solve reports are usually
    embedded in other documents rather than stored standalone).
    """
    report = source if isinstance(source, dict) else _load_json(source)
    if report.get("schema") != SOLVE_SCHEMA:
        raise ReportError(f"solve report has schema "
                          f"{report.get('schema')!r}, expected {SOLVE_SCHEMA}")
    for key in SOLVE_KEYS:
        if key not in report:
            raise ReportError(f"solve report lacks '{key}'")
        if report[key] is None and key not in SOLVE_NULLABLE:
            raise ReportError(f"solve report key '{key}' is null")
    for key in ("posted", "hidden", "exposed", "count"):
        if key not in report["reduction_time"]:
            raise ReportError(f"reduction_time block lacks '{key}'")
    return report


def load_pipelined_sweep(source):
    """Validates one rpcg-pipelined-overhead/v1 sweep (path or parsed dict,
    the latter for sweeps embedded as a bench record's ``metrics``)."""
    sweep = source if isinstance(source, dict) else _load_json(source)
    if sweep.get("schema") != PIPELINED_SCHEMA:
        raise ReportError(f"sweep has schema {sweep.get('schema')!r}, "
                          f"expected {PIPELINED_SCHEMA}")
    points = sweep.get("points")
    if not isinstance(points, list):
        raise ReportError("pipelined sweep has no points array")
    for p in points:
        for key in ("matrix", "latency_s", "solver", "depth", "iterations",
                    "converged", "posted", "hidden", "exposed"):
            if key not in p:
                raise ReportError(f"sweep point lacks '{key}': {p}")
    return sweep


def format_sweep(sweep):
    """Renders one pipelined sweep as an exposed-seconds table: one row per
    (matrix, solver, depth), one column per swept latency. A '!' marks
    points that did not converge."""
    latencies = sorted({p["latency_s"] for p in sweep["points"]})
    rows = {}  # (matrix, solver, depth) -> {latency: point}
    for p in sweep["points"]:
        rows.setdefault((p["matrix"], p["solver"], p["depth"]), {})[
            p["latency_s"]] = p
    name_w = max(len(f"{m} {s} d{d}") for (m, s, d) in rows)
    out = [f"{'exposed[s]':<{name_w}} " +
           " ".join(f"{lam:>11.2e}" for lam in latencies)]
    for (matrix, solver, depth), by_lam in sorted(rows.items()):
        cells = []
        for lam in latencies:
            p = by_lam.get(lam)
            if p is None:
                cells.append(f"{'-':>11}")
            else:
                mark = " " if p["converged"] else "!"
                cells.append(f"{p['exposed']:>10.3e}{mark}")
        label = f"{matrix} {solver} d{depth}"
        out.append(f"{label:<{name_w}} " + " ".join(cells))
    return "\n".join(out)


def bench_map(report):
    """{bench name: bench record} for one snapshot."""
    return {b["name"]: b for b in report["benches"]}


def bench_wall_seconds(bench):
    """Wall seconds of one bench record, or None when the run is unusable
    as a data point (non-zero exit, e.g. 127 from a missing binary, or a
    zero/negative time)."""
    if bench.get("exit_code", -1) != 0:
        return None
    wall = bench.get("wall_seconds", 0.0)
    return wall if wall > 0.0 else None


def trajectory(reports):
    """Folds snapshots (oldest first) into {bench: [wall-or-None, ...]}.

    Every bench that appears in any snapshot gets a row; positions where it
    was absent or failed hold None, so suite growth and dropped benches stay
    visible across the whole trajectory.
    """
    names = []
    seen = set()
    for report in reports:
        for b in report["benches"]:
            if b["name"] not in seen:
                seen.add(b["name"])
                names.append(b["name"])
    maps = [bench_map(report) for report in reports]
    rows = {}
    for name in names:
        row = []
        for benches in maps:
            bench = benches.get(name)
            row.append(None if bench is None else bench_wall_seconds(bench))
        rows[name] = row
    return rows


def format_trajectory(labels, rows, totals=None):
    """Renders the trajectory table: one row per bench, one column per
    snapshot, '-' for missing/failed entries, and the relative change of
    the last column against the first present value."""
    name_w = max([len(n) for n in rows] + [len("bench")])
    out = [f"{'bench':<{name_w}} " +
           " ".join(f"{label:>10}" for label in labels) + f" {'change':>8}"]
    for name, row in rows.items():
        cells = " ".join("         -" if v is None else f"{v:10.2f}"
                         for v in row)
        present = [v for v in row if v is not None]
        change = ("        -" if len(present) < 2 or present[0] <= 0.0
                  else f"{100.0 * (present[-1] - present[0]) / present[0]:+7.1f}%")
        out.append(f"{name:<{name_w}} {cells} {change}")
    if totals is not None:
        cells = " ".join("         -" if v is None else f"{v:10.2f}"
                         for v in totals)
        out.append(f"{'total':<{name_w}} {cells}")
    return "\n".join(out)


def main(argv):
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    paths = argv[1:]
    try:
        reports = [load_bench_report(p) for p in paths]
    except ReportError as e:
        print(f"report_tools: {e}", file=sys.stderr)
        return 2
    labels = [p.rsplit("/", 1)[-1].removesuffix(".json") for p in paths]
    totals = [r.get("total_wall_seconds") for r in reports]
    print(format_trajectory(labels, trajectory(reports), totals))
    # The newest snapshot carrying a pipelined depth x latency sweep gets
    # its exposed-time table appended (the sweep rides as an embedded
    # metrics document, so old snapshots without it stay readable).
    for report, label in zip(reversed(reports), reversed(labels)):
        for bench in report["benches"]:
            metrics = bench.get("metrics")
            if isinstance(metrics, dict) and \
                    metrics.get("schema") == PIPELINED_SCHEMA:
                try:
                    sweep = load_pipelined_sweep(metrics)
                except ReportError as e:
                    print(f"report_tools: {label}: {e}", file=sys.stderr)
                    return 2
                print(f"\npipelined latency sweep ({label}):")
                print(format_sweep(sweep))
                return 0
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
