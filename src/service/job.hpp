// The service's job description: one solve of one repro problem, fully
// specified by data (no code hooks), so batches can be read from files.
//
// Wire format: JSON lines — one JSON object per line, '#' comment lines and
// blank lines skipped. Every field is optional except none; defaults match
// the engine's (16 nodes, bjacobi, b = A*ones). Unknown keys are rejected
// with the offending line number and the list of valid keys, the same UX as
// the registries.
//
//   {"name": "m2-esr", "matrix": "M2", "scale": 64, "nodes": 16,
//    "solver": "resilient-pcg", "precond": "bjacobi",
//    "recovery": "esr", "phi": 2, "rtol": 1e-9,
//    "failures": [{"iteration": 10, "first": 0, "psi": 2}]}
//
// Failure events come in two shapes: explicit node lists
// ({"iteration": I, "nodes": [a, b], "during-recovery": false}) and the
// paper's contiguous protocol ({"iteration": I, "first": F, "psi": P}).
// Alternatively "scenario": "correlated" | "cascading" | "during-recovery" |
// "mixed" (plus scenario-seed/-events/-nodes/-horizon/-window) names a
// seeded generator instead of spelling out events; a job may use "failures"
// or "scenario", not both.
// Solver-config keys (rtol, recovery, phi, strategy, exec, workers, ...)
// are forwarded through SolverConfig::from_options, so the job file and the
// bench command lines can never drift apart on spellings or semantics.
// Robustness keys ("retry", "fallbacks": ["solver", ...] or "a,b",
// "retry-backoff", "retry-backoff-multiplier", "retry-seed-bump") fill the
// job's RetryPolicy; "deadline" (simulated seconds) rides through the
// config keys.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/failure_schedule.hpp"
#include "engine/solver.hpp"
#include "service/json_value.hpp"
#include "service/retry.hpp"

namespace rpcg::service {

struct JobSpec {
  std::string name;           ///< label in reports; defaults to "job-<index>"
  int matrix = 1;             ///< repro matrix index (Table 1, 1..8)
  double scale = 16.0;        ///< divides the paper's problem size
  int nodes = 16;             ///< simulated nodes
  std::string solver = "pcg";
  std::string precond = "bjacobi";
  std::string rhs = "ones";   ///< ProblemBuilder::rhs_strategy spec
  double noise_cv = 0.0;      ///< timing-noise coefficient of variation
  std::uint64_t noise_seed = 0;
  engine::SolverConfig config;
  FailureSchedule schedule;
  /// Per-job retry/escalation policy; when disabled the batch default
  /// (ServiceOptions::retry) applies.
  RetryPolicy retry;

  /// "M<index>" — the repro matrix id this job solves.
  [[nodiscard]] std::string matrix_id() const {
    std::string id = "M";
    id += std::to_string(matrix);
    return id;
  }
};

/// The solver-config keys a job line forwards to SolverConfig::from_options
/// (rtol, recovery, phi, ...); `rpcg-cli solve` takes the same keys as
/// flags.
[[nodiscard]] std::span<const char* const> config_keys();

/// Parses one job object. Throws std::invalid_argument on unknown keys,
/// wrong value kinds, or out-of-range values.
[[nodiscard]] JobSpec parse_job(const JsonValue& value);

/// Parses one JSON-lines job document (object per line). Errors are
/// rethrown as std::invalid_argument prefixed with the 1-based line number.
[[nodiscard]] std::vector<JobSpec> parse_job_lines(std::istream& in);

/// Reads a job file from disk; a missing file throws std::invalid_argument.
[[nodiscard]] std::vector<JobSpec> read_job_file(const std::string& path);

}  // namespace rpcg::service
