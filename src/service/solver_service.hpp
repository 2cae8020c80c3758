// SolverService: the concurrent multi-problem engine.
//
// A service run takes a batch of JobSpecs, schedules the jobs over a private
// worker pool with a bounded in-flight count, and streams one JobResult per
// job to a caller-supplied sink. Two output orders: completion order (lowest
// latency to first result) and submission order (deterministic stream — the
// mode the byte-identical-across-worker-counts battery locks in).
//
// Problems: each distinct problem is built once per batch. The immutable
// parts construction derives from a job's (matrix, scale, nodes, precond) —
// repro matrix, partition, DistMatrix with its scatter plan, preconditioner —
// live in a ProblemStore (service/problem_store.hpp) for the duration of the
// run; every job builds its own engine::Problem around them with its own
// RHS, noise and factorization cache, then resolves its solver from the
// registry. The store keeps at most max_in_flight entries resident (the
// bound on live Problems), so sharing never raises peak memory. Reports are
// byte-identical to solves on privately built Problems: the borrowed parts
// are exactly what a private build would produce.
//
// Shared cache: each store entry's FactorizationCache is installed under
// the private cache of every job that borrows the entry (via
// FactorizationCache::set_upstream), so identical reconstruction setups
// (same problem, same failed node set) are factorized once per entry, not
// once per job. Per-job reports are unaffected: upstream hits change who
// builds, never what is charged. An entry's cache goes with the entry, so a
// batch with more problems than max_in_flight may rebuild a setup after an
// eviction.
//
// Pools: jobs run on a *private* pool, never on ThreadPool::shared(). A job
// whose SolverConfig asks for threaded execution fans its per-node loops
// out over the shared pool from inside its job task; if the jobs themselves
// also occupied the shared pool, its workers could all be blocked inside
// run_chunked waiting for chunk tasks that can never be scheduled. Keeping
// the two layers on disjoint pools makes the composition deadlock-free (the
// same reasoning run_all applies to its child benches).
//
// Fault tolerance: every job failure is classified into an ErrorClass
// (core/errors.hpp) and a job (or the batch) may declare a RetryPolicy —
// retry-with-escalation through a fallback solver chain, deterministic
// scenario re-draws via seed bumps, simulated backoff. Every job records
// its attempts, and the report (`rpcg-service-report/v3`) always carries the
// error class, the attempt history and the robustness counters, whether or
// not any robustness feature is active.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/errors.hpp"
#include "core/factorization_cache.hpp"
#include "engine/solve_report.hpp"
#include "service/fault_injection.hpp"
#include "service/job.hpp"
#include "service/problem_store.hpp"
#include "service/retry.hpp"
#include "util/enum_names.hpp"

namespace rpcg::service {

enum class OutputOrder {
  kSubmission,  ///< results stream in job-file order (deterministic)
  kCompletion,  ///< results stream as jobs finish (lowest latency)
};

}  // namespace rpcg::service

namespace rpcg {

template <>
struct EnumNames<service::OutputOrder> {
  static constexpr const char* context = "output order";
  static constexpr std::array<std::pair<service::OutputOrder, const char*>, 2>
      table{{{service::OutputOrder::kSubmission, "submission"},
             {service::OutputOrder::kCompletion, "completion"}}};
};

}  // namespace rpcg

namespace rpcg::service {

[[nodiscard]] std::string to_string(OutputOrder order);

struct ServiceOptions {
  /// Job-level parallelism; 0 means "size of the shared pool" (which tracks
  /// hardware concurrency).
  int workers = 0;
  /// Jobs admitted into the worker queue at once; 0 means `workers`.
  /// Submission blocks when the limit is reached, bounding the memory held
  /// by queued Problems; it also sizes the batch's problem store.
  int max_in_flight = 0;
  /// Serve private-cache misses from the problem-store entry's cache.
  bool shared_cache = true;
  OutputOrder order = OutputOrder::kSubmission;

  /// Batch-wide retry/escalation default; a job whose own RetryPolicy is
  /// enabled overrides it wholesale (policies never merge field-by-field).
  RetryPolicy retry;
  /// Simulated-time deadline applied to every job whose config leaves
  /// deadline_sim_seconds at 0; 0 disables.
  double default_deadline_sim_seconds = 0.0;
  /// Cooperative wall-clock budget for the whole batch; 0 disables. Checked
  /// when a job task starts: jobs past the budget are classified
  /// budget-exceeded without running, so the batch still streams one result
  /// per job (never a crash, never a hang). The check is wall-clock, so
  /// *which* jobs get cut off is not deterministic — only the classification
  /// is.
  double wall_timeout_seconds = 0.0;
  /// Seeded host-side fault injection (service/fault_injection.hpp).
  FaultInjectionConfig fault_injection;
};

/// One attempt of one job under a retry policy: which solver ran, with
/// which scenario seed, and how it ended.
struct AttemptRecord {
  int attempt = 0;  ///< 1-based
  std::string solver;
  std::uint64_t scenario_seed = 0;
  /// Simulated backoff charged before this attempt (recorded, never put on
  /// the engine clock — the embedded solve report stays comparable across
  /// attempt indices).
  double backoff_sim_seconds = 0.0;
  bool ok = false;
  ErrorClass error_class = ErrorClass::kInternal;
  std::string error;
  int iterations = 0;
  double sim_time = 0.0;

  [[nodiscard]] std::string to_json(int indent = 0) const;
};

/// One job's outcome. `error` is empty on success and carries the
/// exception message on failure (a failed job never aborts the batch).
struct JobResult {
  std::size_t index = 0;  ///< submission index
  std::string name;
  std::string matrix_id;
  std::string solver;   ///< the *requested* solver (attempts name what ran)
  std::string precond;
  engine::SolveReport report;
  std::string error;
  /// Classification of `error`; meaningless when ok().
  ErrorClass error_class = ErrorClass::kInternal;
  /// Per-attempt history; empty only for a job cut off before it started.
  std::vector<AttemptRecord> attempts;
  /// The job's per-Problem cache counters (deterministic: local misses are
  /// counted whether or not an upstream served them).
  FactorizationCache::Stats problem_cache;
  double wall_seconds = 0.0;

  [[nodiscard]] bool ok() const { return error.empty(); }

  /// Deterministic JSON except the wall_seconds fields (here and inside the
  /// embedded solve report) — the same contract as SolveReport::to_json.
  [[nodiscard]] std::string to_json(int indent = 0) const;
};

/// Whole-batch summary, schema `rpcg-service-report/v3`. Every key is always
/// present: a job's `error` and `error_class` are empty strings when it
/// succeeded, and its `report` is the last attempt's (all zeros when that
/// attempt never finished a solve). `jobs` is always in submission order
/// regardless of the streaming order.
struct ServiceReport {
  std::vector<JobResult> jobs;
  int workers = 0;
  OutputOrder order = OutputOrder::kSubmission;
  bool shared_cache = false;
  /// The problem-store entries' caches, summed (zero when sharing is off).
  /// Like problem_store below, they depend on scheduling order when a batch
  /// names more keys than the store holds.
  ProblemStore::CacheStats shared_stats;
  /// Host-side counters of the batch's problem store. Not part of the JSON
  /// document (rpcg-service-report/v3 is unchanged): when a batch names
  /// more keys than the store holds, they depend on scheduling order.
  ProblemStore::Stats problem_store;
  /// Factorizations actually built: the shared caches' misses when they
  /// are on, the sum of per-Problem misses when off. The cache-on vs
  /// cache-off delta of this number is the bench/service_throughput
  /// acceptance metric.
  std::uint64_t total_factorizations = 0;
  std::size_t failed = 0;
  /// Robustness counters.
  std::size_t retries = 0;          ///< attempts beyond each job's first
  std::size_t escalations = 0;      ///< attempts run on a fallback solver
  std::size_t degraded = 0;         ///< ok jobs that finished on a fallback
  std::size_t deadline_misses = 0;  ///< budget-exceeded attempts / cutoffs
  double wall_seconds = 0.0;
  double jobs_per_second = 0.0;

  [[nodiscard]] std::string to_json(int indent = 0) const;
};

class SolverService {
 public:
  using Sink = std::function<void(const JobResult&)>;

  explicit SolverService(ServiceOptions options = {});

  /// Runs the batch to completion, streaming each JobResult to `sink` (may
  /// be empty) in the configured order, and returns the summary. The sink
  /// is never called concurrently with itself. Blocking; safe to call
  /// repeatedly (each run gets a fresh problem store).
  [[nodiscard]] ServiceReport run(std::span<const JobSpec> jobs,
                                  const Sink& sink = {});

  [[nodiscard]] const ServiceOptions& options() const { return options_; }

 private:
  ServiceOptions options_;
};

}  // namespace rpcg::service
