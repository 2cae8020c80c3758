// Seeded service-level fault injection: the test harness for the retry /
// escalation / classification machinery.
//
// Two fault sites, both *host-side* (the simulated cluster is untouched —
// engine-level failures are what FailureSchedule/FailureScenario model):
//
//   cache-build faults   the job's upstream factorization lookup throws a
//                        typed CacheBuildFailure in place of the problem-
//                        store entry's cache — what a corrupted or
//                        unavailable cache backend would look like
//   worker faults        the job's worker task throws before the Problem is
//                        even built — an unclassified (internal) host fault
//
// Decisions are a pure function of (seed, job index, attempt): independent
// of worker count, scheduling order, and cache coalescing, so a fault-
// injected batch streams byte-identical reports at any parallelism — the
// same determinism contract as everything else in the service. The third
// injection lever, per-attempt scenario re-draws, is the retry policy's own
// seed bump (service/retry.hpp).
#pragma once

#include <cstddef>
#include <cstdint>

namespace rpcg::service {

struct FaultInjectionConfig {
  bool enabled = false;
  std::uint64_t seed = 0;
  /// Probability in [0, 1] that a given (job, attempt) draws an injected
  /// cache-build failure / worker-task fault.
  double cache_build_failure_rate = 0.0;
  double worker_fault_rate = 0.0;
  /// Deterministic override: fail the first N attempts of *every* job at
  /// the given site regardless of the rates — the lever end-to-end tests
  /// use to force exactly one retry per job.
  int cache_fail_first_attempts = 0;
  int worker_fail_first_attempts = 0;
};

class FaultInjector {
 public:
  explicit FaultInjector(const FaultInjectionConfig& config)
      : config_(config) {}

  [[nodiscard]] const FaultInjectionConfig& config() const { return config_; }

  /// Whether the worker task of (job, attempt) throws before solving.
  [[nodiscard]] bool worker_fault(std::size_t job, int attempt) const;

  /// Whether (job, attempt)'s upstream factorization lookups throw a
  /// CacheBuildFailure instead of consulting the problem-store entry's
  /// cache.
  [[nodiscard]] bool cache_build_fault(std::size_t job, int attempt) const;

 private:
  /// Uniform [0, 1) deviate keyed by (seed, job, attempt, site salt).
  [[nodiscard]] double draw(std::size_t job, int attempt,
                            std::uint64_t salt) const;

  FaultInjectionConfig config_;
};

}  // namespace rpcg::service
