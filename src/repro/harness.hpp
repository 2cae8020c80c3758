// The experiment runner behind every table/figure bench: builds the
// distributed problem once (as an engine::Problem bundle), then executes
// reference / undisturbed / with-failure runs following the paper's
// protocol (failures in contiguous ranks at "start" = rank 0 or "center" =
// rank N/2, injected at 20/50/80 % of the reference iteration count,
// repeated with deterministic noise seeds). All runs go through the
// engine's SolverRegistry and return structured SolveReports.
#pragma once

#include <array>
#include <string>
#include <utility>
#include <vector>

#include "core/resilient_pcg.hpp"
#include "engine/problem.hpp"
#include "engine/solve_report.hpp"
#include "engine/solver.hpp"
#include "repro/matrices.hpp"
#include "util/enum_names.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace rpcg::repro {

struct ExperimentConfig {
  int num_nodes = 128;            ///< the paper's VSC3 node count
  std::string precond = "bjacobi";
  double rtol = 1e-8;             ///< paper's termination criterion
  double local_rtol = 1e-14;      ///< paper's reconstruction tolerance
  int reps = 3;                   ///< repetitions per configuration
  double noise_cv = 0.02;         ///< timing jitter (box-plot spread)
  BackupStrategy strategy = BackupStrategy::kPaperAlternating;
  int max_iterations = 200000;
  /// Host-side execution of the simulator's per-node loops; threaded runs
  /// are bit-for-bit identical to sequential ones (determinism battery).
  ExecutionPolicy exec;
  /// Interconnect cost model of the minted clusters (VSC3-like defaults).
  /// The comm-bound studies sweep latency_s through this.
  CommParams comm;
};

/// Where the contiguous failed ranks start (paper Sec. 7.1).
enum class FailureLocation { kStart, kCenter };

[[nodiscard]] std::string to_string(FailureLocation loc);

}  // namespace rpcg::repro

namespace rpcg {

template <>
struct EnumNames<repro::FailureLocation> {
  static constexpr const char* context = "failure location";
  static constexpr std::array<std::pair<repro::FailureLocation, const char*>,
                              2>
      table{{{repro::FailureLocation::kStart, "start"},
             {repro::FailureLocation::kCenter, "center"}}};
};

}  // namespace rpcg

namespace rpcg::repro {

class ExperimentRunner {
 public:
  /// The matrix reference must outlive the runner (the Problem borrows it).
  ExperimentRunner(const CsrMatrix& a, ExperimentConfig cfg);

  /// Reference (non-resilient, non-redundant) PCG run.
  engine::SolveReport run_reference(std::uint64_t rep_seed);

  /// ESR-capable run with phi redundant copies and no failures
  /// ("relative overhead undisturbed" column of Table 2).
  engine::SolveReport run_undisturbed(int phi, std::uint64_t rep_seed);

  /// ESR run with psi <= phi simultaneous failures at `progress` (fraction
  /// of the reference iteration count) in contiguous ranks at `loc`.
  engine::SolveReport run_with_failures(int phi, int psi, FailureLocation loc,
                                        double progress,
                                        std::uint64_t rep_seed);

  /// Same failure protocol under a baseline method (checkpoint/restart or
  /// interpolation-restart); psi failures, no redundant copies.
  engine::SolveReport run_baseline(RecoveryMethod method, int psi,
                                   FailureLocation loc, double progress,
                                   int checkpoint_interval,
                                   std::uint64_t rep_seed);

  /// Run with an arbitrary schedule (overlapping-failure studies).
  engine::SolveReport run_with_schedule(int phi, const FailureSchedule& schedule,
                                        std::uint64_t rep_seed);

  /// Runs an arbitrary registry solver under the paper's noise protocol —
  /// the escape hatch the extension benches use for BiCGSTAB/stationary.
  engine::SolveReport run_solver(const std::string& solver_name,
                                 const engine::SolverConfig& config,
                                 const FailureSchedule& schedule,
                                 std::uint64_t rep_seed);

  /// Noise-free reference iteration count (cached; used to place failures).
  [[nodiscard]] int reference_iterations();

  /// The problem bundle every run executes against (matrix, partition,
  /// preconditioner, RHS); mutable so callers can retune noise.
  [[nodiscard]] engine::Problem& problem() { return problem_; }
  [[nodiscard]] const engine::Problem& problem() const { return problem_; }

  [[nodiscard]] const Partition& partition() const {
    return problem_.partition();
  }
  [[nodiscard]] const DistVector& rhs() const { return problem_.rhs(); }
  [[nodiscard]] const DistMatrix& matrix() const { return problem_.matrix(); }
  [[nodiscard]] const CsrMatrix& matrix_global() const {
    return problem_.matrix_global();
  }
  [[nodiscard]] const ExperimentConfig& config() const { return cfg_; }
  [[nodiscard]] const Preconditioner& preconditioner() const {
    return problem_.preconditioner();
  }

  /// First failing rank for the paper's two placements.
  [[nodiscard]] NodeId first_rank(FailureLocation loc) const {
    return loc == FailureLocation::kStart ? 0 : cfg_.num_nodes / 2;
  }

  /// Failure iteration for a progress fraction (paper: 20/50/80 %).
  [[nodiscard]] int failure_iteration(double progress);

  /// The experiment-wide solver config (rtol, iteration cap, backup
  /// strategy, reconstruction tolerance) before per-run adjustments.
  [[nodiscard]] engine::SolverConfig base_config() const;

 private:
  ExperimentConfig cfg_;
  engine::Problem problem_;
  int reference_iterations_ = -1;
};

/// Relative overhead in percent: 100 * (t - t_ref) / t_ref.
[[nodiscard]] double overhead_pct(double t, double t_ref);

}  // namespace rpcg::repro
