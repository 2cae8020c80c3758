// The one result type of every solver family.
//
// Every engine — the reference PCG, the resilient PCG (every recovery
// method), the pipelined variants, resilient BiCGSTAB and the stationary
// smoothers — returns a SolveReport from its solve(), finished by the shared
// SolveMeter below, so Table 2's time split and Table 3's residual deviation
// Delta (Eqn. 7) mean the same thing for every family. The registry adapters add
// only the names (and the scenario section, which only they know).
//
// to_json() writes schema `rpcg-solve-report/v2`: every key is always
// present; the `checkpoint` and `scenario` sections are null when the solve
// produced none.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/events.hpp"  // RecoveryRecord
#include "sim/cluster.hpp"  // Phase, kNumPhases, ReductionTimes
#include "sim/dist_matrix.hpp"
#include "sim/dist_vector.hpp"
#include "util/timer.hpp"

namespace rpcg::engine {

/// Resolved cost model of a costed checkpoint-recovery solve: the medium
/// and what one checkpoint access actually charges.
struct CheckpointSection {
  std::string medium;
  int interval = 0;
  double write_per_element_s = 0.0;
  double read_per_element_s = 0.0;
  double access_latency_s = 0.0;
};

/// The generated failure scenario a solve ran against.
struct ScenarioSection {
  std::string kind;
  std::uint64_t seed = 0;
  int events = 0;  ///< generated failure events
};

struct SolveReport {
  /// Registry key of the solver that produced this report ("pcg",
  /// "resilient-pcg", ...) and the preconditioner name it ran with.
  std::string solver;
  std::string preconditioner;

  // Convergence.
  bool converged = false;
  /// Completed iterations, including any redone after a rollback.
  int iterations = 0;
  double rel_residual = 0.0;
  double solver_residual_norm = 0.0;
  double true_residual_norm = 0.0;  ///< ||b - A x||, recomputed at the end
  double delta_metric = 0.0;        ///< Eqn. 7 residual deviation

  // Simulated time, total and per accounting phase.
  double sim_time = 0.0;
  std::array<double, kNumPhases> sim_time_phase{};
  double wall_seconds = 0.0;

  // Resilience accounting.
  std::vector<RecoveryRecord> recoveries;
  int checkpoints_written = 0;
  int rolled_back_iterations = 0;  ///< work redone by the C/R baselines
  /// Failure-free per-iteration cost of the redundant copies (Sec. 4.2).
  double redundancy_overhead_per_iteration = 0.0;

  /// Split-phase reduction accounting of the solve's cluster (posted =
  /// hidden + exposed; see sim/collectives.hpp).
  ReductionTimes reductions;
  /// Pipeline depth of the solve (1 for every blocking solver); serialized
  /// inside the reduction_time block next to `reductions.max_in_flight`.
  int reduction_depth = 1;

  /// Set by checkpoint-restart solves ("checkpoint-recovery", or
  /// "resilient-pcg" with recovery=checkpoint-restart).
  std::optional<CheckpointSection> checkpoint;
  /// Set when the failure schedule was generated from a configured scenario.
  std::optional<ScenarioSection> scenario;

  [[nodiscard]] double recovery_sim_time() const {
    return sim_time_phase[static_cast<std::size_t>(Phase::kRecovery)];
  }
  [[nodiscard]] double redundancy_sim_time() const {
    return sim_time_phase[static_cast<std::size_t>(Phase::kRedundancy)];
  }

  /// Deterministic JSON (stable key order, shortest-round-trip doubles),
  /// schema `rpcg-solve-report/v2`. `indent` shifts every line right by that
  /// many spaces so reports can be embedded in a surrounding document.
  [[nodiscard]] std::string to_json(int indent = 0) const;
};

/// The shared finish step of every solver family. Construct it at solve
/// entry (it snapshots the per-phase clock and starts the wall timer); call
/// finish() once the iteration loop is done.
class SolveMeter {
 public:
  explicit SolveMeter(const Cluster& cluster);

  /// Fills the true residual ||b - A x|| (on a paused clock) and Delta from
  /// `rep.solver_residual_norm`, the per-phase simulated time since entry
  /// and its sum in phase order, the cluster's reduction accounting, and
  /// the wall time.
  void finish(Cluster& cluster, const DistMatrix& a, const DistVector& b,
              const DistVector& x, SolveReport& rep) const;

 private:
  std::array<double, kNumPhases> clock_at_entry_{};
  WallTimer wall_;
};

}  // namespace rpcg::engine
