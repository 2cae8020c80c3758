// The resilient PCG solver — the user-facing engine of this library.
//
// It executes the PCG iteration of Alg. 1 on the simulated cluster and, when
// ESR is enabled, distributes phi redundant copies of the two most recent
// search directions during every SpMV (piggybacked per Eqns. 5-6). Scheduled
// node failures are injected right after the SpMV; recovery runs via exact
// state reconstruction (Alg. 2), checkpoint rollback, interpolation restart,
// or a copy from a twin's mirror, depending on the configured method. With
// phi = 0 and method kNone, the engine is exactly the reference
// (non-resilient) PCG.
//
// kCheckpointRestart is the algorithm-based checkpoint-recovery of Pachajoa
// et al. (arXiv:2007.04066), the baseline the paper sets ESR against (Sec.
// 1.2, 2.2): every `checkpoint_interval` iterations the minimal state {x, r,
// p, rz, beta_prev} goes to a CostedCheckpointStore under the `checkpoint`
// cost model (memory or disk). On a failure the replacements come online and
// re-fetch their static data, *all* nodes roll back to the last checkpoint,
// z is recomputed from the restored r through the preconditioner, and the
// iterations since the checkpoint are redone. The restored state is
// bit-exact, so a failed run's final iterate equals the unfailed run's; only
// the simulated clock differs. Any failed-node subset with a survivor is
// recoverable. The "checkpoint-recovery" registry key is this method.
//
// kTwin is TwinCG-style dual redundancy (arXiv:1605.04580): every node
// mirrors its buddy's live iteration state, so a failed node's replacement
// copies {x, r, p} straight from the twin and the iteration continues
// *forward* — no reconstruction solve, no rollback, zero lost iterations.
// The buddy map pairs node i with (i + N/2) mod N (an involution; the node
// count must be even). After initialization and after every direction
// update the three blocks are pushed to the buddy, charged to
// Phase::kRedundancy (redundancy_overhead_per_iteration). A failure that
// takes out both members of a buddy pair before the next push is
// uncoverable and throws UnrecoverableFailure; the scenario generators'
// forbid_pair_shift knob (= N/2) produces schedules that respect exactly
// this constraint. The "twin-pcg" registry key is this method.
#pragma once

#include <array>
#include <utility>
#include <vector>

#include "core/backup_store.hpp"
#include "core/checkpoint.hpp"
#include "core/esr.hpp"
#include "core/events.hpp"
#include "core/failure_schedule.hpp"
#include "core/redundancy.hpp"
#include "engine/solve_report.hpp"
#include "precond/preconditioner.hpp"
#include "sim/cluster.hpp"
#include "sim/dist_matrix.hpp"
#include "sim/dist_vector.hpp"
#include "solver/pcg.hpp"
#include "util/enum_names.hpp"
#include "util/maybe_owned.hpp"

namespace rpcg {

enum class RecoveryMethod {
  kNone,                  ///< no resilience: any failure throws
  kEsr,                   ///< exact state reconstruction (this paper)
  kCheckpointRestart,     ///< periodic checkpoint + global rollback
  kInterpolationRestart,  ///< Langou-style interpolation + restart
  kTwin,                  ///< buddy-mirrored state + forward recovery
};

template <>
struct EnumNames<RecoveryMethod> {
  static constexpr const char* context = "recovery method";
  static constexpr std::array<std::pair<RecoveryMethod, const char*>, 5> table{
      {{RecoveryMethod::kNone, "none"},
       {RecoveryMethod::kEsr, "esr"},
       {RecoveryMethod::kCheckpointRestart, "checkpoint-restart"},
       {RecoveryMethod::kInterpolationRestart, "interpolation-restart"},
       {RecoveryMethod::kTwin, "twin"}}};
};

[[nodiscard]] std::string to_string(RecoveryMethod m);

struct ResilientPcgOptions {
  PcgOptions pcg;
  RecoveryMethod method = RecoveryMethod::kNone;
  /// Number of redundant copies (tolerated simultaneous failures); >= 1 for
  /// kEsr, must be 0 otherwise.
  int phi = 0;
  BackupStrategy strategy = BackupStrategy::kPaperAlternating;
  EsrOptions esr;
  /// Checkpoint interval in iterations and the store's cost model
  /// (kCheckpointRestart only; a checkpoint is always written at iteration
  /// 0, so every failure has a rollback target).
  int checkpoint_interval = 50;
  CheckpointCostModel checkpoint;
  /// Seed for the kRandom backup strategy.
  std::uint64_t strategy_seed = 0;
  /// Typed event hooks (core/events.hpp).
  SolverEvents events;
};

class ResilientPcg {
 public:
  /// kTwin: the buddy hosting node i's mirror (and whose mirror node i
  /// hosts).
  [[nodiscard]] static NodeId buddy_of(NodeId i, int num_nodes) {
    return (i + num_nodes / 2) % num_nodes;
  }

  /// `a_global` is the reliable static copy of A (kept for reconstruction),
  /// `a` its distributed form over the cluster's partition. Both must
  /// outlive the solver, as must the preconditioner and cluster. (Keeping
  /// the DistMatrix external lets experiment harnesses reuse the scatter
  /// plan across many solves.)
  ResilientPcg(Cluster& cluster, const CsrMatrix& a_global, const DistMatrix& a,
               const Preconditioner& m, ResilientPcgOptions opts);

  /// Convenience constructor that distributes the matrix internally. The
  /// DistMatrix borrows `a_global` and the cluster's partition, which must
  /// outlive the solver already.
  ResilientPcg(Cluster& cluster, const CsrMatrix& a_global,
               const Preconditioner& m, ResilientPcgOptions opts);

  /// Solves A x = b from the initial guess in x; failures are injected per
  /// schedule. The cluster must have all nodes alive on entry. A failure
  /// the method cannot recover throws UnrecoverableFailure.
  [[nodiscard]] engine::SolveReport solve(const DistVector& b, DistVector& x,
                                          const FailureSchedule& schedule = {});

  [[nodiscard]] const DistMatrix& matrix() const { return *a_; }
  [[nodiscard]] const RedundancyScheme& redundancy() const { return scheme_; }
  [[nodiscard]] const ResilientPcgOptions& options() const { return opts_; }

  /// Failure-free per-iteration communication overhead of the redundancy
  /// (simulated seconds), i.e. the quantity bounded in Sec. 4.2; for kTwin,
  /// one buddy push of the three blocks.
  [[nodiscard]] double redundancy_overhead_per_iteration() const {
    return redundancy_step_cost_;
  }

 private:
  ResilientPcg(Cluster& cluster, const CsrMatrix& a_global,
               MaybeOwned<DistMatrix> a, const Preconditioner& m,
               ResilientPcgOptions opts);

  void inject_failures(const std::vector<NodeId>& nodes,
                       std::vector<DistVector*> state);

  Cluster& cluster_;
  const CsrMatrix* a_global_;
  const Preconditioner* m_;
  ResilientPcgOptions opts_;
  /// Owns the distributed matrix when the convenience ctor built it,
  /// borrows it otherwise — the same ownership model as engine::Problem.
  MaybeOwned<DistMatrix> a_;
  RedundancyScheme scheme_;
  BackupStore store_;
  // ESR: max_i(base+extra) - max_i(base); kTwin: one buddy push.
  double redundancy_step_cost_ = 0.0;
};

}  // namespace rpcg
