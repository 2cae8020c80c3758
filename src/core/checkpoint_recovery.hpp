// Algorithm-based checkpoint-recovery PCG (Pachajoa et al.,
// arXiv:2007.04066) — the strategy-space neighbor of ESR with *stored* state
// instead of reconstructed state.
//
// Every `interval` iterations the minimal PCG state {x, r, p, rz,
// beta_prev} is checkpointed under a parameterized cost model (in-memory at
// network rates vs disk at storage rates; see core/checkpoint.hpp). On a
// node failure the replacements come online, *all* nodes roll back to the
// last checkpoint, and z is recomputed from the restored r through the
// preconditioner — the iterations since the checkpoint are redone.
//
// Because the restored state is bit-exact and the iteration arithmetic is
// deterministic, a failed run's redone trajectory — and its final iterate —
// is byte-identical to the unfailed run's; only the simulated clock
// differs. The exhaustive-subset battery pins exactly that.
#pragma once

#include "core/checkpoint.hpp"
#include "core/events.hpp"
#include "core/failure_schedule.hpp"
#include "engine/solve_report.hpp"
#include "precond/preconditioner.hpp"
#include "sim/cluster.hpp"
#include "sim/dist_matrix.hpp"
#include "sim/dist_vector.hpp"
#include "solver/pcg.hpp"

namespace rpcg {

struct CheckpointRecoveryOptions {
  PcgOptions pcg;
  /// Checkpoint interval in iterations (a checkpoint is always written at
  /// iteration 0, so every failure has a rollback target).
  int interval = 25;
  CheckpointCostModel costs;
  SolverEvents events;
};

class CheckpointRecoveryPcg {
 public:
  /// `a_global` is the reliable static copy of A (replacement nodes re-read
  /// their rows from it), `a` its distributed form. All references must
  /// outlive the solver.
  CheckpointRecoveryPcg(Cluster& cluster, const CsrMatrix& a_global,
                        const DistMatrix& a, const Preconditioner& m,
                        CheckpointRecoveryOptions opts);

  /// Solves A x = b from the initial guess in x; failures are injected per
  /// schedule. Any failed-node subset with at least one survivor is
  /// recoverable; losing the whole cluster throws UnrecoverableFailure.
  [[nodiscard]] engine::SolveReport solve(const DistVector& b, DistVector& x,
                                          const FailureSchedule& schedule = {});

  /// The cost model with medium defaults resolved against the cluster's
  /// CommParams — what one checkpoint access actually charges.
  [[nodiscard]] CheckpointCostModel resolved_costs() const {
    return opts_.costs.resolved(cluster_.comm());
  }

  [[nodiscard]] const CheckpointRecoveryOptions& options() const {
    return opts_;
  }

 private:
  Cluster& cluster_;
  const CsrMatrix* a_global_;
  const DistMatrix* a_;
  const Preconditioner* m_;
  CheckpointRecoveryOptions opts_;
};

}  // namespace rpcg
