// TwinCG-style dual-redundancy PCG (after Chen/Fagg et al.'s twin solvers,
// arXiv:1605.04580): every node mirrors its buddy's live iteration state, so
// a failed node's replacement copies {x, r, p} straight from the twin and
// the iteration continues *forward* — no reconstruction solve (ESR), no
// rollback (checkpoint-recovery), zero lost iterations.
//
// The buddy map pairs node i with (i + N/2) mod N (an involution; the node
// count must be even). Each iteration the three updated blocks are pushed
// to the buddy, charged to Phase::kRedundancy — the dual-redundancy analog
// of ESR's phi copies of p. A failure that takes out both members of a
// buddy pair before the next sync is uncoverable and throws
// UnrecoverableFailure; the scenario generators' forbid_pair_shift knob
// (= N/2) produces schedules that respect exactly this constraint.
#pragma once

#include <vector>

#include "core/events.hpp"
#include "core/failure_schedule.hpp"
#include "engine/solve_report.hpp"
#include "precond/preconditioner.hpp"
#include "sim/cluster.hpp"
#include "sim/dist_matrix.hpp"
#include "sim/dist_vector.hpp"
#include "solver/pcg.hpp"

namespace rpcg {

struct TwinPcgOptions {
  PcgOptions pcg;
  SolverEvents events;
};

class TwinPcg {
 public:
  /// The buddy hosting node i's mirror (and whose mirror node i hosts).
  [[nodiscard]] static NodeId buddy_of(NodeId i, int num_nodes) {
    return (i + num_nodes / 2) % num_nodes;
  }

  /// `a_global` is the reliable static copy of A (replacements re-fetch
  /// their rows), `a` its distributed form. All references must outlive the
  /// solver. Requires an even node count >= 2.
  TwinPcg(Cluster& cluster, const CsrMatrix& a_global, const DistMatrix& a,
          const Preconditioner& m, TwinPcgOptions opts);

  /// Solves A x = b from the initial guess in x; failures are injected per
  /// schedule. Throws UnrecoverableFailure when a failure union contains a
  /// complete buddy pair.
  [[nodiscard]] engine::SolveReport solve(const DistVector& b, DistVector& x,
                                          const FailureSchedule& schedule = {});

  /// Failure-free per-iteration cost of pushing the three updated blocks to
  /// the buddy (the dual-redundancy analog of Sec. 4.2's bound).
  [[nodiscard]] double redundancy_overhead_per_iteration() const {
    return sync_cost_;
  }

 private:
  /// Updates the mirror snapshot from the live state and charges one
  /// buddy-push round to `phase`.
  void sync_mirror(const DistVector& x, const DistVector& r,
                   const DistVector& p, Phase phase, double cost);

  Cluster& cluster_;
  const CsrMatrix* a_global_;
  const DistMatrix* a_;
  const Preconditioner* m_;
  TwinPcgOptions opts_;
  double sync_cost_ = 0.0;
  // Mirror of the loop-top state {x, r, p}: node i's blocks live on
  // buddy_of(i). Host-side the mirror is three global snapshots; the
  // simulated placement only matters for the coverage check and charges.
  std::vector<double> mx_, mr_, mp_;
};

}  // namespace rpcg
