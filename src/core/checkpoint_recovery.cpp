#include "core/checkpoint_recovery.hpp"

#include <cmath>
#include <utility>
#include <vector>

#include "core/backup_store.hpp"  // UnrecoverableFailure
#include "core/esr.hpp"           // esr_replace_and_refetch
#include "solver/pcg_kernel.hpp"
#include "util/check.hpp"

namespace rpcg {

CheckpointRecoveryPcg::CheckpointRecoveryPcg(Cluster& cluster,
                                             const CsrMatrix& a_global,
                                             const DistMatrix& a,
                                             const Preconditioner& m,
                                             CheckpointRecoveryOptions opts)
    : cluster_(cluster),
      a_global_(&a_global),
      a_(&a),
      m_(&m),
      opts_(std::move(opts)) {
  RPCG_CHECK(opts_.interval >= 1, "checkpoint interval must be >= 1");
}

engine::SolveReport CheckpointRecoveryPcg::solve(
    const DistVector& b, DistVector& x, const FailureSchedule& schedule) {
  RPCG_CHECK(cluster_.alive_count() == cluster_.num_nodes(),
             "all nodes must be alive at solve entry");
  const Partition& part = cluster_.partition();
  const engine::SolveMeter meter(cluster_);

  PcgKernel kernel(cluster_, *a_, *m_);
  const Phase it = Phase::kIteration;

  const DotPair d0 = kernel.initialize(b, x, it);
  const double rnorm0 = std::sqrt(d0.rr);

  engine::SolveReport res;
  const CheckpointCostModel costs = resolved_costs();
  res.checkpoint = engine::CheckpointSection{
      to_string(costs.medium), opts_.interval, costs.write_per_element_s,
      costs.read_per_element_s, costs.access_latency_s};
  CostedCheckpointStore ckpt(opts_.costs);
  int last_ckpt_saved_at = -1;
  FailureCursor cursor(schedule);

  bool done = rnorm0 == 0.0;
  if (done) res.converged = true;

  int j = 0;
  while (!done && j < opts_.pcg.max_iterations) {
    // Periodic state save at the loop top; iteration 0 always saves, so a
    // rollback target exists before the first injection point.
    if (j % opts_.interval == 0 && j != last_ckpt_saved_at) {
      ckpt.save(cluster_, j, x, kernel.r, kernel.p, kernel.rz,
                kernel.beta_prev);
      last_ckpt_saved_at = j;
      ++res.checkpoints_written;
      if (opts_.events.on_checkpoint)
        opts_.events.on_checkpoint({j, res.checkpoints_written - 1});
    }

    kernel.spmv_direction(it);

    // --- Failure injection point (same as the ESR engine's). ---
    const std::vector<int> evs = cursor.take_due(j);
    if (!evs.empty()) {
      std::vector<NodeId> merged;
      bool first = true;
      for (const int idx : evs) {
        const FailureEvent& ev = cursor.event(idx);
        if (!first && ev.during_recovery) {
          // Overlapping failure: the rollback read of `merged` was underway
          // and is lost; it will be redone for the union.
          ckpt.charge_aborted_restore(cluster_);
        }
        for (const NodeId f : ev.nodes) {
          cluster_.fail_node(f);
          for (DistVector* v : kernel.state_vectors(x)) v->invalidate(f);
        }
        if (opts_.events.on_failure_injected)
          opts_.events.on_failure_injected(ev);
        merged.insert(merged.end(), ev.nodes.begin(), ev.nodes.end());
        first = false;
      }
      if (static_cast<int>(merged.size()) >= cluster_.num_nodes()) {
        throw UnrecoverableFailure(
            "checkpoint recovery needs at least one survivor to detect the "
            "failure and trigger the rollback");
      }
      // Replacements come online and re-fetch static data, then everyone
      // rolls back to the checkpointed iterate.
      const double t0 = cluster_.clock().in_phase(Phase::kRecovery);
      esr_replace_and_refetch(cluster_, *a_global_, merged);
      ckpt.restore(cluster_, x, kernel.r, kernel.p, kernel.rz,
                   kernel.beta_prev);
      // z is not checkpointed: recompute it from the restored residual
      // through the preconditioner (bit-identical to the z the unfailed run
      // held at the checkpointed iteration).
      for (const NodeId f : merged) {
        kernel.z.revalidate_zero(f);
        kernel.p_prev.revalidate_zero(f);
        kernel.u.revalidate_zero(f);
      }
      m_->apply(cluster_, kernel.r, kernel.z, Phase::kRecovery);
      RecoveryRecord rec;
      rec.iteration = j;
      rec.nodes = merged;
      rec.stats.psi = static_cast<int>(merged.size());
      rec.stats.lost_rows =
          static_cast<Index>(part.rows_of_set(merged).size());
      rec.stats.sim_seconds =
          cluster_.clock().in_phase(Phase::kRecovery) - t0;
      res.recoveries.push_back(std::move(rec));
      if (opts_.events.on_recovery_complete)
        opts_.events.on_recovery_complete(res.recoveries.back());
      res.rolled_back_iterations += j - ckpt.iteration();
      j = ckpt.iteration();
      continue;  // redo from the checkpoint (no re-save: j == last saved)
    }

    // Lines 3-8 of Alg. 1, exactly the reference recurrence.
    const double pap = kernel.direction_curvature(it);
    const double alpha = kernel.rz / pap;
    kernel.descend(alpha, x, it);
    const DotPair d = kernel.precondition(it);
    ++res.iterations;
    res.rel_residual = std::sqrt(d.rr) / rnorm0;
    res.solver_residual_norm = std::sqrt(d.rr);
    if (opts_.events.on_iteration) {
      IterationSnapshot snap;
      snap.iteration = res.iterations;
      snap.rel_residual = res.rel_residual;
      snap.x = &x;
      snap.r = &kernel.r;
      snap.z = &kernel.z;
      snap.p = &kernel.p;
      opts_.events.on_iteration(snap);
    }
    if (res.rel_residual <= opts_.pcg.rtol) {
      res.converged = true;
      break;
    }
    kernel.advance_direction(d, /*track_prev=*/false, it);
    ++j;
  }

  meter.finish(cluster_, *a_, b, x, res);
  return res;
}

}  // namespace rpcg
