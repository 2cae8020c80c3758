#include "core/twin_pcg.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>

#include "core/backup_store.hpp"  // UnrecoverableFailure
#include "core/esr.hpp"           // esr_replace_and_refetch
#include "solver/pcg_kernel.hpp"
#include "util/check.hpp"

namespace rpcg {

TwinPcg::TwinPcg(Cluster& cluster, const CsrMatrix& a_global,
                 const DistMatrix& a, const Preconditioner& m,
                 TwinPcgOptions opts)
    : cluster_(cluster),
      a_global_(&a_global),
      a_(&a),
      m_(&m),
      opts_(std::move(opts)) {
  RPCG_CHECK(cluster_.num_nodes() >= 2 && cluster_.num_nodes() % 2 == 0,
             "twin-pcg pairs each node with a buddy; the node count must be "
             "even and >= 2");
  // Every node pushes its 3 updated blocks to its buddy each iteration;
  // pushes run concurrently, so a round costs its largest block.
  const Partition& part = cluster_.partition();
  for (NodeId i = 0; i < cluster_.num_nodes(); ++i) {
    sync_cost_ = std::max(
        sync_cost_, cluster_.comm().message_cost(3 * part.size(i)));
  }
}

void TwinPcg::sync_mirror(const DistVector& x, const DistVector& r,
                          const DistVector& p, Phase phase, double cost) {
  {
    ClockPause pause(cluster_.clock());
    mx_ = x.gather_global();
    mr_ = r.gather_global();
    mp_ = p.gather_global();
  }
  cluster_.charge(phase, cost);
}

engine::SolveReport TwinPcg::solve(const DistVector& b, DistVector& x,
                                   const FailureSchedule& schedule) {
  RPCG_CHECK(cluster_.alive_count() == cluster_.num_nodes(),
             "all nodes must be alive at solve entry");
  const Partition& part = cluster_.partition();
  const int num_nodes = cluster_.num_nodes();
  const engine::SolveMeter meter(cluster_);

  PcgKernel kernel(cluster_, *a_, *m_);
  const Phase it = Phase::kIteration;

  const DotPair d0 = kernel.initialize(b, x, it);
  const double rnorm0 = std::sqrt(d0.rr);

  engine::SolveReport res;
  res.redundancy_overhead_per_iteration = sync_cost_;
  FailureCursor cursor(schedule);

  // Arm the mirror with the loop-top state of iteration 0.
  sync_mirror(x, kernel.r, kernel.p, Phase::kRedundancy, sync_cost_);

  bool done = rnorm0 == 0.0;
  if (done) res.converged = true;

  int j = 0;
  while (!done && j < opts_.pcg.max_iterations) {
    kernel.spmv_direction(it);

    // --- Failure injection point (mirror holds the loop-top state). ---
    const std::vector<int> evs = cursor.take_due(j);
    if (!evs.empty()) {
      std::vector<NodeId> merged;
      bool first = true;
      for (const int idx : evs) {
        const FailureEvent& ev = cursor.event(idx);
        if (!first && ev.during_recovery) {
          // Overlapping failure: the buddy copy-back of `merged` was
          // underway and is redone for the union.
          double aborted = 0.0;
          for (const NodeId f : merged) {
            aborted = std::max(
                aborted, cluster_.comm().message_cost(3 * part.size(f)));
          }
          cluster_.charge(Phase::kRecovery, aborted);
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
      // Coverage: each failed node's mirror lives on its buddy; losing both
      // members of a pair before the next sync destroys original and copy.
      for (const NodeId f : merged) {
        const NodeId buddy = buddy_of(f, num_nodes);
        if (std::find(merged.begin(), merged.end(), buddy) != merged.end()) {
          throw UnrecoverableFailure(
              "twin redundancy does not cover the simultaneous loss of "
              "buddy pair {" + std::to_string(f) + ", " +
              std::to_string(buddy) + "}");
        }
      }
      const double t0 = cluster_.clock().in_phase(Phase::kRecovery);
      esr_replace_and_refetch(cluster_, *a_global_, merged);
      // Forward recovery: replacements copy {x, r, p} from their buddies.
      // Copies run concurrently (buddies are distinct), so the round costs
      // its largest transfer; the scalars rz/beta_prev are replicated on
      // every survivor and cost nothing.
      Index lost_rows = 0;
      double copy_cost = 0.0;
      {
        ClockPause pause(cluster_.clock());
        for (const NodeId f : merged) {
          const std::size_t at = static_cast<std::size_t>(part.begin(f));
          const std::size_t sz = static_cast<std::size_t>(part.size(f));
          x.restore_block(f, std::span<const double>(mx_).subspan(at, sz));
          kernel.r.restore_block(f,
                                 std::span<const double>(mr_).subspan(at, sz));
          kernel.p.restore_block(f,
                                 std::span<const double>(mp_).subspan(at, sz));
          kernel.z.revalidate_zero(f);       // recomputed next precondition
          kernel.p_prev.revalidate_zero(f);  // never read (track_prev off)
          kernel.u.revalidate_zero(f);       // recomputed below
          lost_rows += part.size(f);
        }
      }
      for (const NodeId f : merged) {
        copy_cost =
            std::max(copy_cost, cluster_.comm().message_cost(3 * part.size(f)));
      }
      cluster_.charge(Phase::kRecovery, copy_cost);
      // Resume iteration j on the recovered state: u = A p again.
      kernel.spmv_direction(Phase::kRecovery);
      // Re-arm: the fresh nodes push their blocks to their buddies and
      // re-host their buddies' mirrors (two transfers per pair).
      sync_mirror(x, kernel.r, kernel.p, Phase::kRecovery, 2.0 * copy_cost);
      RecoveryRecord rec;
      rec.iteration = j;
      rec.nodes = merged;
      rec.stats.psi = static_cast<int>(merged.size());
      rec.stats.lost_rows = lost_rows;
      rec.stats.gathered_elements = 3 * lost_rows;
      rec.stats.sim_seconds = cluster_.clock().in_phase(Phase::kRecovery) - t0;
      res.recoveries.push_back(std::move(rec));
      if (opts_.events.on_recovery_complete)
        opts_.events.on_recovery_complete(res.recoveries.back());
      // No rollback, no restart: the iteration proceeds forward.
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
    // Push the updated {x, r, p} blocks to the buddies: the mirror again
    // holds the loop-top state of iteration j + 1.
    sync_mirror(x, kernel.r, kernel.p, Phase::kRedundancy, sync_cost_);
    ++j;
  }

  meter.finish(cluster_, *a_, b, x, res);
  return res;
}

}  // namespace rpcg
