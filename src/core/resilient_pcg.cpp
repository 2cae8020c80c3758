#include "core/resilient_pcg.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>
#include <stdexcept>

#include "core/factorization_cache.hpp"
#include "core/interpolation_restart.hpp"
#include "sim/collectives.hpp"
#include "solver/pcg_kernel.hpp"
#include "util/check.hpp"

namespace rpcg {

namespace {

/// kTwin: one concurrent round of {x, r, p} block transfers from `nodes`,
/// which costs its largest transfer.
double twin_round_cost(const Cluster& cluster,
                       const std::vector<NodeId>& nodes) {
  double cost = 0.0;
  for (const NodeId f : nodes) {
    cost = std::max(cost, cluster.comm().message_cost(
                              3 * cluster.partition().size(f)));
  }
  return cost;
}

}  // namespace

std::string to_string(RecoveryMethod m) { return enum_to_string(m); }

ResilientPcg::ResilientPcg(Cluster& cluster, const CsrMatrix& a_global,
                           const Preconditioner& m, ResilientPcgOptions opts)
    : ResilientPcg(cluster, a_global,
                   MaybeOwned<DistMatrix>::owned(
                       DistMatrix::distribute(a_global, cluster.partition())),
                   m, std::move(opts)) {}

ResilientPcg::ResilientPcg(Cluster& cluster, const CsrMatrix& a_global,
                           const DistMatrix& a, const Preconditioner& m,
                           ResilientPcgOptions opts)
    : ResilientPcg(cluster, a_global, MaybeOwned<DistMatrix>::borrowed(a), m,
                   std::move(opts)) {}

ResilientPcg::ResilientPcg(Cluster& cluster, const CsrMatrix& a_global,
                           MaybeOwned<DistMatrix> a, const Preconditioner& m,
                           ResilientPcgOptions opts)
    : cluster_(cluster),
      a_global_(&a_global),
      m_(&m),
      opts_(std::move(opts)),
      a_(std::move(a)) {
  if (opts_.method == RecoveryMethod::kEsr) {
    RPCG_CHECK(opts_.phi >= 1, "ESR needs phi >= 1 redundant copies");
  } else {
    RPCG_CHECK(opts_.phi == 0,
               "redundant copies are an ESR feature; set phi = 0 for " +
                   to_string(opts_.method));
  }
  if (opts_.method == RecoveryMethod::kCheckpointRestart)
    RPCG_CHECK(opts_.checkpoint_interval >= 1,
               "checkpoint interval must be >= 1");
  if (opts_.method == RecoveryMethod::kTwin) {
    RPCG_CHECK(cluster_.num_nodes() >= 2 && cluster_.num_nodes() % 2 == 0,
               "twin-pcg pairs each node with a buddy; the node count must be "
               "even and >= 2");
    // Every node pushes its 3 updated blocks to its buddy each iteration.
    std::vector<NodeId> all(static_cast<std::size_t>(cluster_.num_nodes()));
    std::iota(all.begin(), all.end(), NodeId{0});
    redundancy_step_cost_ = twin_round_cost(cluster_, all);
  }
  if (opts_.phi > 0) {
    scheme_ = RedundancyScheme::build(a_->scatter_plan(), cluster_.partition(),
                                      opts_.phi, opts_.strategy,
                                      opts_.strategy_seed);
    store_.configure(a_->scatter_plan(), scheme_, cluster_.partition());
    // Per-iteration overhead of the extra traffic, with the paper's
    // round-based accounting (Sec. 4.2): every backup round costs its
    // slowest sender, piggybacked elements cost mu each, fresh messages
    // add the latency lambda.
    redundancy_step_cost_ = scheme_.per_iteration_overhead(cluster_.comm());
  }
}

void ResilientPcg::inject_failures(const std::vector<NodeId>& nodes,
                                   std::vector<DistVector*> state) {
  for (const NodeId f : nodes) {
    cluster_.fail_node(f);
    for (DistVector* v : state) v->invalidate(f);
    if (opts_.phi > 0) store_.invalidate_node(f);
  }
}

engine::SolveReport ResilientPcg::solve(const DistVector& b, DistVector& x,
                                        const FailureSchedule& schedule) {
  RPCG_CHECK(cluster_.alive_count() == cluster_.num_nodes(),
             "all nodes must be alive at solve entry");
  const Partition& part = cluster_.partition();
  const engine::SolveMeter meter(cluster_);

  PcgKernel kernel(cluster_, *a_, *m_);
  const Phase it = Phase::kIteration;

  // Line 1 of Alg. 1: r = b - A x, z = M^{-1} r, p = z. p_prev stays zero
  // (p^(-1) = 0, consistent with beta^(-1) = 0 at a j = 0 failure).
  const DotPair d0 = kernel.initialize(b, x, it);
  const double rnorm0 = std::sqrt(d0.rr);

  engine::SolveReport res;
  res.redundancy_overhead_per_iteration = redundancy_step_cost_;
  CostedCheckpointStore ckpt(opts_.checkpoint);
  int last_ckpt_saved_at = -1;
  if (opts_.method == RecoveryMethod::kCheckpointRestart) {
    const CheckpointCostModel costs =
        opts_.checkpoint.resolved(cluster_.comm());
    res.checkpoint = engine::CheckpointSection{
        to_string(costs.medium), opts_.checkpoint_interval,
        costs.write_per_element_s, costs.read_per_element_s,
        costs.access_latency_s};
  }
  FailureCursor cursor(schedule);
  const EsrReconstructor reconstructor(*a_global_, *m_, opts_.esr);

  // Twin mirror of the loop-top state {x, r, p}: node i's blocks live on
  // buddy_of(i). Host-side the mirror is three global snapshots; the
  // simulated placement only matters for the coverage check and charges.
  const bool twin = opts_.method == RecoveryMethod::kTwin;
  std::vector<double> mirror_x, mirror_r, mirror_p;
  const auto push_mirror = [&](Phase phase, double cost) {
    {
      ClockPause pause(cluster_.clock());
      mirror_x = x.gather_global();
      mirror_r = kernel.r.gather_global();
      mirror_p = kernel.p.gather_global();
    }
    cluster_.charge(phase, cost);
  };
  if (twin) push_mirror(Phase::kRedundancy, redundancy_step_cost_);

  // Injects the due events in order and returns the union of their failed
  // nodes. A during_recovery event after the first struck while the
  // recovery of the nodes so far was underway; `on_overlap(so_far)` charges
  // the work it cut short.
  const auto inject_due = [&](const std::vector<int>& evs,
                              const auto& on_overlap) {
    std::vector<NodeId> merged;
    bool first = true;
    for (const int idx : evs) {
      const FailureEvent& ev = cursor.event(idx);
      if (!first && ev.during_recovery) on_overlap(merged);
      inject_failures(ev.nodes, kernel.state_vectors(x));
      if (opts_.events.on_failure_injected)
        opts_.events.on_failure_injected(ev);
      merged.insert(merged.end(), ev.nodes.begin(), ev.nodes.end());
      first = false;
    }
    return merged;
  };

  // Appends a finished recovery and fires its hook.
  const auto record_recovery = [&](int iteration,
                                   const std::vector<NodeId>& nodes,
                                   const RecoveryStats& stats) {
    res.recoveries.push_back(RecoveryRecord{iteration, nodes, stats});
    if (opts_.events.on_recovery_complete)
      opts_.events.on_recovery_complete(res.recoveries.back());
  };

  bool done = rnorm0 == 0.0;
  if (done) res.converged = true;

  int j = 0;
  while (!done && j < opts_.pcg.max_iterations) {
    // Checkpoint/restart: periodic state save at the loop top; iteration 0
    // always saves, so a rollback target exists before the first failure.
    if (opts_.method == RecoveryMethod::kCheckpointRestart &&
        j % opts_.checkpoint_interval == 0 && j != last_ckpt_saved_at) {
      ckpt.save(cluster_, j, x, kernel.r, kernel.p, kernel.rz,
                kernel.beta_prev);
      last_ckpt_saved_at = j;
      ++res.checkpoints_written;
      if (opts_.events.on_checkpoint)
        opts_.events.on_checkpoint({j, res.checkpoints_written - 1});
    }

    // Lines 3/5 SpMV: u = A p. With ESR, the redundant copies of p^(j) are
    // piggybacked on this exchange and every receiver retains two
    // generations (the backup store rotates cur -> prev).
    kernel.spmv_direction(it);
    if (opts_.phi > 0) {
      store_.record(kernel.p);
      cluster_.charge(Phase::kRedundancy, redundancy_step_cost_);
    }

    // --- Failure injection point (backups of p^(j), p^(j-1) in place). ---
    const std::vector<int> evs = cursor.take_due(j);

    bool skip_update = false;
    if (!evs.empty()) {
      switch (opts_.method) {
        case RecoveryMethod::kNone:
          throw UnrecoverableFailure(
              "node failure injected into a non-resilient solver");
        case RecoveryMethod::kEsr: {
          const std::vector<NodeId> merged =
              inject_due(evs, [&](const std::vector<NodeId>& so_far) {
                // The reconstruction of `so_far` was underway. Charge the
                // work performed so far (the gather, its dominant
                // communication part), discard its cached factorizations —
                // the surviving block structure changed under them — and
                // restart with the union.
                (void)store_.gather_lost(cluster_, part.rows_of_set(so_far));
                if (opts_.esr.cache != nullptr)
                  (void)opts_.esr.cache->invalidate_overlapping(so_far);
              });
          record_recovery(
              j, merged,
              reconstructor.recover(cluster_, merged, store_, kernel.beta_prev,
                                    b, x, kernel.r, kernel.z, kernel.p,
                                    kernel.p_prev));
          // Resume iteration j: recompute u = A p on the recovered state.
          for (const NodeId f : merged) kernel.u.revalidate_zero(f);
          kernel.spmv_direction(Phase::kRecovery);
          break;
        }
        case RecoveryMethod::kCheckpointRestart: {
          // An overlapping failure cuts the rollback read of the nodes so
          // far short; it is redone for the union.
          const std::vector<NodeId> merged = inject_due(
              evs, [&](const std::vector<NodeId>&) {
                ckpt.charge_aborted_restore(cluster_);
              });
          if (static_cast<int>(merged.size()) >= cluster_.num_nodes()) {
            throw UnrecoverableFailure(
                "checkpoint recovery needs at least one survivor to detect "
                "the failure and trigger the rollback");
          }
          // Replacements come online and re-fetch static data, then everyone
          // rolls back to the checkpointed iterate. z is not checkpointed:
          // it is recomputed from the restored residual through the
          // preconditioner (bit-identical to the z the unfailed run held at
          // the checkpointed iteration).
          const double t0 = cluster_.clock().in_phase(Phase::kRecovery);
          esr_replace_and_refetch(cluster_, *a_global_, merged);
          ckpt.restore(cluster_, x, kernel.r, kernel.p, kernel.rz,
                       kernel.beta_prev);
          for (const NodeId f : merged) {
            kernel.z.revalidate_zero(f);
            kernel.p_prev.revalidate_zero(f);
            kernel.u.revalidate_zero(f);
          }
          m_->apply(cluster_, kernel.r, kernel.z, Phase::kRecovery);
          RecoveryStats stats;
          stats.psi = static_cast<int>(merged.size());
          stats.lost_rows = static_cast<Index>(part.rows_of_set(merged).size());
          stats.sim_seconds = cluster_.clock().in_phase(Phase::kRecovery) - t0;
          record_recovery(j, merged, stats);
          res.rolled_back_iterations += j - ckpt.iteration();
          j = ckpt.iteration();
          skip_update = true;
          break;
        }
        case RecoveryMethod::kInterpolationRestart: {
          const std::vector<NodeId> merged =
              inject_due(evs, [](const std::vector<NodeId>&) {});
          record_recovery(j, merged,
                          interpolation_restart_recover(cluster_, *a_global_,
                                                        merged, b, x,
                                                        opts_.esr));
          // Restart CG from the interpolated iterate: the Krylov history is
          // lost (r, z, p rebuilt from scratch).
          for (const NodeId f : merged) {
            kernel.r.revalidate_zero(f);
            kernel.z.revalidate_zero(f);
            kernel.p.revalidate_zero(f);
            kernel.p_prev.revalidate_zero(f);
            kernel.u.revalidate_zero(f);
          }
          (void)kernel.initialize(b, x, Phase::kRecovery);
          kernel.beta_prev = 0.0;
          skip_update = true;
          break;
        }
        case RecoveryMethod::kTwin: {
          // An overlapping failure cuts the buddy copy-back of the nodes so
          // far short; it is redone for the union.
          const std::vector<NodeId> merged =
              inject_due(evs, [&](const std::vector<NodeId>& so_far) {
                cluster_.charge(Phase::kRecovery,
                                twin_round_cost(cluster_, so_far));
              });
          // Each failed node's mirror lives on its buddy; losing both
          // members of a pair before the next push destroys original and
          // copy.
          for (const NodeId f : merged) {
            const NodeId buddy = buddy_of(f, cluster_.num_nodes());
            if (std::find(merged.begin(), merged.end(), buddy) !=
                merged.end()) {
              throw UnrecoverableFailure(
                  "twin redundancy does not cover the simultaneous loss of "
                  "buddy pair {" + std::to_string(f) + ", " +
                  std::to_string(buddy) + "}");
            }
          }
          const double t0 = cluster_.clock().in_phase(Phase::kRecovery);
          esr_replace_and_refetch(cluster_, *a_global_, merged);
          // Forward recovery: replacements copy {x, r, p} from their
          // buddies; the scalars rz/beta_prev are replicated on every
          // survivor and cost nothing.
          Index lost_rows = 0;
          {
            ClockPause pause(cluster_.clock());
            for (const NodeId f : merged) {
              const auto block = [&](const std::vector<double>& mirror) {
                return std::span<const double>(mirror).subspan(
                    static_cast<std::size_t>(part.begin(f)),
                    static_cast<std::size_t>(part.size(f)));
              };
              x.restore_block(f, block(mirror_x));
              kernel.r.restore_block(f, block(mirror_r));
              kernel.p.restore_block(f, block(mirror_p));
              kernel.z.revalidate_zero(f);       // recomputed next precondition
              kernel.p_prev.revalidate_zero(f);  // never read by twin
              kernel.u.revalidate_zero(f);       // recomputed below
              lost_rows += part.size(f);
            }
          }
          const double copy_cost = twin_round_cost(cluster_, merged);
          cluster_.charge(Phase::kRecovery, copy_cost);
          // Resume iteration j on the recovered state: u = A p again.
          kernel.spmv_direction(Phase::kRecovery);
          // Re-arm: the fresh nodes push their blocks to their buddies and
          // re-host their buddies' mirrors (two transfers per pair).
          push_mirror(Phase::kRecovery, 2.0 * copy_cost);
          RecoveryStats stats;
          stats.psi = static_cast<int>(merged.size());
          stats.lost_rows = lost_rows;
          stats.gathered_elements = 3 * lost_rows;
          stats.sim_seconds = cluster_.clock().in_phase(Phase::kRecovery) - t0;
          record_recovery(j, merged, stats);
          break;
        }
      }
    }
    if (skip_update) continue;

    // Lines 3-8 of Alg. 1.
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
    kernel.advance_direction(d, /*track_prev=*/true, it);
    // Twin: the mirror again holds the loop-top state of iteration j + 1.
    if (twin) push_mirror(Phase::kRedundancy, redundancy_step_cost_);
    ++j;
  }

  meter.finish(cluster_, *a_, b, x, res);
  return res;
}

}  // namespace rpcg
