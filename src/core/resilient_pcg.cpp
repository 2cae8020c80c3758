#include "core/resilient_pcg.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "core/factorization_cache.hpp"
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
  if (opts_.esr.cache != nullptr && !opts_.esr.matrix_key)
    opts_.esr.matrix_key = FactorizationCache::matrix_key(a_global);
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
  const engine::SolveMeter meter(cluster_);

  PcgKernel kernel(cluster_, *a_, *m_);
  const Phase it = Phase::kIteration;

  // Line 1 of Alg. 1: r = b - A x, z = M^{-1} r, p = z. The backup store's
  // older generation starts zero (p^(-1) = 0, consistent with beta^(-1) = 0
  // at a j = 0 failure).
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
  FailureCursor cursor(schedule, opts_.method != RecoveryMethod::kNone);

  // Twin mirror of the loop-top state {x, r, p}: node i's blocks live on
  // buddy_of(i). Host-side the mirror is a copy of the three vectors; the
  // simulated placement only matters for the coverage check and charges.
  const bool twin = opts_.method == RecoveryMethod::kTwin;
  DistVector mirror_x, mirror_r, mirror_p;
  const auto push_mirror = [&](Phase phase, double cost) {
    mirror_x = x;
    mirror_r = kernel.r;
    mirror_p = kernel.p;
    cluster_.charge(phase, cost);
  };
  if (twin) push_mirror(Phase::kRedundancy, redundancy_step_cost_);

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
    // generations: the store snapshots p^(j) as its newest generation, and
    // its previous snapshot, p^(j-1), becomes the older one.
    kernel.spmv_direction(it);
    if (opts_.phi > 0) {
      store_.record(kernel.p);
      cluster_.charge(Phase::kRedundancy, redundancy_step_cost_);
    }

    // --- Failure injection point (backups of p^(j), p^(j-1) in place). ---
    const std::vector<NodeId> merged = cursor.merge_due(
        j,
        [&](const FailureEvent& ev) {
          inject_failures(ev.nodes, kernel.state_vectors(x));
        },
        opts_.events.on_failure_injected,
        [&](const std::vector<NodeId>& so_far) {
          // The recovery of `so_far` was underway; the work it cut short is
          // charged, then redone for the union.
          switch (opts_.method) {
            case RecoveryMethod::kEsr:
              esr_abort_recovery(cluster_, so_far, {&store_},
                                 opts_.esr.cache);
              break;
            case RecoveryMethod::kCheckpointRestart:
              ckpt.charge_aborted_restore(cluster_);
              break;
            case RecoveryMethod::kTwin:
              cluster_.charge(Phase::kRecovery,
                              twin_round_cost(cluster_, so_far));
              break;
            default:
              break;
          }
        });

    bool skip_update = false;
    if (!merged.empty()) {
      switch (opts_.method) {
        case RecoveryMethod::kNone:  // merge_due threw already
          break;
        case RecoveryMethod::kEsr: {
          LostBlocks lost(cluster_, *a_global_, merged);
          // Recover the replicated scalar beta^(j-1) (one message from any
          // survivor) and both generations of the lost search directions.
          cluster_.charge(Phase::kRecovery, cluster_.comm().message_cost(1));
          const BackupStore::Gathered got = lost.gather(store_);
          // z_{IF} = p^(j)_{IF} - beta^(j-1) p^(j-1)_{IF}   (Alg. 2, line 4).
          std::vector<double> z_f(lost.size());
          for (std::size_t k = 0; k < z_f.size(); ++k)
            z_f[k] = got.gens[0][k] - kernel.beta_prev * got.gens[1][k];
          cluster_.charge(Phase::kRecovery,
                          cluster_.comm().compute_cost(
                              2.0 * static_cast<double>(z_f.size())));
          // r_{IF} through the preconditioner (lines 5-6), x_{IF} from the
          // local system (lines 7-8).
          std::vector<double> r_f(lost.size());
          m_->esr_recover_residual(cluster_, lost.rows(), z_f, kernel.r,
                                   kernel.z, r_f);
          lost.install(x, lost.solve_x(*a_global_, r_f, b, x, opts_.esr));
          lost.install(kernel.r, r_f);
          lost.install(kernel.z, z_f);
          lost.install(kernel.p, got.gens[0]);
          store_.re_arm(cluster_, lost.nodes());
          record_recovery(j, merged, lost.finish());
          // Resume iteration j: recompute u = A p on the recovered state.
          for (const NodeId f : merged) kernel.u.revalidate_zero(f);
          kernel.spmv_direction(Phase::kRecovery);
          break;
        }
        case RecoveryMethod::kCheckpointRestart: {
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
          LostBlocks lost(cluster_, *a_global_, merged);
          ckpt.restore(cluster_, x, kernel.r, kernel.p, kernel.rz,
                       kernel.beta_prev);
          for (const NodeId f : merged) {
            kernel.z.revalidate_zero(f);
            kernel.u.revalidate_zero(f);
          }
          m_->apply(cluster_, kernel.r, kernel.z, Phase::kRecovery);
          record_recovery(j, merged, lost.finish());
          res.rolled_back_iterations += j - ckpt.iteration();
          j = ckpt.iteration();
          skip_update = true;
          break;
        }
        case RecoveryMethod::kInterpolationRestart: {
          // Langou et al.'s interpolation (Sec. 1.2 of the paper): the lost
          // iterate block is approximated from A_{IF,IF} x_{IF} = b_{IF} -
          // A_{IF,I\IF} x_{I\IF}, the ESR solve without its residual term.
          LostBlocks lost(cluster_, *a_global_, merged);
          lost.install(x, lost.solve_x(*a_global_, {}, b, x, opts_.esr));
          record_recovery(j, merged, lost.finish());
          // Restart CG from the interpolated iterate: the Krylov history is
          // lost (r, z, p rebuilt from scratch).
          for (const NodeId f : merged) {
            kernel.r.revalidate_zero(f);
            kernel.z.revalidate_zero(f);
            kernel.p.revalidate_zero(f);
            kernel.u.revalidate_zero(f);
          }
          (void)kernel.initialize(b, x, Phase::kRecovery);
          kernel.beta_prev = 0.0;
          skip_update = true;
          break;
        }
        case RecoveryMethod::kTwin: {
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
          // Forward recovery: replacements copy {x, r, p} from their
          // buddies; the scalars rz/beta_prev are replicated on every
          // survivor and cost nothing.
          LostBlocks lost(cluster_, *a_global_, merged);
          lost.install_from(x, mirror_x);
          lost.install_from(kernel.r, mirror_r);
          lost.install_from(kernel.p, mirror_p);
          for (const NodeId f : merged) {
            kernel.z.revalidate_zero(f);  // recomputed next precondition
            kernel.u.revalidate_zero(f);  // recomputed below
          }
          const double copy_cost = twin_round_cost(cluster_, merged);
          cluster_.charge(Phase::kRecovery, copy_cost);
          // Resume iteration j on the recovered state: u = A p again.
          kernel.spmv_direction(Phase::kRecovery);
          // Re-arm: the fresh nodes push their blocks to their buddies and
          // re-host their buddies' mirrors (two transfers per pair).
          push_mirror(Phase::kRecovery, 2.0 * copy_cost);
          lost.stats().gathered_elements = 3 * lost.stats().lost_rows;
          record_recovery(j, merged, lost.finish());
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
    kernel.advance_direction(d, it);
    // Twin: the mirror again holds the loop-top state of iteration j + 1.
    if (twin) push_mirror(Phase::kRedundancy, redundancy_step_cost_);
    ++j;
  }

  meter.finish(cluster_, *a_, b, x, res);
  return res;
}

}  // namespace rpcg
