#include "solver/stationary.hpp"

#include <algorithm>
#include <cmath>

#include "sim/collectives.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace rpcg {

std::string to_string(StationaryMethod m) { return enum_to_string(m); }

ResilientStationary::ResilientStationary(Cluster& cluster,
                                         const CsrMatrix& a_global,
                                         const DistMatrix& a,
                                         StationaryOptions opts)
    : cluster_(cluster), a_global_(&a_global), a_(&a), opts_(opts) {
  RPCG_CHECK(opts_.omega > 0.0 && opts_.omega < 2.0, "omega must be in (0,2)");
  RPCG_CHECK(opts_.phi >= 0 && opts_.phi < cluster.num_nodes(),
             "phi must satisfy 0 <= phi < N");
  inv_diag_.resize(static_cast<std::size_t>(a_global.rows()));
  for (Index i = 0; i < a_global.rows(); ++i) {
    const double d = a_global.value_at(i, i);
    RPCG_CHECK(d > 0.0, "stationary methods need a positive diagonal");
    inv_diag_[static_cast<std::size_t>(i)] = 1.0 / d;
  }
  sweep_flops_scale_ =
      opts_.method == StationaryMethod::kSsor ? 4.0 : 2.0;  // two sweeps

  if (opts_.phi > 0) {
    scheme_ = RedundancyScheme::build(a.scatter_plan(), cluster.partition(),
                                      opts_.phi, opts_.strategy,
                                      opts_.strategy_seed);
    redundancy_step_cost_ = scheme_.per_iteration_overhead(cluster.comm());
    store_.configure(a.scatter_plan(), scheme_, cluster.partition(),
                     /*generations=*/1);
  }
}

void ResilientStationary::local_sweep(NodeId i, std::span<const double> b_own,
                                      std::span<double> operand,
                                      std::span<double> x_own) const {
  const Partition& part = cluster_.partition();
  const Index own = part.size(i);
  const Index base = part.begin(i);
  // Node i's rows: their slice of the global CSR, whose remapped columns
  // index the operand.
  const auto rp = a_->row_ptr(i);
  const auto cols = a_->remapped_cols(i);
  const Index first = rp[0];
  const auto vals = a_->global().values().subspan(
      static_cast<std::size_t>(first), cols.size());

  const auto row_residual = [&](Index r) {
    double acc = b_own[static_cast<std::size_t>(r)];
    for (Index p = rp[static_cast<std::size_t>(r)] - first;
         p < rp[static_cast<std::size_t>(r) + 1] - first; ++p)
      acc -= vals[static_cast<std::size_t>(p)] *
             operand[static_cast<std::size_t>(cols[static_cast<std::size_t>(p)])];
    return acc;
  };
  // Writes the updated entry back into the operand too, so later rows of a
  // Gauss-Seidel, SOR or SSOR sweep read the live iterate.
  const auto update = [&](Index r, double step) {
    const auto k = static_cast<std::size_t>(r);
    x_own[k] += step;
    operand[k] = x_own[k];
  };

  switch (opts_.method) {
    case StationaryMethod::kJacobi: {
      // All updates from the old iterate: compute increments first.
      std::vector<double> delta(static_cast<std::size_t>(own));
      for (Index r = 0; r < own; ++r)
        delta[static_cast<std::size_t>(r)] =
            opts_.omega * row_residual(r) *
            inv_diag_[static_cast<std::size_t>(base + r)];
      for (Index r = 0; r < own; ++r) update(r, delta[static_cast<std::size_t>(r)]);
      break;
    }
    case StationaryMethod::kGaussSeidel:
    case StationaryMethod::kSor: {
      const double w = opts_.method == StationaryMethod::kGaussSeidel
                           ? 1.0
                           : opts_.omega;
      for (Index r = 0; r < own; ++r)
        update(r, w * row_residual(r) * inv_diag_[static_cast<std::size_t>(base + r)]);
      break;
    }
    case StationaryMethod::kSsor: {
      for (Index r = 0; r < own; ++r)
        update(r, opts_.omega * row_residual(r) *
                      inv_diag_[static_cast<std::size_t>(base + r)]);
      for (Index r = own - 1; r >= 0; --r)
        update(r, opts_.omega * row_residual(r) *
                      inv_diag_[static_cast<std::size_t>(base + r)]);
      break;
    }
  }
}

engine::SolveReport ResilientStationary::solve(
    const DistVector& b, DistVector& x, const FailureSchedule& schedule) {
  RPCG_CHECK(cluster_.alive_count() == cluster_.num_nodes(),
             "all nodes must be alive at solve entry");
  const Partition& part = cluster_.partition();
  const engine::SolveMeter meter(cluster_);

  std::vector<std::vector<double>> halos;
  DistVector resid(part);
  engine::SolveReport res;

  // Initial residual norm (one SpMV).
  a_->spmv(cluster_, x, resid, halos, Phase::kIteration);
  {
    for (NodeId i = 0; i < part.num_nodes(); ++i) {
      auto rb = resid.block(i);
      const auto bb = b.block(i);
      for (std::size_t k = 0; k < rb.size(); ++k) rb[k] = bb[k] - rb[k];
    }
  }
  const double rnorm0 = std::sqrt(dot(cluster_, resid, resid, Phase::kIteration));
  res.converged = rnorm0 == 0.0;

  FailureCursor cursor(schedule, opts_.phi > 0);
  const double sweep_flops_base = sweep_flops_scale_;

  for (int j = 0; !res.converged && j < opts_.max_iterations; ++j) {
    // Halo exchange of x^(j) (+ redundant copies).
    execute_scatter(cluster_, a_->scatter_plan(), x, halos, Phase::kIteration);
    if (opts_.phi > 0) {
      store_.record(x);
      cluster_.charge(Phase::kRedundancy, redundancy_step_cost_);
    }

    // Failure injection point: x's copies are distributed.
    const std::vector<NodeId> merged = cursor.merge_due(
        j,
        [&](const FailureEvent& ev) {
          for (const NodeId f : ev.nodes) {
            cluster_.fail_node(f);
            x.invalidate(f);
            resid.invalidate(f);
            store_.invalidate_node(f);
          }
        },
        opts_.events.on_failure_injected,
        [&](const std::vector<NodeId>& so_far) {
          esr_abort_recovery(cluster_, so_far, {&store_}, nullptr);
        });
    if (!merged.empty()) {
      // The iterate is the whole state: its lost blocks are gathered from
      // the retained copies, with no reconstruction solve.
      LostBlocks lost(cluster_, *a_global_, merged);
      lost.install(x, lost.gather(store_).gens[0]);
      store_.re_arm(cluster_, lost.nodes());
      resid.set_zero();
      // Redo the halo exchange on the recovered iterate.
      execute_scatter(cluster_, a_->scatter_plan(), x, halos, Phase::kRecovery);
      res.recoveries.push_back(RecoveryRecord{j, merged, lost.finish()});
      if (opts_.events.on_recovery_complete)
        opts_.events.on_recovery_complete(res.recoveries.back());
    }

    // One sweep per node (embarrassingly parallel given the halo).
    const int nn = part.num_nodes();
    exec_parallel_for(cluster_.execution_policy(), static_cast<std::size_t>(nn),
                      [&](std::size_t i) {
                        const auto node = static_cast<NodeId>(i);
                        local_sweep(node, b.block(node), halos[i], x.block(node));
                      });
    {
      std::vector<double> flops(static_cast<std::size_t>(nn));
      for (NodeId i = 0; i < nn; ++i)
        flops[static_cast<std::size_t>(i)] =
            sweep_flops_base * static_cast<double>(a_->remapped_cols(i).size());
      cluster_.charge_compute(Phase::kIteration, flops);
    }

    // Convergence check on the true residual (needs a fresh SpMV; real
    // implementations amortize this, we charge it like everyone else).
    a_->spmv(cluster_, x, resid, halos, Phase::kIteration);
    for (NodeId i = 0; i < nn; ++i) {
      auto rb = resid.block(i);
      const auto bb = b.block(i);
      for (std::size_t k = 0; k < rb.size(); ++k) rb[k] = bb[k] - rb[k];
    }
    const double rnorm = std::sqrt(dot(cluster_, resid, resid, Phase::kIteration));
    res.iterations = j + 1;
    res.rel_residual = rnorm / rnorm0;
    res.solver_residual_norm = rnorm;
    if (opts_.events.on_iteration) {
      IterationSnapshot snap;
      snap.iteration = res.iterations;
      snap.rel_residual = res.rel_residual;
      snap.x = &x;
      snap.r = &resid;
      opts_.events.on_iteration(snap);
    }
    if (res.rel_residual <= opts_.rtol) {
      res.converged = true;
      break;
    }
  }

  meter.finish(cluster_, *a_, b, x, res);
  return res;
}

}  // namespace rpcg
