#include "solver/stationary.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "core/backup_store.hpp"  // UnrecoverableFailure
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

    // Retained single-generation copies: the SpMV halo plus the extras.
    std::map<std::pair<NodeId, NodeId>, std::vector<Index>> pair_indices;
    for (const auto& m : a.scatter_plan().messages()) {
      auto& v = pair_indices[{m.src, m.dst}];
      v.insert(v.end(), m.indices.begin(), m.indices.end());
    }
    for (NodeId i = 0; i < cluster.num_nodes(); ++i) {
      for (const auto& round : scheme_.rounds_of(i)) {
        if (round.extra.empty()) continue;
        auto& v = pair_indices[{i, round.target}];
        v.insert(v.end(), round.extra.begin(), round.extra.end());
      }
    }
    retained_by_src_.assign(static_cast<std::size_t>(cluster.num_nodes()), {});
    retained_by_dst_.assign(static_cast<std::size_t>(cluster.num_nodes()), {});
    for (auto& [key, indices] : pair_indices) {
      std::sort(indices.begin(), indices.end());
      indices.erase(std::unique(indices.begin(), indices.end()), indices.end());
      Retained r;
      r.src = key.first;
      r.dst = key.second;
      r.values.assign(indices.size(), 0.0);
      r.indices = std::move(indices);
      const int id = static_cast<int>(retained_.size());
      retained_by_src_[static_cast<std::size_t>(r.src)].push_back(id);
      retained_by_dst_[static_cast<std::size_t>(r.dst)].push_back(id);
      retained_.push_back(std::move(r));
    }
  }
}

void ResilientStationary::record_backups(const DistVector& x) {
  const Partition& part = cluster_.partition();
  for (auto& r : retained_) {
    if (!r.valid) continue;
    const auto src = x.block(r.src);
    const Index base = part.begin(r.src);
    for (std::size_t k = 0; k < r.indices.size(); ++k)
      r.values[k] = src[static_cast<std::size_t>(r.indices[k] - base)];
  }
}

void ResilientStationary::local_sweep(NodeId i, std::span<const double> b_own,
                                      std::span<double> operand,
                                      std::span<double> x_own) const {
  const Partition& part = cluster_.partition();
  const CsrMatrix& rows = a_->local_rows(i);
  const auto cols = a_->remapped_cols(i);
  const auto rp = rows.row_ptr();
  const auto vals = rows.values();
  const Index own = part.size(i);
  const Index base = part.begin(i);

  const auto row_residual = [&](Index r) {
    double acc = b_own[static_cast<std::size_t>(r)];
    for (Index p = rp[static_cast<std::size_t>(r)]; p < rp[static_cast<std::size_t>(r) + 1]; ++p)
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

void ResilientStationary::recover(const std::vector<NodeId>& failed,
                                  DistVector& x) {
  const Partition& part = cluster_.partition();
  cluster_.charge_allreduce(Phase::kRecovery, 1);  // detection/agreement
  for (const NodeId f : failed) cluster_.replace_node(f);

  // Static-data re-fetch (A rows + b rows) from reliable storage.
  std::vector<double> per_node(static_cast<std::size_t>(cluster_.num_nodes()), 0.0);
  for (const NodeId f : failed) {
    Index doubles = part.size(f);
    for (Index row = part.begin(f); row < part.end(f); ++row)
      doubles += 2 * static_cast<Index>(a_global_->row_cols(row).size());
    per_node[static_cast<std::size_t>(f)] = cluster_.comm().storage_cost(doubles);
  }
  cluster_.charge_parallel_seconds(Phase::kRecovery, per_node);

  // Gather the lost iterate blocks from surviving copies.
  std::map<std::pair<NodeId, NodeId>, Index> traffic;
  std::vector<NodeId> sorted(failed.begin(), failed.end());
  std::sort(sorted.begin(), sorted.end());
  for (const NodeId f : sorted) {
    std::vector<double> block(static_cast<std::size_t>(part.size(f)));
    for (Index s = part.begin(f); s < part.end(f); ++s) {
      bool found = false;
      for (const int id : retained_by_src_[static_cast<std::size_t>(f)]) {
        const auto& r = retained_[static_cast<std::size_t>(id)];
        if (!r.valid || !cluster_.is_alive(r.dst)) continue;
        const auto it = std::lower_bound(r.indices.begin(), r.indices.end(), s);
        if (it == r.indices.end() || *it != s) continue;
        block[static_cast<std::size_t>(s - part.begin(f))] =
            r.values[static_cast<std::size_t>(it - r.indices.begin())];
        traffic[{r.dst, f}] += 1;
        found = true;
        break;
      }
      if (!found)
        throw UnrecoverableFailure("iterate element " + std::to_string(s) +
                                   " has no surviving copy");
    }
    x.restore_block(f, block);
  }
  std::vector<double> per_holder(static_cast<std::size_t>(cluster_.num_nodes()), 0.0);
  for (const auto& [key, count] : traffic)
    per_holder[static_cast<std::size_t>(key.first)] +=
        cluster_.comm().message_cost(count);
  cluster_.charge_parallel_seconds(Phase::kRecovery, per_holder);

  // Re-arm the copies hosted on the replacements.
  std::fill(per_node.begin(), per_node.end(), 0.0);
  for (const NodeId f : sorted) {
    for (const int id : retained_by_dst_[static_cast<std::size_t>(f)]) {
      auto& r = retained_[static_cast<std::size_t>(id)];
      const auto src = x.block(r.src);
      const Index base = part.begin(r.src);
      for (std::size_t k = 0; k < r.indices.size(); ++k)
        r.values[k] = src[static_cast<std::size_t>(r.indices[k] - base)];
      r.valid = true;
      per_node[static_cast<std::size_t>(r.src)] +=
          cluster_.comm().message_cost(static_cast<Index>(r.indices.size()));
    }
  }
  cluster_.charge_parallel_seconds(Phase::kRecovery, per_node);
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

  FailureCursor cursor(schedule);
  const double sweep_flops_base = sweep_flops_scale_;

  for (int j = 0; !res.converged && j < opts_.max_iterations; ++j) {
    // Halo exchange of x^(j) (+ redundant copies).
    execute_scatter(cluster_, a_->scatter_plan(), x, halos, Phase::kIteration);
    if (opts_.phi > 0) {
      record_backups(x);
      cluster_.charge(Phase::kRedundancy, redundancy_step_cost_);
    }

    // Failure injection point: x's copies are distributed.
    const std::vector<int> evs = cursor.take_due(j);
    if (!evs.empty()) {
      RPCG_CHECK(opts_.phi > 0, "failures injected into a non-resilient solver");
      std::vector<NodeId> merged;
      for (const int idx : evs) {
        const FailureEvent& ev = cursor.event(idx);
        merged.insert(merged.end(), ev.nodes.begin(), ev.nodes.end());
        for (const NodeId f : ev.nodes) {
          cluster_.fail_node(f);
          x.invalidate(f);
          resid.invalidate(f);
          for (const int id : retained_by_dst_[static_cast<std::size_t>(f)])
            retained_[static_cast<std::size_t>(id)].valid = false;
        }
        if (opts_.events.on_failure_injected)
          opts_.events.on_failure_injected(ev);
      }
      const double t0 = cluster_.clock().in_phase(Phase::kRecovery);
      recover(merged, x);
      resid.set_zero();
      // Redo the halo exchange on the recovered iterate.
      execute_scatter(cluster_, a_->scatter_plan(), x, halos, Phase::kRecovery);
      RecoveryRecord rec;
      rec.iteration = j;
      rec.nodes = merged;
      rec.stats.psi = static_cast<int>(merged.size());
      rec.stats.lost_rows = static_cast<Index>(part.rows_of_set(merged).size());
      rec.stats.sim_seconds = cluster_.clock().in_phase(Phase::kRecovery) - t0;
      res.recoveries.push_back(std::move(rec));
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
            sweep_flops_base * static_cast<double>(a_->local_rows(i).nnz());
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
