#include "core/esr.hpp"

#include <algorithm>
#include <map>
#include <vector>

#include "core/errors.hpp"
#include "core/factorization_cache.hpp"
#include "solver/seq_pcg.hpp"
#include "sparse/ic0.hpp"
#include "sparse/ldlt.hpp"
#include "util/check.hpp"

namespace rpcg {

LocalSolveOutcome esr_solve_lost_x(Cluster& cluster, const CsrMatrix& a_global,
                                   std::span<const Index> rows,
                                   std::span<const double> r_f,
                                   const DistVector& b, const DistVector& x,
                                   std::span<double> x_f,
                                   const EsrOptions& opts) {
  RPCG_CHECK(r_f.empty() || r_f.size() == rows.size(),
             "r_f must be empty or match rows");
  RPCG_CHECK(x_f.size() == rows.size(), "x_f must match rows");
  const Partition& part = cluster.partition();

  // w = b_{IF} - r_{IF} - A_{IF, I\IF} x_{I\IF}. Surviving x entries are
  // gathered from their owners (tailored plan; serialized per-holder cost).
  std::vector<double> w(rows.size());
  std::map<NodeId, std::vector<Index>> gather;
  double flops = 0.0;
  for (std::size_t k = 0; k < rows.size(); ++k) {
    const Index row = rows[k];
    const NodeId owner = part.owner(row);
    w[k] = b.block(owner)[static_cast<std::size_t>(row - part.begin(owner))];
    if (!r_f.empty()) w[k] -= r_f[k];
    const auto cols = a_global.row_cols(row);
    const auto vals = a_global.row_vals(row);
    for (std::size_t pp = 0; pp < cols.size(); ++pp) {
      const Index c = cols[pp];
      if (std::binary_search(rows.begin(), rows.end(), c)) continue;
      const NodeId c_owner = part.owner(c);
      gather[c_owner].push_back(c);
      w[k] -= vals[pp] *
              x.block(c_owner)[static_cast<std::size_t>(c - part.begin(c_owner))];
    }
    flops += 2.0 * static_cast<double>(cols.size());
  }
  std::vector<double> per_holder(static_cast<std::size_t>(cluster.num_nodes()), 0.0);
  for (auto& [owner, needed] : gather) {
    std::sort(needed.begin(), needed.end());
    needed.erase(std::unique(needed.begin(), needed.end()), needed.end());
    per_holder[static_cast<std::size_t>(owner)] +=
        cluster.comm().message_cost(static_cast<Index>(needed.size()));
  }
  cluster.charge_parallel_seconds(Phase::kRecovery, per_holder);

  // Count the distinct failed nodes: the local solve runs distributed over
  // the psi replacement nodes (the paper assembles it from global
  // operations), so compute parallelizes psi-way and each iteration incurs
  // reduction latency.
  int psi = 0;
  std::vector<NodeId> failed_nodes;
  for (std::size_t k = 0; k < rows.size();) {
    const NodeId f = part.owner(rows[k]);
    failed_nodes.push_back(f);
    k += static_cast<std::size_t>(part.size(f));
    ++psi;
  }

  // A_{IF,IF} and its factorization are pure functions of (A, I_F); reuse
  // them through the cache when one is configured. The simulated
  // factorization cost is charged below in both cases.
  const auto build_entry = [&]() {
    FactorizationCache::Entry e;
    e.a_ff = a_global.submatrix(rows, rows);
    e.rows.assign(rows.begin(), rows.end());
    if (opts.exact_local_solve) {
      e.ldlt = ReorderedLdlt::factor(e.a_ff);
    } else {
      e.ic0 = Ic0::factor(e.a_ff);
    }
    return e;
  };
  FactorizationCache::EntryPtr entry;
  if (opts.cache != nullptr) {
    entry = opts.cache->get_or_build(
        opts.exact_local_solve ? "esr/ldlt" : "esr/ic0",
        opts.matrix_key ? *opts.matrix_key
                        : FactorizationCache::matrix_key(a_global),
        failed_nodes, build_entry);
  } else {
    entry = std::make_shared<const FactorizationCache::Entry>(build_entry());
  }
  // The cache keys by failed node ids, which name these rows only on the
  // partition the entry was built on.
  RPCG_REQUIRE(std::ranges::equal(entry->rows, rows),
               "the cached A_{IF,IF} was built for other rows: one "
               "factorization cache serves one partition");
  const CsrMatrix& a_ff = entry->a_ff;

  LocalSolveOutcome outcome;
  std::fill(x_f.begin(), x_f.end(), 0.0);
  if (opts.exact_local_solve) {
    const auto& fact = entry->ldlt;
    // A_{IF,IF} of an SPD A is SPD; a failed factorization means A is not
    // numerically positive definite on I_F. Typed as divergence so a retry
    // policy can escalate to a strategy that never factors A_{IF,IF}.
    if (!fact.has_value())
      throw DivergenceError("A_{IF,IF} is not positive definite");
    fact->solve(w, x_f);
    outcome.iterations = 1;
    outcome.rel_residual = 0.0;
    flops += fact->factor_flops() + fact->solve_flops();
  } else {
    // IC(0)-preconditioned CG, the paper's reconstruction solver.
    const auto& ic = entry->ic0;
    SeqPcgOptions sopts;
    sopts.rtol = opts.local_rtol;
    sopts.max_iterations = opts.local_max_iterations;
    const SeqPcgResult res =
        seq_pcg_solve(a_ff, w, x_f, sopts, ic.has_value() ? &*ic : nullptr);
    // CG can stagnate just above extremely tight tolerances in floating
    // point; a residual reduction of 1e9 still reconstructs the state far
    // below the solver's 1e-8 termination threshold. Anything worse is a
    // deterministic numerical failure, typed like the LDLT branch's.
    if (!res.converged && res.rel_residual > 1e-9)
      throw DivergenceError("reconstruction solve did not converge");
    outcome.iterations = res.iterations;
    outcome.rel_residual = res.rel_residual;
    flops += res.flops;
    cluster.charge(
        Phase::kRecovery,
        static_cast<double>(res.iterations) * cluster.comm().allreduce_cost(psi, 2));
  }
  cluster.charge(Phase::kRecovery,
                 cluster.comm().compute_cost(flops / std::max(psi, 1)));
  return outcome;
}

void esr_abort_recovery(Cluster& cluster, std::span<const NodeId> so_far,
                        std::initializer_list<const BackupStore*> stores,
                        FactorizationCache* cache) {
  const std::vector<Index> rows = cluster.partition().rows_of_set(so_far);
  for (const BackupStore* store : stores)
    (void)store->gather_lost(cluster, rows);
  if (cache != nullptr) (void)cache->invalidate_overlapping(so_far);
}

LostBlocks::LostBlocks(Cluster& cluster, const CsrMatrix& a_global,
                       std::span<const NodeId> failed, int static_vectors)
    : cluster_(&cluster),
      nodes_(failed.begin(), failed.end()),
      rows_(cluster.partition().rows_of_set(failed)),
      t0_(cluster.clock().in_phase(Phase::kRecovery)) {
  RPCG_CHECK(!failed.empty(), "nothing to recover");
  std::sort(nodes_.begin(), nodes_.end());
  stats_.psi = static_cast<int>(failed.size());
  stats_.lost_rows = static_cast<Index>(rows_.size());

  cluster.charge_allreduce(Phase::kRecovery, 1);
  for (const NodeId f : failed) cluster.replace_node(f);

  // Replacements read their static data in parallel (Sec. 1.1.2); the
  // round costs the slowest one.
  const Partition& part = cluster.partition();
  std::vector<double> per_node(static_cast<std::size_t>(cluster.num_nodes()), 0.0);
  for (const NodeId f : failed) {
    Index doubles = static_vectors * part.size(f);
    for (Index row = part.begin(f); row < part.end(f); ++row)
      doubles += 2 * static_cast<Index>(a_global.row_cols(row).size());
    per_node[static_cast<std::size_t>(f)] = cluster.comm().storage_cost(doubles);
  }
  cluster.charge_parallel_seconds(Phase::kRecovery, per_node);
}

BackupStore::Gathered LostBlocks::gather(const BackupStore& store) {
  BackupStore::Gathered got = store.gather_lost(*cluster_, rows_);
  stats_.gathered_elements += got.elements_transferred;
  return got;
}

std::vector<double> LostBlocks::solve_x(const CsrMatrix& a_global,
                                        std::span<const double> r_f,
                                        const DistVector& b,
                                        const DistVector& x,
                                        const EsrOptions& opts) {
  std::vector<double> x_f(rows_.size());
  const LocalSolveOutcome outcome =
      esr_solve_lost_x(*cluster_, a_global, rows_, r_f, b, x, x_f, opts);
  stats_.local_solve_iterations = outcome.iterations;
  stats_.local_solve_rel_residual = outcome.rel_residual;
  return x_f;
}

void LostBlocks::install(DistVector& dst,
                         std::span<const double> values) const {
  RPCG_CHECK(values.size() == rows_.size(), "values must match the lost rows");
  const Partition& part = cluster_->partition();
  std::size_t pos = 0;
  for (const NodeId f : nodes_) {
    const auto bsize = static_cast<std::size_t>(part.size(f));
    dst.restore_block(f, values.subspan(pos, bsize));
    pos += bsize;
  }
}

void LostBlocks::install_from(DistVector& dst, const DistVector& src) const {
  for (const NodeId f : nodes_) dst.restore_block(f, src.block(f));
}

RecoveryStats LostBlocks::finish() {
  stats_.sim_seconds = cluster_->clock().in_phase(Phase::kRecovery) - t0_;
  return stats_;
}

}  // namespace rpcg
