#include "core/esr.hpp"

#include <algorithm>
#include <map>

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

  // A_{IF,IF} and its factorization are pure functions of (A, failed set);
  // reuse them through the cache when one is configured. The simulated
  // factorization cost is charged below in both cases.
  const auto build_entry = [&]() {
    FactorizationCache::Entry e;
    e.a_ff = a_global.submatrix(rows, rows);
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

void esr_replace_and_refetch(Cluster& cluster, const CsrMatrix& a_global,
                             std::span<const NodeId> failed) {
  const Partition& part = cluster.partition();

  // Replacement nodes come online; failure detection and agreement is one
  // collective over the survivors (ULFM-style shrink/agree).
  cluster.charge_allreduce(Phase::kRecovery, 1);
  for (const NodeId f : failed) cluster.replace_node(f);

  // Static data re-fetch from reliable storage: A rows, preconditioner rows,
  // and b rows of the failed blocks (Sec. 1.1.2). Replacements read in
  // parallel; cost is the slowest one.
  std::vector<double> per_node(static_cast<std::size_t>(cluster.num_nodes()), 0.0);
  for (const NodeId f : failed) {
    Index doubles = part.size(f);  // b block
    for (Index row = part.begin(f); row < part.end(f); ++row)
      doubles += 2 * static_cast<Index>(a_global.row_cols(row).size());
    per_node[static_cast<std::size_t>(f)] = cluster.comm().storage_cost(doubles);
  }
  cluster.charge_parallel_seconds(Phase::kRecovery, per_node);
}

RecoveryStats EsrReconstructor::recover(Cluster& cluster,
                                        std::span<const NodeId> failed,
                                        BackupStore& store, double beta_prev,
                                        const DistVector& b, DistVector& x,
                                        DistVector& r, DistVector& z,
                                        DistVector& p,
                                        DistVector& p_prev) const {
  RPCG_CHECK(!failed.empty(), "nothing to recover");
  const Partition& part = cluster.partition();
  const double t_before = cluster.clock().in_phase(Phase::kRecovery);
  RecoveryStats stats;
  stats.psi = static_cast<int>(failed.size());

  esr_replace_and_refetch(cluster, *a_global_, failed);

  const std::vector<Index> rows = part.rows_of_set(failed);
  stats.lost_rows = static_cast<Index>(rows.size());

  // Recover the replicated scalar beta^(j-1) (one message from any survivor)
  // and both generations of the lost search-direction blocks.
  cluster.charge(Phase::kRecovery, cluster.comm().message_cost(1));
  const BackupStore::Gathered got = store.gather_lost(cluster, rows);
  stats.gathered_elements = got.elements_transferred;

  // z_{IF} = p^(j)_{IF} - beta^(j-1) p^(j-1)_{IF}   (Alg. 2, line 4).
  std::vector<double> z_f(rows.size());
  for (std::size_t k = 0; k < rows.size(); ++k)
    z_f[k] = got.gens[0][k] - beta_prev * got.gens[1][k];
  cluster.charge(Phase::kRecovery, cluster.comm().compute_cost(
                                       2.0 * static_cast<double>(rows.size())));

  // r_{IF} through the preconditioner (lines 5-6 / the [23] variants).
  std::vector<double> r_f(rows.size());
  m_->esr_recover_residual(cluster, rows, z_f, r, z, r_f);

  // x_{IF} from the local system (lines 7-8).
  std::vector<double> x_f(rows.size());
  const LocalSolveOutcome outcome =
      esr_solve_lost_x(cluster, *a_global_, rows, r_f, b, x, x_f, opts_);
  stats.local_solve_iterations = outcome.iterations;
  stats.local_solve_rel_residual = outcome.rel_residual;

  // Install the reconstructed blocks on the replacement nodes.
  std::size_t pos = 0;
  std::vector<NodeId> sorted(failed.begin(), failed.end());
  std::sort(sorted.begin(), sorted.end());
  for (const NodeId f : sorted) {
    const auto bsize = static_cast<std::size_t>(part.size(f));
    const auto slice = [&pos, bsize](const std::vector<double>& v) {
      return std::span<const double>(v.data() + pos, bsize);
    };
    x.restore_block(f, slice(x_f));
    r.restore_block(f, slice(r_f));
    z.restore_block(f, slice(z_f));
    p.restore_block(f, slice(got.gens[0]));
    p_prev.restore_block(f, slice(got.gens[1]));
    pos += bsize;
  }

  // Restore full phi+1 redundancy right away: survivors re-send the backup
  // data hosted on the replacements.
  store.re_arm(cluster, sorted, p, p_prev);

  stats.sim_seconds = cluster.clock().in_phase(Phase::kRecovery) - t_before;
  return stats;
}

}  // namespace rpcg
