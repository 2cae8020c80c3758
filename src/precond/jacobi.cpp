#include "precond/jacobi.hpp"

#include <algorithm>
#include <map>

#include "core/errors.hpp"
#include "sparse/ldlt.hpp"
#include "util/check.hpp"

namespace rpcg {

JacobiPreconditioner::JacobiPreconditioner(const CsrMatrix& a,
                                           const Partition& partition)
    : partition_(&partition) {
  RPCG_CHECK(a.rows() == partition.n(), "matrix/partition size mismatch");
  inv_diag_.resize(static_cast<std::size_t>(a.rows()));
  for (Index i = 0; i < a.rows(); ++i) {
    const double d = a.value_at(i, i);
    RPCG_CHECK(d > 0.0, "Jacobi preconditioner needs a positive diagonal");
    inv_diag_[static_cast<std::size_t>(i)] = 1.0 / d;
  }
}

void JacobiPreconditioner::apply(Cluster& cluster, const DistVector& r,
                                 DistVector& z, Phase phase) const {
  for (NodeId i = 0; i < cluster.num_nodes(); ++i) {
    const auto rb = r.block(i);
    auto zb = z.block(i);
    const Index base = partition_->begin(i);
    for (std::size_t k = 0; k < rb.size(); ++k)
      zb[k] = rb[k] * inv_diag_[static_cast<std::size_t>(base) + k];
  }
  cluster.charge(
      phase, cluster.comm().compute_cost(
                 static_cast<double>(partition_->max_block_size())));
}

void JacobiPreconditioner::esr_recover_residual(
    Cluster& cluster, std::span<const Index> rows, std::span<const double> z_f,
    const DistVector& /*r*/, const DistVector& /*z*/,
    std::span<double> r_f) const {
  // P is diagonal, so P_{If,I\If} = 0 and the line-6 solve is a division:
  // r_{If} = z_{If} / diag(P).
  for (std::size_t k = 0; k < rows.size(); ++k)
    r_f[k] = z_f[k] / inv_diag_[static_cast<std::size_t>(rows[k])];
  cluster.charge(Phase::kRecovery,
                 cluster.comm().compute_cost(static_cast<double>(rows.size())));
}

ExplicitPreconditioner::ExplicitPreconditioner(CsrMatrix p,
                                               const Partition& partition)
    : p_global_(std::move(p)),
      p_key_(FactorizationCache::matrix_key(p_global_)),
      p_dist_(DistMatrix::distribute(p_global_, partition)) {
  RPCG_CHECK(p_global_.is_symmetric(1e-12),
             "explicit preconditioner must be symmetric");
}

void ExplicitPreconditioner::apply(Cluster& cluster, const DistVector& r,
                                   DistVector& z, Phase phase) const {
  // Thread-local halo workspace, not a member: concurrent solves may apply
  // one shared instance.
  static thread_local std::vector<std::vector<double>> halos;
  p_dist_.spmv(cluster, r, z, halos, phase);
}

void ExplicitPreconditioner::esr_recover_residual(
    Cluster& cluster, std::span<const Index> rows, std::span<const double> z_f,
    const DistVector& r, const DistVector& /*z*/, std::span<double> r_f) const {
  const Partition& part = r.partition();
  // v = z_{If} - P_{If, I\If} r_{I\If}   (Alg. 2, line 5). The needed
  // surviving r entries are gathered from their owners; the gather cost is
  // the serialized per-owner message cost.
  std::vector<double> v(z_f.begin(), z_f.end());
  std::map<NodeId, std::vector<Index>> gather;  // owner -> needed entries
  for (std::size_t k = 0; k < rows.size(); ++k) {
    const auto cols = p_global_.row_cols(rows[k]);
    const auto vals = p_global_.row_vals(rows[k]);
    for (std::size_t p = 0; p < cols.size(); ++p) {
      const Index c = cols[p];
      if (std::binary_search(rows.begin(), rows.end(), c)) continue;  // in If
      const NodeId owner = part.owner(c);
      gather[owner].push_back(c);
      v[k] -= vals[p] * r.block(owner)[static_cast<std::size_t>(c - part.begin(owner))];
    }
  }
  double flops = 0.0;
  for (const Index row : rows)
    flops += 2.0 * static_cast<double>(p_global_.row_cols(row).size());
  double max_holder_cost = 0.0;
  for (auto& [owner, needed] : gather) {
    std::sort(needed.begin(), needed.end());
    needed.erase(std::unique(needed.begin(), needed.end()), needed.end());
    max_holder_cost = std::max(
        max_holder_cost,
        cluster.comm().message_cost(static_cast<Index>(needed.size())));
  }
  cluster.charge(Phase::kRecovery, max_holder_cost);

  // Solve P_{If,If} r_{If} = v exactly (line 6). P_{If,If} is SPD. The
  // extraction + factorization is memoized per failed node set; the
  // simulated factorization cost is charged on hits too.
  std::vector<NodeId> failed_nodes;
  for (std::size_t k = 0; k < rows.size();) {
    const NodeId f = part.owner(rows[k]);
    failed_nodes.push_back(f);
    k += static_cast<std::size_t>(part.size(f));
  }
  const FactorizationCache::EntryPtr entry = cache_.get_or_build(
      "explicit-p/ldlt", p_key_, failed_nodes, [&]() {
        FactorizationCache::Entry e;
        e.a_ff = p_global_.submatrix(rows, rows);
        e.ldlt = ReorderedLdlt::factor(e.a_ff);
        return e;
      });
  const auto& fact = entry->ldlt;
  if (!fact.has_value())
    throw DivergenceError("P_{If,If} is not positive definite");
  fact->solve(v, r_f);
  cluster.charge(
      Phase::kRecovery,
      cluster.comm().compute_cost(flops + fact->factor_flops() + fact->solve_flops()));
}

}  // namespace rpcg
