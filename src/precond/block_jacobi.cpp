#include "precond/block_jacobi.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace rpcg {

BlockJacobiPreconditioner::BlockJacobiPreconditioner(const CsrMatrix& a,
                                                     const Partition& partition,
                                                     Index sub_block_size)
    : partition_(&partition) {
  RPCG_CHECK(a.rows() == partition.n(), "matrix/partition size mismatch");
  const int nn = partition.num_nodes();
  m_local_.reserve(static_cast<std::size_t>(nn));
  factor_.reserve(static_cast<std::size_t>(nn));
  apply_flops_.resize(static_cast<std::size_t>(nn));

  for (NodeId i = 0; i < nn; ++i) {
    const auto rows = partition.rows_of(i);
    CsrMatrix block = a.submatrix(rows, rows);
    if (sub_block_size > 0) {
      // Keep only entries inside sub-blocks of the given size: M becomes
      // block-diagonal with finer blocks (a weaker but cheaper M).
      const Index bn = block.rows();
      std::vector<Index> rp{0};
      std::vector<Index> ci;
      std::vector<double> v;
      for (Index r = 0; r < bn; ++r) {
        const Index blk = r / sub_block_size;
        const auto cols = block.row_cols(r);
        const auto vals = block.row_vals(r);
        for (std::size_t p = 0; p < cols.size(); ++p) {
          if (cols[p] / sub_block_size == blk) {
            ci.push_back(cols[p]);
            v.push_back(vals[p]);
          }
        }
        rp.push_back(static_cast<Index>(ci.size()));
      }
      block = CsrMatrix(bn, bn, std::move(rp), std::move(ci), std::move(v));
    }
    auto fact = ReorderedLdlt::factor(block);
    RPCG_CHECK(fact.has_value(),
               "block Jacobi block is not positive definite (node " +
                   std::to_string(i) + ")");
    apply_flops_[static_cast<std::size_t>(i)] = fact->solve_flops();
    ++ordering_counts_[static_cast<std::size_t>(fact->ordering())];
    if (fact->factorization().supernodal()) ++supernodal_blocks_;
    m_local_.push_back(std::move(block));
    factor_.push_back(std::move(*fact));
  }
}

void BlockJacobiPreconditioner::apply(Cluster& cluster, const DistVector& r,
                                      DistVector& z, Phase phase) const {
  const auto nn = static_cast<std::size_t>(cluster.num_nodes());
  // Node pairs (2k, 2k + 1) solve together; an odd last node solves alone.
  exec_parallel_for(cluster.execution_policy(), (nn + 1) / 2,
                    [&](std::size_t k) {
                      const std::size_t i = 2 * k;
                      const auto a = static_cast<NodeId>(i);
                      if (i + 1 == nn) {
                        factor_[i].solve(r.block(a), z.block(a));
                        return;
                      }
                      const NodeId b = a + 1;
                      ReorderedLdlt::solve_pair(factor_[i], r.block(a), z.block(a),
                                                factor_[i + 1], r.block(b),
                                                z.block(b));
                    });
  cluster.charge_compute(phase, apply_flops_);
}

void BlockJacobiPreconditioner::esr_recover_residual(
    Cluster& cluster, std::span<const Index> rows, std::span<const double> z_f,
    const DistVector& /*r*/, const DistVector& /*z*/,
    std::span<double> r_f) const {
  // M is block-diagonal and node-aligned, so M_{If,I\If} = 0 and the lost
  // residual is the local product r_{If} = M_{If,If} z_{If}, computed one
  // failed node at a time ([23], Alg. 3 with an M-given preconditioner).
  double flops = 0.0;
  std::size_t pos = 0;
  while (pos < rows.size()) {
    const NodeId f = partition_->owner(rows[pos]);
    const auto bsize = static_cast<std::size_t>(partition_->size(f));
    RPCG_REQUIRE(pos + bsize <= rows.size() &&
                     rows[pos] == partition_->begin(f) &&
                     rows[pos + bsize - 1] == partition_->end(f) - 1,
                 "failed rows must cover whole node blocks");
    const CsrMatrix& m = m_local_[static_cast<std::size_t>(f)];
    m.spmv(z_f.subspan(pos, bsize), r_f.subspan(pos, bsize));
    flops += 2.0 * static_cast<double>(m.nnz());
    pos += bsize;
  }
  cluster.charge(Phase::kRecovery, cluster.comm().compute_cost(flops));
}

}  // namespace rpcg
