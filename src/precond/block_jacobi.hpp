// Block Jacobi preconditioner with *exact* block solves — the paper's
// failure-free preconditioner (Sec. 6: "a block Jacobi as a preconditioner
// during the regular operation of the solver, solving the preconditioner
// blocks exactly"). Blocks match the node index sets by default; an optional
// sub-block size yields finer blocks (still node-aligned, i.e. M stays
// block-diagonal with respect to the partition, keeping ESR recovery local).
// apply() solves the node blocks in pairs (2k, 2k + 1) through
// ReorderedLdlt::solve_pair: two factors without packed supernode panels run
// their scalar sweeps interleaved, so the two dependency chains overlap, and
// every block's result is bit for bit its own ReorderedLdlt::solve.
#pragma once

#include <array>
#include <vector>

#include "precond/preconditioner.hpp"
#include "sparse/csr.hpp"
#include "sparse/ldlt.hpp"

namespace rpcg {

class BlockJacobiPreconditioner final : public Preconditioner {
 public:
  /// sub_block_size == 0: one block per node (the paper's setting).
  /// sub_block_size > 0: blocks of at most that many rows inside each node.
  BlockJacobiPreconditioner(const CsrMatrix& a, const Partition& partition,
                            Index sub_block_size = 0);

  void apply(Cluster& cluster, const DistVector& r, DistVector& z,
             Phase phase) const override;
  [[nodiscard]] PrecondKind kind() const override { return PrecondKind::kMGiven; }
  [[nodiscard]] std::string name() const override { return "bjacobi"; }
  void esr_recover_residual(Cluster& cluster, std::span<const Index> rows,
                            std::span<const double> z_f, const DistVector& r,
                            const DistVector& z,
                            std::span<double> r_f) const override;

  /// Diagnostics: how many node blocks each candidate ordering won (indexed
  /// by LdltOrdering). M1-style banded blocks keep RCM/AMD near-ties; the
  /// M2-style random blocks are where AMD earns its keep.
  [[nodiscard]] const std::array<int, 3>& ordering_counts() const {
    return ordering_counts_;
  }
  /// Diagnostics: blocks whose factor solves through packed supernode
  /// panels (wide supernodes detected) rather than scalar column sweeps.
  [[nodiscard]] int supernodal_blocks() const { return supernodal_blocks_; }

 private:
  const Partition* partition_;
  // Per node: the preconditioner matrix M_{Ii,Ii} (block-diagonal extraction
  // of A's node-diagonal block) and its exact LDLᵀ factorization behind a
  // fill-reducing ordering (the apply cost is the solver's per-iteration
  // hot path; see ReorderedLdlt).
  std::vector<CsrMatrix> m_local_;
  std::vector<ReorderedLdlt> factor_;
  std::vector<double> apply_flops_;
  std::array<int, 3> ordering_counts_{};
  int supernodal_blocks_ = 0;
};

}  // namespace rpcg
