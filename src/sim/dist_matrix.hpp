// Block-row distributed sparse matrix with a PETSc-style split into local
// and halo columns, plus the SpMV driver that performs the halo exchange and
// charges simulated time.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sim/cluster.hpp"
#include "sim/dist_vector.hpp"
#include "sim/scatter_plan.hpp"
#include "sparse/csr.hpp"
#include "util/types.hpp"

namespace rpcg {

class DistMatrix {
 public:
  DistMatrix() = default;

  /// Distributes a global square matrix over the partition: node i stores the
  /// CSR block A_{I_i, I} with global column indices, the derived scatter
  /// plan, and the block's columns remapped into node i's SpMV operand.
  /// Throws std::invalid_argument when a node's operand has more than
  /// INT32_MAX entries (the remapped columns are 32-bit).
  [[nodiscard]] static DistMatrix distribute(const CsrMatrix& a,
                                             const Partition& partition);

  [[nodiscard]] Index n() const { return partition_->n(); }
  [[nodiscard]] const Partition& partition() const { return *partition_; }

  /// Rows of node i with *global* column indices (used for submatrix
  /// extraction during reconstruction).
  [[nodiscard]] const CsrMatrix& local_rows(NodeId i) const {
    return local_[static_cast<std::size_t>(i)];
  }

  [[nodiscard]] const ScatterPlan& scatter_plan() const { return plan_; }

  /// Per-node nonzero counts (for the compute cost model).
  [[nodiscard]] std::span<const double> spmv_flops_per_node() const {
    return spmv_flops_;
  }

  /// y = A x on the simulated cluster: scatter (halo exchange) + local
  /// multiplies. Requires all nodes alive. Charges communication and compute
  /// to `phase`. `halos` is working storage reused across calls: on return
  /// halos[i] holds node i's operand [x_i | halo_i] (see execute_scatter).
  /// Each row of y starts at 0.0 and adds vals[p] * x[col[p]] in the row's
  /// CSR order, so y equals CsrMatrix::spmv of the global matrix bit for bit;
  /// rows run in pairs (two independent add chains) over the operand, with
  /// no own-versus-halo branch.
  void spmv(Cluster& cluster, const DistVector& x, DistVector& y,
            std::vector<std::vector<double>>& halos, Phase phase) const;

  /// Column indices of node i's local rows, aligned with
  /// local_rows(i).col_idx() and remapped into node i's operand
  /// [x_i | halo_i]: values < partition().size(i) index the own block,
  /// larger values the halo in the plan's receive order. Lets custom local
  /// kernels (the stationary solvers' sweeps) read the operand that
  /// execute_scatter fills.
  [[nodiscard]] std::span<const std::int32_t> remapped_cols(NodeId i) const {
    return remap_cols_[static_cast<std::size_t>(i)];
  }

 private:
  const Partition* partition_ = nullptr;
  std::vector<CsrMatrix> local_;  // per node, global columns
  ScatterPlan plan_;
  // Per node: columns remapped into the operand [x_i | halo_i].
  std::vector<std::vector<std::int32_t>> remap_cols_;
  std::vector<double> spmv_flops_;
};

}  // namespace rpcg
