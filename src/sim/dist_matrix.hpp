// Block-row distributed sparse matrix with a PETSc-style split into local
// and halo columns, plus the SpMV driver that performs the halo exchange and
// charges simulated time. It keeps no copy of the matrix: node i's rows are
// a slice of the borrowed global CSR (the one reliable static copy of A),
// read through 32-bit columns remapped into node i's operand.
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

  /// Distributes a global square matrix over the partition: node i's rows
  /// are the slice [row_ptr[begin(i)], row_ptr[end(i)]) of `a`'s CSR, read in
  /// place, with their columns remapped into node i's SpMV operand; the
  /// scatter plan is derived from `a`'s pattern. Borrows `a` and `partition`:
  /// both must outlive the DistMatrix and stay at their addresses (a moved
  /// or destroyed matrix or partition leaves it dangling). Throws
  /// std::invalid_argument when a node's operand has more than INT32_MAX
  /// entries (the remapped columns are 32-bit).
  [[nodiscard]] static DistMatrix distribute(const CsrMatrix& a,
                                             const Partition& partition);

  [[nodiscard]] Index n() const { return partition_->n(); }
  [[nodiscard]] const Partition& partition() const { return *partition_; }

  /// The borrowed global matrix.
  [[nodiscard]] const CsrMatrix& global() const { return *a_; }

  /// Node i's rows: their partition().size(i) + 1 offsets into global()'s
  /// columns and values.
  [[nodiscard]] std::span<const Index> row_ptr(NodeId i) const {
    return a_->row_ptr().subspan(static_cast<std::size_t>(partition_->begin(i)),
                                 static_cast<std::size_t>(partition_->size(i)) + 1);
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

  /// Column indices of node i's rows, aligned with their slice
  /// [row_ptr(i).front(), row_ptr(i).back()) of global().col_idx() and
  /// remapped into node i's operand [x_i | halo_i]: values <
  /// partition().size(i) index the own block, larger values the halo in the
  /// plan's receive order. Lets custom local kernels (the stationary
  /// solvers' sweeps) read the operand that execute_scatter fills.
  [[nodiscard]] std::span<const std::int32_t> remapped_cols(NodeId i) const;

 private:
  const CsrMatrix* a_ = nullptr;
  const Partition* partition_ = nullptr;
  ScatterPlan plan_;
  // Aligned with a_->col_idx(): every entry's column remapped into its
  // node's operand [x_i | halo_i].
  std::vector<std::int32_t> remap_cols_;
  std::vector<double> spmv_flops_;
};

}  // namespace rpcg
