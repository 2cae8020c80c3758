#include "sim/dist_matrix.hpp"

#include <algorithm>
#include <limits>

#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace rpcg {

namespace {

// y = A_i u for one node: u is the node's operand [x_i | halo_i], rp the
// node's row pointers into the global CSR, and cols and vals the global
// arrays, with every column remapped into the operand. Rows run in pairs, one
// accumulator each, so the two add chains overlap; each row still starts at
// 0.0 and adds vals[p] * u[cols[p]] in CSR order, the order CsrMatrix::spmv
// uses. (Pairs measured faster than 4 rows at a time on M1, M2 and M8.)
void spmv_row_pairs(std::span<const Index> rp, const std::int32_t* cols,
                    const double* vals, const double* u, std::span<double> y) {
  const std::size_t rows = y.size();
  std::size_t r = 0;
  for (; r + 1 < rows; r += 2) {
    auto p0 = static_cast<std::size_t>(rp[r]);
    auto p1 = static_cast<std::size_t>(rp[r + 1]);
    const std::size_t e0 = p1;
    const auto e1 = static_cast<std::size_t>(rp[r + 2]);
    const std::size_t common = std::min(e0 - p0, e1 - p1);
    double acc0 = 0.0;
    double acc1 = 0.0;
    for (std::size_t k = 0; k < common; ++k) {
      acc0 += vals[p0 + k] * u[cols[p0 + k]];
      acc1 += vals[p1 + k] * u[cols[p1 + k]];
    }
    for (p0 += common; p0 < e0; ++p0) acc0 += vals[p0] * u[cols[p0]];
    for (p1 += common; p1 < e1; ++p1) acc1 += vals[p1] * u[cols[p1]];
    y[r] = acc0;
    y[r + 1] = acc1;
  }
  if (r < rows) {
    double acc = 0.0;
    for (auto p = static_cast<std::size_t>(rp[r]); p < static_cast<std::size_t>(rp[r + 1]); ++p)
      acc += vals[p] * u[cols[p]];
    y[r] = acc;
  }
}

}  // namespace

DistMatrix DistMatrix::distribute(const CsrMatrix& a, const Partition& partition) {
  DistMatrix d;
  d.plan_ = ScatterPlan::build(a, partition);
  d.a_ = &a;
  d.partition_ = &partition;
  const int nn = partition.num_nodes();
  const auto cols = a.col_idx();
  d.spmv_flops_.resize(static_cast<std::size_t>(nn));
  d.remap_cols_.resize(cols.size());

  // Column remap into the operand: own columns to [0, size_i), halo columns
  // to [size_i, size_i + halo_size_i) following the plan's receive order.
  // slot[g] holds halo column g's operand index for the node being remapped;
  // every halo column of that node is set before its entries are read.
  std::vector<std::int32_t> slot(static_cast<std::size_t>(partition.n()));
  for (NodeId i = 0; i < nn; ++i) {
    RPCG_CHECK(partition.size(i) + d.plan_.halo_size(i) <=
                   std::numeric_limits<std::int32_t>::max(),
               "node operand too large for 32-bit local columns");
    auto next = static_cast<std::int32_t>(partition.size(i));
    for (const int id : d.plan_.recvs_of(i))
      for (const Index g : d.plan_.messages()[static_cast<std::size_t>(id)].indices)
        slot[static_cast<std::size_t>(g)] = next++;
    const Index lo = partition.begin(i);
    const Index hi = partition.end(i);
    const auto rp = d.row_ptr(i);
    for (auto p = static_cast<std::size_t>(rp.front());
         p < static_cast<std::size_t>(rp.back()); ++p) {
      const Index c = cols[p];
      d.remap_cols_[p] = c >= lo && c < hi ? static_cast<std::int32_t>(c - lo)
                                           : slot[static_cast<std::size_t>(c)];
    }
    d.spmv_flops_[static_cast<std::size_t>(i)] =
        2.0 * static_cast<double>(d.remapped_cols(i).size());
  }
  return d;
}

std::span<const std::int32_t> DistMatrix::remapped_cols(NodeId i) const {
  const auto rp = row_ptr(i);
  return std::span<const std::int32_t>(remap_cols_)
      .subspan(static_cast<std::size_t>(rp.front()),
               static_cast<std::size_t>(rp.back() - rp.front()));
}

void DistMatrix::spmv(Cluster& cluster, const DistVector& x, DistVector& y,
                      std::vector<std::vector<double>>& halos, Phase phase) const {
  RPCG_CHECK(cluster.alive_count() == cluster.num_nodes(),
             "SpMV requires all nodes alive (recover first)");
  execute_scatter(cluster, plan_, x, halos, phase);
  const int nn = partition_->num_nodes();
  exec_parallel_for(cluster.execution_policy(), static_cast<std::size_t>(nn),
                    [&](std::size_t i) {
                      const auto node = static_cast<NodeId>(i);
                      spmv_row_pairs(row_ptr(node), remap_cols_.data(),
                                     a_->values().data(), halos[i].data(),
                                     y.block(node));
                    });
  cluster.charge_compute(phase, spmv_flops_);
}

}  // namespace rpcg
