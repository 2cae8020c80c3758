#include "sim/dist_matrix.hpp"

#include <algorithm>
#include <limits>
#include <unordered_map>

#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace rpcg {

namespace {

// y = A_i u for one node: u is the node's operand [x_i | halo_i] and cols the
// rows' columns remapped into it. Rows run in pairs, one accumulator each, so
// the two add chains overlap; each row still starts at 0.0 and adds
// vals[p] * u[cols[p]] in CSR order, the order CsrMatrix::spmv uses. (Pairs
// measured faster than 4 rows at a time on M1, M2 and M8.)
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
  RPCG_CHECK(a.rows() == a.cols(), "distributed matrices must be square");
  RPCG_CHECK(a.rows() == partition.n(), "matrix/partition size mismatch");
  DistMatrix d;
  d.partition_ = &partition;
  const int nn = partition.num_nodes();
  d.local_.reserve(static_cast<std::size_t>(nn));
  d.spmv_flops_.resize(static_cast<std::size_t>(nn));
  for (NodeId i = 0; i < nn; ++i) {
    const auto rows = partition.rows_of(i);
    d.local_.push_back(a.extract_rows(rows));
    d.spmv_flops_[static_cast<std::size_t>(i)] =
        2.0 * static_cast<double>(d.local_.back().nnz());
  }
  d.plan_ = ScatterPlan::build(d);

  // Column remap into the operand: own columns to [0, size_i), halo columns
  // to [size_i, size_i + halo_size_i) following the plan's receive order.
  d.remap_cols_.resize(static_cast<std::size_t>(nn));
  for (NodeId i = 0; i < nn; ++i) {
    RPCG_CHECK(partition.size(i) + d.plan_.halo_size(i) <=
                   std::numeric_limits<std::int32_t>::max(),
               "node operand too large for 32-bit local columns");
    std::unordered_map<Index, std::int32_t> halo_slot;
    auto slot = static_cast<std::int32_t>(partition.size(i));
    for (const int id : d.plan_.recvs_of(i)) {
      const auto& m = d.plan_.messages()[static_cast<std::size_t>(id)];
      for (const Index g : m.indices) halo_slot.emplace(g, slot++);
    }
    const CsrMatrix& rows = d.local_[static_cast<std::size_t>(i)];
    auto& remap = d.remap_cols_[static_cast<std::size_t>(i)];
    remap.resize(static_cast<std::size_t>(rows.nnz()));
    const auto cols = rows.col_idx();
    for (std::size_t p = 0; p < cols.size(); ++p) {
      const Index c = cols[p];
      if (c >= partition.begin(i) && c < partition.end(i)) {
        remap[p] = static_cast<std::int32_t>(c - partition.begin(i));
      } else {
        remap[p] = halo_slot.at(c);
      }
    }
  }
  return d;
}

void DistMatrix::spmv(Cluster& cluster, const DistVector& x, DistVector& y,
                      std::vector<std::vector<double>>& halos, Phase phase) const {
  RPCG_CHECK(cluster.alive_count() == cluster.num_nodes(),
             "SpMV requires all nodes alive (recover first)");
  execute_scatter(cluster, plan_, x, halos, phase);
  const int nn = partition_->num_nodes();
  exec_parallel_for(cluster.execution_policy(), static_cast<std::size_t>(nn),
                    [&](std::size_t i) {
                      const CsrMatrix& rows = local_[i];
                      spmv_row_pairs(rows.row_ptr(), remap_cols_[i].data(),
                                     rows.values().data(), halos[i].data(),
                                     y.block(static_cast<NodeId>(i)));
                    });
  cluster.charge_compute(phase, spmv_flops_);
}

}  // namespace rpcg
