#include "sim/scatter_plan.hpp"

#include <algorithm>
#include <limits>

#include "util/check.hpp"

namespace rpcg {

ScatterPlan ScatterPlan::build(const CsrMatrix& a, const Partition& part) {
  RPCG_CHECK(a.rows() == a.cols(), "distributed matrices must be square");
  RPCG_CHECK(a.rows() == part.n(), "matrix/partition size mismatch");
  const int nn = part.num_nodes();
  ScatterPlan plan;
  plan.send_ids_.resize(static_cast<std::size_t>(nn));
  plan.recv_ids_.resize(static_cast<std::size_t>(nn));
  plan.multiplicity_.assign(static_cast<std::size_t>(part.n()), 0);

  // Node k's halo: the distinct off-block columns of its rows, each found
  // once through stamp[c] == k, then sorted. Owners hold contiguous
  // ascending row ranges, so the sorted halo cuts into one message per
  // source, in ascending source order.
  std::vector<NodeId> stamp(static_cast<std::size_t>(part.n()), -1);
  std::vector<Index> halo;
  const auto rp = a.row_ptr();
  const auto cols = a.col_idx();
  for (NodeId k = 0; k < nn; ++k) {
    const Index lo = part.begin(k);
    const Index hi = part.end(k);
    halo.clear();
    for (Index p = rp[static_cast<std::size_t>(lo)];
         p < rp[static_cast<std::size_t>(hi)]; ++p) {
      const Index c = cols[static_cast<std::size_t>(p)];
      if ((c >= lo && c < hi) || stamp[static_cast<std::size_t>(c)] == k) continue;
      stamp[static_cast<std::size_t>(c)] = k;
      halo.push_back(c);
    }
    std::sort(halo.begin(), halo.end());
    for (auto from = halo.begin(); from != halo.end();) {
      const NodeId src = part.owner(*from);
      const auto to = std::lower_bound(from, halo.end(), part.end(src));
      for (auto it = from; it != to; ++it)
        ++plan.multiplicity_[static_cast<std::size_t>(*it)];
      plan.messages_.push_back(ScatterMessage{src, k, std::vector<Index>(from, to)});
      from = to;
    }
  }

  // The messages were cut in (dst, src) order; their ids follow (src, dst)
  // order, so each node sends in ascending dst and receives in ascending src.
  std::stable_sort(plan.messages_.begin(), plan.messages_.end(),
                   [](const ScatterMessage& x, const ScatterMessage& y) {
                     return x.src < y.src;
                   });
  for (std::size_t id = 0; id < plan.messages_.size(); ++id) {
    const ScatterMessage& m = plan.messages_[id];
    plan.send_ids_[static_cast<std::size_t>(m.src)].push_back(static_cast<int>(id));
    plan.recv_ids_[static_cast<std::size_t>(m.dst)].push_back(static_cast<int>(id));
  }
  return plan;
}

std::span<const int> ScatterPlan::sends_of(NodeId i) const {
  return send_ids_[static_cast<std::size_t>(i)];
}

std::span<const int> ScatterPlan::recvs_of(NodeId k) const {
  return recv_ids_[static_cast<std::size_t>(k)];
}

std::span<const Index> ScatterPlan::s_ik(NodeId i, NodeId k) const {
  for (const int id : sends_of(i)) {
    const auto& m = messages_[static_cast<std::size_t>(id)];
    if (m.dst == k) return m.indices;
  }
  return {};
}

Index ScatterPlan::halo_size(NodeId k) const {
  Index total = 0;
  for (const int id : recvs_of(k))
    total += static_cast<Index>(messages_[static_cast<std::size_t>(id)].indices.size());
  return total;
}

std::vector<double> ScatterPlan::comm_cost_per_node(const CommModel& model) const {
  std::vector<double> cost(send_ids_.size(), 0.0);
  for (std::size_t i = 0; i < send_ids_.size(); ++i)
    for (const int id : send_ids_[i])
      cost[i] += model.message_cost(
          static_cast<Index>(messages_[static_cast<std::size_t>(id)].indices.size()));
  return cost;
}

void execute_scatter(Cluster& cluster, const ScatterPlan& plan,
                     const DistVector& x, std::vector<std::vector<double>>& halos,
                     Phase phase, bool charge_cost) {
  const Partition& part = cluster.partition();
  const int nn = part.num_nodes();
  halos.resize(static_cast<std::size_t>(nn));
  for (NodeId k = 0; k < nn; ++k) {
    auto& operand = halos[static_cast<std::size_t>(k)];
    if (!cluster.is_alive(k)) {
      operand.clear();
      continue;
    }
    const auto own = x.block(k);
    operand.resize(own.size() + static_cast<std::size_t>(plan.halo_size(k)));
    double* out = std::copy(own.begin(), own.end(), operand.data());
    for (const int id : plan.recvs_of(k)) {
      const auto& m = plan.messages()[static_cast<std::size_t>(id)];
      if (!cluster.is_alive(m.src)) {
        // Keep the halo layout stable: a dead source contributes poison
        // values (consumers must recover before the next SpMV).
        out = std::fill_n(out, m.indices.size(),
                          std::numeric_limits<double>::quiet_NaN());
        continue;
      }
      const double* src = x.block(m.src).data();
      const Index base = part.begin(m.src);
      for (const Index g : m.indices) *out++ = src[g - base];
    }
  }
  if (charge_cost) {
    const auto costs = plan.comm_cost_per_node(cluster.comm());
    cluster.charge_parallel_seconds(phase, costs);
  }
}

}  // namespace rpcg
