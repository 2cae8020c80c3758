#include "sim/scatter_plan.hpp"

#include <algorithm>
#include <limits>
#include <map>

#include "sim/dist_matrix.hpp"
#include "util/check.hpp"

namespace rpcg {

ScatterPlan ScatterPlan::build(const DistMatrix& a) {
  const Partition& part = a.partition();
  const int nn = part.num_nodes();
  ScatterPlan plan;
  plan.send_ids_.resize(static_cast<std::size_t>(nn));
  plan.recv_ids_.resize(static_cast<std::size_t>(nn));
  plan.multiplicity_.assign(static_cast<std::size_t>(part.n()), 0);

  // For each destination node k, find the off-block columns its rows touch,
  // bucketed by owner. Sorted std::map keys give deterministic message order.
  std::map<std::pair<NodeId, NodeId>, std::vector<Index>> buckets;
  std::vector<Index> cols_seen;
  for (NodeId k = 0; k < nn; ++k) {
    const CsrMatrix& rows = a.local_rows(k);
    cols_seen.clear();
    for (const Index c : rows.col_idx()) {
      if (c >= part.begin(k) && c < part.end(k)) continue;  // own block
      cols_seen.push_back(c);
    }
    std::sort(cols_seen.begin(), cols_seen.end());
    cols_seen.erase(std::unique(cols_seen.begin(), cols_seen.end()),
                    cols_seen.end());
    for (const Index c : cols_seen) {
      const NodeId owner = part.owner(c);
      buckets[{owner, k}].push_back(c);
      ++plan.multiplicity_[static_cast<std::size_t>(c)];
    }
  }

  plan.messages_.reserve(buckets.size());
  for (auto& [key, indices] : buckets) {
    ScatterMessage m;
    m.src = key.first;
    m.dst = key.second;
    m.indices = std::move(indices);  // already sorted ascending
    const int id = static_cast<int>(plan.messages_.size());
    plan.send_ids_[static_cast<std::size_t>(m.src)].push_back(id);
    plan.recv_ids_[static_cast<std::size_t>(m.dst)].push_back(id);
    plan.messages_.push_back(std::move(m));
  }
  // send_ids_ per src are ordered by dst and recv_ids_ per dst ordered by
  // src because the map iterates keys lexicographically.
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
