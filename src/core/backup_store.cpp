#include "core/backup_store.hpp"

#include <algorithm>
#include <map>

#include "util/check.hpp"

namespace rpcg {

void BackupStore::configure(const ScatterPlan& plan,
                            const RedundancyScheme& scheme,
                            const Partition& partition, int generations) {
  RPCG_REQUIRE(generations >= 1, "a backup store needs at least 1 generation");
  partition_ = &partition;
  generations_ = generations;
  blocks_.clear();
  const int nn = partition.num_nodes();
  by_src_.assign(static_cast<std::size_t>(nn), {});
  by_dst_.assign(static_cast<std::size_t>(nn), {});

  // Union of halo traffic and designated extras per ordered pair.
  std::map<std::pair<NodeId, NodeId>, std::vector<Index>> pair_indices;
  for (const auto& m : plan.messages()) {
    auto& v = pair_indices[{m.src, m.dst}];
    v.insert(v.end(), m.indices.begin(), m.indices.end());
  }
  for (NodeId i = 0; i < nn; ++i) {
    for (const auto& round : scheme.rounds_of(i)) {
      if (round.extra.empty()) continue;
      auto& v = pair_indices[{i, round.target}];
      v.insert(v.end(), round.extra.begin(), round.extra.end());
    }
  }

  for (auto& [key, indices] : pair_indices) {
    std::sort(indices.begin(), indices.end());
    indices.erase(std::unique(indices.begin(), indices.end()), indices.end());
    RetainedBlock b;
    b.src = key.first;
    b.dst = key.second;
    b.indices = std::move(indices);
    const int id = static_cast<int>(blocks_.size());
    by_src_[static_cast<std::size_t>(b.src)].push_back(id);
    by_dst_[static_cast<std::size_t>(b.dst)].push_back(id);
    blocks_.push_back(std::move(b));
  }
  ring_.assign(static_cast<std::size_t>(generations_),
               std::vector<double>(static_cast<std::size_t>(partition.n()), 0.0));
  head_ = 0;
}

void BackupStore::record(const DistVector& p) {
  RPCG_REQUIRE(partition_ != nullptr, "store not configured");
  // The oldest generation's slot becomes the new generation 0.
  head_ = (head_ + generations_ - 1) % generations_;
  auto& snap = ring_[static_cast<std::size_t>(head_)];
  for (NodeId i = 0; i < partition_->num_nodes(); ++i) {
    const auto block = p.block(i);
    std::copy(block.begin(), block.end(),
              snap.begin() + static_cast<std::ptrdiff_t>(partition_->begin(i)));
  }
}

void BackupStore::invalidate_node(NodeId d) {
  RPCG_REQUIRE(partition_ != nullptr, "store not configured");
  for (const int id : by_dst_[static_cast<std::size_t>(d)])
    blocks_[static_cast<std::size_t>(id)].valid = false;
}

NodeId BackupStore::holder_of(const Cluster& cluster, NodeId owner,
                              Index global) const {
  for (const int id : by_src_[static_cast<std::size_t>(owner)]) {
    const auto& b = blocks_[static_cast<std::size_t>(id)];
    if (!b.valid || !cluster.is_alive(b.dst)) continue;
    if (std::binary_search(b.indices.begin(), b.indices.end(), global))
      return b.dst;
  }
  return -1;
}

std::optional<BackupStore::Found> BackupStore::lookup(const Cluster& cluster,
                                                      NodeId owner, Index global,
                                                      int gen) const {
  RPCG_CHECK(gen >= 0 && gen < generations_, "generation out of range");
  const NodeId holder = holder_of(cluster, owner, global);
  if (holder < 0) return std::nullopt;
  return Found{holder, snapshot(gen)[static_cast<std::size_t>(global)]};
}

BackupStore::Gathered BackupStore::gather_lost(Cluster& cluster,
                                               std::span<const Index> rows) const {
  RPCG_REQUIRE(partition_ != nullptr, "store not configured");
  Gathered out;
  out.gens.assign(static_cast<std::size_t>(generations_),
                  std::vector<double>(rows.size(), 0.0));
  // elements each holder sends to each replacement (for the cost model)
  std::map<std::pair<NodeId, NodeId>, Index> traffic;
  for (std::size_t k = 0; k < rows.size(); ++k) {
    const Index s = rows[k];
    const NodeId owner = partition_->owner(s);
    const NodeId holder = holder_of(cluster, owner, s);
    if (holder < 0) {
      throw UnrecoverableFailure(
          "element " + std::to_string(s) +
          " of failed node " + std::to_string(owner) +
          " has no surviving copy (more failures than phi?)");
    }
    for (int g = 0; g < generations_; ++g)
      out.gens[static_cast<std::size_t>(g)][k] =
          snapshot(g)[static_cast<std::size_t>(s)];
    traffic[{holder, owner}] += generations_;
  }
  out.elements_transferred =
      static_cast<Index>(generations_) * static_cast<Index>(rows.size());
  // Serialized sends per holder; the round costs the slowest holder.
  std::vector<double> per_holder(static_cast<std::size_t>(cluster.num_nodes()), 0.0);
  for (const auto& [key, count] : traffic)
    per_holder[static_cast<std::size_t>(key.first)] +=
        cluster.comm().message_cost(count);
  cluster.charge_parallel_seconds(Phase::kRecovery, per_holder);
  return out;
}

void BackupStore::re_arm(Cluster& cluster,
                         std::span<const NodeId> replacements) {
  RPCG_REQUIRE(partition_ != nullptr, "store not configured");
  std::vector<double> per_src(static_cast<std::size_t>(cluster.num_nodes()), 0.0);
  for (const NodeId d : replacements) {
    for (const int id : by_dst_[static_cast<std::size_t>(d)]) {
      auto& b = blocks_[static_cast<std::size_t>(id)];
      RPCG_REQUIRE(cluster.is_alive(b.src),
                   "re-arm requires the source to be alive or already recovered");
      b.valid = true;
      per_src[static_cast<std::size_t>(b.src)] += cluster.comm().message_cost(
          static_cast<Index>(generations_) * static_cast<Index>(b.indices.size()));
    }
  }
  cluster.charge_parallel_seconds(Phase::kRecovery, per_src);
}

Index BackupStore::retained_elements_on(NodeId d) const {
  Index total = 0;
  for (const int id : by_dst_[static_cast<std::size_t>(d)])
    total += static_cast<Index>(generations_) *
             static_cast<Index>(blocks_[static_cast<std::size_t>(id)].indices.size());
  return total;
}

}  // namespace rpcg
