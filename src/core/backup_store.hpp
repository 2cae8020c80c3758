// The retained redundant data: what every node keeps, beyond its own block,
// of the most recent generations of a communicated vector — the SpMV halo it
// receives anyway (retention rule) plus the designated extra sets Rc_ik.
// A store keeps one or more generations. The paper's scheme retains two
// (p^(j) and p^(j-1)); the depth-l pipelined engine configures l+1
// generations of u, whose recovery reads only the newest (the older ones
// are backed up, gathered and charged as its (1 + l)x redundancy bill);
// BiCGSTAB (p̂, ŝ) and the stationary sweeps (the iterate x) keep one,
// since their recovery reads only the newest copy. A node failure destroys
// the store entries *on* the failed node; the reconstruction gathers lost
// elements from surviving holders through a tailored plan (the
// deterministic alternative to PETSc's reverse scatter discussed in Sec. 6
// of the paper).
//
// Host-side layout: every copy of an element in one generation holds the
// same value — the vector's value when that generation was recorded — so
// the store keeps one whole-vector snapshot per generation, in a ring, and
// each (sender, holder) pair keeps only which elements the holder retains
// and whether it is valid. The simulated placement of the copies, and so
// every charge and the coverage check, follows the pairs.
#pragma once

#include <optional>
#include <vector>

// UnrecoverableFailure used to live here; it now derives from the typed
// taxonomy (core/errors.hpp) so the service layer can classify it. Kept in
// this include set because every throw site reaches it through this header.
#include "core/errors.hpp"
#include "core/redundancy.hpp"
#include "sim/cluster.hpp"
#include "sim/dist_vector.hpp"
#include "sim/scatter_plan.hpp"

namespace rpcg {

class BackupStore {
 public:
  BackupStore() = default;

  /// Lays out the retained blocks: one per ordered node pair (src, dst) with
  /// traffic, holding the union of S_{src,dst} and the extra sets Rc
  /// targeted at dst, and a ring of `generations` (>= 1) snapshots. The
  /// snapshots start at zero (p^(-1) = 0, consistent with the j = 0
  /// reconstruction where beta^(-1) = 0). The paper's scheme is
  /// generations = 2.
  void configure(const ScatterPlan& plan, const RedundancyScheme& scheme,
                 const Partition& partition, int generations = 2);

  [[nodiscard]] int generations() const { return generations_; }

  /// Called once per SpMV, after the halo exchange of p^(j): advances the
  /// ring (gen g -> g+1, oldest dropped) and snapshots the freshly sent
  /// values, each node's block once, as generation 0.
  void record(const DistVector& p);

  /// A node failure destroys everything retained on node d: its pairs stop
  /// serving copies until re-armed.
  void invalidate_node(NodeId d);

  /// Looks up a surviving copy of element `global` (owned by `owner`) in
  /// generation `gen` (0 = newest, generations()-1 = oldest): the first
  /// valid pair of `owner`, in holder order, whose holder is alive and
  /// retains the element. Returns the holder and value, or nullopt if no
  /// alive holder has it.
  struct Found {
    NodeId holder;
    double value;
  };
  [[nodiscard]] std::optional<Found> lookup(const Cluster& cluster, NodeId owner,
                                            Index global, int gen) const;

  /// Gathers every generation of all lost elements (`rows`, sorted, owned by
  /// failed nodes), each element's generations from one holder. Charges the
  /// gather communication cost to Phase::kRecovery. Throws
  /// UnrecoverableFailure when an element has no surviving copy.
  struct Gathered {
    /// gens[g] holds generation g's values, aligned with rows (g = 0 newest).
    std::vector<std::vector<double>> gens;
    Index elements_transferred = 0;
  };
  [[nodiscard]] Gathered gather_lost(Cluster& cluster,
                                     std::span<const Index> rows) const;

  /// Re-validates the copies hosted on replacement nodes, so the full
  /// phi + 1 redundancy holds immediately after reconstruction instead of
  /// `generations` iterations later, and charges their re-send (every
  /// generation of each pair) to Phase::kRecovery. The values are the
  /// ring's: the recovery installed the lost blocks from them, and the
  /// surviving blocks have not changed since their record.
  void re_arm(Cluster& cluster, std::span<const NodeId> replacements);

  /// Memory the store occupies on node d, in vector elements (for the
  /// paper's ~2n/N-per-copy overhead statement; generations * n/N here).
  [[nodiscard]] Index retained_elements_on(NodeId d) const;

 private:
  struct RetainedBlock {
    NodeId src = -1;
    NodeId dst = -1;
    std::vector<Index> indices;  // sorted global indices
    bool valid = true;  // false after dst failed, until re-armed
  };

  /// The holder lookup() and gather_lost() read `global` from, or -1.
  [[nodiscard]] NodeId holder_of(const Cluster& cluster, NodeId owner,
                                 Index global) const;

  /// The ring slot of generation g (0 = newest).
  [[nodiscard]] const std::vector<double>& snapshot(int g) const {
    return ring_[static_cast<std::size_t>((head_ + g) % generations_)];
  }

  const Partition* partition_ = nullptr;
  int generations_ = 2;
  std::vector<std::vector<double>> ring_;  // whole-vector snapshots
  int head_ = 0;                           // ring slot of generation 0
  std::vector<RetainedBlock> blocks_;
  std::vector<std::vector<int>> by_src_;  // block ids per source node
  std::vector<std::vector<int>> by_dst_;  // block ids per destination node
};

}  // namespace rpcg
