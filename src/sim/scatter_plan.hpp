// Generalized scatter plan for the SpMV halo exchange — the PETSc-style
// communication context of Sec. 6 of the paper. From the sparsity pattern of
// the distributed matrix it derives, for every ordered node pair (i, k), the
// set S_ik of elements of p_{I_i} that node i must send to node k so that
// node k can compute its rows of A p (Eqn. 2 of the paper).
#pragma once

#include <span>
#include <vector>

#include "sim/cluster.hpp"
#include "sim/dist_vector.hpp"
#include "sim/partition.hpp"
#include "sparse/csr.hpp"
#include "util/types.hpp"

namespace rpcg {

/// One point-to-point message of the plan: the sorted global indices of the
/// vector elements src sends to dst during SpMV (the set S_{src,dst}).
struct ScatterMessage {
  NodeId src = -1;
  NodeId dst = -1;
  std::vector<Index> indices;
};

class ScatterPlan {
 public:
  ScatterPlan() = default;

  /// Builds the plan from the column pattern of the square matrix `a`,
  /// distributed by rows over `partition`. Message ids follow (src, dst)
  /// order. Throws std::invalid_argument when `a` is not square or its size
  /// is not the partition's.
  [[nodiscard]] static ScatterPlan build(const CsrMatrix& a,
                                         const Partition& partition);

  [[nodiscard]] const std::vector<ScatterMessage>& messages() const {
    return messages_;
  }

  /// Ids (into messages()) of the messages sent by node i, ordered by dst.
  [[nodiscard]] std::span<const int> sends_of(NodeId i) const;

  /// Ids (into messages()) of the messages received by node k, ordered by
  /// src. The halo of node k is the concatenation of these messages' values
  /// in this order.
  [[nodiscard]] std::span<const int> recvs_of(NodeId k) const;

  /// S_{i,k}: sorted indices sent from i to k; empty when no message exists.
  [[nodiscard]] std::span<const Index> s_ik(NodeId i, NodeId k) const;

  /// Total halo size (received elements) of node k.
  [[nodiscard]] Index halo_size(NodeId k) const;

  /// Multiplicity m_i(s) of Eqn. 3: the number of nodes the element with
  /// global index s is sent to during SpMV. s must be in [0, n).
  [[nodiscard]] int multiplicity(Index s) const {
    return multiplicity_[static_cast<std::size_t>(s)];
  }

  /// Per-node serialized send cost of executing this plan once:
  /// cost_i = sum over messages m sent by i of (lambda + |m| mu).
  [[nodiscard]] std::vector<double> comm_cost_per_node(const CommModel& model) const;

  [[nodiscard]] int num_nodes() const {
    return static_cast<int>(send_ids_.size());
  }

 private:
  std::vector<ScatterMessage> messages_;
  std::vector<std::vector<int>> send_ids_;  // per src
  std::vector<std::vector<int>> recv_ids_;  // per dst
  std::vector<int> multiplicity_;           // per global index
};

/// Executes the plan: fills each alive node's SpMV operand from the source
/// vector, and charges the communication cost to `phase`. The operand of node
/// k, halos[k], is one contiguous buffer [x_k | halo_k]: its first
/// partition.size(k) entries copy x's own block, the next halo_size(k) hold
/// the received halo in recvs_of(k) order; DistMatrix::remapped_cols indexes
/// this layout. The only gather routine of the SpMV and the stationary
/// sweeps. Failed nodes neither send nor receive; a failed node's operand is
/// left empty.
void execute_scatter(Cluster& cluster, const ScatterPlan& plan,
                     const DistVector& x, std::vector<std::vector<double>>& halos,
                     Phase phase, bool charge_cost = true);

}  // namespace rpcg
