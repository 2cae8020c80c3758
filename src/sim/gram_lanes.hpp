// The lane width of ipipelined_gram's kernel, internal to the library and
// its tests. ipipelined_gram runs the kernel at host_lanes()
// (util/lanes.hpp), chosen once per process: nothing a user sets picks
// another width. The tests force every width the host runs through
// GramLanes::post and compare every Gram entry bit for bit.
#pragma once

#include <span>

#include "sim/cluster.hpp"
#include "sim/collectives.hpp"
#include "sim/dist_vector.hpp"

namespace rpcg::detail {

struct GramLanes {
  /// ipipelined_gram(cluster, basis, phase) with the Gram kernel `lanes`
  /// doubles wide: 2 (SSE2), 4 (AVX2) or 8 (AVX-512F). Throws
  /// std::invalid_argument for any other width or one wider than
  /// host_lanes().
  [[nodiscard]] static PendingReduction post(
      Cluster& cluster, std::span<const DistVector* const> basis, Phase phase,
      int lanes);
};

}  // namespace rpcg::detail
