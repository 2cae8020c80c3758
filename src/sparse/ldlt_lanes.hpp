// The lane width of SparseLdlt's supernodal update tiles, internal to the
// library and its tests. SparseLdlt::factor runs the tiles at host_lanes()
// (util/lanes.hpp), chosen once per process: nothing a user sets picks
// another width. The tests force every width the host runs through
// LdltLanes::factor and compare L, D and the solves bit for bit.
#pragma once

#include <optional>
#include <span>

#include "sparse/csr.hpp"
#include "sparse/ldlt.hpp"

namespace rpcg::detail {

struct LdltLanes {
  /// SparseLdlt::factor(a) with the supernodal kernel's update tiles
  /// `lanes` doubles wide: 2 (SSE2), 4 (AVX2) or 8 (AVX-512F). Throws
  /// std::invalid_argument for any other width or one wider than
  /// host_lanes().
  [[nodiscard]] static std::optional<SparseLdlt> factor(const CsrMatrix& a,
                                                        int lanes);

  /// The stored entries of L, column by column, and the diagonal of D.
  [[nodiscard]] static std::span<const double> l_values(const SparseLdlt& f) {
    return f.lx_;
  }
  [[nodiscard]] static std::span<const double> d(const SparseLdlt& f) {
    return f.d_;
  }
};

}  // namespace rpcg::detail
