// The symbolic analysis of SparseLdlt, internal to the library and its
// tests: the elimination tree of P A Pᵀ and the count of every column of L.
// Two methods compute it, with the same answer:
//   * the row walk: row k of L is the union of the elimination-tree paths
//     from row k's columns (Davis's LDL); it visits every entry of L, and
//     builds the tree as it goes;
//   * Gilbert–Ng–Peyton (Davis's CSparse cs_counts): Liu's tree with path
//     compression, a postorder, first descendants, and the skeleton test of
//     each row subtree's leaves with path-compressed least common ancestors;
//     O(nnz(A) α) whatever the fill.
// SparseLdlt walks until it has visited kWalkEntriesPerNonzero entries per
// nonzero of A and counts a matrix that fills past that by Gilbert–Ng–Peyton;
// the tests call each method alone through LdltCounts and compare them.
#pragma once

#include <span>
#include <vector>

#include "sparse/csr.hpp"
#include "util/types.hpp"

namespace rpcg::detail {

/// The symbolic analysis of P A Pᵀ. A complete analysis holds one entry per
/// row in parent and count; one cut short at its limit holds none, and its
/// nnz only says the fill reaches the limit.
struct LdltSymbolic {
  std::vector<Index> parent;  // elimination tree; -1 at a root
  std::vector<Index> count;   // sub-diagonal entries of each column of L
  Index nnz = 0;              // the sum of count
};

struct LdltCounts {
  /// The analysis of P A Pᵀ (perm new-to-old, empty = identity) by the row
  /// walk alone, and by Gilbert–Ng–Peyton alone. A must be structurally
  /// symmetric (full symmetric storage, as SparseLdlt::factor takes it).
  [[nodiscard]] static LdltSymbolic walk(const CsrMatrix& a,
                                         std::span<const Index> perm);
  [[nodiscard]] static LdltSymbolic gnp(const CsrMatrix& a,
                                        std::span<const Index> perm);
};

}  // namespace rpcg::detail
