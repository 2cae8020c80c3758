// Reverse Cuthill–McKee bandwidth-reducing reordering. Sec. 5 of the paper
// shows that the redundancy strategy is cheapest when nonzeros cluster near
// the diagonal; RCM lets users bring general matrices into that regime
// (and the ablation benches quantify the effect).
#pragma once

#include <vector>

#include "sparse/csr.hpp"
#include "util/types.hpp"

namespace rpcg {

/// Returns the RCM ordering as a new-to-old permutation: row i of the
/// reordered matrix is row perm[i] of the original. Works on the symmetrized
/// pattern A + Aᵀ (a vertex's degree counts its neighbours there and its
/// stored diagonal); handles disconnected graphs.
[[nodiscard]] std::vector<Index> rcm_ordering(const CsrMatrix& a);

/// The same ordering of a symmetrized pattern built once (see
/// symmetric_pattern), so that several orderings can share it.
[[nodiscard]] std::vector<Index> rcm_ordering(const SymmetricPattern& g);

}  // namespace rpcg
