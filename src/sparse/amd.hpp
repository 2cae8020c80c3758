// Approximate-minimum-degree (AMD) fill-reducing ordering.
//
// RCM (sparse/reorder.hpp) minimizes *bandwidth*, which is the right lever
// for the paper's banded FEM matrices but barely helps random-pattern
// matrices like the offshore analogue (M2): their graphs have no narrow
// band to recover. AMD instead greedily eliminates a vertex of (approximately)
// minimum degree in the quotient graph of the partially eliminated matrix,
// which directly targets the *fill* of an LDLᵀ factorization. This is the
// classical algorithm of Amestoy, Davis & Duff, reimplemented from the
// published description: quotient graph of supervariables and elements,
// approximate external degrees via the |Le \ Lp| bound, mass elimination,
// aggressive element absorption, and hash-based supervariable detection
// (per pivot, the pivot element's variables go to hash buckets, and only
// variables of equal hash compare their lists). The quotient graph lives in
// flat arrays: every variable's lists in a slot of its initial degree, the
// elements' variable lists in one arena.
//
// ReorderedLdlt uses it as one of the candidate orderings (natural | RCM |
// AMD), keeping whichever yields the smallest symbolic factor.
#pragma once

#include <vector>

#include "sparse/csr.hpp"
#include "util/types.hpp"

namespace rpcg {

/// Returns the AMD ordering as a new-to-old permutation: row i of the
/// reordered matrix is row perm[i] of the original (same convention as
/// rcm_ordering). Works on the symmetrized pattern; values are ignored.
/// Deterministic: ties are broken by the fixed processing order, never by
/// allocation addresses or randomness.
[[nodiscard]] std::vector<Index> amd_ordering(const CsrMatrix& a);

/// The same ordering of a symmetrized pattern built once (see
/// symmetric_pattern), so that several orderings can share it.
[[nodiscard]] std::vector<Index> amd_ordering(const SymmetricPattern& pattern);

}  // namespace rpcg
