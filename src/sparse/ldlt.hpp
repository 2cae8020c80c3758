// Sparse LDLᵀ factorization behind a pluggable fill-reducing ordering, with
// two numeric kernels and an optional supernodal solve layer. Provides the
// *exact* local solves the library needs:
//   * block Jacobi preconditioner blocks are "solved exactly" (paper Sec. 6),
//   * the explicit-P variant of Alg. 2 solves P_{If,If} r_{If} = v exactly,
//   * the ESR exact local solve factors A_{If,If} once per failed node set
//     and solves A_{If,If} x_{If} = w directly instead of iteratively.
// The symbolic pass follows the classical LDL approach of Davis (elimination
// tree + per-row pattern via tree walks), reimplemented from the textbook
// description; it yields the column counts of L, from which the flop count
// of the factorization follows in closed form. That count per stored entry
// picks the numeric kernel:
//   * sparse factors (banded and near-banded node blocks) run the up-looking
//     kernel: row k of L is a sparse triangular solve against rows < k;
//   * fill-heavy factors (random-pattern blocks, multi-node A_{If,If}) run a
//     left-looking supernodal kernel over the exact supernodes (maximal runs
//     of contiguous columns sharing one sub-diagonal pattern): descendant
//     supernodes update each supernode through register-tiled dense blocks,
//     then each supernode runs a dense LDLᵀ on itself.
// Both kernels write L into the same column storage, in place, so nothing
// downstream depends on which one ran. After the numeric pass the wide
// supernodes are also packed into dense panels; solves then run blocked
// forward/diagonal/backward sweeps over the panels instead of scalar
// per-column sweeps. Exact supernodes store no padding zeros, so the flop
// accounting is identical either way and sim-model times shift only with
// the *ordering* (real work), never with the kernel or storage format.
// Two factors without panels can also be solved as one pair
// (SparseLdlt::solve_pair_in_place, ReorderedLdlt::solve_pair): their scalar
// sweeps interleave column by column, each in its own unchanged order, so
// the pair's results are those of two solves bit for bit.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "sparse/csr.hpp"
#include "util/types.hpp"

namespace rpcg {

/// Candidate symmetric orderings of ReorderedLdlt (see below).
enum class LdltOrdering { kNatural, kRcm, kAmd };

namespace detail {
struct LdltLanes;  // sparse/ldlt_lanes.hpp: the kernel's lane width, for tests
}  // namespace detail

[[nodiscard]] const char* to_string(LdltOrdering o);

class SparseLdlt {
 public:
  /// Factorizes the SPD matrix A (full symmetric storage, sorted rows).
  /// Returns std::nullopt if a pivot is not positive (zero, negative or
  /// NaN: A is not numerically positive definite). With `supernodal` (the
  /// default) the numeric kernel is chosen by factor_flops() / l_nnz(): the
  /// supernodal kernel from 30 flops per entry on, the up-looking kernel
  /// below; and the factor is post-processed into dense supernode panels
  /// when the detected supernodes are wide enough to pay off. Pass false to
  /// force the scalar reference path — the up-looking kernel and the
  /// unpacked column sweeps (micro-benches and equivalence tests). Either
  /// way l_nnz(), solve_flops() and factor_flops() are the same. The
  /// supernodal kernel's update tiles run on the widest vectors the host
  /// has (util/lanes.hpp), with the same L and D bit for bit at every
  /// width.
  [[nodiscard]] static std::optional<SparseLdlt> factor(const CsrMatrix& a,
                                                        bool supernodal = true);

  /// Symbolic-only fill count: the number of entries L would have (excluding
  /// the unit diagonal). Cheap (one elimination-tree pass, no numerics);
  /// used to choose between candidate orderings before factorizing once.
  [[nodiscard]] static Index symbolic_nnz(const CsrMatrix& a);

  /// Solves A x = b in place (b becomes x).
  void solve_in_place(std::span<double> b) const;

  /// Convenience out-of-place solve.
  void solve(std::span<const double> b, std::span<double> x) const;

  /// Solves two systems in place, x by f and y by g, with results equal bit
  /// for bit to f.solve_in_place(x) and g.solve_in_place(y). When neither
  /// factor has packed supernode panels, the two factors' scalar forward and
  /// backward sweeps run interleaved column by column (column j of f, then
  /// column j of g), so the two dependency chains overlap; every factor keeps
  /// the exact per-entry order of its own simplicial solve. A pair with a
  /// packed factor solves one system after the other.
  static void solve_pair_in_place(const SparseLdlt& f, std::span<double> x,
                                  const SparseLdlt& g, std::span<double> y);

  [[nodiscard]] Index dim() const { return n_; }

  /// Number of stored entries of L (excluding the unit diagonal). Identical
  /// between the simplicial and supernodal representations: exact supernodes
  /// add no padding.
  [[nodiscard]] Index l_nnz() const { return static_cast<Index>(li_.size()); }

  /// True when solves run (at least partly) over packed supernode panels.
  [[nodiscard]] bool supernodal() const { return !blk_first_.empty(); }

  /// Number of detected supernodes (groups of contiguous columns with one
  /// shared sub-diagonal pattern); n_ when every supernode is a singleton.
  [[nodiscard]] Index num_supernodes() const { return num_supernodes_; }

  /// Width of the widest detected supernode (1 for a factor with no
  /// mergeable columns, e.g. a perfect band).
  [[nodiscard]] Index max_supernode_width() const { return max_sn_width_; }

  /// Flop count of one solve (forward + diagonal + backward), used by the
  /// simulated-time cost model. Independent of the storage format.
  [[nodiscard]] double solve_flops() const {
    return 4.0 * static_cast<double>(l_nnz()) + static_cast<double>(n_);
  }

  /// Flops of the numeric factorization (cost model for the local solves
  /// set up during reconstruction): sum over columns of c^2 + 3c, c the
  /// column's sub-diagonal count. Independent of the kernel.
  [[nodiscard]] double factor_flops() const { return factor_flops_; }

 private:
  friend struct detail::LdltLanes;

  SparseLdlt() = default;

  /// factor(a, supernodal) with the supernodal update tiles `lanes` wide.
  static std::optional<SparseLdlt> factor_lanes(const CsrMatrix& a,
                                                bool supernodal, int lanes);
  void build_supernodes();
  void solve_in_place_simplicial(std::span<double> b) const;
  void solve_in_place_supernodal(std::span<double> b) const;

  Index n_ = 0;
  // L stored by columns (unit diagonal implicit).
  std::vector<Index> lp_;   // column pointers, size n+1
  std::vector<Index> li_;   // row indices
  std::vector<double> lx_;  // values
  std::vector<double> d_;   // diagonal of D
  double factor_flops_ = 0.0;

  // Supernodal packing. Only supernodes wide enough to amortize the blocked
  // bookkeeping are packed (narrow ones would only add overhead over the
  // scalar column sweep, which stays available through lp_/li_/lx_); solves
  // interleave packed blocks with scalar sweeps over the columns between
  // them. For a packed block of columns [c0, c1) with width w = c1 - c0 the
  // within-supernode coefficients form a dense unit-lower triangle (packed
  // column-major, strictly lower part only) and the shared sub-diagonal rows
  // form a dense |rows| x w panel (row-major, so both the forward row-dot
  // and the backward per-row accumulation stream contiguously).
  Index num_supernodes_ = 0;
  Index max_sn_width_ = 1;
  std::vector<Index> blk_first_;     // packed block -> first column
  std::vector<Index> blk_last_;      // packed block -> one past last column
  std::vector<Index> blk_rowptr_;    // packed block -> start in blk_rows_
  std::vector<Index> blk_rows_;      // concatenated sub-diagonal row indices
  std::vector<Index> blk_triptr_;    // packed block -> start in blk_tri_
  std::vector<double> blk_tri_;      // packed strict-lower triangles
  std::vector<Index> blk_panelptr_;  // packed block -> start in blk_panel_
  std::vector<double> blk_panel_;    // row-major panels
};

/// LDLᵀ behind a fill-reducing symmetric permutation.
///
/// Simplicial LDLᵀ in the natural ordering is catastrophic for the banded
/// node blocks this library factorizes (a 4x256 grid strip of the M1 FEM
/// matrix fills to ~200k entries; RCM brings it to ~4k), and RCM in turn
/// barely helps random-pattern blocks (M2-style), where the fill-targeting
/// AMD ordering wins by another 2-3x. factor() counts the symbolic fill of
/// every candidate ordering (natural | RCM | AMD) and keeps the sparsest —
/// ties prefer the earlier candidate, so it is never worse than plain
/// SparseLdlt::factor and fully deterministic. The winning choice is exposed
/// via ordering() for diagnostics. Solves apply the permutation through a
/// thread-local workspace, so one instance may be solved from concurrent
/// threads (e.g. cache entries shared across a threaded harness).
class ReorderedLdlt {
 public:
  [[nodiscard]] static std::optional<ReorderedLdlt> factor(const CsrMatrix& a);

  /// Forces one ordering candidate (and, with `supernodal` false, the
  /// scalar reference path of SparseLdlt::factor) instead of selecting by
  /// symbolic fill — the measurement hook for the micro-benches and the
  /// ordering property tests.
  [[nodiscard]] static std::optional<ReorderedLdlt> factor_with(
      const CsrMatrix& a, LdltOrdering ordering, bool supernodal = true);

  /// Solves A x = b; b and x must not alias. Thread-safe.
  void solve(std::span<const double> b, std::span<double> x) const;

  /// Solves f xf = bf and g xg = bg, with results equal bit for bit to
  /// f.solve(bf, xf) and g.solve(bg, xg): both right-hand sides are permuted
  /// into one thread-local workspace and solved through
  /// SparseLdlt::solve_pair_in_place, so two simplicial factors run their
  /// sweeps interleaved and a pair with a packed factor one after the other.
  /// No argument may alias another. Thread-safe.
  static void solve_pair(const ReorderedLdlt& f, std::span<const double> bf,
                         std::span<double> xf, const ReorderedLdlt& g,
                         std::span<const double> bg, std::span<double> xg);

  [[nodiscard]] Index dim() const { return ldlt_.dim(); }
  [[nodiscard]] Index l_nnz() const { return ldlt_.l_nnz(); }
  [[nodiscard]] double solve_flops() const { return ldlt_.solve_flops(); }
  [[nodiscard]] double factor_flops() const { return ldlt_.factor_flops(); }
  /// The ordering that won the symbolic-fill selection.
  [[nodiscard]] LdltOrdering ordering() const { return ordering_; }
  [[nodiscard]] const char* ordering_name() const {
    return to_string(ordering_);
  }
  /// True when a fill-reducing ordering beat natural (kept for the PR 3 era
  /// callers; equivalent to ordering() != kNatural).
  [[nodiscard]] bool reordered() const { return !perm_.empty(); }
  /// The underlying factor (supernode diagnostics for tests/benches).
  [[nodiscard]] const SparseLdlt& factorization() const { return ldlt_; }

 private:
  ReorderedLdlt(SparseLdlt ldlt, std::vector<Index> perm, LdltOrdering ordering)
      : ldlt_(std::move(ldlt)),
        perm_(std::move(perm)),
        ordering_(ordering) {}

  // The vector a solve runs in: P b gathered into `work`, or, without a
  // permutation, b copied into x. permute_out scatters it back into x.
  std::span<double> permute_in(std::span<const double> b, std::span<double> x,
                               std::span<double> work) const;
  void permute_out(std::span<const double> work, std::span<double> x) const;

  SparseLdlt ldlt_;
  std::vector<Index> perm_;  // new-to-old; empty = identity
  LdltOrdering ordering_ = LdltOrdering::kNatural;
};

}  // namespace rpcg
