// Host-side memoization of the factorizations set up during ESR recovery.
//
// Every reconstruction of a failed node set F factorizes the principal
// submatrix A_{IF,IF} (IC(0) for the paper's iterative local solve, LDLᵀ for
// the exact ablation) and, for explicit-P preconditioners, P_{IF,IF}. The
// matrices are immutable static data, so across reconstruction repetitions
// and harness reps the factorizations are pure functions of
// (consumer tag, matrix identity, failed node set) — exactly this cache's
// key. A hit skips submatrix extraction and numeric factorization on the
// *host* only: the simulated clock is still charged the full factorization
// cost, so cached and uncached runs produce byte-identical SolveReports
// (locked in by tests/test_factorization_cache.cpp).
//
// One partition per cache: node ids name rows only through a partition, so
// every instance serves one — a Problem's private cache, the cache of a
// SolverService problem-store entry (service/problem_store.hpp), which sits
// upstream of the private caches of every job borrowing that entry, and an
// ExplicitPreconditioner's P-block cache. Each entry records the rows it was
// built for, and ESR refuses an entry whose rows differ from the failed
// set's, so a cache handed to engines on two partitions fails loudly instead
// of reconstructing from another I_F.
//
// Builds: concurrent first requests for a key are coalesced — the first
// requester builds outside the lock while the rest wait on its result and
// count as hits. A build that throws reaches the builder and every waiter,
// and its slot is withdrawn before the failure is published, so the next
// request builds afresh.
//
// Invalidation: when a failure changes the surviving block structure while a
// reconstruction is in flight (an overlapping failure event), the solver
// drops every entry whose node set intersects the newly failed nodes — the
// interrupted reconstruction's factorizations are discarded together with
// its other partial work.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "sparse/csr.hpp"
#include "sparse/ic0.hpp"
#include "sparse/ldlt.hpp"
#include "util/types.hpp"

namespace rpcg {

class FactorizationCache {
 public:
  /// One cached reconstruction setup: the extracted principal submatrix,
  /// the rows it was extracted from (in a_ff's order), and whichever
  /// factorization flavors the consumer built from it.
  struct Entry {
    CsrMatrix a_ff;
    std::vector<Index> rows;
    std::optional<Ic0> ic0;
    std::optional<ReorderedLdlt> ldlt;
  };
  using EntryPtr = std::shared_ptr<const Entry>;

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t invalidated = 0;  ///< entries dropped by invalidation
    std::size_t entries = 0;        ///< currently cached
  };

  /// Content-derived matrix identity: dimensions, nnz, and a digest of the
  /// row pointers, columns and value bit patterns, hashed as 64-bit words
  /// over four independent multiply-xorshift lanes. Two CsrMatrix
  /// objects with identical content map to the same key even when they live
  /// at different addresses — the property that lets caches be shared across
  /// Problems that each own a copy of the same repro matrix. Distinct
  /// matrices of equal shape differ in the digest (any value or pattern bit
  /// flips it), so tag reuse can never alias them.
  struct MatrixKey {
    Index rows = 0;
    Index cols = 0;
    Index nnz = 0;
    std::uint64_t digest = 0;
    friend auto operator<=>(const MatrixKey&, const MatrixKey&) = default;
  };

  /// Computes the content key of `a`. O(nnz); consumers with an immutable
  /// matrix should compute it once and reuse it.
  [[nodiscard]] static MatrixKey matrix_key(const CsrMatrix& a);

  /// Second-level lookup consulted on a local miss before building. The
  /// upstream receives the same (tag, matrix, sorted nodes, build) and must
  /// return a non-null entry (typically by building on its own miss); the
  /// local cache then retains the returned entry. Local miss stats still
  /// count — they mean "not resident here", whatever the upstream did.
  using Upstream = std::function<EntryPtr(std::string_view tag,
                                          const MatrixKey& matrix,
                                          std::span<const NodeId> nodes,
                                          const std::function<Entry()>& build)>;

  /// Installs (or clears, with nullptr) the upstream lookup. Thread-safe,
  /// but meant to be called before solving starts, not mid-solve.
  void set_upstream(Upstream upstream);

  /// This cache as another's upstream, for caches that serve the same
  /// partition. A build that fails here reaches every requester as a typed
  /// CacheBuildFailure (core/errors.hpp) carrying the original message. The
  /// callable borrows `this`, which must outlive every cache it serves.
  [[nodiscard]] Upstream as_upstream();

  /// Returns the entry for (tag, matrix, nodes), building it with `build` on
  /// a miss. `nodes` need not be sorted; the key uses the sorted set. The
  /// returned pointer stays valid after invalidation/clear (shared
  /// ownership). Thread-safe; see the header comment for coalescing and
  /// failed builds.
  [[nodiscard]] EntryPtr get_or_build(std::string_view tag,
                                      const MatrixKey& matrix,
                                      std::span<const NodeId> nodes,
                                      const std::function<Entry()>& build);

  /// Drops every entry whose node set intersects `nodes`, regardless of tag
  /// or matrix. Returns the number of entries dropped.
  std::size_t invalidate_overlapping(std::span<const NodeId> nodes);

  void clear();

  [[nodiscard]] Stats stats() const;

 private:
  using Key = std::tuple<std::string, MatrixKey, std::vector<NodeId>>;

  mutable std::mutex mu_;
  /// A slot exists from the moment a builder claims the key; until the
  /// build finishes its future is unready and later requesters wait on it.
  std::map<Key, std::shared_future<EntryPtr>> entries_;
  /// Failed builds' shared states, kept until the cache is destroyed. Their
  /// exception object is shared by every coalesced waiter, and the C++
  /// runtime frees it through a reference count that thread sanitizers
  /// cannot observe; freeing it only after the waiters' threads are done
  /// with the cache keeps every read of it ordered before the free.
  std::vector<std::shared_future<EntryPtr>> failed_;
  Stats stats_;
  Upstream upstream_;
};

}  // namespace rpcg
