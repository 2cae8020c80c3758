// The cross-job factorization cache of the SolverService.
//
// Every Problem owns a private FactorizationCache, so within one Problem a
// recurring failed node set is factorized once — but across Problems the
// same (matrix, failed set) setup is rebuilt from scratch, and service
// batches replay the same repro matrices with the same failure schedules
// constantly. This cache sits *upstream* of the per-Problem caches (wired
// via FactorizationCache::set_upstream): a per-Problem miss consults it
// before building, so identical reconstruction setups are extracted and
// factorized once per batch, not once per job.
//
// Keying: (consumer tag, content-derived MatrixKey, sorted failed node
// set). The content key — not an object address — is what makes sharing
// sound: every job builds its own CsrMatrix copy, and two copies of M1 at
// the same scale hash identically while any value or pattern change
// separates them. Cached LDLᵀ entries bake in a fill-reducing permutation,
// but every consumer selects it deterministically from the pattern, so the
// key needs no ordering slot.
//
// Eviction: least-recently-used by a monotonic use counter (never wall
// time — the service layer is bound by the same determinism rules as the
// simulator), with a fixed entry capacity. Like the per-Problem cache this
// is a host-side optimization only: simulated costs are charged on hits
// too, so reports are byte-identical with the cache on or off.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/factorization_cache.hpp"
#include "util/types.hpp"

namespace rpcg::service {

class SharedFactorizationCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::size_t entries = 0;  ///< currently cached
  };

  /// `capacity` bounds the number of resident entries (>= 1); the least
  /// recently used entry is evicted first. Entries handed out stay alive
  /// through their shared_ptr after eviction.
  explicit SharedFactorizationCache(std::size_t capacity = kDefaultCapacity);

  static constexpr std::size_t kDefaultCapacity = 256;

  /// Returns the entry for (tag, matrix, nodes), building it with
  /// `build` on a miss. Thread-safe; `build` runs outside the lock, and
  /// concurrent requests for one key are coalesced: the first requester
  /// builds while the rest block on its result instead of duplicating the
  /// factorization (the whole point of sharing on an oversubscribed host).
  /// If the build throws, the slot is withdrawn and the failure surfaces as
  /// a typed CacheBuildFailure (core/errors.hpp) carrying the original
  /// message — to the builder and to every coalesced waiter alike; later
  /// callers build afresh. The failed build's shared state is kept until
  /// the cache is destroyed.
  [[nodiscard]] FactorizationCache::EntryPtr get_or_build(
      std::string_view tag, const FactorizationCache::MatrixKey& matrix,
      std::span<const NodeId> nodes,
      const std::function<FactorizationCache::Entry()>& build);

  /// Adapter for FactorizationCache::set_upstream: per-Problem misses are
  /// served from this cache. The returned callable borrows `this`; the
  /// shared cache must outlive every Problem cache it is wired into.
  [[nodiscard]] FactorizationCache::Upstream as_upstream();

  void clear();

  [[nodiscard]] Stats stats() const;

 private:
  struct Key {
    std::string tag;
    FactorizationCache::MatrixKey matrix;
    std::vector<NodeId> nodes;  // sorted
    friend auto operator<=>(const Key&, const Key&) = default;
  };
  /// A slot exists from the moment a builder claims the key; until the
  /// build finishes the future is unready and later requesters wait on it.
  /// Evicting an in-flight slot is harmless — waiters keep the shared
  /// state alive through their future copies.
  struct Slot {
    std::shared_future<FactorizationCache::EntryPtr> future;
    std::uint64_t last_use = 0;
    std::uint64_t claim = 0;  ///< tick when the builder claimed the slot
  };

  void evict_locked();
  /// Removes the poisoned slot a failed build claimed (claim-tick guarded)
  /// and keeps the failed build's shared state in failed_.
  void withdraw_slot(const Key& key, std::uint64_t claim,
                     std::shared_future<FactorizationCache::EntryPtr> failed);

  mutable std::mutex mu_;
  std::size_t capacity_;
  std::uint64_t tick_ = 0;
  std::map<Key, Slot> entries_;
  /// Failed builds' shared states, kept until the cache is destroyed. Their
  /// exception object is shared by every coalesced waiter, and the C++
  /// runtime frees it through a reference count that thread sanitizers
  /// cannot observe; freeing it only after the waiters' threads are joined
  /// keeps every read of it ordered before the free (the same rule as
  /// ProblemStore's failed slots).
  std::vector<std::shared_future<FactorizationCache::EntryPtr>> failed_;
  Stats stats_;
};

}  // namespace rpcg::service
