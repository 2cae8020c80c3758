// The SolverService's per-batch store of immutable problem parts.
//
// ESR treats the system matrix and the preconditioner as static data: a node
// failure loses only the solver's dynamic state (x, r, z, p). The service
// draws the same static/dynamic split across jobs. What construction derives
// from a job's (matrix, scale, nodes, precond) — the generated CsrMatrix, its
// block-row Partition, the DistMatrix with its scatter plan, and the
// Preconditioner with its node-block factorizations — is built once per
// batch and borrowed by every job that names the same key. Each job still
// builds its own engine::Problem around the borrowed parts, with its own
// right-hand side, timing noise and private FactorizationCache, so its report
// is byte-identical to a solve on a privately built Problem.
//
// Each entry also carries the factorization cache its jobs share: the
// service installs it upstream of every borrowing job's private cache, so a
// reconstruction setup (A_{IF,IF} and its factors) is built once per entry.
// The entry fixes the matrix and the partition, so the cache's node-id keys
// name the same rows for every job that reaches it.
//
// Builds: concurrent first requests for a key are coalesced — the first
// requester builds outside the lock while the rest wait on its result (the
// same protocol as FactorizationCache). A build that throws reaches the
// builder and every waiter as the *original* exception, unwrapped, so a job
// fails with the class and message a private build would have raised; the
// failed slot is dropped before the failure is published, so the next
// request builds afresh.
//
// Residency: at most `capacity` entries stay resident. A job holds its entry
// through a Lease while it runs; when a new key arrives at a full store, the
// least recently used entry that no lease holds is released, its cached
// factorizations with it. The service sizes the store at its in-flight
// bound: a requesting job holds no lease, so at most capacity - 1 entries
// are held and an unheld one always exists.
//
// Entries live on the heap and never move: DistMatrix and the block
// preconditioners keep a `const Partition*` into their entry.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/factorization_cache.hpp"
#include "precond/preconditioner.hpp"
#include "sim/dist_matrix.hpp"
#include "sim/partition.hpp"
#include "sparse/csr.hpp"

namespace rpcg::service {

class ProblemStore {
  struct Slot;

 public:
  /// The job fields construction reads. `scale` is compared by bit pattern,
  /// so every value (NaN included) orders strictly.
  struct Key {
    int matrix = 0;
    std::uint64_t scale_bits = 0;
    int nodes = 0;
    std::string precond;
    friend auto operator<=>(const Key&, const Key&) = default;
  };

  /// The immutable parts of one problem, and the factorization cache shared
  /// by the jobs that borrow them. `dist` and `precond` point into
  /// `partition`, so a Parts object is built in place and never moved.
  struct Parts {
    CsrMatrix matrix;
    Partition partition;
    DistMatrix dist;
    std::unique_ptr<Preconditioner> precond;
    mutable FactorizationCache cache;
  };

  /// Fills a default-constructed Parts in place.
  using Build = std::function<void(Parts&)>;

  struct Stats {
    std::uint64_t builds = 0;     ///< build calls started (failed ones too)
    std::uint64_t hits = 0;       ///< requests served by a resident entry
    std::uint64_t evictions = 0;  ///< unheld entries released to make room
    std::size_t resident = 0;     ///< entries resident now
    std::size_t peak_resident = 0;
  };

  /// The entries' factorization caches, summed: hits and misses of every
  /// entry the store built, the cache entries released along with evicted
  /// store entries, and those resident now.
  struct CacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::size_t entries = 0;
  };

  /// A job's hold on one entry; the entry cannot be evicted while any lease
  /// on it lives. Must not outlive the store.
  class Lease {
   public:
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    Lease(Lease&&) = delete;
    Lease& operator=(Lease&&) = delete;
    ~Lease();

    [[nodiscard]] const Parts& operator*() const { return *parts_; }
    [[nodiscard]] const Parts* operator->() const { return parts_; }

   private:
    friend class ProblemStore;
    Lease(ProblemStore& store, std::shared_ptr<Slot> slot, const Parts& parts)
        : store_(&store), slot_(std::move(slot)), parts_(&parts) {}

    ProblemStore* store_;
    std::shared_ptr<Slot> slot_;
    const Parts* parts_;
  };

  /// `capacity` (>= 1) bounds the resident entries.
  explicit ProblemStore(std::size_t capacity);

  /// Returns a lease on the entry for `key`, running `build` on a miss.
  /// Thread-safe; see the header comment for coalescing, error propagation
  /// and eviction. Throws std::logic_error when the store is full and every
  /// entry is held — more concurrent leases than `capacity` allows.
  [[nodiscard]] Lease acquire(const Key& key, const Build& build);

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] CacheStats cache_stats() const;

 private:
  void release(Slot& slot);
  /// Removes the least recently used unheld entry and hands it back, so the
  /// caller frees it after dropping mu_ (which must be held here).
  std::shared_ptr<Slot> evict_locked();

  mutable std::mutex mu_;
  std::size_t capacity_;
  std::uint64_t tick_ = 0;
  std::map<Key, std::shared_ptr<Slot>> slots_;
  /// Failed slots, kept until the store is destroyed. Their exception object
  /// is shared by the builder and every waiter, and the C++ runtime frees it
  /// through a reference count that thread sanitizers cannot observe;
  /// freeing it only after the batch's threads are joined keeps every read
  /// of it ordered before the free.
  std::vector<std::shared_ptr<Slot>> failed_;
  Stats stats_;
  CacheStats released_;  ///< the caches of evicted entries
};

}  // namespace rpcg::service
