#include "service/problem_store.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <future>
#include <utility>

#include "util/check.hpp"

namespace rpcg::service {

/// One entry: resident while in the store's map, alive while a lease or a
/// coalesced waiter holds it. `holders` and `last_use` are guarded by the
/// store's mu_; `parts` is set once, at creation, and is unready while the
/// build runs.
struct ProblemStore::Slot {
  std::shared_future<std::shared_ptr<const Parts>> parts;
  int holders = 0;
  std::uint64_t last_use = 0;
};

ProblemStore::Lease::~Lease() { store_->release(*slot_); }

ProblemStore::ProblemStore(std::size_t capacity) : capacity_(capacity) {
  RPCG_CHECK(capacity_ >= 1, "problem store capacity must be >= 1");
}

ProblemStore::Lease ProblemStore::acquire(const Key& key, const Build& build) {
  std::shared_ptr<Slot> slot;
  std::shared_ptr<Slot> evicted;  // freed outside the lock, before the build
  std::shared_future<std::shared_ptr<const Parts>> ready;
  std::promise<std::shared_ptr<const Parts>> promise;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = slots_.find(key);
    if (it != slots_.end()) {
      // A resident entry or a build in flight: either way this request is
      // served without building (a coalesced wait counts as a hit).
      slot = it->second;
      ready = slot->parts;
      ++stats_.hits;
    } else {
      if (slots_.size() >= capacity_) evicted = evict_locked();
      slot = std::make_shared<Slot>();
      slot->parts = promise.get_future().share();
      slots_.emplace(key, slot);
      ++stats_.builds;
      stats_.peak_resident = std::max(stats_.peak_resident, slots_.size());
    }
    ++slot->holders;
    slot->last_use = ++tick_;
  }
  evicted.reset();

  const Parts* parts = nullptr;
  if (ready.valid()) {
    try {
      parts = ready.get().get();  // rethrows the builder's failure
    } catch (...) {
      release(*slot);
      throw;
    }
    return Lease(*this, std::move(slot), *parts);
  }

  // This request claimed the slot: build outside the lock, then publish to
  // every coalesced waiter. On failure the slot leaves the map before the
  // exception is published, so a request arriving after the failure builds
  // afresh instead of inheriting it.
  try {
    auto built = std::make_shared<Parts>();
    build(*built);
    parts = built.get();
    promise.set_value(std::move(built));
  } catch (...) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      slots_.erase(key);
      failed_.push_back(slot);
      --slot->holders;
    }
    promise.set_exception(std::current_exception());
    throw;
  }
  return Lease(*this, std::move(slot), *parts);
}

void ProblemStore::release(Slot& slot) {
  std::lock_guard<std::mutex> lock(mu_);
  --slot.holders;
}

std::shared_ptr<ProblemStore::Slot> ProblemStore::evict_locked() {
  auto victim = slots_.end();
  for (auto it = slots_.begin(); it != slots_.end(); ++it) {
    if (it->second->holders == 0 &&
        (victim == slots_.end() ||
         it->second->last_use < victim->second->last_use)) {
      victim = it;
    }
  }
  RPCG_REQUIRE(victim != slots_.end(),
               "problem store is full and every entry is held: more "
               "concurrent leases than its capacity");
  std::shared_ptr<Slot> slot = std::move(victim->second);
  slots_.erase(victim);
  ++stats_.evictions;
  // Unheld means built: a failed build's slot never stays in the map.
  const FactorizationCache::Stats cache = slot->parts.get()->cache.stats();
  released_.hits += cache.hits;
  released_.misses += cache.misses;
  released_.evictions += cache.entries;
  return slot;
}

ProblemStore::Stats ProblemStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s = stats_;
  s.resident = slots_.size();
  return s;
}

ProblemStore::CacheStats ProblemStore::cache_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  CacheStats s = released_;
  for (const auto& [key, slot] : slots_) {
    if (slot->parts.wait_for(std::chrono::seconds(0)) !=
        std::future_status::ready) {
      continue;  // a build in flight: its cache is still empty
    }
    const FactorizationCache::Stats cache = slot->parts.get()->cache.stats();
    s.hits += cache.hits;
    s.misses += cache.misses;
    s.entries += cache.entries;
  }
  return s;
}

}  // namespace rpcg::service
