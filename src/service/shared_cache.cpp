#include "service/shared_cache.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "core/errors.hpp"
#include "util/check.hpp"

namespace rpcg::service {

SharedFactorizationCache::SharedFactorizationCache(std::size_t capacity)
    : capacity_(capacity) {
  RPCG_CHECK(capacity_ >= 1, "shared cache capacity must be >= 1");
}

FactorizationCache::EntryPtr SharedFactorizationCache::get_or_build(
    std::string_view tag, const FactorizationCache::MatrixKey& matrix,
    std::span<const NodeId> nodes,
    const std::function<FactorizationCache::Entry()>& build) {
  std::vector<NodeId> sorted(nodes.begin(), nodes.end());
  std::sort(sorted.begin(), sorted.end());
  Key key{std::string(tag), matrix, std::move(sorted)};

  std::promise<FactorizationCache::EntryPtr> promise;
  std::shared_future<FactorizationCache::EntryPtr> future;
  std::uint64_t claim = 0;  // nonzero once this request claimed the slot
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
      // Ready entry or an in-flight build by another thread — either way
      // this request is served without factorizing (a coalesced wait
      // counts as a hit: the work was shared).
      ++stats_.hits;
      it->second.last_use = ++tick_;
      future = it->second.future;
    } else {
      ++stats_.misses;
      claim = ++tick_;
      future = promise.get_future().share();
      Slot slot;
      slot.future = future;
      slot.last_use = claim;
      slot.claim = claim;
      entries_.emplace(key, std::move(slot));
      if (entries_.size() > capacity_) evict_locked();
    }
  }
  if (claim == 0) return future.get();  // rethrows a builder's failure

  // This thread claimed the slot: build outside the lock — factorization is
  // the expensive part and must not serialize the whole service — then
  // publish through the promise so every coalesced waiter wakes with it.
  // A build failure is wrapped into the typed CacheBuildFailure with the
  // original message preserved, published to every coalesced waiter, and
  // the poisoned slot is withdrawn so the next request retries the build
  // instead of rethrowing forever (the claim tick guards against erasing a
  // successor's slot if eviction already removed ours).
  try {
    FactorizationCache::EntryPtr entry =
        std::make_shared<const FactorizationCache::Entry>(build());
    promise.set_value(entry);
    return entry;
  } catch (const std::exception& e) {
    const CacheBuildFailure wrapped(
        "shared-cache factorization build failed: " + std::string(e.what()));
    promise.set_exception(std::make_exception_ptr(wrapped));
    withdraw_slot(key, claim, std::move(future));
    throw wrapped;
  } catch (...) {
    promise.set_exception(std::current_exception());
    withdraw_slot(key, claim, std::move(future));
    throw;
  }
}

void SharedFactorizationCache::withdraw_slot(
    const Key& key, std::uint64_t claim,
    std::shared_future<FactorizationCache::EntryPtr> failed) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(key);
  if (it != entries_.end() && it->second.claim == claim) entries_.erase(it);
  failed_.push_back(std::move(failed));
}

void SharedFactorizationCache::evict_locked() {
  auto victim = entries_.begin();
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->second.last_use < victim->second.last_use) victim = it;
  }
  entries_.erase(victim);
  ++stats_.evictions;
}

FactorizationCache::Upstream SharedFactorizationCache::as_upstream() {
  return [this](std::string_view tag,
                const FactorizationCache::MatrixKey& matrix,
                std::span<const NodeId> nodes,
                const std::function<FactorizationCache::Entry()>& build) {
    return get_or_build(tag, matrix, nodes, build);
  };
}

void SharedFactorizationCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
}

SharedFactorizationCache::Stats SharedFactorizationCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s = stats_;
  s.entries = entries_.size();
  return s;
}

}  // namespace rpcg::service
