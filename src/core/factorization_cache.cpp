#include "core/factorization_cache.hpp"

#include <algorithm>
#include <bit>
#include <exception>
#include <string>
#include <utility>

#include "core/errors.hpp"

namespace rpcg {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

// FNV-1a over the 8 bytes of `v`, little-endian byte order regardless of
// host endianness so the digest is platform-stable.
inline void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h = (h ^ ((v >> (8 * b)) & 0xffu)) * kFnvPrime;
  }
}

}  // namespace

FactorizationCache::MatrixKey FactorizationCache::matrix_key(
    const CsrMatrix& a) {
  MatrixKey key;
  key.rows = a.rows();
  key.cols = a.cols();
  key.nnz = a.nnz();
  std::uint64_t h = kFnvOffset;
  for (const Index p : a.row_ptr()) fnv_mix(h, static_cast<std::uint64_t>(p));
  for (const Index c : a.col_idx()) fnv_mix(h, static_cast<std::uint64_t>(c));
  // Hash value *bit patterns*: distinguishes -0.0 from 0.0 and never depends
  // on floating-point comparison semantics.
  for (const double v : a.values()) fnv_mix(h, std::bit_cast<std::uint64_t>(v));
  key.digest = h;
  return key;
}

void FactorizationCache::set_upstream(Upstream upstream) {
  std::lock_guard<std::mutex> lock(mu_);
  upstream_ = std::move(upstream);
}

FactorizationCache::Upstream FactorizationCache::as_upstream() {
  return [this](std::string_view tag, const MatrixKey& matrix,
                std::span<const NodeId> nodes,
                const std::function<Entry()>& build) {
    try {
      return get_or_build(tag, matrix, nodes, build);
    } catch (const std::exception& e) {
      throw CacheBuildFailure("shared-cache factorization build failed: " +
                              std::string(e.what()));
    }
  };
}

FactorizationCache::EntryPtr FactorizationCache::get_or_build(
    std::string_view tag, const MatrixKey& matrix,
    std::span<const NodeId> nodes, const std::function<Entry()>& build) {
  std::vector<NodeId> sorted(nodes.begin(), nodes.end());
  std::sort(sorted.begin(), sorted.end());
  Key key{std::string(tag), matrix, std::move(sorted)};

  std::promise<EntryPtr> promise;
  std::shared_future<EntryPtr> future;
  bool claimed = false;
  Upstream upstream;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
      // A resident entry or a build in flight: either way this request is
      // served without building (a coalesced wait counts as a hit).
      ++stats_.hits;
      future = it->second;
    } else {
      ++stats_.misses;
      claimed = true;
      future = promise.get_future().share();
      entries_.emplace(key, future);
      upstream = upstream_;
    }
  }
  if (!claimed) return future.get();  // rethrows the builder's failure

  // This request claimed the slot: build outside the lock (factorization is
  // the expensive part and must not serialize unrelated consumers), through
  // the upstream when one is installed, then publish to every coalesced
  // waiter. On failure the slot leaves the map before the exception is
  // published, so a request arriving after the failure builds afresh.
  try {
    EntryPtr entry = upstream
                         ? upstream(tag, matrix, std::get<2>(key), build)
                         : std::make_shared<const Entry>(build());
    promise.set_value(entry);
    return entry;
  } catch (...) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      entries_.erase(key);
      failed_.push_back(future);
    }
    promise.set_exception(std::current_exception());
    throw;
  }
}

std::size_t FactorizationCache::invalidate_overlapping(
    std::span<const NodeId> nodes) {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t dropped = 0;
  for (auto it = entries_.begin(); it != entries_.end();) {
    const std::vector<NodeId>& key_nodes = std::get<2>(it->first);
    const bool overlaps =
        std::any_of(nodes.begin(), nodes.end(), [&key_nodes](NodeId n) {
          return std::binary_search(key_nodes.begin(), key_nodes.end(), n);
        });
    if (overlaps) {
      it = entries_.erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  stats_.invalidated += dropped;
  return dropped;
}

void FactorizationCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.invalidated += entries_.size();
  entries_.clear();
}

FactorizationCache::Stats FactorizationCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s = stats_;
  s.entries = entries_.size();
  return s;
}

}  // namespace rpcg
