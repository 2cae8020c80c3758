#include "core/factorization_cache.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <exception>
#include <string>
#include <utility>

#include "core/errors.hpp"

namespace rpcg {

namespace {

using Lanes = std::array<std::uint64_t, 4>;

// One multiply-xorshift step of a digest lane; bijective in h and in w, so
// a lane that took one different word stays different.
inline void lane_step(std::uint64_t& h, std::uint64_t w) {
  h = (h ^ w) * 0x9e3779b97f4a7c15ull;
  h ^= h >> 32;
}

// Word i of `words` (an Index, or the bit pattern of a double) feeds lane
// i mod 4: four independent multiply chains the core overlaps, where one
// chain would wait on every multiply in turn.
template <typename T>
void mix_words(Lanes& lanes, std::span<const T> words) {
  std::size_t i = 0;
  for (; i + 4 <= words.size(); i += 4) {
    for (std::size_t l = 0; l < 4; ++l)
      lane_step(lanes[l], std::bit_cast<std::uint64_t>(words[i + l]));
  }
  for (std::size_t l = 0; i < words.size(); ++i, ++l)
    lane_step(lanes[l], std::bit_cast<std::uint64_t>(words[i]));
}

}  // namespace

FactorizationCache::MatrixKey FactorizationCache::matrix_key(
    const CsrMatrix& a) {
  MatrixKey key;
  key.rows = a.rows();
  key.cols = a.cols();
  key.nnz = a.nnz();
  // Distinct nonzero starting states (the first hex digits of pi).
  Lanes lanes{0x243f6a8885a308d3ull, 0x13198a2e03707344ull,
              0xa4093822299f31d0ull, 0x082efa98ec4e6c89ull};
  mix_words(lanes, a.row_ptr());
  mix_words(lanes, a.col_idx());
  // Hash value *bit patterns*: distinguishes -0.0 from 0.0 and never depends
  // on floating-point comparison semantics.
  mix_words(lanes, a.values());
  std::uint64_t h = 0;
  for (const std::uint64_t lane : lanes) lane_step(h, lane);
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
