// Shared helpers for the test suite.
#pragma once

#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

#include "sim/dist_vector.hpp"
#include "sim/partition.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "util/rng.hpp"

namespace rpcg::testing {

/// Dense random SPD matrix in CSR form: R Rᵀ + n I with R random — always
/// strictly positive definite (for factorization reference tests).
inline CsrMatrix dense_random_spd(Index n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> r(static_cast<std::size_t>(n * n));
  for (auto& v : r) v = rng.uniform(-1.0, 1.0);
  TripletBuilder b;
  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j < n; ++j) {
      double s = i == j ? static_cast<double>(n) : 0.0;
      for (Index k = 0; k < n; ++k)
        s += r[static_cast<std::size_t>(i * n + k)] *
             r[static_cast<std::size_t>(j * n + k)];
      b.add(i, j, s);
    }
  }
  return b.build(n, n);
}

/// Waits until `pred` holds, for at most ten seconds; a thread's counters
/// are often the only signal that it is blocked where a test wants it, and
/// a wait that never ends must fail the test, not hang it.
template <typename Pred>
bool eventually(const Pred& pred) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

/// Random vector with entries in [-1, 1).
inline std::vector<double> random_vector(Index n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

/// Partitions for the pipelined Gram reduction's tests: blocks of 1 row and
/// of odd lengths, and blocks longer than the kernel's 64-row chunk (143
/// rows: two full chunks and an odd tail).
inline std::vector<Partition> gram_partitions() {
  return {Partition::block_rows(7, 5), Partition::block_rows(23, 5),
          Partition::block_rows(1000, 7)};
}

/// Every basis width the pipelined layouts produce (8, 12, 16, 20), plus
/// narrow and odd ones.
inline constexpr int kGramWidths[] = {1, 2, 3, 5, 8, 12, 16, 20};

/// nb random vectors on `part` (which must outlive them).
inline std::vector<DistVector> random_basis(const Partition& part, int nb,
                                            std::uint64_t seed) {
  std::vector<DistVector> basis;
  for (int i = 0; i < nb; ++i) {
    basis.emplace_back(part);
    basis.back().set_global(
        random_vector(part.n(), seed + static_cast<std::uint64_t>(i)));
  }
  return basis;
}

/// Max-norm distance between two vectors.
inline double max_diff(const std::vector<double>& a,
                       const std::vector<double>& b) {
  double mx = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    mx = std::max(mx, std::abs(a[i] - b[i]));
  return mx;
}

/// True iff perm is a permutation of 0..n-1 (ordering-algorithm contract).
inline bool is_permutation(const std::vector<Index>& perm, Index n) {
  std::vector<bool> seen(static_cast<std::size_t>(n), false);
  if (static_cast<Index>(perm.size()) != n) return false;
  for (const Index p : perm) {
    if (p < 0 || p >= n || seen[static_cast<std::size_t>(p)]) return false;
    seen[static_cast<std::size_t>(p)] = true;
  }
  return true;
}

}  // namespace rpcg::testing
