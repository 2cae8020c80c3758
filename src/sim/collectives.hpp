// Distributed BLAS-1 operations and reductions on the simulated cluster,
// with cost accounting. Reductions are computed deterministically (summation
// in node order) — the replicated scalars alpha, beta of the PCG solver have
// the same value on every node, as assumed by the paper for the recovery of
// beta^(j-1).
//
// Reductions are split-phase (MPI_Iallreduce-style): i-prefixed calls *post*
// a reduction and return a PendingReduction handle; wait() *completes* it.
// The numeric result is fixed at post time (node-ordered summation, so
// timing can never change values), but the cost model charges only the part
// of the tree-allreduce latency that was not hidden by work charged between
// post and wait:
//
//   exposed = max(0, allreduce_cost - time charged since post)
//
// The classic blocking calls (allreduce_sum, dot, dot_pair) are thin
// wrappers that post and immediately wait — same charges, same clock
// advances, bit-for-bit identical to the historical blocking collectives.
// Per-cluster totals land in Cluster::reduction_times().
#pragma once

#include <span>
#include <vector>

#include "sim/cluster.hpp"
#include "sim/dist_vector.hpp"

namespace rpcg {

/// A posted (in-flight) reduction of up to kMaxScalars scalars. Move-only:
/// exactly one wait() completes the reduction and charges its exposed cost.
/// Destroying a still-pending handle completes it implicitly (so early
/// returns cannot silently drop a posted charge).
class PendingReduction {
 public:
  /// Wide enough for the packed Gram matrix of the deepest pipelined basis
  /// (nb = 20 at depth 4 -> 210 scalars) with headroom; the classic fused
  /// reductions use 1-3.
  static constexpr int kMaxScalars = 256;

  PendingReduction() = default;
  PendingReduction(PendingReduction&& other) noexcept { steal(other); }
  PendingReduction& operator=(PendingReduction&& other) noexcept {
    if (this != &other) {
      if (pending()) wait();
      steal(other);
    }
    return *this;
  }
  PendingReduction(const PendingReduction&) = delete;
  PendingReduction& operator=(const PendingReduction&) = delete;
  ~PendingReduction() {
    if (pending()) wait();
  }

  /// Completes the reduction: charges the non-overlapped remainder of the
  /// tree-allreduce latency to the posting phase and records the
  /// posted/hidden/exposed split on the cluster. Idempotent via pending().
  void wait();

  [[nodiscard]] bool pending() const { return cluster_ != nullptr; }

  /// i-th reduced scalar; requires wait() first — the values are computed
  /// at post time, but reading a result the simulated allreduce has not
  /// delivered yet would let a solver act on data it cannot have.
  [[nodiscard]] double value(int i = 0) const;

 private:
  friend PendingReduction post_allreduce(Cluster& cluster,
                                         std::span<const double> per_node,
                                         int scalars, Phase phase);

  void steal(PendingReduction& other) {
    cluster_ = other.cluster_;
    values_ = std::move(other.values_);
    scalars_ = other.scalars_;
    phase_ = other.phase_;
    posted_at_ = other.posted_at_;
    cost_ = other.cost_;
    counted_ = other.counted_;
    other.cluster_ = nullptr;
  }

  Cluster* cluster_ = nullptr;  // non-null while pending
  std::vector<double> values_;
  int scalars_ = 0;
  Phase phase_ = Phase::kIteration;
  double posted_at_ = 0.0;  // clock total at post
  double cost_ = 0.0;       // full tree-allreduce latency
  bool counted_ = false;    // tracked in Cluster's in-flight counter
};

/// Posts an allreduce of `scalars` values. `per_node` is node-major: node
/// i's contributions occupy [i * scalars, (i + 1) * scalars). Summation runs
/// in node order per scalar at post time (deterministic).
[[nodiscard]] PendingReduction post_allreduce(Cluster& cluster,
                                              std::span<const double> per_node,
                                              int scalars, Phase phase);

/// Posts an allreduce-sum of per-node scalar contributions (1 scalar).
[[nodiscard]] PendingReduction iallreduce_sum(Cluster& cluster,
                                              std::span<const double> per_node,
                                              Phase phase);

/// Posts the global dot product aᵀb (local dots + 1-scalar allreduce).
[[nodiscard]] PendingReduction idot(Cluster& cluster, const DistVector& a,
                                    const DistVector& b, Phase phase);

/// Posts rᵀz and rᵀr as a single batched 2-scalar allreduce — the PCG
/// engine's per-iteration convergence + beta reduction. value(0) = rᵀz,
/// value(1) = rᵀr.
[[nodiscard]] PendingReduction idot_pair(Cluster& cluster, const DistVector& r,
                                         const DistVector& z, Phase phase);

/// Posts the pipelined-PCG iteration reduction (Ghysels & Vanroose):
/// value(0) = rᵀu (gamma), value(1) = wᵀu (delta), value(2) = rᵀr, fused
/// into one 3-scalar allreduce so one latency covers all three.
[[nodiscard]] PendingReduction ipipelined_dots(Cluster& cluster,
                                               const DistVector& r,
                                               const DistVector& u,
                                               const DistVector& w, Phase phase);

/// Posts the pipelined-CR iteration reduction (arXiv:1912.09230 variant):
/// value(0) = uᵀw (gamma), value(1) = wᵀm (delta), value(2) = rᵀr. Posted
/// after m = M⁻¹w is available, so the SpMV n = A m hides the latency.
[[nodiscard]] PendingReduction ipipelined_cr_dots(Cluster& cluster,
                                                  const DistVector& r,
                                                  const DistVector& u,
                                                  const DistVector& w,
                                                  const DistVector& m,
                                                  Phase phase);

/// Packed upper-triangular index of the (i, j) entry of an nb x nb Gram
/// matrix, i <= j: row-major over the upper triangle, so (0,0) -> 0,
/// (0,nb-1) -> nb-1, (1,1) -> nb, ... Total entries: nb*(nb+1)/2.
[[nodiscard]] constexpr int gram_index(int i, int j, int nb) {
  return i * nb - (i * (i - 1)) / 2 + (j - i);
}

/// Posts the depth-l pipelined iteration reduction: the full symmetric Gram
/// matrix of the `basis` vectors, packed upper triangle in gram_index order,
/// fused into one nb*(nb+1)/2-scalar allreduce so one tree latency covers
/// every inner product the next l iterations need. value(gram_index(i,j,nb))
/// = basis[i]^T basis[j]. Each node's block runs on the widest vectors of
/// doubles the host has (util/lanes.hpp: 8 lanes with AVX-512F, 4 with
/// AVX2, else 2), picked once per process; every entry keeps dot()'s order,
/// so the values are the same bits at every width.
[[nodiscard]] PendingReduction ipipelined_gram(
    Cluster& cluster, std::span<const DistVector* const> basis, Phase phase);

/// Blocking allreduce-sum: post + immediate wait (fully exposed latency).
double allreduce_sum(Cluster& cluster, std::span<const double> per_node,
                     Phase phase);

/// Blocking global dot product aᵀb.
double dot(Cluster& cluster, const DistVector& a, const DistVector& b,
           Phase phase);

/// Blocking batched rᵀz / rᵀr reduction.
struct DotPair {
  double rz = 0.0;
  double rr = 0.0;
};
DotPair dot_pair(Cluster& cluster, const DistVector& r, const DistVector& z,
                 Phase phase);

/// y += alpha * x.
void axpy(Cluster& cluster, double alpha, const DistVector& x, DistVector& y,
          Phase phase);

/// y = x + beta * y (the PCG search-direction update p = z + beta p).
void xpby(Cluster& cluster, const DistVector& x, double beta, DistVector& y,
          Phase phase);

/// y = x (no communication; charged as a memory-bound copy).
void copy(Cluster& cluster, const DistVector& x, DistVector& y, Phase phase);

}  // namespace rpcg
