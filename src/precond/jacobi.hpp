// P-given preconditioners: the (explicitly inverted) preconditioner matrix
// P = M^{-1} is available.
//   * JacobiPreconditioner: P = diag(A)^{-1} (point Jacobi).
//   * ExplicitPreconditioner: a general SPD sparse P, applied as a
//     distributed SpMV. This is the variant that exercises the full Alg. 2
//     lines 5-6 (including the gather of surviving r entries).
#pragma once

#include <vector>

#include "core/factorization_cache.hpp"
#include "precond/preconditioner.hpp"
#include "sim/dist_matrix.hpp"
#include "sparse/csr.hpp"

namespace rpcg {

class JacobiPreconditioner final : public Preconditioner {
 public:
  JacobiPreconditioner(const CsrMatrix& a, const Partition& partition);

  void apply(Cluster& cluster, const DistVector& r, DistVector& z,
             Phase phase) const override;
  [[nodiscard]] PrecondKind kind() const override { return PrecondKind::kPGiven; }
  [[nodiscard]] std::string name() const override { return "jacobi"; }
  void esr_recover_residual(Cluster& cluster, std::span<const Index> rows,
                            std::span<const double> z_f, const DistVector& r,
                            const DistVector& z,
                            std::span<double> r_f) const override;

 private:
  const Partition* partition_;
  std::vector<double> inv_diag_;  // global; static data, replicated per block
};

class ExplicitPreconditioner final : public Preconditioner {
 public:
  /// `p` is the explicit SPD preconditioner P = M^{-1} (reliable static
  /// data); a copy is kept, so temporaries are safe to pass.
  ExplicitPreconditioner(CsrMatrix p, const Partition& partition);

  void apply(Cluster& cluster, const DistVector& r, DistVector& z,
             Phase phase) const override;
  [[nodiscard]] PrecondKind kind() const override { return PrecondKind::kPGiven; }
  [[nodiscard]] std::string name() const override { return "explicit-p"; }
  void esr_recover_residual(Cluster& cluster, std::span<const Index> rows,
                            std::span<const double> z_f, const DistVector& r,
                            const DistVector& z,
                            std::span<double> r_f) const override;

 private:
  CsrMatrix p_global_;
  FactorizationCache::MatrixKey p_key_;  // content key of the immutable P
  // Borrows p_global_, declared before it; the mutex in cache_ keeps the
  // preconditioner from being copied or moved away from it.
  DistMatrix p_dist_;
  // P_{IF,IF} factorizations reused across recoveries of the same failed
  // set (the preconditioner outlives individual solves, so the cache spans
  // harness reps; simulated costs are charged on hits too). Unlike the ESR
  // cache this one is private and always on — esr_recover_residual has no
  // config access, entries are pure functions of (P, failed set), and the
  // set of distinct failed sets bounds its size. SolverConfig's
  // factorization_cache knob does not reach it (documented in README).
  mutable FactorizationCache cache_;
};

}  // namespace rpcg
