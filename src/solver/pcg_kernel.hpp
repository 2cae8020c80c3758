// The shared iteration state and recurrence steps of the blocking PCG
// family. solver/pcg.cpp (reference, non-resilient) and
// core/resilient_pcg.cpp (ESR/checkpoint/interpolation engine) execute the
// exact same Alg. 1 iteration; this kernel is that iteration, factored out
// once so the two solvers — and tests that compare them bit-for-bit —
// cannot drift apart. The kernel owns the workspace vectors and the
// replicated scalars; orchestration (convergence bookkeeping, failure
// injection, recovery, events) stays with the calling solver, which reaches
// the state through the public members.
//
// Every method charges exactly the operations it names, in a fixed order —
// the clock-advance sequence is part of the contract (bit-for-bit
// reproducibility of SolveReports across refactors).
#pragma once

#include <vector>

#include "precond/preconditioner.hpp"
#include "sim/cluster.hpp"
#include "sim/collectives.hpp"
#include "sim/dist_matrix.hpp"
#include "sim/dist_vector.hpp"

namespace rpcg {

class PcgKernel {
 public:
  /// All references must outlive the kernel. Workspace vectors start zero.
  PcgKernel(Cluster& cluster, const DistMatrix& a, const Preconditioner& m);

  /// Line 1 of Alg. 1: r = b - A x, z = M^{-1} r, p = z. Seeds rz from the
  /// returned dot pair; the caller derives rnorm0 (entry) or keeps it
  /// (interpolation restart re-initializes mid-solve).
  DotPair initialize(const DistVector& b, const DistVector& x, Phase phase);

  /// u = A p (line 3/5 SpMV).
  void spmv_direction(Phase phase);

  /// p^T A p; requires positive definiteness along p.
  [[nodiscard]] double direction_curvature(Phase phase);

  /// x += alpha p; r -= alpha A p.
  void descend(double alpha, DistVector& x, Phase phase);

  /// z = M^{-1} r, then the batched r^T z / ||r||^2 reduction.
  DotPair precondition(Phase phase);

  /// beta = d.rz / rz; p = z + beta p. Updates beta_prev and rz.
  void advance_direction(const DotPair& d, Phase phase);

  /// The live solver state (x plus every kernel vector), for failure
  /// injection: a fail-stop failure invalidates all of it at once.
  [[nodiscard]] std::vector<DistVector*> state_vectors(DistVector& x);

  // Iteration state, owned by the kernel but deliberately public: recovery,
  // checkpointing, and event snapshots operate on it directly.
  DistVector r, z, p, u;
  double rz = 0.0;
  double beta_prev = 0.0;

  [[nodiscard]] Cluster& cluster() { return *cluster_; }
  [[nodiscard]] const DistMatrix& matrix() const { return *a_; }
  [[nodiscard]] const Preconditioner& preconditioner() const { return *m_; }

 private:
  Cluster* cluster_;
  const DistMatrix* a_;
  const Preconditioner* m_;
  std::vector<std::vector<double>> halos_;
};

}  // namespace rpcg
