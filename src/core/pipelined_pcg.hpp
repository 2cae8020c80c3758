// Communication-hiding (pipelined) Krylov engines and their ESR-resilient
// variants — Ghysels & Vanroose's pipelined recurrences on top of the
// split-phase collectives of sim/collectives.hpp, extended to multi-node
// failures and to depth-l pipelining per Levonyak et al. (arXiv:1912.09230).
//
// Depth 1 (the classic pipelined iteration): one fused 3-scalar reduction
// (gamma, delta, ||r||^2) is *posted*, then the preconditioner application
// m = M^{-1} w and the SpMV n = A m execute while it is in flight; wait()
// charges only the non-overlapped remainder of the latency. The recurrences
//
//   z = n + beta z    q = m + beta q    s = w + beta s    p = u + beta p
//   x += alpha p      r -= alpha s      u -= alpha q      w -= alpha z
//
// keep u = M^{-1} r and w = A u without further synchronization. The same
// engine serves pipelined CG (gamma = r^T u, delta = w^T u) and pipelined CR
// (gamma = u^T w, delta = w^T m) — the scalar and vector recurrences are
// identical, only the fused inner products differ.
//
// Depth l >= 2: every iteration posts ONE fused reduction carrying the packed
// Gram matrix of the basis described in solver/pipelined_kernel.hpp, and
// waits the reduction posted l-1 iterations earlier — so l reductions are in
// flight at once and each has ~l-1 full iterations of work to hide behind.
// The scalars of the current iteration are *predicted* from the older Gram
// matrix by replaying the intervening recurrences in coefficient space
// (predict_pipelined_scalars). The first l-1 iterations of the ring — and the
// first l-1 after every recovery, which flushes the in-flight ring — wait
// their own reduction immediately (honestly fully exposed warmup).
//
// Resilience (phi >= 1) reuses the paper's ESR machinery end to end: the
// node backup set grows from {p^(j), p^(j-1)} to also hold the depth+1 most
// recent generations of u (the preconditioned residual seeds reconstruction,
// and the deeper pipeline widens the window that must stay reconstructible),
// piggybacked on the per-iteration halo exchange like the p copies. On
// failure, x and r are reconstructed exactly as in Alg. 2 (r through the
// preconditioner from the backed-up u, x via the A_{IF,IF} local solve,
// FactorizationCache-served), and the remaining recurrence vectors are
// rebuilt on the replacement nodes from their defining relations:
// s = A p, q = M^{-1} s, z = A q, w = A u, plus the chain ladders
// m_i = (M^{-1} A)^i u and zeta_i = (M^{-1} A)^i q at depth >= 2.
//
// Both loops share one recovery (recover(), on the shared ESR steps of
// core/esr.hpp) and one state struct: depth 1 is the depth-l state with one
// chain rung (m, n) and one old u generation. Depth 1 differs in one
// respect: its in-flight m = M^{-1} w and n = A m are recomputed over whole
// vectors after the rebuild, as the classic iteration mints them afresh
// every iteration, while deeper rings rebuild only the lost blocks of their
// chains.
#pragma once

#include <cstdint>

#include "core/backup_store.hpp"
#include "core/esr.hpp"
#include "core/events.hpp"
#include "core/failure_schedule.hpp"
#include "core/redundancy.hpp"
#include "engine/solve_report.hpp"
#include "precond/preconditioner.hpp"
#include "sim/cluster.hpp"
#include "sim/dist_matrix.hpp"
#include "sim/dist_vector.hpp"
#include "solver/pcg.hpp"  // PcgOptions
#include "solver/pipelined_kernel.hpp"
#include "util/maybe_owned.hpp"

namespace rpcg {

struct PipelinedPcgOptions {
  PcgOptions pcg;
  /// Redundant copies per backed-up vector; 0 = non-resilient (any scheduled
  /// failure throws UnrecoverableFailure), >= 1 enables ESR recovery.
  int phi = 0;
  BackupStrategy strategy = BackupStrategy::kPaperAlternating;
  EsrOptions esr;
  std::uint64_t strategy_seed = 0;
  SolverEvents events;
  /// Pipeline depth l: reductions in flight (1..kMaxPipelineDepth). Depth 1
  /// is the classic Ghysels–Vanroose iteration; deeper rings trade an
  /// l+1-generation u backup charge for l-1 extra iterations of hiding.
  int depth = 1;
  /// Pipelined CG (Ghysels–Vanroose) or pipelined CR (arXiv:1912.09230).
  PipelinedMethod method = PipelinedMethod::kConjugateGradient;
};

/// The pipelined engine. With phi = 0 it runs the plain communication-hiding
/// iteration (the "pipelined-pcg" / "pipelined-cr" registry solvers); with
/// phi >= 1 it is the resilient variant ("pipelined-resilient-pcg" /
/// "pipelined-resilient-cr"). Each method shares one code path across phi,
/// so phi = 0 resilient runs are byte-identical to the plain solver.
class PipelinedPcg {
 public:
  /// Same ownership contract as ResilientPcg: `a_global` is the reliable
  /// static copy kept for reconstruction, `a` its distributed form; both,
  /// the preconditioner, and the cluster must outlive the engine.
  PipelinedPcg(Cluster& cluster, const CsrMatrix& a_global,
               const DistMatrix& a, const Preconditioner& m,
               PipelinedPcgOptions opts);

  /// Convenience constructor that distributes the matrix internally.
  PipelinedPcg(Cluster& cluster, const CsrMatrix& a_global,
               const Preconditioner& m, PipelinedPcgOptions opts);

  /// Solves A x = b from the initial guess in x; failures are injected per
  /// schedule at the loop's SpMV, like the blocking engine.
  [[nodiscard]] engine::SolveReport solve(const DistVector& b, DistVector& x,
                                          const FailureSchedule& schedule = {});

  [[nodiscard]] const PipelinedPcgOptions& options() const { return opts_; }

  /// Failure-free per-iteration cost of distributing the redundant copies of
  /// both backed-up vectors: 2 generations of p plus depth+1 generations of
  /// u ride the halo exchange, so the Sec. 4.2 round-based overhead is
  /// charged (1 + depth) times.
  [[nodiscard]] double redundancy_overhead_per_iteration() const {
    return redundancy_step_cost_;
  }

 private:
  PipelinedPcg(Cluster& cluster, const CsrMatrix& a_global,
               MaybeOwned<DistMatrix> a, const Preconditioner& m,
               PipelinedPcgOptions opts);

  struct DeepState;  // recurrence vectors, chains, u generations, scalars

  /// ESR recovery of the pipelined state after the merged failure set
  /// `failed`, at every depth: exact reconstruction of x/r/u/p and their
  /// backed-up older generations, then the relation-based rebuild of s/q/z/w
  /// and the chain ladders (depth 1: m and n recomputed whole). Returns the
  /// Alg. 2 stats.
  RecoveryStats recover(std::span<const NodeId> failed, const DistVector& b,
                        DistVector& x, DeepState& st);

  /// Injects the failures due at iteration k (FailureCursor::merge_due),
  /// recovers the merged set, and records it in `res`.
  void recover_due(FailureCursor& cursor, int k, const DistVector& b,
                   DistVector& x, DeepState& st, engine::SolveReport& res);

  /// Depth-1 path (classic one-reduction-in-flight pipelining). It cannot
  /// be folded into solve_deep without changing simulated time: at depth 1
  /// the ring engine posts an nb = 8 Gram reduction (36 scalars) and waits
  /// for it in the same iteration with only the backup record in between,
  /// so nearly all of its latency is exposed. This loop posts 3 scalars and
  /// hides them behind the M-apply and the SpMV. Every depth-1 solve — the
  /// default of both pipelined families — would change its sim_time.
  engine::SolveReport solve_depth1(const DistVector& b, DistVector& x,
                                   const FailureSchedule& schedule);

  /// Depth >= 2 path: Gram-basis reduction ring with coefficient-space
  /// scalar prediction.
  engine::SolveReport solve_deep(const DistVector& b, DistVector& x,
                                 const FailureSchedule& schedule);

  Cluster& cluster_;
  const CsrMatrix* a_global_;
  const Preconditioner* m_;
  PipelinedPcgOptions opts_;
  MaybeOwned<DistMatrix> a_;
  PipelinedBasisLayout layout_;
  RedundancyScheme scheme_;
  BackupStore store_p_;  // p^(j), p^(j-1) — the paper's backup set
  BackupStore store_u_;  // u^(j) .. u^(j-depth) — the pipelined extension
  double redundancy_step_cost_ = 0.0;
};

}  // namespace rpcg
