// Exact state reconstruction (ESR) after simultaneous or overlapping node
// failures — Alg. 2 of the paper, generalized to the failed index set
// I_F = I_{f1} ∪ ... ∪ I_{fψ}:
//
//   1. replacement nodes come online and re-fetch static data (A, M, b rows)
//   2. beta^(j-1) is recovered from any survivor (replicated scalar)
//   3. p^(j)_{IF}, p^(j-1)_{IF} are gathered from the redundant copies
//   4. z_{IF} = p^(j)_{IF} - beta^(j-1) p^(j-1)_{IF}
//   5. r_{IF} is recovered through the preconditioner (P-given / M-given /
//      split variants; see precond/preconditioner.hpp)
//   6. w = b_{IF} - r_{IF} - A_{IF, I\IF} x_{I\IF}
//   7. A_{IF,IF} x_{IF} = w is solved with IC(0)-PCG to a tight tolerance
//      (the paper's 1e-14), or exactly with sparse LDLᵀ (ablation option)
//   8. the redundant stores hosted on the replacements are re-armed.
//
// Steps 1, 3, 7 and 8 recur in every resilient engine — blocking PCG (its
// checkpoint, twin and interpolation-restart recoveries share steps 1 and,
// for the interpolation, 7), pipelined PCG/CR, BiCGSTAB and the stationary
// sweeps (no step 7)
// — so they live here as LostBlocks' shared steps, together with the
// lost-block layout, and so does the overlap charge (esr_abort_recovery)
// that FailureCursor::merge_due triggers. What differs per engine is only
// which vectors are backed up and how the rest of the state follows from
// them: steps 4-5 above; s = Ap, w = Au and the chain ladders in the
// pipelined engine; r = s + alpha v in BiCGSTAB; nothing in the stationary
// sweeps, whose state is the gathered x.
#pragma once

#include <initializer_list>
#include <optional>
#include <span>
#include <vector>

#include "core/backup_store.hpp"
#include "core/factorization_cache.hpp"
#include "sim/cluster.hpp"
#include "sim/dist_vector.hpp"
#include "sparse/csr.hpp"

namespace rpcg {

struct EsrOptions {
  /// Relative residual reduction for the local reconstruction system
  /// (paper: 1e14 reduction -> rtol 1e-14).
  double local_rtol = 1e-14;
  int local_max_iterations = 50000;
  /// Solve the local system exactly with sparse LDLᵀ instead of IC(0)-PCG
  /// (used by tests and the accuracy ablation).
  bool exact_local_solve = false;
  /// Optional non-owning host-side cache: A_{IF,IF} extraction and its
  /// IC(0)/LDLᵀ factorization are reused across reconstructions of the same
  /// failed node set. Simulated costs are charged either way, so results are
  /// byte-identical with and without it (see core/factorization_cache.hpp).
  /// The cache must serve this cluster's partition only: an entry built for
  /// other rows throws std::logic_error.
  FactorizationCache* cache = nullptr;
  /// Content key of the matrix handed to esr_solve_lost_x alongside these
  /// options. Deriving the key hashes every stored entry of A, so the
  /// long-lived engines memoize it here at setup; when unset (one-shot
  /// callers, tests) each cached solve derives it on the fly.
  std::optional<FactorizationCache::MatrixKey> matrix_key;
};

struct RecoveryStats {
  int psi = 0;                           ///< number of failed nodes recovered
  Index lost_rows = 0;                   ///< |I_F|
  Index gathered_elements = 0;           ///< redundant copies transferred
  int local_solve_iterations = 0;        ///< PCG iterations on A_{IF,IF}
  double local_solve_rel_residual = 0.0;
  double sim_seconds = 0.0;              ///< recovery time on the model clock
};

struct LocalSolveOutcome {
  int iterations = 0;
  double rel_residual = 0.0;
};

/// Solves the lost-iterate system A_{IF,IF} x_{IF} = b_{IF} - r_{IF} -
/// A_{IF,I\IF} x_{I\IF} (lines 7-8 of Alg. 2). `r_f` may be empty, in which
/// case the residual term is dropped — that is exactly the Langou-style
/// interpolation used by the restart baseline. Charges gather and compute
/// costs to Phase::kRecovery. Returns iterations/accuracy of the local solve.
[[nodiscard]] LocalSolveOutcome esr_solve_lost_x(
    Cluster& cluster, const CsrMatrix& a_global, std::span<const Index> rows,
    std::span<const double> r_f, const DistVector& b, const DistVector& x,
    std::span<double> x_f, const EsrOptions& opts);

/// An overlapping failure struck while the nodes `so_far` were being
/// reconstructed: charges the work performed so far — the gather of their
/// lost blocks from each backup store, the dominant communication part —
/// and drops the cached factorizations the changed survivor structure
/// invalidated. The reconstruction then restarts with the union.
void esr_abort_recovery(Cluster& cluster, std::span<const NodeId> so_far,
                        std::initializer_list<const BackupStore*> stores,
                        FactorizationCache* cache);

/// One recovery of a merged failed-node set, run as Alg. 2's shared steps.
/// Every resilient engine calls them in order:
///
///   1. the constructor (replacement + static re-fetch; starts the clock),
///   2. gather() of the backed-up generations from each store,
///   3. the engine's own relations (r through M, derived vectors),
///   4. solve_x() of A_{IF,IF} x_{IF} = w for the lost iterate,
///   5. install() / install_from() of the rebuilt blocks,
///   6. BackupStore::re_arm on nodes(), and
///   7. finish(), which stamps the recovery time into the stats.
///
/// The lost-block layout: nodes() are the failed nodes sorted ascending, and
/// rows() their rows concatenated in that order (I_F). Every reconstructed
/// block vector is aligned with rows().
class LostBlocks {
 public:
  /// Steps 1-2 of Alg. 2: failure detection/agreement (one collective over
  /// the survivors, ULFM-style shrink/agree), the replacement nodes coming
  /// online, and their parallel re-fetch of the static data from reliable
  /// storage — the A rows, the preconditioner rows, and `static_vectors`
  /// per-row vectors (b; BiCGSTAB adds its shadow residual r̂0).
  LostBlocks(Cluster& cluster, const CsrMatrix& a_global,
             std::span<const NodeId> failed, int static_vectors = 1);

  [[nodiscard]] const std::vector<NodeId>& nodes() const { return nodes_; }
  [[nodiscard]] const std::vector<Index>& rows() const { return rows_; }
  [[nodiscard]] std::size_t size() const { return rows_.size(); }
  [[nodiscard]] RecoveryStats& stats() { return stats_; }

  /// Every generation of the lost elements from `store`, counted in
  /// gathered_elements.
  [[nodiscard]] BackupStore::Gathered gather(const BackupStore& store);

  /// The lost iterate block x_{IF} (esr_solve_lost_x), with the local-solve
  /// statistics recorded.
  [[nodiscard]] std::vector<double> solve_x(const CsrMatrix& a_global,
                                            std::span<const double> r_f,
                                            const DistVector& b,
                                            const DistVector& x,
                                            const EsrOptions& opts);

  /// Installs `values` (aligned with rows()) as the lost blocks of `dst`.
  void install(DistVector& dst, std::span<const double> values) const;

  /// Copies the lost blocks of the full vector `src` into `dst`.
  void install_from(DistVector& dst, const DistVector& src) const;

  /// The statistics, with sim_seconds = recovery-phase time since the
  /// constructor.
  [[nodiscard]] RecoveryStats finish();

 private:
  Cluster* cluster_;
  std::vector<NodeId> nodes_;
  std::vector<Index> rows_;
  RecoveryStats stats_;
  double t0_ = 0.0;
};

}  // namespace rpcg
