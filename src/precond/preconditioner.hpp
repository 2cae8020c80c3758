// Preconditioner interface for the distributed PCG solver.
//
// Besides applying z = M^{-1} r, every preconditioner implements its part of
// the ESR reconstruction (Alg. 2 of the paper and the variants of Pachajoa
// et al. 2018 [23]): recovering the lost residual block r_{If} from the
// already-recovered preconditioned residual z_{If}.
//
//   * P-given  (explicit P = M^{-1}):  solve P_{If,If} r_{If} =
//       z_{If} - P_{If,I\If} r_{I\If}          (Alg. 2, lines 5-6)
//   * M-given  (e.g. block Jacobi):    r_{If} = M_{If,I} z; for the
//       node-aligned block-diagonal preconditioners used here this reduces
//       to the local product r_{If} = M_{If,If} z_{If}
//   * split    (M = L Lᵀ, e.g. IC(0)): r_{If} = L_{If,If} (Lᵀ)_{If,If} z_{If}
#pragma once

#include <memory>
#include <span>
#include <string>

#include "sim/cluster.hpp"
#include "sim/dist_vector.hpp"
#include "util/types.hpp"

namespace rpcg {

class CsrMatrix;
class DistMatrix;

/// Which of the paper's reconstruction variants applies.
enum class PrecondKind { kIdentity, kPGiven, kMGiven, kSplit };

/// Concurrency contract: apply() and esr_recover_residual() may be called on
/// one instance from concurrent solves (each with its own cluster and
/// vectors). The SolverService shares one preconditioner among every job of
/// a batch that names the same problem, so an implementation keeps any
/// workspace per call or thread_local, never in a mutable member, and
/// guards any memoization with a lock.
class Preconditioner {
 public:
  virtual ~Preconditioner() = default;

  /// z = M^{-1} r on the simulated cluster; charges compute (and, for
  /// non-local preconditioners, communication) cost to `phase`. Safe to call
  /// from concurrent solves (see the class comment).
  virtual void apply(Cluster& cluster, const DistVector& r, DistVector& z,
                     Phase phase) const = 0;

  [[nodiscard]] virtual PrecondKind kind() const = 0;
  [[nodiscard]] virtual std::string name() const = 0;

  /// ESR residual recovery: given the recovered z values `z_f` for the
  /// sorted lost global rows `rows` (the set I_F), computes the lost
  /// residual values `r_f`. May read surviving blocks of r and z (valid on
  /// all alive nodes) and charges any gather/solve cost to Phase::kRecovery.
  /// Safe to call from concurrent solves (see the class comment).
  virtual void esr_recover_residual(Cluster& cluster,
                                    std::span<const Index> rows,
                                    std::span<const double> z_f,
                                    const DistVector& r, const DistVector& z,
                                    std::span<double> r_f) const = 0;
};

/// No preconditioning (plain CG): z = r.
[[nodiscard]] std::unique_ptr<Preconditioner> make_identity_preconditioner();

/// Factory by name: "identity", "jacobi", "bjacobi", "ic0", "ssor".
/// `a` is the global system matrix (reliable static data).
[[nodiscard]] std::unique_ptr<Preconditioner> make_preconditioner(
    const std::string& name, const CsrMatrix& a, const Partition& partition);

}  // namespace rpcg
