// Resilient preconditioned BiCGSTAB — the Krylov-method extension the paper
// names in Sec. 1 ("our proposed algorithmic modifications can also be
// applied to the ESR approach for the ... preconditioned bi-conjugate
// gradient stabilized (BiCGSTAB) algorithm") without giving details. The
// details, worked out here:
//
// Per iteration BiCGSTAB performs two SpMVs, v = A p̂ and t = A ŝ with
// p̂ = M⁻¹p and ŝ = M⁻¹s — so p̂ and ŝ are exactly the vectors whose blocks
// are communicated, and the Eqn. 5/6 redundancy machinery gives each of
// them phi extra copies per iteration. After a failure (injected right
// after the second SpMV) the replacement nodes rebuild the full state:
//
//   p̂_IF, ŝ_IF   gathered from the redundant copies,
//   p_IF  = M p̂_IF,  s_IF = M ŝ_IF      (through the preconditioner,
//                                         exactly like Alg. 2's line 5-6),
//   v_IF  = (A p̂)_IF, t_IF = (A ŝ)_IF    (recomputed locally from rows of A
//                                         and gathered surviving p̂/ŝ),
//   r_IF  = s_IF + alpha v_IF            (from s = r - alpha v; alpha is a
//                                         replicated scalar),
//   x_IF  from A_{IF,IF} x_IF = b_IF - r_IF - A_{IF,I\IF} x_{I\IF}
//                                         (same local solve as PCG's ESR),
//   r̂0_IF re-fetched from reliable storage (r̂0 = b - A x0 is static data
//                                         derived from the inputs).
#pragma once

#include <vector>

#include "core/backup_store.hpp"
#include "core/esr.hpp"
#include "core/events.hpp"  // RecoveryRecord, SolverEvents
#include "core/failure_schedule.hpp"
#include "core/redundancy.hpp"
#include "engine/solve_report.hpp"
#include "precond/preconditioner.hpp"
#include "sim/cluster.hpp"
#include "sim/dist_matrix.hpp"
#include "sim/dist_vector.hpp"

namespace rpcg {

struct BicgstabOptions {
  double rtol = 1e-8;
  int max_iterations = 100000;
  /// Redundant copies of p̂ and ŝ; 0 disables resilience.
  int phi = 0;
  BackupStrategy strategy = BackupStrategy::kPaperAlternating;
  std::uint64_t strategy_seed = 0;
  EsrOptions esr;
  /// Typed event hooks (core/events.hpp). on_iteration snapshots expose x,
  /// r and p; z is null (BiCGSTAB has no preconditioned residual z).
  SolverEvents events;
};

class ResilientBicgstab {
 public:
  ResilientBicgstab(Cluster& cluster, const CsrMatrix& a_global,
                    const DistMatrix& a, const Preconditioner& m,
                    BicgstabOptions opts);

  [[nodiscard]] engine::SolveReport solve(const DistVector& b, DistVector& x,
                                          const FailureSchedule& schedule = {});

  [[nodiscard]] const RedundancyScheme& redundancy() const { return scheme_; }

 private:
  /// The iteration vectors, plus the pristine copy of r̂0 that stands in for
  /// reliable storage.
  struct State {
    explicit State(const Partition& part)
        : r(part), r0(part), p(part), v(part), s(part), t(part), phat(part),
          shat(part), r0_pristine(part) {}
    DistVector r, r0, p, v, s, t, phat, shat, r0_pristine;
  };

  /// Rebuilds the state of the merged failed set `failed` (the header's
  /// relations) and returns the Alg. 2 stats.
  RecoveryStats recover(std::span<const NodeId> failed, double alpha,
                        const DistVector& b, DistVector& x, State& st);

  // (A y)_IF recomputed on the replacement nodes: gathers the needed
  // surviving entries of y and multiplies the lost rows of A.
  void recompute_lost_rows(std::span<const Index> rows, const DistVector& y,
                           std::span<const double> y_f,
                           std::span<double> out) const;

  Cluster& cluster_;
  const CsrMatrix* a_global_;
  const DistMatrix* a_;
  const Preconditioner* m_;
  BicgstabOptions opts_;
  RedundancyScheme scheme_;
  BackupStore store_phat_;
  BackupStore store_shat_;
  double redundancy_step_cost_ = 0.0;
};

}  // namespace rpcg
