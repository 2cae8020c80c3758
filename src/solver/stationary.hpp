// Resilient stationary iterative solvers — the other method family the
// paper's ESR modifications cover (Sec. 1: "our proposed algorithmic
// modifications can also be applied to the ESR approach for the Jacobi,
// Gauss-Seidel, SOR and SSOR algorithms").
//
// For a stationary method the solver state is just the iterate x^(j): the
// SpMV-style halo exchange of every sweep distributes x's elements, the same
// redundancy machinery (Eqns. 5-6 of the paper) guarantees phi extra copies
// of every block, and recovery after up to phi node failures is a pure
// gather — no local linear system needs to be solved at all. The copies
// live in a one-generation BackupStore, and recovery runs the shared ESR
// steps and failure merge of the other engines (core/esr.hpp,
// FailureCursor), overlap charge included.
//
// The parallel smoother variants implemented here are the standard
// block-hybrid forms: the off-node contributions always enter through the
// (lagged) halo, while inside a node the sweep is Jacobi, Gauss-Seidel,
// SOR or SSOR.
#pragma once

#include <array>
#include <utility>
#include <vector>

#include "core/backup_store.hpp"
#include "core/events.hpp"
#include "core/failure_schedule.hpp"
#include "core/redundancy.hpp"
#include "engine/solve_report.hpp"
#include "sim/cluster.hpp"
#include "sim/dist_matrix.hpp"
#include "sim/dist_vector.hpp"
#include "util/enum_names.hpp"

namespace rpcg {

enum class StationaryMethod {
  kJacobi,       ///< x += omega D^{-1} (b - A x)
  kGaussSeidel,  ///< per-node forward sweep (omega fixed at 1)
  kSor,          ///< per-node forward sweep with relaxation omega
  kSsor,         ///< per-node forward + backward sweep with omega
};

template <>
struct EnumNames<StationaryMethod> {
  static constexpr const char* context = "stationary method";
  static constexpr std::array<std::pair<StationaryMethod, const char*>, 4>
      table{{{StationaryMethod::kJacobi, "jacobi"},
             {StationaryMethod::kGaussSeidel, "gauss-seidel"},
             {StationaryMethod::kSor, "sor"},
             {StationaryMethod::kSsor, "ssor"}}};
};

[[nodiscard]] std::string to_string(StationaryMethod m);

struct StationaryOptions {
  StationaryMethod method = StationaryMethod::kJacobi;
  double omega = 1.0;   ///< relaxation/damping factor
  double rtol = 1e-6;   ///< on ||b - A x|| relative to the initial residual
  int max_iterations = 100000;
  /// Redundant copies of the iterate; 0 disables resilience.
  int phi = 0;
  BackupStrategy strategy = BackupStrategy::kPaperAlternating;
  std::uint64_t strategy_seed = 0;
  /// Typed event hooks (core/events.hpp). on_iteration snapshots expose x
  /// and the residual as r; z and p are null (no Krylov directions here).
  SolverEvents events;
};

class ResilientStationary {
 public:
  /// `a_global` is the reliable static copy; `a` its distributed form. Both
  /// must outlive the solver, as must the cluster.
  ResilientStationary(Cluster& cluster, const CsrMatrix& a_global,
                      const DistMatrix& a, StationaryOptions opts);

  /// Runs the iteration from the initial guess in x; failures are injected
  /// per schedule (right after the halo exchange, mirroring the PCG driver).
  [[nodiscard]] engine::SolveReport solve(const DistVector& b, DistVector& x,
                                          const FailureSchedule& schedule = {});

  [[nodiscard]] const RedundancyScheme& redundancy() const { return scheme_; }

 private:
  // One local sweep on node i: updates x_own in place, reading the node's
  // SpMV operand [x_own | halo] (filled by execute_scatter) and writing each
  // updated own entry back into it.
  void local_sweep(NodeId i, std::span<const double> b_own,
                   std::span<double> operand, std::span<double> x_own) const;

  Cluster& cluster_;
  const CsrMatrix* a_global_;
  const DistMatrix* a_;
  StationaryOptions opts_;
  RedundancyScheme scheme_;
  std::vector<double> inv_diag_;  // global 1/A_ii (static data)
  double redundancy_step_cost_ = 0.0;
  double sweep_flops_scale_ = 0.0;

  BackupStore store_;  // x^(j): one retained generation
};

}  // namespace rpcg
