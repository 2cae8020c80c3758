// Plain distributed PCG (Alg. 1 of the paper) on the simulated cluster.
// This is the non-resilient reference implementation: no redundant copies
// are distributed, no failures can be tolerated. The resilient solver in
// core/resilient_pcg.hpp reproduces the same iteration and must agree with
// this one bit-for-bit in failure-free runs — a property the tests check.
#pragma once

#include "engine/solve_report.hpp"
#include "precond/preconditioner.hpp"
#include "sim/cluster.hpp"
#include "sim/dist_matrix.hpp"
#include "sim/dist_vector.hpp"

namespace rpcg {

struct PcgOptions {
  /// Terminate once ||r^(j)||_2 / ||r^(0)||_2 <= rtol (the paper reduces the
  /// relative residual norm by a factor of 1e8).
  double rtol = 1e-8;
  int max_iterations = 100000;
};

/// Runs PCG from the initial guess in x (overwritten with the solution).
[[nodiscard]] engine::SolveReport pcg_solve(Cluster& cluster,
                                            const DistMatrix& a,
                                            const Preconditioner& m,
                                            const DistVector& b, DistVector& x,
                                            const PcgOptions& opts);

/// Recomputes the true residual norm ||b - A x||_2 without charging
/// simulated time (diagnostic; used for the Eqn. 7 metric).
[[nodiscard]] double true_residual_norm(Cluster& cluster, const DistMatrix& a,
                                        const DistVector& b, const DistVector& x);

}  // namespace rpcg
