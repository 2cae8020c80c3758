#include "solver/pcg.hpp"

#include <cmath>

#include "sim/collectives.hpp"
#include "solver/pcg_kernel.hpp"
#include "util/check.hpp"

namespace rpcg {

double true_residual_norm(Cluster& cluster, const DistMatrix& a,
                          const DistVector& b, const DistVector& x) {
  ClockPause pause(cluster.clock());
  DistVector ax(cluster.partition());
  std::vector<std::vector<double>> halos;
  a.spmv(cluster, x, ax, halos, Phase::kIteration);
  DistVector diff(cluster.partition());
  copy(cluster, b, diff, Phase::kIteration);
  axpy(cluster, -1.0, ax, diff, Phase::kIteration);
  return std::sqrt(dot(cluster, diff, diff, Phase::kIteration));
}

engine::SolveReport pcg_solve(Cluster& cluster, const DistMatrix& a,
                              const Preconditioner& m, const DistVector& b,
                              DistVector& x, const PcgOptions& opts) {
  RPCG_CHECK(cluster.alive_count() == cluster.num_nodes(),
             "plain PCG cannot run with failed nodes");
  const engine::SolveMeter meter(cluster);
  const Phase ph = Phase::kIteration;
  PcgKernel kernel(cluster, a, m);

  // r^(0) = b - A x^(0); z^(0) = M^{-1} r^(0); p^(0) = z^(0).
  const DotPair d0 = kernel.initialize(b, x, ph);
  const double rnorm0 = std::sqrt(d0.rr);

  engine::SolveReport res;
  if (rnorm0 == 0.0) {
    res.converged = true;
  } else {
    for (int j = 0; j < opts.max_iterations; ++j) {
      kernel.spmv_direction(ph);                            // u = A p
      const double pap = kernel.direction_curvature(ph);    // p^T A p
      const double alpha = kernel.rz / pap;
      kernel.descend(alpha, x, ph);                         // x += alpha p, r -= alpha A p
      const DotPair d = kernel.precondition(ph);            // z = M^{-1} r; r^T z, ||r||^2
      res.iterations = j + 1;
      res.rel_residual = std::sqrt(d.rr) / rnorm0;
      res.solver_residual_norm = std::sqrt(d.rr);
      if (res.rel_residual <= opts.rtol) {
        res.converged = true;
        break;
      }
      kernel.advance_direction(d, ph);                      // p = z + beta p
    }
  }

  meter.finish(cluster, a, b, x, res);
  return res;
}

}  // namespace rpcg
