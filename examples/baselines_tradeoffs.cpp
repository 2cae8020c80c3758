// ESR vs the classic alternatives, on one problem and one failure scenario:
//
//   * checkpoint/restart  — pays overhead on every run (writes to reliable
//                           storage), failures roll *all* nodes back and
//                           redo iterations;
//   * interpolation/restart (Langou et al.) — free when nothing fails, but a
//                           failure discards the Krylov space and costs
//                           extra iterations;
//   * ESR (this paper)    — small redundancy overhead each iteration, exact
//                           recovery, iteration trajectory preserved.
//
// Every method is the same registry solver ("resilient-pcg") under a
// different `recovery` config key — the engine API's whole point.
#include <cstdio>

#include "engine/registry.hpp"
#include "sparse/generators.hpp"

int main() {
  using namespace rpcg;

  engine::Problem problem = engine::ProblemBuilder()
                                .matrix(poisson3d_7pt(22, 22, 22))
                                .nodes(32)
                                .preconditioner("bjacobi")
                                .build();  // b = A * ones
  const int psi = 3;

  std::printf("three node failures at mid-solve, 32 nodes, 3-D Poisson "
              "(n = %lld)\n\n",
              static_cast<long long>(problem.matrix_global().rows()));
  std::printf("%-24s %12s %12s %8s %12s\n", "method", "no-fail [s]",
              "with-fail[s]", "iters", "recovery[s]");

  const auto run = [&](RecoveryMethod method, int phi, int ckpt_interval,
                       const char* label) {
    engine::SolverConfig config;
    config.recovery = method;
    config.phi = phi;
    config.checkpoint_interval = ckpt_interval;
    config.checkpoint.medium = CheckpointMedium::kDisk;  // checkpoint rows only
    const auto solver =
        engine::SolverRegistry::instance().create("resilient-pcg", config);

    // Failure-free run.
    DistVector x0 = problem.make_x();
    const auto nofail = solver->solve(problem, x0);
    // With psi simultaneous failures at half progress.
    DistVector x = problem.make_x();
    const auto res = solver->solve(
        problem, x, FailureSchedule::contiguous(nofail.iterations / 2, 8, psi));
    std::printf("%-24s %12.5f %12.5f %8d %12.5f\n", label, nofail.sim_time,
                res.sim_time, res.iterations, res.recovery_sim_time());
  };

  run(RecoveryMethod::kEsr, psi, 0, "esr (phi = 3)");
  run(RecoveryMethod::kCheckpointRestart, 0, 20, "checkpoint (every 20)");
  run(RecoveryMethod::kCheckpointRestart, 0, 100, "checkpoint (every 100)");
  run(RecoveryMethod::kInterpolationRestart, 0, 0, "interpolation-restart");
  return 0;
}
