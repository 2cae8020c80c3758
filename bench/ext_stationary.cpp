// Extension bench (paper Sec. 1: the ESR modifications also apply to the
// Jacobi, Gauss-Seidel, SOR and SSOR solvers): failure-free redundancy
// overhead and recovery cost of the resilient stationary solvers, run
// through the engine registry ("stationary" with a per-method config).
#include <cstdio>
#include <utility>

#include "bench_support.hpp"
#include "solver/stationary.hpp"

int main(int argc, char** argv) {
  using namespace rpcg;
  using namespace rpcg::bench;
  const CommonArgs args = CommonArgs::parse(argc, argv, {"phi", "matrix"});
  const Options o(argc, argv);
  const int phi = static_cast<int>(o.get_int("phi", 3));
  const int matrix = static_cast<int>(o.get_int("matrix", 4));

  auto mat = repro::make_matrix(matrix, args.scale);
  engine::Problem problem = engine::ProblemBuilder()
                                .matrix(std::move(mat.matrix))
                                .nodes(args.nodes)
                                .preconditioner("none")
                                .build();  // b = A * ones, noise off

  char title[160];
  std::snprintf(title, sizeof title,
                "Stationary-solver extension on %s (phi = %d, rtol 1e-6)",
                mat.id.c_str(), phi);
  print_header(title, args);
  std::printf("%-14s %8s %12s %12s %14s %12s\n", "method", "iters",
              "t_plain[s]", "t_phi[s]", "undist ov%", "t_fail[s]");

  auto& registry = engine::SolverRegistry::instance();
  for (const StationaryMethod method :
       {StationaryMethod::kJacobi, StationaryMethod::kGaussSeidel,
        StationaryMethod::kSor, StationaryMethod::kSsor}) {
    engine::SolverConfig c;
    c.stationary_method = method;
    c.omega = method == StationaryMethod::kJacobi ? 0.8 : 1.3;
    if (method == StationaryMethod::kGaussSeidel) c.omega = 1.0;
    c.rtol = 1e-6;
    c.max_iterations = 200000;

    DistVector x1 = problem.make_x();
    const auto r1 = registry.create("stationary", c)->solve(problem, x1, {});
    if (!r1.converged) {
      std::printf("%-14s did not converge within %d iterations; skipped\n",
                  to_string(method).c_str(), c.max_iterations);
      continue;
    }

    c.phi = phi;
    DistVector x2 = problem.make_x();
    const auto r2 = registry.create("stationary", c)->solve(problem, x2, {});

    DistVector x3 = problem.make_x();
    const auto r3 = registry.create("stationary", c)
                        ->solve(problem, x3,
                                FailureSchedule::contiguous(r1.iterations / 2,
                                                            0, phi));

    std::printf("%-14s %8d %12.5f %12.5f %13.1f%% %12.5f\n",
                to_string(method).c_str(), r1.iterations, r1.sim_time,
                r2.sim_time, repro::overhead_pct(r2.sim_time, r1.sim_time),
                r3.sim_time);
    std::fflush(stdout);
  }
  return 0;
}
