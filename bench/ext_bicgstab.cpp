// Extension bench (paper Sec. 1: ESR also applies to the preconditioned
// BiCGSTAB algorithm): redundancy overhead and recovery cost of the
// resilient BiCGSTAB solver, side by side with resilient PCG on the same
// matrix. BiCGSTAB performs two SpMVs per iteration, so it distributes two
// sets of redundant copies per iteration (of p̂ and ŝ).
#include <cstdio>

#include "bench_support.hpp"

int main(int argc, char** argv) {
  using namespace rpcg;
  using namespace rpcg::bench;
  const CommonArgs args = CommonArgs::parse(argc, argv, {"matrix", "phis"});
  const Options o(argc, argv);
  const int matrix = static_cast<int>(o.get_int("matrix", 5));
  const std::vector<long> phis = o.get_int_list("phis", {1, 3, 8});

  const auto mat = repro::make_matrix(matrix, args.scale);
  repro::ExperimentRunner runner(mat.matrix, args.config());

  char title[160];
  std::snprintf(title, sizeof title,
                "BiCGSTAB extension on %s (vs resilient PCG, failures at "
                "center, 50%% progress)",
                mat.id.c_str());
  print_header(title, args);

  const auto bicg_run = [&](int phi, bool with_failures) {
    engine::SolverConfig c = runner.base_config();
    c.phi = phi;
    FailureSchedule schedule;
    if (with_failures && phi > 0) {
      // Reference iteration count of plain BiCGSTAB for placement
      // (noise-free, like the PCG placement run).
      auto& problem = runner.problem();
      problem.set_noise(0.0, 0);
      engine::SolverConfig ropts = c;
      ropts.phi = 0;
      const auto ref = engine::SolverRegistry::instance().create(
          "resilient-bicgstab", ropts);
      DistVector x0 = problem.make_x();
      const auto rres = ref->solve(problem, x0, {});
      schedule = FailureSchedule::contiguous(
          std::max(1, rres.iterations / 2),
          runner.first_rank(repro::FailureLocation::kCenter), phi);
    }
    return runner.run_solver("resilient-bicgstab", c, schedule, 17);
  };

  const auto ref = bicg_run(0, false);
  std::printf("plain BiCGSTAB: t0 = %.4f s, %d iterations "
              "(PCG reference: %d iterations)\n\n",
              ref.sim_time, ref.iterations, runner.reference_iterations());
  std::printf("%4s %14s %14s %14s %14s\n", "phi", "undist t[s]", "undist ov%",
              "fail t[s]", "recovery[s]");
  for (const long phi : phis) {
    const auto undist = bicg_run(static_cast<int>(phi), false);
    const auto fail = bicg_run(static_cast<int>(phi), true);
    std::printf("%4ld %14.4f %13.1f%% %14.4f %14.4f\n", phi, undist.sim_time,
                repro::overhead_pct(undist.sim_time, ref.sim_time),
                fail.sim_time,
                fail.sim_time_phase[static_cast<int>(Phase::kRecovery)]);
    std::fflush(stdout);
  }
  return 0;
}
