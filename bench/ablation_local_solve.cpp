// Ablation of the reconstruction's local solve (Sec. 6, "Avoiding loss of
// orthogonality"): the tolerance of the A_{If,If} solve controls how exactly
// the state is reconstructed and therefore the residual-difference metric of
// Eqn. 7. Sweeps the tolerance and compares against the exact (direct)
// solve.
#include <cmath>
#include <cstdio>

#include "bench_support.hpp"

int main(int argc, char** argv) {
  using namespace rpcg;
  using namespace rpcg::bench;
  const CommonArgs args = CommonArgs::parse(argc, argv, {"matrix", "phi"});
  const Options o(argc, argv);
  const int matrix = static_cast<int>(o.get_int("matrix", 3));
  const int phi = static_cast<int>(o.get_int("phi", 3));

  const auto mat = repro::make_matrix(matrix, args.scale);
  char title[128];
  std::snprintf(title, sizeof title,
                "Local reconstruction solve ablation on %s (phi = psi = %d)",
                mat.id.c_str(), phi);
  print_header(title, args);
  std::printf("%-14s %14s %12s %14s %12s\n", "local rtol", "|Delta_ESR|",
              "iters", "recon time[s]", "total iters");

  for (const double rtol : {1e-6, 1e-8, 1e-10, 1e-12, 1e-14, 0.0}) {
    repro::ExperimentConfig cfg = args.config();
    cfg.local_rtol = rtol > 0.0 ? rtol : 1e-14;
    repro::ExperimentRunner runner(mat.matrix, cfg);
    // rtol == 0 marks the exact (direct LDLt) solve.
    engine::SolveReport res;
    if (rtol == 0.0) {
      const FailureSchedule schedule = FailureSchedule::contiguous(
          runner.failure_iteration(0.5),
          runner.first_rank(repro::FailureLocation::kCenter), phi);
      engine::SolverConfig c = runner.base_config();
      c.recovery = RecoveryMethod::kEsr;
      c.phi = phi;
      c.esr.exact_local_solve = true;
      res = runner.run_solver("resilient-pcg", c, schedule, 7);
    } else {
      res = runner.run_with_failures(phi, phi, repro::FailureLocation::kCenter,
                                     0.5, 7);
    }
    const int local_iters =
        res.recoveries.empty() ? 0 : res.recoveries[0].stats.local_solve_iterations;
    char label[24];
    if (rtol == 0.0) {
      std::snprintf(label, sizeof label, "exact (LDLt)");
    } else {
      std::snprintf(label, sizeof label, "%.0e", rtol);
    }
    std::printf("%-14s %14.3e %12d %14.4f %12d\n", label,
                std::abs(res.delta_metric), local_iters,
                res.sim_time_phase[static_cast<int>(Phase::kRecovery)],
                res.iterations);
    std::fflush(stdout);
  }
  return 0;
}
