// Regenerates Table 3 of the paper: the relative residual difference metric
// of Eqn. 7,  Delta = (||r_solver|| - ||b - A x||) / ||b - A x||, comparing
// the maximum Delta_ESR over all failure experiments of a matrix against
// Delta_PCG of the failure-free reference run. ESR's finite-precision
// reconstruction must not degrade the solver accuracy.
#include <cmath>
#include <cstdio>

#include "bench_support.hpp"

int main(int argc, char** argv) {
  using namespace rpcg;
  using namespace rpcg::bench;
  const CommonArgs args = CommonArgs::parse(argc, argv, {"phis"});
  const Options o(argc, argv);
  const std::vector<long> phis = o.get_int_list("phis", {1, 3, 8});

  print_header("Table 3: relative residual difference (Eqn. 7)", args);
  std::printf("%-4s %16s %16s\n", "ID", "max |Delta_ESR|", "Delta_PCG");

  for (const long idx : args.matrices) {
    const auto mat = repro::make_matrix(static_cast<int>(idx), args.scale);
    repro::ExperimentRunner runner(mat.matrix, args.config());

    const auto ref = runner.run_reference(1);
    double max_esr = 0.0;
    for (const long phi : phis) {
      for (const auto loc :
           {repro::FailureLocation::kStart, repro::FailureLocation::kCenter}) {
        for (const double progress : {0.2, 0.5, 0.8}) {
          const auto res = runner.run_with_failures(
              static_cast<int>(phi), static_cast<int>(phi), loc, progress, 7);
          if (std::abs(res.delta_metric) > std::abs(max_esr))
            max_esr = res.delta_metric;
        }
      }
    }
    std::printf("%-4s %16.3e %16.3e\n", mat.id.c_str(), max_esr,
                ref.delta_metric);
    std::fflush(stdout);
  }
  return 0;
}
