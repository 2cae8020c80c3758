// Regenerates Table 2 of the paper: for every matrix the reference time t0,
// the failure-free ("undisturbed") overhead of keeping phi in {1,3,8}
// redundant copies, and — for psi = phi simultaneous failures placed in
// contiguous ranks at the start (rank 0) and center (rank N/2), aggregated
// over 20/50/80 % progress — the relative reconstruction time and the total
// overhead with failures, each as mean +/- stddev.
#include <cstdio>

#include "bench_support.hpp"

int main(int argc, char** argv) {
  using namespace rpcg;
  using namespace rpcg::bench;
  const CommonArgs args = CommonArgs::parse(argc, argv, {"phis"});
  const Options o(argc, argv);
  const std::vector<long> phis = o.get_int_list("phis", {1, 3, 8});
  const double progresses[] = {0.2, 0.5, 0.8};

  print_header("Table 2: runtime overheads of the ESR-capable PCG solver", args);
  std::printf(
      "# t0: reference (non-resilient) solve time. 'undist ov%%': failure-free\n"
      "# overhead of phi redundant copies. Per failure location: 'recon%%' =\n"
      "# reconstruction time / t0, 'fail ov%%' = total overhead with psi = phi\n"
      "# simultaneous failures; both aggregated over failures at 20/50/80%%\n"
      "# progress x %d reps.\n\n",
      args.reps);

  for (const long idx : args.matrices) {
    const auto mat = repro::make_matrix(static_cast<int>(idx), args.scale);
    repro::ExperimentRunner runner(mat.matrix, args.config());

    std::vector<double> t0_samples;
    for (int r = 0; r < args.reps; ++r)
      t0_samples.push_back(runner.run_reference(1000 + r).sim_time);
    const double t0 = summarize(t0_samples).mean;
    std::printf("%-3s t0 = %8.4f s  (ref iters: %d)\n", mat.id.c_str(), t0,
                runner.reference_iterations());

    std::printf("    undisturbed overhead:");
    for (const long phi : phis) {
      std::vector<double> samples;
      for (int r = 0; r < args.reps; ++r)
        samples.push_back(
            runner.run_undisturbed(static_cast<int>(phi), 2000 + r).sim_time);
      std::printf("  phi=%ld: %5.1f%%", phi,
                  repro::overhead_pct(summarize(samples).mean, t0));
    }
    std::printf("\n");

    for (const auto loc :
         {repro::FailureLocation::kStart, repro::FailureLocation::kCenter}) {
      std::printf("    %-6s |", repro::to_string(loc).c_str());
      std::string recon_cols, total_cols;
      for (const long phi : phis) {
        std::vector<double> recon_pct, total_pct;
        int seed = 3000;
        for (const double progress : progresses) {
          for (int r = 0; r < args.reps; ++r) {
            const auto res = runner.run_with_failures(
                static_cast<int>(phi), static_cast<int>(phi), loc, progress,
                static_cast<std::uint64_t>(seed++));
            recon_pct.push_back(
                100.0 *
                res.sim_time_phase[static_cast<int>(Phase::kRecovery)] / t0);
            total_pct.push_back(repro::overhead_pct(res.sim_time, t0));
          }
        }
        char buf[96];
        std::snprintf(buf, sizeof buf, "  recon(%ld)=%s%%", phi,
                      mean_pm_std(summarize(recon_pct), 1).c_str());
        recon_cols += buf;
        std::snprintf(buf, sizeof buf, "  fail.ov(%ld)=%s%%", phi,
                      mean_pm_std(summarize(total_pct), 1).c_str());
        total_cols += buf;
      }
      std::printf("%s |%s\n", recon_cols.c_str(), total_cols.c_str());
    }
    std::printf("\n");
    std::fflush(stdout);
  }
  return 0;
}
