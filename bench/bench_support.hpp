// Shared support for the reproduction benches — the merge of the former
// bench_common.hpp (option handling, table printing) and fig_common.hpp
// (the Figs. 1-3 driver), rebuilt on the engine API: problems come from the
// harness's ProblemBuilder-backed ExperimentRunner and every solve goes
// through the SolverRegistry.
//
// Every bench binary accepts
//   --scale S      problem size = paper size / S          (default 16)
//   --nodes N      simulated cluster size                 (default 128)
//   --reps R       repetitions per configuration          (default 3)
//   --noise CV     timing jitter coefficient of variation (default 0.02)
//   --matrices L   comma-separated matrix indices, e.g. 1,5,8 (default all)
//   --precond P    preconditioner registry key            (default bjacobi)
//   --strategy S   backup strategy name                   (default paper-alternating)
//   --exec E       host execution policy: sequential | threaded (default sequential)
//   --workers N    worker cap for --exec=threaded; 0 = hardware concurrency
// and the flags it reads itself; any other flag exits 2 (CommonArgs::parse).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/registry.hpp"
#include "repro/harness.hpp"
#include "repro/matrices.hpp"
#include "util/options.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace rpcg::bench {

struct CommonArgs {
  double scale = 16.0;
  int nodes = 128;
  int reps = 3;
  double noise = 0.02;
  std::vector<long> matrices{1, 2, 3, 4, 5, 6, 7, 8};
  std::string precond = "bjacobi";
  BackupStrategy strategy = BackupStrategy::kPaperAlternating;
  ExecutionPolicy exec;

  /// The shared flags above. `own` names the flags the binary reads
  /// itself; any other flag, or a malformed shared value, is a usage error:
  /// it is printed with the valid flags and the binary exits 2, as
  /// rpcg-cli does, instead of running with the defaults.
  static CommonArgs parse(int argc, char** argv,
                          std::initializer_list<const char*> own) {
    try {
      const Options o(argc, argv);
      std::vector<std::string> valid{"scale",    "nodes",   "reps",
                                     "noise",    "matrices", "precond",
                                     "strategy", "exec",    "workers"};
      valid.insert(valid.end(), own.begin(), own.end());
      o.require_known(valid);
      CommonArgs a;
      a.scale = o.get_double("scale", a.scale);
      a.nodes = static_cast<int>(o.get_int("nodes", a.nodes));
      a.reps = static_cast<int>(o.get_int("reps", a.reps));
      a.noise = o.get_double("noise", a.noise);
      a.matrices = o.get_int_list("matrices", a.matrices);
      a.precond = o.get_string("precond", a.precond);
      a.strategy = o.get_enum<BackupStrategy>("strategy", a.strategy);
      a.exec.mode = o.get_enum<ExecMode>("exec", a.exec.mode);
      a.exec.workers = static_cast<int>(o.get_int("workers", a.exec.workers));
      return a;
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
      std::exit(2);
    }
  }

  [[nodiscard]] repro::ExperimentConfig config() const {
    repro::ExperimentConfig cfg;
    cfg.num_nodes = nodes;
    cfg.reps = reps;
    cfg.noise_cv = noise;
    cfg.precond = precond;
    cfg.strategy = strategy;
    cfg.exec = exec;
    return cfg;
  }
};

inline void print_header(const std::string& title, const CommonArgs& a) {
  std::printf("# %s\n", title.c_str());
  std::printf("# scale=1/%.0f of paper size, N=%d simulated nodes, reps=%d, "
              "noise cv=%.2f, times are model (simulated) seconds\n",
              a.scale, a.nodes, a.reps, a.noise);
}

inline void print_box(const char* label, const Summary& s) {
  std::printf("%-28s med=%9.4f  q1=%9.4f  q3=%9.4f  whiskers=[%9.4f, %9.4f]\n",
              label, s.median, s.q1, s.q3, s.whisker_lo, s.whisker_hi);
}

/// Shared driver for Figs. 1-3 of the paper: for one matrix and one failure
/// location, print the reference band, and for copies in {1,3,8} the box
/// statistics of failure-free runs (blue boxes) and runs with psi = phi
/// simultaneous failures at 20/50/80 % progress (orange boxes), plus the
/// relative overhead of the box medians.
inline int run_figure(int matrix_index, repro::FailureLocation loc, int argc,
                      char** argv, const char* figure_name) {
  const CommonArgs args = CommonArgs::parse(argc, argv, {"phis"});
  const Options o(argc, argv);
  const std::vector<long> phis = o.get_int_list("phis", {1, 3, 8});

  const auto mat = repro::make_matrix(matrix_index, args.scale);
  repro::ExperimentRunner runner(mat.matrix, args.config());

  char title[160];
  std::snprintf(title, sizeof title, "%s: %s, failures at %s", figure_name,
                mat.id.c_str(), repro::to_string(loc).c_str());
  print_header(title, args);

  std::vector<double> ref_samples;
  for (int r = 0; r < args.reps; ++r)
    ref_samples.push_back(runner.run_reference(100 + r).sim_time);
  const Summary ref = summarize(ref_samples);
  std::printf("reference PCG: %s s (band: +/- one stddev)\n\n",
              mean_pm_std(ref, 4).c_str());

  for (const long phi : phis) {
    std::vector<double> undisturbed;
    for (int r = 0; r < args.reps; ++r)
      undisturbed.push_back(
          runner.run_undisturbed(static_cast<int>(phi), 200 + r).sim_time);
    const Summary u = summarize(undisturbed);

    std::vector<double> with_failures;
    int seed = 300;
    for (const double progress : {0.2, 0.5, 0.8}) {
      for (int r = 0; r < args.reps; ++r) {
        with_failures.push_back(
            runner
                .run_with_failures(static_cast<int>(phi), static_cast<int>(phi),
                                   loc, progress,
                                   static_cast<std::uint64_t>(seed++))
                .sim_time);
      }
    }
    const Summary w = summarize(with_failures);

    std::printf("copies/failures = %ld\n", phi);
    char label[64];
    std::snprintf(label, sizeof label, "  no failures (blue box)");
    print_box(label, u);
    std::snprintf(label, sizeof label, "  %ld failures (orange box)", phi);
    print_box(label, w);
    std::printf("  relative overhead: undisturbed %+.1f%%, with failures %+.1f%%\n\n",
                repro::overhead_pct(u.median, ref.mean),
                repro::overhead_pct(w.median, ref.mean));
    std::fflush(stdout);
  }
  return 0;
}

}  // namespace rpcg::bench
