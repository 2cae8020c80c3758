// Context for the paper's related-work positioning (Sec. 1.2/2.2): ESR vs
// the checkpoint/restart and interpolation-restart baselines on the same
// failure scenario — failure-free overhead, time with psi failures, and
// iterations to convergence. Checkpoint/restart keeps its checkpoints on
// reliable storage (the disk medium), as the paper's C/R does.
//
// The second half is the checkpoint-vs-ESR crossover study: the same
// "checkpoint-recovery" solver, in memory, against ESR on one matrix,
// sweeping the per-element checkpoint charge across orders of magnitude.
// Cheap checkpoints beat ESR's per-iteration redundancy push; expensive ones
// lose to it. The study self-gates: if no cost multiplier flips the winner, the
// bench exits nonzero — the crossover IS the result.
#include <cstdio>
#include <vector>

#include "bench_support.hpp"
#include "core/checkpoint.hpp"

int main(int argc, char** argv) {
  using namespace rpcg;
  using namespace rpcg::bench;
  const CommonArgs args = CommonArgs::parse(argc, argv);
  const Options o(argc, argv);
  const int psi = static_cast<int>(o.get_int("psi", 3));
  const int ckpt_interval = static_cast<int>(o.get_int("ckpt-interval", 25));

  char title[160];
  std::snprintf(title, sizeof title,
                "Baseline comparison: ESR (phi = %d) vs checkpoint/restart "
                "(interval %d) vs interpolation-restart, psi = %d failures at "
                "center, 50%% progress",
                psi, ckpt_interval, psi);
  print_header(title, args);
  std::printf("%-4s %-22s %13s %13s %10s %12s\n", "ID", "method",
              "no-fail t [s]", "fail t [s]", "iters", "recovery[s]");

  for (const long idx : args.matrices) {
    const auto mat = repro::make_matrix(static_cast<int>(idx), args.scale);
    repro::ExperimentRunner runner(mat.matrix, args.config());
    const auto loc = repro::FailureLocation::kCenter;

    // ESR.
    {
      const auto nofail = runner.run_undisturbed(psi, 1);
      const auto fail = runner.run_with_failures(psi, psi, loc, 0.5, 2);
      std::printf("%-4s %-22s %13.4f %13.4f %10d %12.4f\n", mat.id.c_str(),
                  "esr", nofail.sim_time, fail.sim_time, fail.iterations,
                  fail.sim_time_phase[static_cast<int>(Phase::kRecovery)]);
    }
    // Checkpoint/restart on reliable storage.
    {
      engine::SolverConfig cfg = runner.base_config();
      cfg.checkpoint_interval = ckpt_interval;
      cfg.checkpoint.medium = CheckpointMedium::kDisk;
      const auto nofail = runner.run_solver("checkpoint-recovery", cfg, {}, 1);
      const auto fail = runner.run_solver(
          "checkpoint-recovery", cfg,
          FailureSchedule::contiguous(runner.failure_iteration(0.5),
                                      runner.first_rank(loc), psi),
          2);
      std::printf("%-4s %-22s %13.4f %13.4f %10d %12.4f\n", mat.id.c_str(),
                  "checkpoint-restart", nofail.sim_time, fail.sim_time,
                  fail.iterations,
                  fail.sim_time_phase[static_cast<int>(Phase::kRecovery)]);
    }
    // Interpolation-restart.
    {
      const auto nofail = runner.run_reference(1);  // zero failure-free overhead
      const auto fail = runner.run_baseline(
          RecoveryMethod::kInterpolationRestart, psi, loc, 0.5, 0, 2);
      std::printf("%-4s %-22s %13.4f %13.4f %10d %12.4f\n", mat.id.c_str(),
                  "interpolation-restart", nofail.sim_time, fail.sim_time,
                  fail.iterations,
                  fail.sim_time_phase[static_cast<int>(Phase::kRecovery)]);
    }
    std::fflush(stdout);
  }

  // ---- checkpoint-vs-ESR crossover study ---------------------------------
  // One matrix (the first requested), psi contiguous failures at the center
  // at 50% progress, the per-element checkpoint charge swept over orders of
  // magnitude from the interconnect's per-double cost. ESR's failed-run time
  // is constant across the sweep; the costed checkpoint-recovery solver's
  // time grows with the charge, so the winner must flip somewhere — the
  // bench self-gates on that flip existing.
  const long study_idx = args.matrices.front();
  const auto study_mat = repro::make_matrix(static_cast<int>(study_idx),
                                            args.scale);
  repro::ExperimentRunner study(study_mat.matrix, args.config());
  const double base_charge = args.config().comm.per_double_s;
  const std::vector<double> multipliers{1.0, 32.0, 1024.0, 32768.0,
                                        1048576.0};

  std::printf("\nCheckpoint-vs-ESR crossover (matrix %s, interval %d, "
              "in-memory medium): failed-run time [s]\n",
              study_mat.id.c_str(), ckpt_interval);
  std::printf("%-4s %-12s %13s %13s %10s\n", "psi", "cost-mult",
              "ckpt t [s]", "esr t [s]", "winner");

  bool crossover_found = false;
  for (const int study_psi : {1, 3}) {
    const auto esr = study.run_with_failures(study_psi, study_psi,
                                             repro::FailureLocation::kCenter,
                                             0.5, 2);
    FailureEvent ev;
    ev.iteration = study.failure_iteration(0.5);
    for (int k = 0; k < study_psi; ++k) {
      ev.nodes.push_back(study.first_rank(repro::FailureLocation::kCenter) +
                         k);
    }
    FailureSchedule schedule;
    schedule.add(ev);

    bool first_ckpt_wins = false;
    bool series_flipped = false;
    double flip_multiplier = 0.0;
    for (std::size_t i = 0; i < multipliers.size(); ++i) {
      engine::SolverConfig cfg = study.base_config();
      cfg.checkpoint_interval = ckpt_interval;
      cfg.checkpoint.medium = CheckpointMedium::kMemory;
      cfg.checkpoint.write_per_element_s = base_charge * multipliers[i];
      cfg.checkpoint.read_per_element_s = base_charge * multipliers[i];
      const auto ckpt =
          study.run_solver("checkpoint-recovery", cfg, schedule, 2);
      const bool ckpt_wins = ckpt.sim_time < esr.sim_time;
      if (i == 0) first_ckpt_wins = ckpt_wins;
      if (!series_flipped && ckpt_wins != first_ckpt_wins) {
        series_flipped = true;
        flip_multiplier = multipliers[i];
      }
      std::printf("%-4d %-12.0f %13.4f %13.4f %10s\n", study_psi,
                  multipliers[i], ckpt.sim_time, esr.sim_time,
                  ckpt_wins ? "ckpt" : "esr");
    }
    if (series_flipped) {
      crossover_found = true;
      std::printf("  -> psi = %d: winner flips from %s to %s at cost "
                  "multiplier %.0f\n",
                  study_psi, first_ckpt_wins ? "ckpt" : "esr",
                  first_ckpt_wins ? "esr" : "ckpt", flip_multiplier);
    } else {
      std::printf("  -> psi = %d: no crossover inside the sweep (%s always "
                  "wins)\n",
                  study_psi, first_ckpt_wins ? "ckpt" : "esr");
    }
    std::fflush(stdout);
  }

  if (!crossover_found) {
    std::fprintf(stderr,
                 "baseline_comparison: checkpoint-vs-ESR crossover missing — "
                 "no cost multiplier flips the winner in any psi series\n");
    return 1;
  }
  return 0;
}
