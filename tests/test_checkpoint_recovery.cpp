// The checkpoint engine (ResilientPcg's kCheckpointRestart method, the
// algorithm-based checkpoint-recovery of arXiv:2007.04066): exhaustive
// failed-node subsets at small scale must restore to the exact checkpointed
// iterate — the redone trajectory, final iterate, and residual-deviation
// metric of a failed run are byte-identical to the unfailed run's — plus the
// cost-model contract (memory vs disk media, explicit per-element knobs land
// in the kCheckpoint/kRecovery clocks exactly) and the unrecoverable edge.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <vector>

#include "core/backup_store.hpp"  // UnrecoverableFailure
#include "core/resilient_pcg.hpp"
#include "solver/pcg.hpp"
#include "sparse/generators.hpp"
#include "test_util.hpp"

namespace rpcg {
namespace {

using testing::max_diff;
using testing::random_vector;

struct Fixture {
  CsrMatrix a;
  Partition part;
  DistMatrix dist;
  DistVector b;
  std::vector<double> x_ref;
  std::unique_ptr<Preconditioner> m;

  Fixture(int nodes, std::uint64_t seed)
      : a(poisson2d_5pt(9, 8)),
        part(Partition::block_rows(a.rows(), nodes)),
        dist(DistMatrix::distribute(a, part)),
        b(part),
        x_ref(random_vector(a.rows(), seed)),
        m(make_preconditioner("bjacobi", a, part)) {
    std::vector<double> bg(static_cast<std::size_t>(a.rows()));
    a.spmv(x_ref, bg);
    b.set_global(bg);
  }

  engine::SolveReport run(const ResilientPcgOptions& opts,
                          const FailureSchedule& schedule,
                          std::vector<double>& solution) const {
    Cluster cluster(part, CommParams{});
    ResilientPcg solver(cluster, a, dist, *m, opts);
    DistVector x(part);
    const auto res = solver.solve(b, x, schedule);
    solution = x.gather_global();
    return res;
  }
};

ResilientPcgOptions base_opts(int interval) {
  ResilientPcgOptions opts;
  opts.pcg.rtol = 1e-9;
  opts.method = RecoveryMethod::kCheckpointRestart;
  opts.checkpoint_interval = interval;
  return opts;
}

std::vector<std::vector<NodeId>> proper_subsets(int n) {
  std::vector<std::vector<NodeId>> out;
  for (int mask = 1; mask < (1 << n) - 1; ++mask) {
    std::vector<NodeId> set;
    for (int i = 0; i < n; ++i)
      if ((mask >> i) & 1) set.push_back(i);
    out.push_back(std::move(set));
  }
  return out;
}

TEST(CheckpointRecovery, FailureFreeMatchesPlainPcgBitForBit) {
  const Fixture fx(6, 17);
  std::vector<double> x_ckpt;
  const auto res = fx.run(base_opts(5), {}, x_ckpt);
  ASSERT_TRUE(res.converged);
  EXPECT_TRUE(res.recoveries.empty());
  EXPECT_EQ(res.rolled_back_iterations, 0);
  EXPECT_GE(res.checkpoints_written, 2);
  EXPECT_LT(max_diff(x_ckpt, fx.x_ref), 1e-6);

  // The iteration arithmetic is the reference recurrence: only the
  // checkpoint-phase clock may differ from plain PCG.
  Cluster cluster(fx.part, CommParams{});
  DistVector x(fx.part);
  PcgOptions popts;
  popts.rtol = 1e-9;
  const auto ref = pcg_solve(cluster, fx.dist, *fx.m, fx.b, x, popts);
  ASSERT_TRUE(ref.converged);
  EXPECT_EQ(res.iterations, ref.iterations);
  EXPECT_EQ(res.rel_residual, ref.rel_residual);
  EXPECT_EQ(res.solver_residual_norm, ref.solver_residual_norm);
  const std::vector<double> x_pcg = x.gather_global();
  ASSERT_EQ(x_ckpt.size(), x_pcg.size());
  for (std::size_t i = 0; i < x_ckpt.size(); ++i)
    ASSERT_EQ(x_ckpt[i], x_pcg[i]) << "entry " << i;
  EXPECT_GT(res.sim_time_phase[static_cast<std::size_t>(Phase::kCheckpoint)],
            0.0);
  EXPECT_EQ(ref.sim_time_phase[static_cast<std::size_t>(Phase::kCheckpoint)],
            0.0);
}

// Satellite battery of the PR: *every* proper non-empty failed-node subset
// (any subset with a survivor, 2^6 - 2 of them at N = 6) must restore to
// the exact checkpointed iterate — final x bitwise equal to the unfailed
// run, residual-deviation metric (Eqn. 7) bitwise equal, and exactly the
// redone-iteration count the rollback predicts.
TEST(CheckpointRecovery, ExhaustiveSubsetsRestoreTheExactCheckpoint) {
  const Fixture fx(6, 31);
  const int interval = 5;
  const int fail_at = 7;  // rollback target: iteration 5

  std::vector<double> x_unfailed;
  const auto ref = fx.run(base_opts(interval), {}, x_unfailed);
  ASSERT_TRUE(ref.converged);
  ASSERT_GT(ref.iterations, fail_at);

  int count = 0;
  for (const auto& failed : proper_subsets(6)) {
    FailureSchedule schedule;
    schedule.add({fail_at, failed, false});
    std::vector<double> x_failed;
    const auto res = fx.run(base_opts(interval), schedule, x_failed);
    ASSERT_TRUE(res.converged) << "failed-set mask " << count;
    ASSERT_EQ(res.recoveries.size(), 1u);
    EXPECT_EQ(res.recoveries[0].iteration, fail_at);
    EXPECT_EQ(res.recoveries[0].nodes, failed);
    EXPECT_EQ(res.recoveries[0].stats.psi, static_cast<int>(failed.size()));
    EXPECT_EQ(res.recoveries[0].stats.lost_rows,
              static_cast<Index>(fx.part.rows_of_set(failed).size()));
    // Global rollback: everyone redoes fail_at - interval iterations.
    EXPECT_EQ(res.rolled_back_iterations, fail_at - interval);
    EXPECT_EQ(res.iterations, ref.iterations + (fail_at - interval));
    // The restored state is bit-exact, so the redone trajectory is the
    // unfailed trajectory: identical final iterate and residual metrics.
    EXPECT_EQ(res.rel_residual, ref.rel_residual);
    EXPECT_EQ(res.delta_metric, ref.delta_metric);
    ASSERT_EQ(x_failed.size(), x_unfailed.size());
    for (std::size_t i = 0; i < x_failed.size(); ++i)
      ASSERT_EQ(x_failed[i], x_unfailed[i])
          << "entry " << i << ", failed-set mask " << count;
    ++count;
  }
  EXPECT_EQ(count, 62);  // 2^6 - 2 proper non-empty subsets
}

TEST(CheckpointRecovery, LosingTheWholeClusterIsUnrecoverable) {
  const Fixture fx(6, 31);
  FailureSchedule schedule;
  schedule.add({4, {0, 1, 2, 3, 4, 5}, false});
  Cluster cluster(fx.part, CommParams{});
  ResilientPcg solver(cluster, fx.a, fx.dist, *fx.m, base_opts(5));
  DistVector x(fx.part);
  EXPECT_THROW((void)solver.solve(fx.b, x, schedule), UnrecoverableFailure);
}

TEST(CheckpointRecovery, DiskCostsMoreThanMemoryWithIdenticalIterates) {
  const Fixture fx(6, 47);
  FailureSchedule schedule;
  schedule.add({7, {2, 4}, false});

  ResilientPcgOptions mem = base_opts(5);
  mem.checkpoint.medium = CheckpointMedium::kMemory;
  ResilientPcgOptions disk = base_opts(5);
  disk.checkpoint.medium = CheckpointMedium::kDisk;

  std::vector<double> x_mem, x_disk;
  const auto rm = fx.run(mem, schedule, x_mem);
  const auto rd = fx.run(disk, schedule, x_disk);
  ASSERT_TRUE(rm.converged);
  ASSERT_TRUE(rd.converged);

  // The medium is a pure cost-model knob: identical arithmetic...
  EXPECT_EQ(rm.iterations, rd.iterations);
  EXPECT_EQ(rm.rel_residual, rd.rel_residual);
  ASSERT_EQ(x_mem.size(), x_disk.size());
  for (std::size_t i = 0; i < x_mem.size(); ++i)
    ASSERT_EQ(x_mem[i], x_disk[i]) << "entry " << i;
  // ...but disk rates (storage latency + storage bandwidth) charge more in
  // both the write and the rollback-read phases.
  EXPECT_GT(rd.sim_time_phase[static_cast<std::size_t>(Phase::kCheckpoint)],
            rm.sim_time_phase[static_cast<std::size_t>(Phase::kCheckpoint)]);
  EXPECT_GT(rd.sim_time_phase[static_cast<std::size_t>(Phase::kRecovery)],
            rm.sim_time_phase[static_cast<std::size_t>(Phase::kRecovery)]);
}

TEST(CheckpointRecovery, ReportCarriesTheResolvedCostModel) {
  const Fixture fx(6, 47);
  ResilientPcgOptions opts = base_opts(4);
  opts.checkpoint.medium = CheckpointMedium::kDisk;
  opts.checkpoint.read_per_element_s = 2e-6;  // explicit; rest from defaults

  Cluster cluster(fx.part, CommParams{});
  ResilientPcg solver(cluster, fx.a, fx.dist, *fx.m, opts);
  const CheckpointCostModel costs = opts.checkpoint.resolved(cluster.comm());
  DistVector x(fx.part);
  const engine::SolveReport res = solver.solve(fx.b, x, {});
  ASSERT_TRUE(res.checkpoint.has_value());
  EXPECT_EQ(res.checkpoint->medium, "disk");
  EXPECT_EQ(res.checkpoint->interval, 4);
  EXPECT_EQ(res.checkpoint->read_per_element_s, 2e-6);
  EXPECT_EQ(res.checkpoint->write_per_element_s, costs.write_per_element_s);
  EXPECT_GT(res.checkpoint->write_per_element_s, 0.0);
  EXPECT_EQ(res.checkpoint->access_latency_s, costs.access_latency_s);
  EXPECT_FALSE(res.scenario.has_value());  // the engine never sees one
}

TEST(CheckpointRecovery, ExplicitCostKnobsLandInTheCheckpointClockExactly) {
  const Fixture fx(6, 47);
  ResilientPcgOptions opts = base_opts(4);
  opts.checkpoint.write_per_element_s = 1e-3;
  opts.checkpoint.access_latency_s = 0.5;

  std::vector<double> x_sol;
  const auto res = fx.run(opts, {}, x_sol);
  ASSERT_TRUE(res.converged);
  ASSERT_GE(res.checkpoints_written, 2);
  // All nodes write concurrently: one save costs latency + 3 blocks of the
  // largest node at the explicit per-element charge.
  const double per_save =
      0.5 + 3.0 * static_cast<double>(fx.part.max_block_size()) * 1e-3;
  EXPECT_DOUBLE_EQ(
      res.sim_time_phase[static_cast<std::size_t>(Phase::kCheckpoint)],
      res.checkpoints_written * per_save);
}

TEST(CheckpointRecovery, ReadCostKnobChargesTheRollbackRead) {
  const Fixture fx(6, 53);
  FailureSchedule schedule;
  schedule.add({6, {1}, false});

  const auto run_with_read_cost = [&](double read_per_element) {
    ResilientPcgOptions opts = base_opts(5);
    opts.checkpoint.read_per_element_s = read_per_element;
    std::vector<double> x_sol;
    return fx.run(opts, schedule, x_sol)
        .sim_time_phase[static_cast<std::size_t>(Phase::kRecovery)];
  };
  const double cheap = run_with_read_cost(1e-4);
  const double costly = run_with_read_cost(2e-4);
  // One restore of 3 blocks: the recovery-phase delta is exactly the
  // per-element delta times the restored elements.
  EXPECT_NEAR(costly - cheap,
              3.0 * static_cast<double>(fx.part.max_block_size()) * 1e-4,
              1e-12);
}

TEST(CheckpointRecovery, OverlappingChainMergesIntoOneRollback) {
  const Fixture fx(6, 59);
  FailureSchedule schedule;
  schedule.add({7, {1}, false});
  schedule.add({7, {3, 4}, true});  // strikes during the rollback read

  std::vector<double> x_unfailed;
  const auto ref = fx.run(base_opts(5), {}, x_unfailed);
  ASSERT_TRUE(ref.converged);

  std::vector<double> x_failed;
  const auto res = fx.run(base_opts(5), schedule, x_failed);
  ASSERT_TRUE(res.converged);
  ASSERT_EQ(res.recoveries.size(), 1u);  // merged into one rollback
  EXPECT_EQ(res.recoveries[0].nodes, (std::vector<NodeId>{1, 3, 4}));
  EXPECT_EQ(res.rolled_back_iterations, 2);
  ASSERT_EQ(x_failed.size(), x_unfailed.size());
  for (std::size_t i = 0; i < x_failed.size(); ++i)
    ASSERT_EQ(x_failed[i], x_unfailed[i]) << "entry " << i;
}

TEST(CheckpointCostModel, NegativeFieldsResolveToMediumDefaults) {
  const CommParams params{};
  const CommModel comm(params);

  CheckpointCostModel mem;  // all charges default to -1
  mem.medium = CheckpointMedium::kMemory;
  const CheckpointCostModel rm = mem.resolved(comm);
  EXPECT_EQ(rm.write_per_element_s, params.per_double_s);
  EXPECT_EQ(rm.read_per_element_s, params.per_double_s);
  EXPECT_EQ(rm.access_latency_s, params.latency_s);

  CheckpointCostModel disk;
  disk.medium = CheckpointMedium::kDisk;
  const CheckpointCostModel rd = disk.resolved(comm);
  EXPECT_EQ(rd.write_per_element_s, 1.0 / params.storage_doubles_per_s);
  EXPECT_EQ(rd.read_per_element_s, 1.0 / params.storage_doubles_per_s);
  EXPECT_EQ(rd.access_latency_s, params.storage_latency_s);

  // Explicit values survive resolution untouched.
  CheckpointCostModel custom;
  custom.medium = CheckpointMedium::kDisk;
  custom.write_per_element_s = 7e-7;
  const CheckpointCostModel rc = custom.resolved(comm);
  EXPECT_EQ(rc.write_per_element_s, 7e-7);
  EXPECT_EQ(rc.read_per_element_s, 1.0 / params.storage_doubles_per_s);
  EXPECT_DOUBLE_EQ(rc.write_cost(comm, 100),
                   params.storage_latency_s + 100 * 7e-7);
}

}  // namespace
}  // namespace rpcg
