// TwinCG-style dual redundancy (arXiv:1605.04580 adaptation), ResilientPcg
// with RecoveryMethod::kTwin: forward recovery from the buddy's mirror keeps
// the trajectory — a failed run's final iterate AND iteration count are
// byte-identical to the unfailed run's — while a simultaneous buddy-pair
// loss is provably uncoverable and throws. The scenario generators'
// forbid_pair_shift knob produces exactly the schedules twin redundancy
// survives.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/backup_store.hpp"  // UnrecoverableFailure
#include "core/failure_scenario.hpp"
#include "core/resilient_pcg.hpp"
#include "sparse/generators.hpp"
#include "test_util.hpp"

namespace rpcg {
namespace {

using testing::max_diff;
using testing::random_vector;

ResilientPcgOptions twin_options() {
  ResilientPcgOptions opts;
  opts.method = RecoveryMethod::kTwin;
  return opts;
}

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

  engine::SolveReport run(
      const FailureSchedule& schedule, std::vector<double>& solution,
      int max_iterations = PcgOptions{}.max_iterations) const {
    Cluster cluster(part, CommParams{});
    ResilientPcgOptions opts = twin_options();
    opts.pcg.rtol = 1e-9;
    opts.pcg.max_iterations = max_iterations;
    ResilientPcg solver(cluster, a, dist, *m, opts);
    DistVector x(part);
    const auto res = solver.solve(b, x, schedule);
    solution = x.gather_global();
    return res;
  }
};

TEST(TwinPcg, BuddyMapIsAnInvolutionWithoutFixedPoints) {
  for (const int n : {2, 4, 8, 10}) {
    for (NodeId i = 0; i < n; ++i) {
      const NodeId buddy = ResilientPcg::buddy_of(i, n);
      EXPECT_NE(buddy, i) << "n " << n;
      EXPECT_EQ(ResilientPcg::buddy_of(buddy, n), i) << "n " << n;
    }
  }
}

TEST(TwinPcg, RedundancyOverheadIsOneBuddyPushOfThreeBlocks) {
  const Fixture fx(8, 11);
  Cluster cluster(fx.part, CommParams{});
  ResilientPcg solver(cluster, fx.a, fx.dist, *fx.m, twin_options());
  double expected = 0.0;
  for (NodeId i = 0; i < 8; ++i)
    expected = std::max(expected,
                        cluster.comm().message_cost(3 * fx.part.size(i)));
  EXPECT_GT(expected, 0.0);
  EXPECT_DOUBLE_EQ(solver.redundancy_overhead_per_iteration(), expected);
}

// The mirror is pushed after initialization and after every direction
// update. A converged run stops before its last update, so it pushes once
// per iteration; a run stopped by max_iterations pushes once more.
TEST(TwinPcg, MirrorPushFollowsInitializationAndEveryDirectionUpdate) {
  const Fixture fx(8, 11);
  Cluster cluster(fx.part, CommParams{});
  const double push =
      ResilientPcg(cluster, fx.a, fx.dist, *fx.m, twin_options())
          .redundancy_overhead_per_iteration();
  const auto pushes = [&](const engine::SolveReport& res) {
    return res.sim_time_phase[static_cast<std::size_t>(Phase::kRedundancy)] /
           push;
  };
  std::vector<double> x_sol;
  const auto converged = fx.run({}, x_sol);
  ASSERT_TRUE(converged.converged);
  ASSERT_GT(converged.iterations, 7);
  EXPECT_NEAR(pushes(converged), converged.iterations, 1e-9);

  const auto stopped = fx.run({}, x_sol, 7);
  ASSERT_FALSE(stopped.converged);
  ASSERT_EQ(stopped.iterations, 7);
  EXPECT_NEAR(pushes(stopped), 8.0, 1e-9);
}

TEST(TwinPcg, OddNodeCountIsRejected) {
  const Fixture fx(8, 11);
  const Partition odd = Partition::block_rows(fx.a.rows(), 7);
  const DistMatrix dist = DistMatrix::distribute(fx.a, odd);
  const auto m = make_preconditioner("bjacobi", fx.a, odd);
  Cluster cluster(odd, CommParams{});
  EXPECT_THROW(ResilientPcg(cluster, fx.a, dist, *m, twin_options()),
               std::invalid_argument);
}

TEST(TwinPcg, ForwardRecoveryKeepsTheTrajectoryBitForBit) {
  const Fixture fx(8, 11);
  std::vector<double> x_unfailed;
  const auto ref = fx.run({}, x_unfailed);
  ASSERT_TRUE(ref.converged);
  EXPECT_LT(max_diff(x_unfailed, fx.x_ref), 1e-6);

  FailureSchedule schedule;
  schedule.add({5, {2}, false});
  schedule.add({9, {1, 6}, false});  // buddies are 5 and 2 — not in the set

  std::vector<double> x_failed;
  const auto res = fx.run(schedule, x_failed);
  ASSERT_TRUE(res.converged);
  // Forward recovery loses no iterations and redoes none: the twin's state
  // is the exact loop-top state, so count AND iterate match bit-for-bit.
  EXPECT_EQ(res.iterations, ref.iterations);
  EXPECT_EQ(res.rel_residual, ref.rel_residual);
  EXPECT_EQ(res.rolled_back_iterations, 0);
  ASSERT_EQ(res.recoveries.size(), 2u);
  for (const RecoveryRecord& rec : res.recoveries) {
    EXPECT_EQ(rec.stats.psi, static_cast<int>(rec.nodes.size()));
    const Index lost =
        static_cast<Index>(fx.part.rows_of_set(rec.nodes).size());
    EXPECT_EQ(rec.stats.lost_rows, lost);
    // The replacement copies the three mirrored blocks {x, r, p}.
    EXPECT_EQ(rec.stats.gathered_elements, 3 * lost);
    EXPECT_EQ(rec.stats.local_solve_iterations, 0);  // no reconstruction
  }
  ASSERT_EQ(x_failed.size(), x_unfailed.size());
  for (std::size_t i = 0; i < x_failed.size(); ++i)
    ASSERT_EQ(x_failed[i], x_unfailed[i]) << "entry " << i;
  // The failure-free redundancy clock is charged every iteration; the
  // failed run additionally pays recovery.
  EXPECT_GT(res.sim_time_phase[static_cast<std::size_t>(Phase::kRedundancy)],
            0.0);
  EXPECT_GT(res.sim_time_phase[static_cast<std::size_t>(Phase::kRecovery)],
            0.0);
  EXPECT_EQ(ref.sim_time_phase[static_cast<std::size_t>(Phase::kRecovery)],
            0.0);
}

TEST(TwinPcg, SimultaneousBuddyPairLossIsUncoverable) {
  const Fixture fx(8, 23);
  FailureSchedule schedule;
  schedule.add({4, {1, 5}, false});  // 5 == buddy_of(1, 8)
  std::vector<double> x_sol;
  EXPECT_THROW((void)fx.run(schedule, x_sol), UnrecoverableFailure);

  // The same pair lost across an overlapping chain (the mirror of the first
  // victim lives on the not-yet-resynced buddy) is equally uncoverable.
  FailureSchedule chain;
  chain.add({4, {1}, false});
  chain.add({4, {5}, true});
  EXPECT_THROW((void)fx.run(chain, x_sol), UnrecoverableFailure);
}

TEST(TwinPcg, SurvivesRepeatedFailuresOfTheSameNode) {
  const Fixture fx(8, 37);
  std::vector<double> x_unfailed;
  const auto ref = fx.run({}, x_unfailed);
  ASSERT_TRUE(ref.converged);

  // The mirror re-arms after every recovery, so a correlated scenario (the
  // same set failing again and again) stays coverable indefinitely.
  FailureScenarioConfig cfg;
  cfg.kind = ScenarioKind::kCorrelated;
  cfg.seed = 3;
  cfg.events = 4;
  cfg.horizon = 15;
  cfg.forbid_pair_shift = 4;
  const FailureSchedule schedule = generate_scenario(cfg, 8);
  ASSERT_EQ(schedule.events().size(), 4u);

  std::vector<double> x_failed;
  const auto res = fx.run(schedule, x_failed);
  ASSERT_TRUE(res.converged);
  EXPECT_EQ(res.recoveries.size(), 4u);
  EXPECT_EQ(res.iterations, ref.iterations);
  ASSERT_EQ(x_failed.size(), x_unfailed.size());
  for (std::size_t i = 0; i < x_failed.size(); ++i)
    ASSERT_EQ(x_failed[i], x_unfailed[i]) << "entry " << i;
}

TEST(TwinPcg, GeneratedDuringRecoveryChainsRespectTheBuddyConstraint) {
  const Fixture fx(8, 41);
  FailureScenarioConfig cfg;
  cfg.kind = ScenarioKind::kDuringRecovery;
  cfg.events = 2;
  cfg.max_nodes_per_event = 2;
  cfg.horizon = 10;
  cfg.forbid_pair_shift = 4;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    cfg.seed = seed;
    const FailureSchedule schedule = generate_scenario(cfg, 8);
    std::vector<double> x_sol;
    const auto res = fx.run(schedule, x_sol);
    ASSERT_TRUE(res.converged) << "seed " << seed;
    ASSERT_EQ(res.recoveries.size(), 1u);  // the chain merges
    EXPECT_LT(max_diff(x_sol, fx.x_ref), 1e-6) << "seed " << seed;
  }
}

}  // namespace
}  // namespace rpcg
