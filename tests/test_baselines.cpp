// The two baseline recovery techniques the paper positions ESR against:
// checkpoint/restart and Langou-style interpolation-restart.
#include <gtest/gtest.h>

#include "core/resilient_pcg.hpp"
#include "sparse/generators.hpp"
#include "test_util.hpp"

namespace rpcg {
namespace {

using testing::max_diff;
using testing::random_vector;

struct Problem {
  CsrMatrix a = poisson2d_5pt(14, 14);
  Partition part = Partition::block_rows(a.rows(), 8);
  DistVector b{part};
  std::vector<double> x_ref = random_vector(a.rows(), 77);

  Problem() {
    std::vector<double> bg(static_cast<std::size_t>(a.rows()));
    a.spmv(x_ref, bg);
    b.set_global(bg);
  }
};

ResilientPcgOptions options_for(RecoveryMethod method, int interval = 10) {
  ResilientPcgOptions o;
  o.pcg.rtol = 1e-9;
  o.method = method;
  o.checkpoint_interval = interval;
  return o;
}

TEST(CheckpointRestart, RollsBackAndConverges) {
  Problem p;
  const auto m = make_preconditioner("bjacobi", p.a, p.part);
  Cluster cluster(p.part, CommParams{});
  ResilientPcg solver(cluster, p.a, *m,
                      options_for(RecoveryMethod::kCheckpointRestart, 10));
  DistVector x(p.part);
  const auto res =
      solver.solve(p.b, x, FailureSchedule::contiguous(17, 2, 2));
  ASSERT_TRUE(res.converged);
  EXPECT_LT(max_diff(x.gather_global(), p.x_ref), 1e-6);
  // Failure at iteration 17 with interval 10: rollback to 10 redoes 7.
  EXPECT_EQ(res.rolled_back_iterations, 7);
  EXPECT_GT(res.checkpoints_written, 1);
  EXPECT_GT(res.sim_time_phase[static_cast<int>(Phase::kCheckpoint)], 0.0);
  EXPECT_GT(res.sim_time_phase[static_cast<int>(Phase::kRecovery)], 0.0);
  ASSERT_EQ(res.recoveries.size(), 1u);
}

TEST(CheckpointRestart, FailureFreeRunStillPaysCheckpointCost) {
  Problem p;
  const auto m = make_preconditioner("bjacobi", p.a, p.part);

  Cluster c_ref(p.part, CommParams{});
  ResilientPcg ref(c_ref, p.a, *m, options_for(RecoveryMethod::kNone));
  DistVector x1(p.part);
  const auto res_ref = ref.solve(p.b, x1, {});

  Cluster c_ckpt(p.part, CommParams{});
  ResilientPcg ckpt(c_ckpt, p.a, *m,
                    options_for(RecoveryMethod::kCheckpointRestart, 5));
  DistVector x2(p.part);
  const auto res_ckpt = ckpt.solve(p.b, x2, {});

  ASSERT_TRUE(res_ref.converged);
  ASSERT_TRUE(res_ckpt.converged);
  EXPECT_EQ(res_ref.iterations, res_ckpt.iterations);
  // This is C/R's fundamental weakness vs ESR (Sec. 2.2 of the paper):
  // overhead accrues even without failures.
  EXPECT_GT(res_ckpt.sim_time, res_ref.sim_time);
  EXPECT_GT(res_ckpt.checkpoints_written, 0);
}

TEST(CheckpointRestart, RepeatedFailuresReplayCorrectly) {
  Problem p;
  const auto m = make_preconditioner("bjacobi", p.a, p.part);
  Cluster cluster(p.part, CommParams{});
  ResilientPcg solver(cluster, p.a, *m,
                      options_for(RecoveryMethod::kCheckpointRestart, 8));
  DistVector x(p.part);
  FailureSchedule schedule;
  schedule.add({9, {0}, false});
  schedule.add({20, {5, 6}, false});
  const auto res = solver.solve(p.b, x, schedule);
  ASSERT_TRUE(res.converged);
  EXPECT_EQ(res.recoveries.size(), 2u);
  EXPECT_LT(max_diff(x.gather_global(), p.x_ref), 1e-6);
}

TEST(CheckpointRestart, IntervalBelowOneIsRejected) {
  Problem p;
  const auto m = make_preconditioner("bjacobi", p.a, p.part);
  Cluster cluster(p.part, CommParams{});
  EXPECT_THROW(ResilientPcg(cluster, p.a, *m,
                            options_for(RecoveryMethod::kCheckpointRestart, 0)),
               std::invalid_argument);
}

TEST(InterpolationRestart, ConvergesButLosesKrylovProgress) {
  Problem p;
  const auto m = make_preconditioner("bjacobi", p.a, p.part);

  int esr_iters = 0;
  {
    ResilientPcgOptions o;
    o.pcg.rtol = 1e-9;
    o.method = RecoveryMethod::kEsr;
    o.phi = 2;
    Cluster cluster(p.part, CommParams{});
    ResilientPcg solver(cluster, p.a, *m, o);
    DistVector x(p.part);
    const auto res = solver.solve(p.b, x, FailureSchedule::contiguous(15, 2, 2));
    ASSERT_TRUE(res.converged);
    esr_iters = res.iterations;
  }

  {
    Cluster cluster(p.part, CommParams{});
    ResilientPcg solver(cluster, p.a, *m,
                        options_for(RecoveryMethod::kInterpolationRestart));
    DistVector x(p.part);
    const auto res = solver.solve(p.b, x, FailureSchedule::contiguous(15, 2, 2));
    ASSERT_TRUE(res.converged);
    EXPECT_LT(max_diff(x.gather_global(), p.x_ref), 1e-6);
    ASSERT_EQ(res.recoveries.size(), 1u);
    // The restart discards the Krylov space: more total iterations than the
    // exact reconstruction needs.
    EXPECT_GT(res.iterations, esr_iters);
  }
}

TEST(InterpolationRestart, ZeroFailureFreeOverhead) {
  Problem p;
  const auto m = make_preconditioner("bjacobi", p.a, p.part);

  Cluster c_ref(p.part, CommParams{});
  ResilientPcg ref(c_ref, p.a, *m, options_for(RecoveryMethod::kNone));
  DistVector x1(p.part);
  const auto res_ref = ref.solve(p.b, x1, {});

  Cluster c_li(p.part, CommParams{});
  ResilientPcg li(c_li, p.a, *m,
                  options_for(RecoveryMethod::kInterpolationRestart));
  DistVector x2(p.part);
  const auto res_li = li.solve(p.b, x2, {});

  // Without failures the interpolation-restart solver is exactly reference
  // PCG (no redundancy machinery at all).
  EXPECT_DOUBLE_EQ(res_ref.sim_time, res_li.sim_time);
  EXPECT_EQ(res_ref.iterations, res_li.iterations);
}

TEST(Baselines, NoneMethodThrowsOnFailure) {
  Problem p;
  const auto m = make_preconditioner("bjacobi", p.a, p.part);
  Cluster cluster(p.part, CommParams{});
  ResilientPcg solver(cluster, p.a, *m, options_for(RecoveryMethod::kNone));
  DistVector x(p.part);
  EXPECT_THROW((void)solver.solve(p.b, x, FailureSchedule::contiguous(3, 0, 1)),
               UnrecoverableFailure);
}

TEST(Baselines, PhiRejectedForNonEsrMethods) {
  Problem p;
  const auto m = make_preconditioner("bjacobi", p.a, p.part);
  Cluster cluster(p.part, CommParams{});
  ResilientPcgOptions o = options_for(RecoveryMethod::kCheckpointRestart);
  o.phi = 2;
  EXPECT_THROW(ResilientPcg(cluster, p.a, *m, o), std::invalid_argument);
  ResilientPcgOptions o2;
  o2.method = RecoveryMethod::kEsr;
  o2.phi = 0;
  EXPECT_THROW(ResilientPcg(cluster, p.a, *m, o2), std::invalid_argument);
}

}  // namespace
}  // namespace rpcg
