// The typed event-hook API: on_iteration / on_failure_injected /
// on_recovery_complete / on_checkpoint fire at the documented points, for
// every engine family.
#include <gtest/gtest.h>

#include "core/resilient_pcg.hpp"
#include "engine/registry.hpp"
#include "sparse/generators.hpp"

namespace rpcg {
namespace {

engine::Problem small_poisson() {
  return engine::ProblemBuilder()
      .matrix(poisson2d_5pt(16, 16))
      .nodes(8)
      .preconditioner("bjacobi")
      .build();
}

TEST(SolverEvents, IterationHookFiresOncePerCompletedIteration) {
  engine::Problem problem = small_poisson();
  engine::SolverConfig c;
  int calls = 0;
  int last = 0;
  c.events.on_iteration = [&](const IterationSnapshot& snap) {
    ++calls;
    EXPECT_EQ(snap.iteration, calls);
    last = snap.iteration;
    EXPECT_NE(snap.x, nullptr);
    EXPECT_NE(snap.r, nullptr);
  };
  DistVector x = problem.make_x();
  const auto rep = engine::SolverRegistry::instance()
                       .create("resilient-pcg", c)
                       ->solve(problem, x);
  EXPECT_EQ(calls, rep.iterations);
  EXPECT_EQ(last, rep.iterations);
}

TEST(SolverEvents, FailureAndRecoveryHooksFireOnEsrRecovery) {
  engine::Problem problem = small_poisson();
  engine::SolverConfig c;
  c.recovery = RecoveryMethod::kEsr;
  c.phi = 2;
  std::vector<FailureEvent> failures;
  std::vector<RecoveryRecord> recoveries;
  c.events.on_failure_injected = [&](const FailureEvent& ev) {
    failures.push_back(ev);
  };
  c.events.on_recovery_complete = [&](const RecoveryRecord& rec) {
    recoveries.push_back(rec);
  };
  DistVector x = problem.make_x();
  const auto rep = engine::SolverRegistry::instance()
                       .create("resilient-pcg", c)
                       ->solve(problem, x,
                               FailureSchedule::contiguous(6, 1, 2));
  EXPECT_TRUE(rep.converged);
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_EQ(failures[0].iteration, 6);
  EXPECT_EQ(failures[0].nodes, (std::vector<NodeId>{1, 2}));
  ASSERT_EQ(recoveries.size(), 1u);
  EXPECT_EQ(recoveries[0].iteration, 6);
  EXPECT_EQ(recoveries[0].stats.psi, 2);
  // The solver's own record agrees with what the hook saw.
  ASSERT_EQ(rep.recoveries.size(), 1u);
  EXPECT_EQ(rep.recoveries[0].nodes, recoveries[0].nodes);
}

TEST(SolverEvents, CheckpointHookFiresPerWrite) {
  engine::Problem problem = small_poisson();
  engine::SolverConfig c;
  c.recovery = RecoveryMethod::kCheckpointRestart;
  c.checkpoint_interval = 10;
  std::vector<CheckpointEvent> checkpoints;
  c.events.on_checkpoint = [&](const CheckpointEvent& ev) {
    checkpoints.push_back(ev);
  };
  DistVector x = problem.make_x();
  const auto rep = engine::SolverRegistry::instance()
                       .create("resilient-pcg", c)
                       ->solve(problem, x);
  EXPECT_TRUE(rep.converged);
  ASSERT_EQ(static_cast<int>(checkpoints.size()), rep.checkpoints_written);
  ASSERT_FALSE(checkpoints.empty());
  EXPECT_EQ(checkpoints[0].iteration, 0);
  EXPECT_EQ(checkpoints[0].index, 0);
  for (std::size_t i = 1; i < checkpoints.size(); ++i) {
    EXPECT_EQ(checkpoints[i].index, static_cast<int>(i));
    EXPECT_EQ(checkpoints[i].iteration - checkpoints[i - 1].iteration, 10);
  }
}

TEST(SolverEvents, HooksFireForBicgstabAndStationary) {
  engine::Problem problem = small_poisson();
  for (const std::string name : {"resilient-bicgstab", "stationary"}) {
    engine::SolverConfig c;
    c.rtol = 1e-6;
    c.phi = 2;
    if (name == "stationary") c.omega = 0.9;
    int iterations = 0, failures = 0, recoveries = 0;
    c.events.on_iteration = [&](const IterationSnapshot&) { ++iterations; };
    c.events.on_failure_injected = [&](const FailureEvent&) { ++failures; };
    c.events.on_recovery_complete = [&](const RecoveryRecord&) {
      ++recoveries;
    };
    DistVector x = problem.make_x();
    const auto rep = engine::SolverRegistry::instance()
                         .create(name, c)
                         ->solve(problem, x,
                                 FailureSchedule::contiguous(3, 4, 1));
    EXPECT_TRUE(rep.converged) << name;
    EXPECT_EQ(iterations, rep.iterations) << name;
    EXPECT_EQ(failures, 1) << name;
    EXPECT_EQ(recoveries, 1) << name;
  }
}

}  // namespace
}  // namespace rpcg
