// The engine registries: every registered solver/preconditioner constructs
// and solves by string key, unknown keys fail listing the valid names, and
// the registry-routed engines reproduce the legacy entry points bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "engine/registry.hpp"
#include "solver/pcg.hpp"
#include "sparse/generators.hpp"

namespace rpcg {
namespace {

engine::Problem small_poisson(const std::string& precond = "bjacobi") {
  return engine::ProblemBuilder()
      .matrix(poisson2d_5pt(16, 16))
      .nodes(8)
      .preconditioner(precond)
      .build();
}

engine::SolverConfig loose_config() {
  engine::SolverConfig c;
  c.rtol = 1e-6;  // reachable by every family, including stationary sweeps
  c.max_iterations = 200000;
  return c;
}

TEST(SolverRegistry, ListsAllBuiltinFamilies) {
  const auto names = engine::SolverRegistry::instance().names();
  for (const char* expected :
       {"pcg", "resilient-pcg", "resilient-bicgstab", "stationary"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << "missing solver: " << expected;
  }
}

TEST(SolverRegistry, EveryRegisteredSolverSolvesAPoissonProblem) {
  engine::Problem problem = small_poisson();
  for (const std::string name :
       {"pcg", "resilient-pcg", "resilient-bicgstab", "stationary"}) {
    engine::SolverConfig c = loose_config();
    if (name == "stationary") c.omega = 0.9;  // damped Jacobi converges
    const auto solver = engine::SolverRegistry::instance().create(name, c);
    EXPECT_EQ(solver->name().substr(0, name.size()), name);
    DistVector x = problem.make_x();
    const engine::SolveReport rep = solver->solve(problem, x);
    EXPECT_TRUE(rep.converged) << name;
    EXPECT_GT(rep.iterations, 0) << name;
    EXPECT_LE(rep.rel_residual, c.rtol) << name;
    EXPECT_GT(rep.sim_time, 0.0) << name;
    // The solution of A x = A * ones is ones, for every family.
    for (const double v : x.gather_global()) EXPECT_NEAR(v, 1.0, 1e-4);
  }
}

TEST(SolverRegistry, UnknownSolverThrowsListingValidKeys) {
  try {
    (void)engine::SolverRegistry::instance().create("does-not-exist", {});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("does-not-exist"), std::string::npos);
    EXPECT_NE(msg.find("valid:"), std::string::npos);
    EXPECT_NE(msg.find("resilient-pcg"), std::string::npos);
    EXPECT_NE(msg.find("stationary"), std::string::npos);
  }
}

TEST(PreconditionerRegistry, EveryRegisteredNameConstructsAndSolves) {
  for (const char* name : {"none", "jacobi", "bjacobi", "ssor", "ic0-split"}) {
    ASSERT_TRUE(engine::PreconditionerRegistry::instance().contains(name));
    engine::Problem problem = small_poisson(name);
    const auto solver =
        engine::SolverRegistry::instance().create("pcg", loose_config());
    DistVector x = problem.make_x();
    const auto rep = solver->solve(problem, x);
    EXPECT_TRUE(rep.converged) << name;
  }
}

TEST(PreconditionerRegistry, AliasesResolve) {
  const auto& reg = engine::PreconditionerRegistry::instance();
  EXPECT_TRUE(reg.contains("identity"));  // -> none
  EXPECT_TRUE(reg.contains("ic0"));       // -> ic0-split
}

TEST(PreconditionerRegistry, UnknownNameThrowsListingValidKeys) {
  try {
    (void)engine::ProblemBuilder()
        .matrix(poisson2d_5pt(8, 8))
        .nodes(4)
        .preconditioner("super-precond")
        .build();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("super-precond"), std::string::npos);
    EXPECT_NE(msg.find("valid:"), std::string::npos);
    EXPECT_NE(msg.find("bjacobi"), std::string::npos);
  }
}

// The acceptance cross-check: SolverRegistry["pcg"] is the legacy pcg_solve
// code path, bit for bit.
TEST(SolverRegistry, PcgMatchesLegacyPcgSolveBitForBit) {
  engine::Problem problem = small_poisson();
  engine::SolverConfig c;
  c.rtol = 1e-8;

  DistVector x_registry = problem.make_x();
  const auto rep = engine::SolverRegistry::instance()
                       .create("pcg", c)
                       ->solve(problem, x_registry);

  Cluster cluster = problem.make_cluster();
  PcgOptions legacy;
  legacy.rtol = c.rtol;
  DistVector x_legacy = problem.make_x();
  const engine::SolveReport res =
      pcg_solve(cluster, problem.matrix(), problem.preconditioner(),
                problem.rhs(), x_legacy, legacy);

  EXPECT_EQ(rep.iterations, res.iterations);
  EXPECT_EQ(rep.rel_residual, res.rel_residual);
  EXPECT_EQ(rep.solver_residual_norm, res.solver_residual_norm);
  EXPECT_EQ(rep.sim_time, res.sim_time);
  EXPECT_EQ(x_registry.gather_global(), x_legacy.gather_global());
}

// The paper's old bit-for-bit guarantee, re-asserted *through the registry*:
// the resilient engine with phi = 0 and recovery "none" is exactly the
// reference PCG — same iterates, same residuals, same iteration count.
TEST(SolverRegistry, ResilientPcgWithPhiZeroMatchesPcgBitForBit) {
  engine::Problem problem = small_poisson();
  engine::SolverConfig c;
  c.rtol = 1e-8;
  ASSERT_EQ(c.recovery, RecoveryMethod::kNone);
  ASSERT_EQ(c.phi, 0);

  std::vector<double> residuals;
  c.events.on_iteration = [&residuals](const IterationSnapshot& snap) {
    residuals.push_back(snap.rel_residual);
  };
  DistVector x_resilient = problem.make_x();
  const auto resilient = engine::SolverRegistry::instance()
                             .create("resilient-pcg", c)
                             ->solve(problem, x_resilient);

  engine::SolverConfig ref;
  ref.rtol = 1e-8;
  DistVector x_ref = problem.make_x();
  const auto reference = engine::SolverRegistry::instance()
                             .create("pcg", ref)
                             ->solve(problem, x_ref);

  EXPECT_EQ(resilient.iterations, reference.iterations);
  EXPECT_EQ(resilient.rel_residual, reference.rel_residual);
  EXPECT_EQ(resilient.solver_residual_norm, reference.solver_residual_norm);
  EXPECT_EQ(x_resilient.gather_global(), x_ref.gather_global());
  EXPECT_EQ(static_cast<int>(residuals.size()), resilient.iterations);
  EXPECT_EQ(residuals.back(), reference.rel_residual);
}

TEST(SolverRegistry, ResilientPcgRecoversThroughRegistry) {
  engine::Problem problem = small_poisson();
  engine::SolverConfig c;
  c.recovery = RecoveryMethod::kEsr;
  c.phi = 2;
  const auto solver =
      engine::SolverRegistry::instance().create("resilient-pcg", c);
  DistVector x = problem.make_x();
  const auto rep =
      solver->solve(problem, x, FailureSchedule::contiguous(5, 2, 2));
  EXPECT_TRUE(rep.converged);
  ASSERT_EQ(rep.recoveries.size(), 1u);
  EXPECT_EQ(rep.recoveries[0].iteration, 5);
  EXPECT_EQ(rep.recoveries[0].nodes, (std::vector<NodeId>{2, 3}));
  EXPECT_GT(rep.recovery_sim_time(), 0.0);
  EXPECT_GT(rep.redundancy_overhead_per_iteration, 0.0);
  for (const double v : x.gather_global()) EXPECT_NEAR(v, 1.0, 1e-5);
}

// The scenario section describes the schedule a solve actually ran: present
// when the config's scenario generated it, absent when an explicit schedule
// won, and never on a solver that ignores scenarios.
TEST(SolverRegistry, ScenarioSectionNamesOnlyGeneratedSchedules) {
  engine::Problem problem = small_poisson();
  engine::SolverConfig c;
  c.recovery = RecoveryMethod::kEsr;
  c.phi = 2;
  c.scenario.kind = ScenarioKind::kCascading;
  c.scenario.seed = 4;
  c.scenario.events = 2;
  c.scenario.max_nodes_per_event = 1;
  c.scenario.horizon = 6;
  auto& reg = engine::SolverRegistry::instance();

  DistVector x = problem.make_x();
  const auto generated = reg.create("resilient-pcg", c)->solve(problem, x);
  ASSERT_TRUE(generated.scenario.has_value());
  EXPECT_EQ(generated.scenario->kind, "cascading");
  EXPECT_EQ(generated.scenario->seed, 4u);
  EXPECT_EQ(generated.scenario->events, 2);
  EXPECT_FALSE(generated.recoveries.empty());

  x = problem.make_x();
  const auto explicit_run = reg.create("resilient-pcg", c)->solve(
      problem, x, FailureSchedule::contiguous(3, 1, 1));
  EXPECT_FALSE(explicit_run.scenario.has_value());
  ASSERT_EQ(explicit_run.recoveries.size(), 1u);

  x = problem.make_x();
  const auto reference = reg.create("pcg", c)->solve(problem, x);
  EXPECT_FALSE(reference.scenario.has_value());
}

// "checkpoint-recovery" and "twin-pcg" are presets of the resilient-pcg
// adapter: the same engine with the method pinned (to checkpoint-restart and
// twin) and phi pinned to 0. Each report equals "resilient-pcg" with that
// recovery method apart from the solver name and the host wall time.
TEST(SolverRegistry, CheckpointRecoveryIsResilientPcgCheckpointRestart) {
  engine::Problem problem = engine::ProblemBuilder()
                                .matrix(poisson2d_5pt(16, 16))
                                .nodes(8)
                                .preconditioner("bjacobi")
                                .noise(0.02, 7)  // same draws in both runs
                                .build();
  auto& reg = engine::SolverRegistry::instance();
  const auto run = [&](const std::string& name, const engine::SolverConfig& c,
                       const FailureSchedule& schedule, bool checkpointed) {
    DistVector x = problem.make_x();
    engine::SolveReport rep = reg.create(name, c)->solve(problem, x, schedule);
    EXPECT_EQ(rep.solver, name);
    EXPECT_TRUE(rep.converged) << name;
    EXPECT_EQ(rep.checkpoint.has_value(), checkpointed) << name;
    rep.solver.clear();
    rep.wall_seconds = 0.0;
    return std::make_pair(rep.to_json(), rep.recoveries.size());
  };

  engine::SolverConfig failure_free;
  failure_free.checkpoint_interval = 5;

  engine::SolverConfig on_disk = failure_free;
  on_disk.checkpoint.medium = CheckpointMedium::kDisk;
  // Strikes during the rollback read (checkpoint) or the buddy copy-back
  // (twin); {1, 3, 4} holds no buddy pair (i, i + 4).
  FailureSchedule overlap;
  overlap.add({7, {1}, false});
  overlap.add({7, {3, 4}, true});

  // The fuzz battery sets phi = 3 for every family; the presets ignore it.
  engine::SolverConfig with_phi = failure_free;
  with_phi.phi = 3;
  with_phi.scenario.kind = ScenarioKind::kDuringRecovery;
  with_phi.scenario.seed = 2;
  with_phi.scenario.events = 3;
  with_phi.scenario.max_nodes_per_event = 1;
  with_phi.scenario.horizon = 12;
  with_phi.scenario.window = 3;

  const std::vector<std::tuple<const char*, engine::SolverConfig,
                               FailureSchedule, std::size_t>>
      cases{{"failure-free", failure_free, {}, 0u},
            {"overlap on disk", on_disk, overlap, 1u},
            {"phi = 3 scenario", with_phi, {}, 1u}};
  for (const auto& [preset, method] :
       {std::pair{"checkpoint-recovery", RecoveryMethod::kCheckpointRestart},
        std::pair{"twin-pcg", RecoveryMethod::kTwin}}) {
    const bool checkpointed = method == RecoveryMethod::kCheckpointRestart;
    for (const auto& [what, config, schedule, recoveries] : cases) {
      engine::SolverConfig resilient = config;
      resilient.recovery = method;
      resilient.phi = 0;
      const auto pinned = run(preset, config, schedule, checkpointed);
      const auto rpcg = run("resilient-pcg", resilient, schedule, checkpointed);
      EXPECT_EQ(pinned.second, recoveries) << preset << ", " << what;
      EXPECT_EQ(pinned.first, rpcg.first) << preset << ", " << what;
    }
  }
}

TEST(SolverRegistry, CustomRegistrationIsVisible) {
  auto& reg = engine::SolverRegistry::instance();
  reg.register_solver("pcg-alias", [](const engine::SolverConfig& c) {
    return engine::SolverRegistry::instance().create("pcg", c);
  });
  EXPECT_TRUE(reg.contains("pcg-alias"));
  engine::Problem problem = small_poisson();
  DistVector x = problem.make_x();
  EXPECT_TRUE(reg.create("pcg-alias", loose_config())->solve(problem, x)
                  .converged);
}

}  // namespace
}  // namespace rpcg
