// SolveReport: the deterministic rpcg-solve-report/v2 serialization (golden
// test) and the shared finish step every solver family runs through.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "engine/registry.hpp"
#include "engine/solve_report.hpp"
#include "solver/pcg.hpp"
#include "sparse/generators.hpp"

namespace rpcg {
namespace {

engine::SolveReport sample_report() {
  engine::SolveReport rep;
  rep.solver = "resilient-pcg";
  rep.preconditioner = "bjacobi";
  rep.converged = true;
  rep.iterations = 42;
  rep.rel_residual = 5e-9;
  rep.solver_residual_norm = 1.25e-6;
  rep.true_residual_norm = 1.5e-6;
  rep.delta_metric = -0.03125;
  rep.sim_time = 1.5;
  rep.sim_time_phase = {1.0, 0.25, 0.0, 0.25};
  rep.wall_seconds = 0.125;
  rep.redundancy_overhead_per_iteration = 0.0078125;
  rep.checkpoints_written = 2;
  rep.rolled_back_iterations = 7;
  RecoveryRecord rec;
  rec.iteration = 21;
  rec.nodes = {3, 4};
  rec.stats.psi = 2;
  rec.stats.lost_rows = 36;
  rec.stats.gathered_elements = 144;
  rec.stats.local_solve_iterations = 17;
  rec.stats.local_solve_rel_residual = 9.5e-15;
  rec.stats.sim_seconds = 0.25;
  rep.recoveries.push_back(rec);
  rep.reductions = {0.5, 0.375, 0.125, 84, 2};
  rep.reduction_depth = 2;
  return rep;
}

/// The sample with both optional sections populated.
engine::SolveReport full_report() {
  engine::SolveReport rep = sample_report();
  rep.checkpoint = engine::CheckpointSection{"disk", 10, 1e-9, 2e-9, 0.001};
  rep.scenario = engine::ScenarioSection{"during-recovery", 42, 3};
  return rep;
}

// Exact golden strings: key order, indentation, and double formatting
// (shortest round-trip) are part of the rpcg-solve-report/v2 contract. Every
// key is always present; the optional sections are either objects or null.
constexpr const char* kGoldenHead = R"({
  "schema": "rpcg-solve-report/v2",
  "solver": "resilient-pcg",
  "preconditioner": "bjacobi",
  "converged": true,
  "iterations": 42,
  "rel_residual": 5e-09,
  "solver_residual_norm": 1.25e-06,
  "true_residual_norm": 1.5e-06,
  "delta_metric": -0.03125,
  "sim_time": 1.5,
  "sim_time_phase": {
    "iteration": 1,
    "redundancy": 0.25,
    "checkpoint": 0,
    "recovery": 0.25
  },
  "wall_seconds": 0.125,
  "redundancy_overhead_per_iteration": 0.0078125,
  "reduction_time": {
    "posted": 0.5,
    "hidden": 0.375,
    "exposed": 0.125,
    "count": 84,
    "depth": 2,
    "max_in_flight": 2
  },
)";

constexpr const char* kGoldenTail = R"(
  "checkpoints_written": 2,
  "rolled_back_iterations": 7,
  "recoveries": [
    {"iteration": 21, "nodes": [3, 4], "psi": 2, "lost_rows": 36, "gathered_elements": 144, "local_solve_iterations": 17, "local_solve_rel_residual": 9.5e-15, "sim_seconds": 0.25}
  ]
})";

TEST(SolveReport, GoldenJsonEverySectionPopulated) {
  const std::string expected = std::string(kGoldenHead) +
                               R"(  "checkpoint": {
    "medium": "disk",
    "interval": 10,
    "write_per_element": 1e-09,
    "read_per_element": 2e-09,
    "access_latency": 0.001
  },
  "scenario": {
    "kind": "during-recovery",
    "seed": 42,
    "events": 3
  },)" + kGoldenTail;
  EXPECT_EQ(full_report().to_json(), expected);
}

TEST(SolveReport, GoldenJsonOptionalSectionsNull) {
  const std::string expected = std::string(kGoldenHead) +
                               R"(  "checkpoint": null,
  "scenario": null,)" + kGoldenTail;
  EXPECT_EQ(sample_report().to_json(), expected);
}

TEST(SolveReport, IndentShiftsEveryLine) {
  const std::string json = sample_report().to_json(4);
  EXPECT_EQ(json.substr(0, 5), "    {");
  EXPECT_NE(json.find("\n      \"schema\""), std::string::npos);
}

TEST(SolveReport, EmptyReportSerializesWithEmptyRecoveries) {
  const std::string json = engine::SolveReport{}.to_json();
  EXPECT_NE(json.find("\"recoveries\": [\n  ]"), std::string::npos);
  EXPECT_NE(json.find("\"converged\": false"), std::string::npos);
}

engine::Problem small_problem() {
  return engine::ProblemBuilder()
      .matrix(poisson2d_5pt(16, 16))
      .nodes(8)
      .preconditioner("bjacobi")
      .build();
}

// On a fresh cluster the phase deltas are the clock's phases and their sum
// is SimClock::total() bit for bit — the identity that keeps every family's
// sim_time unchanged by the shared finish step.
TEST(SolveMeter, FreshClusterMatchesTheClockBitForBit) {
  const engine::Problem problem = small_problem();
  Cluster cluster = problem.make_cluster();
  DistVector x = problem.make_x();
  const engine::SolveReport rep =
      pcg_solve(cluster, problem.matrix(), problem.preconditioner(),
                problem.rhs(), x, PcgOptions{});
  EXPECT_EQ(rep.sim_time, cluster.clock().total());
  for (int ph = 0; ph < kNumPhases; ++ph) {
    EXPECT_EQ(rep.sim_time_phase[static_cast<std::size_t>(ph)],
              cluster.clock().in_phase(static_cast<Phase>(ph)));
  }
  EXPECT_EQ(rep.reductions.count, cluster.reduction_times().count);
}

// A report covers its own solve only: a second solve on the same cluster
// reports the time since its entry, not the clock's running total.
TEST(SolveMeter, ReusedClusterReportsOnlyItsOwnSolve) {
  const engine::Problem problem = small_problem();
  Cluster cluster = problem.make_cluster();
  DistVector x1 = problem.make_x();
  const engine::SolveReport first =
      pcg_solve(cluster, problem.matrix(), problem.preconditioner(),
                problem.rhs(), x1, PcgOptions{});
  DistVector x2 = problem.make_x();
  const engine::SolveReport second =
      pcg_solve(cluster, problem.matrix(), problem.preconditioner(),
                problem.rhs(), x2, PcgOptions{});
  EXPECT_EQ(second.iterations, first.iterations);
  EXPECT_NEAR(second.sim_time, first.sim_time, 1e-12 * first.sim_time);
  EXPECT_NEAR(cluster.clock().total(), first.sim_time + second.sim_time,
              1e-12 * cluster.clock().total());
}

// Every family goes through the shared finish step, so the two that once
// skipped it — BiCGSTAB never computed Delta, the stationary sweeps never
// the true residual — now report both, comparable with the PCG families on
// Table 3.
TEST(SolveReport, EveryFamilyReportsTrueResidualAndDelta) {
  engine::Problem problem = small_problem();
  for (const std::string name :
       {"pcg", "resilient-pcg", "resilient-bicgstab", "stationary"}) {
    engine::SolverConfig c;
    c.rtol = 1e-6;
    c.phi = name == "pcg" ? 0 : 1;
    if (name == "resilient-pcg") c.recovery = RecoveryMethod::kEsr;
    if (name == "stationary") c.omega = 0.9;
    const FailureSchedule schedule = name == "pcg"
                                         ? FailureSchedule{}
                                         : FailureSchedule::contiguous(3, 2, 1);
    DistVector x = problem.make_x();
    const engine::SolveReport rep =
        engine::SolverRegistry::instance().create(name, c)->solve(problem, x,
                                                                  schedule);
    ASSERT_TRUE(rep.converged) << name;
    EXPECT_EQ(rep.recoveries.size(), schedule.events().size()) << name;
    EXPECT_GT(rep.solver_residual_norm, 0.0) << name;
    EXPECT_GT(rep.true_residual_norm, 0.0) << name;
    EXPECT_TRUE(std::isfinite(rep.delta_metric)) << name;
    EXPECT_EQ(rep.delta_metric,
              (rep.solver_residual_norm - rep.true_residual_norm) /
                  rep.true_residual_norm)
        << name;
    double phases = 0.0;
    for (const double t : rep.sim_time_phase) phases += t;
    EXPECT_EQ(rep.sim_time, phases) << name;
    EXPECT_GT(rep.reductions.count, 0) << name;
    EXPECT_GT(rep.wall_seconds, 0.0) << name;
  }
}

TEST(SolveReport, JsonEscapesSolverNames) {
  engine::SolveReport rep;
  rep.solver = "weird\"name\\x";
  const std::string json = rep.to_json();
  EXPECT_NE(json.find("\"solver\": \"weird\\\"name\\\\x\""), std::string::npos);
}

}  // namespace
}  // namespace rpcg
