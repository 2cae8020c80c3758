// Randomized failure-scenario fuzzing: random failed-node sets of size
// psi <= phi at random iterations (possibly several events per run, possibly
// overlapping), across random matrices and strategies. Every scenario must
// recover and converge to the reference solution — the phi-failure guarantee
// of Sec. 4.1 holds for *arbitrary* failed sets, not just contiguous ranks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/failure_scenario.hpp"
#include "core/pipelined_pcg.hpp"
#include "core/resilient_pcg.hpp"
#include "engine/registry.hpp"
#include "solver/stationary.hpp"
#include "sparse/generators.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace rpcg {
namespace {

using testing::max_diff;
using testing::random_vector;

class FailureFuzz : public ::testing::TestWithParam<int> {};

TEST_P(FailureFuzz, RandomScenariosAllRecover) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  Rng rng(seed * 7919 + 13);

  // Random problem.
  CsrMatrix a;
  switch (rng.uniform_index(3)) {
    case 0:
      a = poisson2d_5pt(11, 11);
      break;
    case 1:
      a = circuit_like(11, 11, 0.05, seed);
      break;
    default:
      a = random_spd(120, 9, 0.6, 16, seed);
      break;
  }
  const int nodes = 4 + static_cast<int>(rng.uniform_index(8));  // 4..11
  const int phi = 1 + static_cast<int>(rng.uniform_index(
                          static_cast<std::uint64_t>(std::min(nodes - 1, 4))));
  const Partition part = Partition::block_rows(a.rows(), nodes);
  const BackupStrategy strategy = static_cast<BackupStrategy>(rng.uniform_index(4));

  DistVector b(part);
  const auto x_ref = random_vector(a.rows(), seed + 5);
  {
    std::vector<double> bg(static_cast<std::size_t>(a.rows()));
    a.spmv(x_ref, bg);
    b.set_global(bg);
  }
  const auto m = make_preconditioner("bjacobi", a, part);

  ResilientPcgOptions opts;
  opts.pcg.rtol = 1e-9;
  opts.method = RecoveryMethod::kEsr;
  opts.phi = phi;
  opts.strategy = strategy;
  opts.strategy_seed = seed;

  // Reference iteration count for placing events.
  int ref_iters = 0;
  {
    Cluster cluster(part, CommParams{});
    ResilientPcg solver(cluster, a, *m, opts);
    DistVector x(part);
    const auto res = solver.solve(b, x, {});
    ASSERT_TRUE(res.converged);
    ref_iters = res.iterations;
  }

  // Random schedule: 1..3 events at distinct iterations; each event kills a
  // random set of psi <= phi distinct nodes; ~1/3 of follow-up events at the
  // same iteration are flagged as overlapping.
  FailureSchedule schedule;
  const int num_events = 1 + static_cast<int>(rng.uniform_index(3));
  std::set<int> used_iterations;
  int expected_events = 0;
  for (int e = 0; e < num_events; ++e) {
    const int at = 1 + static_cast<int>(rng.uniform_index(
                           static_cast<std::uint64_t>(std::max(1, ref_iters - 2))));
    if (used_iterations.count(at) > 0) continue;
    used_iterations.insert(at);
    const int psi = 1 + static_cast<int>(
                            rng.uniform_index(static_cast<std::uint64_t>(phi)));
    std::set<NodeId> nodes_set;
    while (static_cast<int>(nodes_set.size()) < psi)
      nodes_set.insert(static_cast<NodeId>(
          rng.uniform_index(static_cast<std::uint64_t>(nodes))));
    FailureEvent ev;
    ev.iteration = at;
    ev.nodes.assign(nodes_set.begin(), nodes_set.end());
    schedule.add(std::move(ev));
    ++expected_events;
  }

  Cluster cluster(part, CommParams{});
  ResilientPcg solver(cluster, a, *m, opts);
  DistVector x(part);
  const auto res = solver.solve(b, x, schedule);
  ASSERT_TRUE(res.converged)
      << "seed " << seed << " strategy " << to_string(strategy) << " nodes "
      << nodes << " phi " << phi;
  EXPECT_EQ(static_cast<int>(res.recoveries.size()), expected_events);
  EXPECT_LT(max_diff(x.gather_global(), x_ref), 1e-5);
  // Exact reconstruction keeps the iteration count close to the reference.
  EXPECT_NEAR(res.iterations, ref_iters, 4);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FailureFuzz, ::testing::Range(1, 25));

class OverlapFuzz : public ::testing::TestWithParam<int> {};

TEST_P(OverlapFuzz, RandomOverlappingChainsRecover) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  Rng rng(seed * 104729 + 7);
  const CsrMatrix a = poisson2d_5pt(12, 12);
  const int nodes = 8;
  const int phi = 4;
  const Partition part = Partition::block_rows(a.rows(), nodes);
  DistVector b(part);
  const auto x_ref = random_vector(a.rows(), seed);
  {
    std::vector<double> bg(static_cast<std::size_t>(a.rows()));
    a.spmv(x_ref, bg);
    b.set_global(bg);
  }
  const auto m = make_preconditioner("bjacobi", a, part);

  // A chain of 2-3 overlapping events at one iteration whose union has at
  // most phi nodes.
  std::set<NodeId> pool;
  while (static_cast<int>(pool.size()) < phi)
    pool.insert(static_cast<NodeId>(rng.uniform_index(nodes)));
  std::vector<NodeId> nodes_list(pool.begin(), pool.end());
  const int at = 2 + static_cast<int>(rng.uniform_index(10));
  FailureSchedule schedule;
  std::size_t consumed = 0;
  bool first = true;
  while (consumed < nodes_list.size()) {
    const std::size_t take = std::min<std::size_t>(
        1 + rng.uniform_index(2), nodes_list.size() - consumed);
    FailureEvent ev;
    ev.iteration = at;
    ev.nodes.assign(nodes_list.begin() + static_cast<std::ptrdiff_t>(consumed),
                    nodes_list.begin() + static_cast<std::ptrdiff_t>(consumed + take));
    ev.during_recovery = !first;
    schedule.add(std::move(ev));
    consumed += take;
    first = false;
  }

  ResilientPcgOptions opts;
  opts.pcg.rtol = 1e-9;
  opts.method = RecoveryMethod::kEsr;
  opts.phi = phi;
  Cluster cluster(part, CommParams{});
  ResilientPcg solver(cluster, a, *m, opts);
  DistVector x(part);
  const auto res = solver.solve(b, x, schedule);
  ASSERT_TRUE(res.converged) << "seed " << seed;
  ASSERT_EQ(res.recoveries.size(), 1u);  // merged into one recovery
  EXPECT_EQ(res.recoveries[0].nodes.size(), pool.size());
  EXPECT_LT(max_diff(x.gather_global(), x_ref), 1e-5);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OverlapFuzz, ::testing::Range(1, 13));

// Concurrency fuzz: random multi-failure schedules executed under the
// threaded execution policy must recover AND match the sequential policy
// bit-for-bit. Runs with random worker counts so the chunking varies; the
// whole suite is exercised under RPCG_SANITIZE=thread in CI (ctest -L
// parallel), which is what certifies the worker pool TSan-clean.
class ThreadedFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ThreadedFuzz, ThreadedRandomScenariosMatchSequential) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  Rng rng(seed * 31337 + 11);

  CsrMatrix a;
  switch (rng.uniform_index(3)) {
    case 0:
      a = poisson2d_5pt(12, 12);
      break;
    case 1:
      a = circuit_like(12, 12, 0.05, seed);
      break;
    default:
      a = random_spd(130, 9, 0.6, 16, seed);
      break;
  }
  const int nodes = 4 + static_cast<int>(rng.uniform_index(8));  // 4..11
  const int phi = 1 + static_cast<int>(rng.uniform_index(
                          static_cast<std::uint64_t>(std::min(nodes - 1, 4))));
  const Partition part = Partition::block_rows(a.rows(), nodes);

  DistVector b(part);
  const auto x_ref = random_vector(a.rows(), seed + 9);
  {
    std::vector<double> bg(static_cast<std::size_t>(a.rows()));
    a.spmv(x_ref, bg);
    b.set_global(bg);
  }
  const auto m = make_preconditioner("bjacobi", a, part);

  ResilientPcgOptions opts;
  opts.pcg.rtol = 1e-9;
  opts.method = RecoveryMethod::kEsr;
  opts.phi = phi;
  opts.strategy_seed = seed;

  // Random schedule: 1..3 events, each a random psi <= phi node set.
  FailureSchedule schedule;
  const int num_events = 1 + static_cast<int>(rng.uniform_index(3));
  std::set<int> used_iterations;
  for (int e = 0; e < num_events; ++e) {
    const int at = 2 + static_cast<int>(rng.uniform_index(12));
    if (used_iterations.count(at) > 0) continue;
    used_iterations.insert(at);
    const int psi = 1 + static_cast<int>(
                            rng.uniform_index(static_cast<std::uint64_t>(phi)));
    std::set<NodeId> nodes_set;
    while (static_cast<int>(nodes_set.size()) < psi)
      nodes_set.insert(static_cast<NodeId>(
          rng.uniform_index(static_cast<std::uint64_t>(nodes))));
    FailureEvent ev;
    ev.iteration = at;
    ev.nodes.assign(nodes_set.begin(), nodes_set.end());
    schedule.add(std::move(ev));
  }

  const auto run = [&](const ExecutionPolicy& exec) {
    Cluster cluster(part, CommParams{});
    cluster.set_execution_policy(exec);
    ResilientPcg solver(cluster, a, *m, opts);
    DistVector x(part);
    const auto res = solver.solve(b, x, schedule);
    return std::pair{res, x.gather_global()};
  };

  const auto [seq_res, seq_x] = run(ExecutionPolicy::sequential());
  ASSERT_TRUE(seq_res.converged) << "seed " << seed;
  EXPECT_LT(max_diff(seq_x, x_ref), 1e-5);

  const int workers = 2 + static_cast<int>(rng.uniform_index(7));  // 2..8
  const auto [thr_res, thr_x] = run(ExecutionPolicy::threaded_with(workers));
  EXPECT_EQ(seq_res.iterations, thr_res.iterations) << "seed " << seed;
  EXPECT_EQ(seq_res.rel_residual, thr_res.rel_residual) << "seed " << seed;
  EXPECT_EQ(seq_res.sim_time, thr_res.sim_time) << "seed " << seed;
  ASSERT_EQ(seq_res.recoveries.size(), thr_res.recoveries.size());
  for (std::size_t i = 0; i < seq_res.recoveries.size(); ++i)
    EXPECT_EQ(seq_res.recoveries[i].nodes, thr_res.recoveries[i].nodes);
  ASSERT_EQ(seq_x.size(), thr_x.size());
  for (std::size_t i = 0; i < seq_x.size(); ++i)
    ASSERT_EQ(seq_x[i], thr_x[i]) << "seed " << seed << " entry " << i;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ThreadedFuzz, ::testing::Range(1, 21));

// The pipelined engine under the same concurrency fuzz: random multi-failure
// schedules must recover AND the threaded policy must match sequential
// bit-for-bit — the split-phase reductions and the relation-based rebuild of
// the recurrence vectors run on the worker pool too (TSan'd via -L parallel).
class PipelinedThreadedFuzz : public ::testing::TestWithParam<int> {};

TEST_P(PipelinedThreadedFuzz, ThreadedRandomScenariosMatchSequential) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  Rng rng(seed * 52361 + 17);

  CsrMatrix a;
  switch (rng.uniform_index(3)) {
    case 0:
      a = poisson2d_5pt(12, 12);
      break;
    case 1:
      a = circuit_like(12, 12, 0.05, seed);
      break;
    default:
      a = random_spd(130, 9, 0.6, 16, seed);
      break;
  }
  const int nodes = 4 + static_cast<int>(rng.uniform_index(8));  // 4..11
  const int phi = 1 + static_cast<int>(rng.uniform_index(
                          static_cast<std::uint64_t>(std::min(nodes - 1, 4))));
  const Partition part = Partition::block_rows(a.rows(), nodes);

  DistVector b(part);
  const auto x_ref = random_vector(a.rows(), seed + 3);
  {
    std::vector<double> bg(static_cast<std::size_t>(a.rows()));
    a.spmv(x_ref, bg);
    b.set_global(bg);
  }
  const auto m = make_preconditioner("bjacobi", a, part);

  PipelinedPcgOptions opts;
  opts.pcg.rtol = 1e-9;
  opts.phi = phi;
  opts.strategy_seed = seed;

  FailureSchedule schedule;
  const int num_events = 1 + static_cast<int>(rng.uniform_index(3));
  std::set<int> used_iterations;
  for (int e = 0; e < num_events; ++e) {
    const int at = 2 + static_cast<int>(rng.uniform_index(12));
    if (used_iterations.count(at) > 0) continue;
    used_iterations.insert(at);
    const int psi = 1 + static_cast<int>(
                            rng.uniform_index(static_cast<std::uint64_t>(phi)));
    std::set<NodeId> nodes_set;
    while (static_cast<int>(nodes_set.size()) < psi)
      nodes_set.insert(static_cast<NodeId>(
          rng.uniform_index(static_cast<std::uint64_t>(nodes))));
    FailureEvent ev;
    ev.iteration = at;
    ev.nodes.assign(nodes_set.begin(), nodes_set.end());
    schedule.add(std::move(ev));
  }

  const auto run = [&](const ExecutionPolicy& exec) {
    Cluster cluster(part, CommParams{});
    cluster.set_execution_policy(exec);
    PipelinedPcg solver(cluster, a, *m, opts);
    DistVector x(part);
    const auto res = solver.solve(b, x, schedule);
    return std::pair{res, x.gather_global()};
  };

  const auto [seq_res, seq_x] = run(ExecutionPolicy::sequential());
  ASSERT_TRUE(seq_res.converged) << "seed " << seed;
  EXPECT_LT(max_diff(seq_x, x_ref), 1e-5);

  const int workers = 2 + static_cast<int>(rng.uniform_index(7));  // 2..8
  const auto [thr_res, thr_x] = run(ExecutionPolicy::threaded_with(workers));
  EXPECT_EQ(seq_res.iterations, thr_res.iterations) << "seed " << seed;
  EXPECT_EQ(seq_res.rel_residual, thr_res.rel_residual) << "seed " << seed;
  EXPECT_EQ(seq_res.sim_time, thr_res.sim_time) << "seed " << seed;
  ASSERT_EQ(seq_res.recoveries.size(), thr_res.recoveries.size());
  for (std::size_t i = 0; i < seq_res.recoveries.size(); ++i)
    EXPECT_EQ(seq_res.recoveries[i].nodes, thr_res.recoveries[i].nodes);
  ASSERT_EQ(seq_x.size(), thr_x.size());
  for (std::size_t i = 0; i < seq_x.size(); ++i)
    ASSERT_EQ(seq_x[i], thr_x[i]) << "seed " << seed << " entry " << i;
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelinedThreadedFuzz, ::testing::Range(1, 13));

// ---- scenario-generator battery ------------------------------------------
// Every resilient registry solver x every scenario class x seeds, end to end
// through the engine: the adapters expand SolverConfig::scenario into a
// generated schedule (twin-pcg under its buddy constraint), every run must
// converge with consistent recovery records, and the threaded policy must
// match the sequential one byte-for-byte (TSan'd via -L parallel). The
// nightly workflow deepens the sweep through RPCG_FUZZ_MULTIPLIER.

/// Extra repetitions per registered seed; the ctest-discovered test list is
/// fixed at build time, so the nightly 10x sweep scales the in-test loop
/// rather than the parameter range.
int fuzz_multiplier() {
  const char* env = std::getenv("RPCG_FUZZ_MULTIPLIER");
  if (env == nullptr) return 1;
  const int m = std::atoi(env);
  return m > 0 ? m : 1;
}

struct ScenarioRun {
  bool converged = false;
  std::string report_json;
  std::vector<double> solution;
  std::vector<RecoveryRecord> recoveries;
};

using ScenarioParam = std::tuple<std::string, ScenarioKind, int>;

class ScenarioFuzz : public ::testing::TestWithParam<ScenarioParam> {};

TEST_P(ScenarioFuzz, EveryResilientSolverSurvivesEveryScenarioClass) {
  const auto& [solver_name, kind, base_seed] = GetParam();
  for (int rep = 0; rep < fuzz_multiplier(); ++rep) {
    const auto seed = static_cast<std::uint64_t>(base_seed + 1000 * rep);

    engine::SolverConfig cfg;
    cfg.rtol = 1e-9;
    cfg.phi = 3;  // covers the during-recovery union (3 x 1 node)
    cfg.checkpoint_interval = 5;
    if (solver_name == "resilient-pcg") cfg.recovery = RecoveryMethod::kEsr;
    if (solver_name == "stationary") {
      // SSOR reaches rtol 1e-9 in a few hundred sweeps here; plain Jacobi
      // would need thousands.
      cfg.stationary_method = StationaryMethod::kSsor;
      cfg.omega = 1.5;
    }
    cfg.scenario.kind = kind;
    cfg.scenario.seed = seed;
    cfg.scenario.events = 3;
    cfg.scenario.max_nodes_per_event = 1;
    cfg.scenario.horizon = 12;
    cfg.scenario.window = 3;

    const auto run = [&](const ExecutionPolicy& exec) {
      engine::Problem problem = engine::ProblemBuilder()
                                    .matrix(poisson2d_5pt(12, 12))
                                    .nodes(8)
                                    .preconditioner("bjacobi")
                                    .noise(0.02, 7)  // jitter scales time only
                                    .build();
      engine::SolverConfig c = cfg;
      c.exec = exec;
      const auto solver =
          engine::SolverRegistry::instance().create(solver_name, c);
      DistVector x = problem.make_x();
      engine::SolveReport report = solver->solve(problem, x, {});
      ScenarioRun out;
      out.converged = report.converged;
      out.recoveries = report.recoveries;
      report.wall_seconds = 0.0;  // the only nondeterministic field
      out.report_json = report.to_json();
      out.solution = x.gather_global();
      return out;
    };

    const ScenarioRun seq = run(ExecutionPolicy::sequential());
    ASSERT_TRUE(seq.converged)
        << solver_name << " " << to_string(kind) << " seed " << seed;

    // One recovery per distinct failure iteration: 3 for correlated and
    // cascading, 1 for a merged during-recovery chain, 2 + 2 + 1 for mixed.
    const std::size_t expected_recoveries =
        kind == ScenarioKind::kDuringRecovery
            ? 1u
            : (kind == ScenarioKind::kMixed ? 5u : 3u);
    ASSERT_EQ(seq.recoveries.size(), expected_recoveries)
        << solver_name << " " << to_string(kind) << " seed " << seed;
    for (const RecoveryRecord& rec : seq.recoveries) {
      EXPECT_GE(rec.iteration, 1);
      EXPECT_LE(rec.iteration, cfg.scenario.horizon);
      ASSERT_FALSE(rec.nodes.empty());
      EXPECT_EQ(rec.stats.psi, static_cast<int>(rec.nodes.size()));
      EXPECT_GT(rec.stats.lost_rows, 0);
    }

    const ScenarioRun thr = run(ExecutionPolicy::threaded_with(3));
    EXPECT_EQ(seq.report_json, thr.report_json)
        << solver_name << " " << to_string(kind) << " seed " << seed;
    ASSERT_EQ(seq.solution.size(), thr.solution.size());
    for (std::size_t i = 0; i < seq.solution.size(); ++i)
      ASSERT_EQ(seq.solution[i], thr.solution[i])
          << solver_name << " " << to_string(kind) << " seed " << seed
          << " entry " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SolversByScenario, ScenarioFuzz,
    ::testing::Combine(
        ::testing::Values("resilient-pcg", "pipelined-resilient-pcg",
                          "pipelined-resilient-cr", "checkpoint-recovery",
                          "twin-pcg", "resilient-bicgstab", "stationary"),
        ::testing::Values(ScenarioKind::kCorrelated, ScenarioKind::kCascading,
                          ScenarioKind::kDuringRecovery, ScenarioKind::kMixed),
        ::testing::Range(1, 4)),
    [](const ::testing::TestParamInfo<ScenarioParam>& p) {
      std::string name = std::get<0>(p.param) + "_" +
                         to_string(std::get<1>(p.param)) + "_" +
                         std::to_string(std::get<2>(p.param));
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

}  // namespace
}  // namespace rpcg
