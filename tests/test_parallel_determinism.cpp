// The determinism battery of the parallel execution subsystem: for every
// registered solver x {none, jacobi, bjacobi} x a multi-failure schedule,
// the threaded execution policy (2/4/8 workers) must produce SolveReports
// that match the sequential policy bit-for-bit — same iteration counts,
// same per-iteration residual history, same recovery records, same
// simulated times, byte-identical report JSON. This is the contract that
// makes the threaded cluster safe to switch on anywhere (see
// util/thread_pool.hpp). It also holds the preconditioners to their
// contract of concurrent calls on one shared instance, and the pipelined
// Gram kernel to the same threaded == sequential contract.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/registry.hpp"
#include "precond/block_jacobi.hpp"
#include "precond/jacobi.hpp"
#include "precond/preconditioner.hpp"
#include "sim/collectives.hpp"
#include "sim/partition.hpp"
#include "sparse/generators.hpp"
#include "sparse/ldlt.hpp"
#include "test_util.hpp"

namespace rpcg {
namespace {

struct RunOutput {
  std::string report_json;              // wall_seconds normalized to 0
  std::vector<double> residual_history; // per-iteration rel_residual
  std::vector<double> solution;         // final iterate
};

/// A schedule with two separate multi-node failure events (what Sec. 4.1
/// calls repeated psi <= phi failures), used for every resilient family.
FailureSchedule multi_failure_schedule() {
  FailureSchedule schedule;
  FailureEvent first;
  first.iteration = 3;
  first.nodes = {1, 2};
  schedule.add(std::move(first));
  FailureEvent second;
  second.iteration = 7;
  second.nodes = {5, 6, 7};
  schedule.add(std::move(second));
  return schedule;
}

RunOutput run_once(const std::string& solver_name, const std::string& precond,
                   const ExecutionPolicy& exec) {
  engine::Problem problem = engine::ProblemBuilder()
                                .matrix(poisson2d_5pt(16, 16))
                                .nodes(8)
                                .preconditioner(precond)
                                .noise(0.02, 42)  // jitter must not break it
                                .build();

  engine::SolverConfig cfg;
  cfg.rtol = 1e-9;
  cfg.max_iterations = 400;  // stationary sweeps need not converge; the
                             // comparison is on the full report either way
  cfg.exec = exec;
  FailureSchedule schedule;
  // The reference "pcg" and the plain pipelined solvers tolerate no
  // failures; every resilient family runs the multi-failure schedule with
  // phi = 3.
  if (solver_name != "pcg" && solver_name != "pipelined-pcg" &&
      solver_name != "pipelined-cr") {
    cfg.phi = 3;
    if (solver_name == "resilient-pcg") cfg.recovery = RecoveryMethod::kEsr;
    schedule = multi_failure_schedule();
  }
  // The pipelined families run at depth 3, so the battery covers the Gram
  // reduction ring, coefficient-space prediction, and (for the resilient
  // keys) the flush-and-warmup recovery path — not just the classic
  // depth-1 loop.
  if (solver_name.rfind("pipelined-", 0) == 0) cfg.pipeline_depth = 3;
  RunOutput out;
  cfg.events.on_iteration = [&out](const IterationSnapshot& snap) {
    out.residual_history.push_back(snap.rel_residual);
  };

  const auto solver =
      engine::SolverRegistry::instance().create(solver_name, cfg);
  DistVector x = problem.make_x();
  engine::SolveReport report = solver->solve(problem, x, schedule);
  report.wall_seconds = 0.0;  // host time is the one nondeterministic field
  out.report_json = report.to_json();
  out.solution = x.gather_global();
  return out;
}

class ParallelDeterminism
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {};

TEST_P(ParallelDeterminism, ThreadedMatchesSequentialBitForBit) {
  const auto& [solver_name, precond] = GetParam();
  const RunOutput seq = run_once(solver_name, precond,
                                 ExecutionPolicy::sequential());
  // The reference "pcg" solver supports no event hooks (it is the untouched
  // bit-for-bit baseline); everyone else must report a residual history.
  if (solver_name != "pcg") {
    ASSERT_FALSE(seq.residual_history.empty());
  }

  for (const int workers : {2, 4, 8}) {
    const RunOutput thr =
        run_once(solver_name, precond, ExecutionPolicy::threaded_with(workers));
    EXPECT_EQ(seq.report_json, thr.report_json)
        << solver_name << "/" << precond << " workers=" << workers;
    ASSERT_EQ(seq.residual_history.size(), thr.residual_history.size());
    for (std::size_t i = 0; i < seq.residual_history.size(); ++i)
      ASSERT_EQ(seq.residual_history[i], thr.residual_history[i])
          << solver_name << "/" << precond << " workers=" << workers
          << " iteration " << i;
    ASSERT_EQ(seq.solution.size(), thr.solution.size());
    for (std::size_t i = 0; i < seq.solution.size(); ++i)
      ASSERT_EQ(seq.solution[i], thr.solution[i])
          << solver_name << "/" << precond << " workers=" << workers
          << " entry " << i;
  }
}

std::vector<std::tuple<std::string, std::string>> all_combinations() {
  std::vector<std::tuple<std::string, std::string>> out;
  for (const std::string& solver : engine::SolverRegistry::instance().names())
    for (const char* precond : {"none", "jacobi", "bjacobi"})
      out.emplace_back(solver, precond);
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    AllSolversAndPreconditioners, ParallelDeterminism,
    ::testing::ValuesIn(all_combinations()),
    [](const ::testing::TestParamInfo<ParallelDeterminism::ParamType>& p) {
      std::string name = std::get<0>(p.param) + "_" + std::get<1>(p.param);
      for (char& c : name)
        if (c == '-') c = '_';
      return name;
    });

// The ssor and ic0-split preconditioners parallelize their apply loops too;
// one esr-recovery pass each keeps them inside the battery without blowing
// up the matrix of runs.
TEST(ParallelDeterminismExtra, SplitAndSsorPreconditioners) {
  for (const std::string precond : {"ssor", "ic0-split"}) {
    const RunOutput seq =
        run_once("resilient-pcg", precond, ExecutionPolicy::sequential());
    const RunOutput thr =
        run_once("resilient-pcg", precond, ExecutionPolicy::threaded_with(4));
    EXPECT_EQ(seq.report_json, thr.report_json) << precond;
  }
}

// The PR 5 sparse kernels: an M2-style random-pattern matrix whose block
// Jacobi factors select the AMD ordering and pack supernode panels, with an
// exact-LDLᵀ ESR reconstruction routed through the factorization cache.
// Threaded solves must stay bit-for-bit identical over those kernels too
// (the supernodal solve keeps a fixed accumulation order and thread-local
// scratch only).
TEST(ParallelDeterminismExtra, AmdSupernodalKernels) {
  const CsrMatrix a = random_spd(512, 12, 0.5, 80, 0xD7);
  // Confirm the new kernels are actually active for these blocks.
  const Partition part = Partition::block_rows(a.rows(), 4);
  const BlockJacobiPreconditioner probe(a, part);
  ASSERT_GT(probe.ordering_counts()[static_cast<std::size_t>(
                LdltOrdering::kAmd)],
            0);
  ASSERT_GT(probe.supernodal_blocks(), 0);

  const auto run = [&a](const ExecutionPolicy& exec) {
    engine::Problem problem = engine::ProblemBuilder()
                                  .matrix(CsrMatrix(a))
                                  .nodes(4)
                                  .preconditioner("bjacobi")
                                  .build();
    engine::SolverConfig cfg;
    cfg.rtol = 1e-9;
    cfg.recovery = RecoveryMethod::kEsr;
    cfg.phi = 2;
    cfg.esr.exact_local_solve = true;
    cfg.exec = exec;
    FailureSchedule schedule;
    FailureEvent ev;
    ev.iteration = 4;
    ev.nodes = {1, 2};
    schedule.add(std::move(ev));
    const auto solver =
        engine::SolverRegistry::instance().create("resilient-pcg", cfg);
    DistVector x = problem.make_x();
    engine::SolveReport report = solver->solve(problem, x, schedule);
    report.wall_seconds = 0.0;
    return report.to_json() + "\n" + std::to_string(x.gather_global()[17]);
  };
  const std::string seq = run(ExecutionPolicy::sequential());
  for (const int workers : {2, 8})
    EXPECT_EQ(seq, run(ExecutionPolicy::threaded_with(workers)))
        << "workers=" << workers;
}

// Worker counts beyond the node count (and the n <= 1 fast path) must not
// change anything either.
TEST(ParallelDeterminismExtra, MoreWorkersThanNodes) {
  const RunOutput seq =
      run_once("resilient-pcg", "bjacobi", ExecutionPolicy::sequential());
  const RunOutput thr =
      run_once("resilient-pcg", "bjacobi", ExecutionPolicy::threaded_with(64));
  EXPECT_EQ(seq.report_json, thr.report_json);
}

// The pipelined Gram kernel runs every node block on its own stack buffer:
// node blocks computed concurrently by the worker pool must give what the
// sequential policy gives, entry for entry.
TEST(ParallelDeterminismExtra, PipelinedGramThreadedMatchesSequential) {
  for (const Partition& part : testing::gram_partitions()) {
    for (const int nb : testing::kGramWidths) {
      const std::vector<DistVector> basis = testing::random_basis(part, nb, 7);
      std::vector<const DistVector*> ptrs;
      for (const DistVector& b : basis) ptrs.push_back(&b);
      const auto gram = [&](const ExecutionPolicy& exec) {
        Cluster cluster(part, CommParams{});
        cluster.set_execution_policy(exec);
        PendingReduction red =
            ipipelined_gram(cluster, ptrs, Phase::kIteration);
        red.wait();
        std::vector<double> values;
        for (int e = 0; e < nb * (nb + 1) / 2; ++e)
          values.push_back(red.value(e));
        return values;
      };
      EXPECT_EQ(gram(ExecutionPolicy::threaded_with(2)),
                gram(ExecutionPolicy::sequential()))
          << "n " << part.n() << " nb " << nb;
    }
  }
}

// The Preconditioner concurrency contract (precond/preconditioner.hpp): the
// SolverService hands one instance to every concurrent job of a batch that
// names the same problem, so apply() and esr_recover_residual() called on
// one object from two threads must return exactly what sequential calls on a
// fresh instance return. ExplicitPreconditioner kept its halo workspace in a
// mutable member before; the registry preconditioners ride along. An odd
// node count leaves block Jacobi's last block outside its node pairs.
void expect_concurrent_calls_match_sequential(int nodes) {
  const CsrMatrix a = poisson2d_5pt(16, 16);
  const Partition part = Partition::block_rows(a.rows(), nodes);
  const std::vector<Index> rows = part.rows_of_set(std::vector<NodeId>{2, 3});
  const auto make = [&a, &part](const std::string& name) {
    if (name == "explicit-p") {
      return std::unique_ptr<Preconditioner>(
          std::make_unique<ExplicitPreconditioner>(
              tridiag_spd(a.rows(), 3.0, -1.0), part));
    }
    return make_preconditioner(name, a, part);
  };
  struct Output {
    std::vector<double> z;
    std::vector<double> r_f;
  };
  // One solve's calls, on its own cluster and vectors.
  const auto call = [&a, &part, &rows](const Preconditioner& m,
                                       std::uint64_t seed) {
    Cluster cluster(part, CommParams{});
    DistVector r(part);
    DistVector z(part);
    r.set_global(testing::random_vector(a.rows(), seed));
    m.apply(cluster, r, z, Phase::kIteration);
    std::vector<double> z_f(rows.size());
    for (std::size_t k = 0; k < rows.size(); ++k) z_f[k] = z.value(rows[k]);
    Output out{z.gather_global(), std::vector<double>(rows.size())};
    m.esr_recover_residual(cluster, rows, z_f, r, z, out.r_f);
    return out;
  };

  constexpr int kReps = 20;
  for (const std::string name :
       {"explicit-p", "jacobi", "bjacobi", "ssor", "ic0"}) {
    const std::unique_ptr<Preconditioner> shared = make(name);
    std::vector<Output> outs_a;
    std::vector<Output> outs_b;
    outs_a.reserve(kReps);
    outs_b.reserve(kReps);
    std::thread ta([&] {
      for (int rep = 0; rep < kReps; ++rep) outs_a.push_back(call(*shared, 1));
    });
    std::thread tb([&] {
      for (int rep = 0; rep < kReps; ++rep) outs_b.push_back(call(*shared, 2));
    });
    ta.join();
    tb.join();

    const std::unique_ptr<Preconditioner> fresh = make(name);
    const Output ref_a = call(*fresh, 1);
    const Output ref_b = call(*fresh, 2);
    for (int rep = 0; rep < kReps; ++rep) {
      const auto i = static_cast<std::size_t>(rep);
      EXPECT_EQ(outs_a[i].z, ref_a.z) << name << " nodes " << nodes << " rep " << rep;
      EXPECT_EQ(outs_a[i].r_f, ref_a.r_f) << name << " nodes " << nodes << " rep " << rep;
      EXPECT_EQ(outs_b[i].z, ref_b.z) << name << " nodes " << nodes << " rep " << rep;
      EXPECT_EQ(outs_b[i].r_f, ref_b.r_f) << name << " nodes " << nodes << " rep " << rep;
    }
  }
}

TEST(SharedPreconditioner, ConcurrentCallsMatchSequentialCalls) {
  expect_concurrent_calls_match_sequential(8);
  expect_concurrent_calls_match_sequential(7);
}

}  // namespace
}  // namespace rpcg
