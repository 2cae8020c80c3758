// The strongest statement of "exact" state reconstruction: observing the
// full per-iteration trajectory of the resilient solver, a run that suffers
// (and recovers from) node failures follows the failure-free trajectory —
// not just to the same final answer, but step by step, within the round-off
// of the local reconstruction solve.
#include <gtest/gtest.h>

#include "core/resilient_pcg.hpp"
#include "sparse/generators.hpp"
#include "test_util.hpp"

namespace rpcg {
namespace {

using testing::random_vector;

struct Trace {
  std::vector<double> residuals;
  std::vector<std::vector<double>> iterates;
};

struct Problem {
  CsrMatrix a = poisson2d_5pt(12, 12);
  Partition part = Partition::block_rows(a.rows(), 8);
  DistVector b{part};

  Problem() {
    std::vector<double> bg(static_cast<std::size_t>(a.rows()));
    a.spmv(random_vector(a.rows(), 3), bg);
    b.set_global(bg);
  }
};

Trace run_traced(Problem& p, const Preconditioner& m,
                 const FailureSchedule& schedule, bool exact_local) {
  Cluster cluster(p.part, CommParams{});
  ResilientPcgOptions opts;
  opts.pcg.rtol = 1e-10;
  opts.method = RecoveryMethod::kEsr;
  opts.phi = 3;
  opts.esr.exact_local_solve = exact_local;
  Trace trace;
  opts.events.on_iteration = [&trace](const IterationSnapshot& snap) {
    trace.residuals.push_back(snap.rel_residual);
    trace.iterates.push_back(snap.x->gather_global());
  };
  ResilientPcg solver(cluster, p.a, m, opts);
  DistVector x(p.part);
  const auto res = solver.solve(p.b, x, schedule);
  EXPECT_TRUE(res.converged);
  return trace;
}

TEST(Observer, TrajectoryPreservedAcrossRecovery) {
  Problem p;
  const auto m = make_preconditioner("bjacobi", p.a, p.part);
  const Trace ref = run_traced(p, *m, {}, /*exact_local=*/true);
  const Trace failed =
      run_traced(p, *m, FailureSchedule::contiguous(7, 2, 3), true);

  ASSERT_EQ(ref.residuals.size(), failed.residuals.size());
  for (std::size_t j = 0; j < ref.residuals.size(); ++j) {
    // Pre-failure iterations are bitwise identical; post-failure ones match
    // to the round-off of the reconstruction.
    EXPECT_NEAR(failed.residuals[j], ref.residuals[j],
                1e-8 * (1.0 + ref.residuals[j]))
        << "iteration " << j;
    EXPECT_LT(testing::max_diff(failed.iterates[j], ref.iterates[j]), 1e-8)
        << "iteration " << j;
  }
  // Before the failure iteration the runs are *exactly* equal.
  for (std::size_t j = 0; j < 7; ++j)
    EXPECT_EQ(failed.iterates[j], ref.iterates[j]) << "iteration " << j;
}

TEST(Observer, CalledOncePerCompletedIteration) {
  Problem p;
  const auto m = make_preconditioner("bjacobi", p.a, p.part);
  Cluster cluster(p.part, CommParams{});
  ResilientPcgOptions opts;
  opts.pcg.rtol = 1e-8;
  int calls = 0;
  int last_iteration = 0;
  opts.events.on_iteration = [&](const IterationSnapshot& snap) {
    ++calls;
    EXPECT_EQ(snap.iteration, calls);
    last_iteration = snap.iteration;
    EXPECT_NE(snap.x, nullptr);
    EXPECT_NE(snap.r, nullptr);
    EXPECT_NE(snap.z, nullptr);
    EXPECT_NE(snap.p, nullptr);
  };
  ResilientPcg solver(cluster, p.a, *m, opts);
  DistVector x(p.part);
  const auto res = solver.solve(p.b, x, {});
  EXPECT_EQ(calls, res.iterations);
  EXPECT_EQ(last_iteration, res.iterations);
}

TEST(Observer, ResidualHistoryIsMonotoneOverall) {
  // PCG residuals are not strictly monotone, but the history must shrink by
  // the prescribed factor from start to finish.
  Problem p;
  const auto m = make_preconditioner("bjacobi", p.a, p.part);
  const Trace t = run_traced(p, *m, {}, true);
  ASSERT_GT(t.residuals.size(), 2u);
  EXPECT_LE(t.residuals.back(), 1e-10);
  EXPECT_GT(t.residuals.front(), t.residuals.back());
}

}  // namespace
}  // namespace rpcg
