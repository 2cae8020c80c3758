// Integration tests of the exact state reconstruction: the resilient solver
// hit by failures must behave like the failure-free solver — same iteration
// trajectory (up to round-off of the local reconstruction solve) and the
// same solution.
#include "core/esr.hpp"

#include <gtest/gtest.h>

#include "core/errors.hpp"
#include "core/resilient_bicgstab.hpp"
#include "core/resilient_pcg.hpp"
#include "sparse/coo.hpp"
#include "sparse/generators.hpp"
#include "solver/stationary.hpp"
#include "sparse/ldlt.hpp"
#include "test_util.hpp"

namespace rpcg {
namespace {

using testing::max_diff;
using testing::random_vector;

struct Problem {
  CsrMatrix a;
  Partition part;
  DistVector b;
  std::vector<double> x_ref;

  Problem(CsrMatrix matrix, int nodes)
      : a(std::move(matrix)),
        part(Partition::block_rows(a.rows(), nodes)),
        b(part),
        x_ref(random_vector(a.rows(), 99)) {
    std::vector<double> bg(static_cast<std::size_t>(a.rows()));
    a.spmv(x_ref, bg);
    b.set_global(bg);
  }
};

ResilientPcgOptions esr_options(int phi, bool exact_local = true) {
  ResilientPcgOptions o;
  o.pcg.rtol = 1e-10;
  o.method = RecoveryMethod::kEsr;
  o.phi = phi;
  o.esr.exact_local_solve = exact_local;
  return o;
}

// Failure at various iterations and node sets: the solver must converge to
// the same solution in (nearly) the same number of iterations.
class EsrRecovery
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(EsrRecovery, ExactReconstructionPreservesTrajectory) {
  const auto [psi, first_rank, iteration] = GetParam();
  Problem p(poisson2d_5pt(12, 12), 8);
  const auto m = make_preconditioner("bjacobi", p.a, p.part);

  // Failure-free reference.
  std::vector<double> x_ref_run;
  int ref_iters = 0;
  {
    Cluster cluster(p.part, CommParams{});
    ResilientPcg solver(cluster, p.a, *m, esr_options(psi));
    DistVector x(p.part);
    const auto res = solver.solve(p.b, x, {});
    ASSERT_TRUE(res.converged);
    ref_iters = res.iterations;
    x_ref_run = x.gather_global();
  }

  // Same solve with psi simultaneous failures.
  {
    Cluster cluster(p.part, CommParams{});
    ResilientPcg solver(cluster, p.a, *m, esr_options(psi));
    DistVector x(p.part);
    const auto schedule =
        FailureSchedule::contiguous(iteration, first_rank, psi);
    const auto res = solver.solve(p.b, x, schedule);
    ASSERT_TRUE(res.converged);
    ASSERT_EQ(res.recoveries.size(), 1u);
    EXPECT_EQ(res.recoveries[0].stats.psi, psi);
    // Exact reconstruction: iteration count within round-off wiggle.
    EXPECT_NEAR(res.iterations, ref_iters, 2);
    // Identical solution.
    EXPECT_LT(max_diff(x.gather_global(), x_ref_run), 1e-8);
    // Recovery time was charged.
    EXPECT_GT(res.sim_time_phase[static_cast<int>(Phase::kRecovery)], 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    PsiRankIteration, EsrRecovery,
    ::testing::Values(std::tuple{1, 0, 1}, std::tuple{1, 3, 5},
                      std::tuple{2, 0, 5}, std::tuple{2, 4, 10},
                      std::tuple{3, 0, 0},   // failure at the very first SpMV
                      std::tuple{3, 5, 15},  // includes the last rank
                      std::tuple{4, 2, 7}));

TEST(Esr, IndefiniteLocalSystemIsClassifiedAsDivergence) {
  // A = [[I, B], [Bᵀ, I]] with B = 2 I on 2 nodes: each node block is I
  // (positive definite), but A itself has eigenvalues 1 ± 2, so the exact
  // local solve of both nodes' A_{IF,IF} = A cannot factor it.
  TripletBuilder tb;
  for (Index i = 0; i < 4; ++i) tb.add(i, i, 1.0);
  tb.add_sym(0, 2, 2.0);
  tb.add_sym(1, 3, 2.0);
  Problem p(tb.build(4, 4), 2);
  for (NodeId node = 0; node < 2; ++node) {
    const auto rows = p.part.rows_of(node);
    EXPECT_TRUE(SparseLdlt::factor(p.a.submatrix(rows, rows)).has_value());
  }
  Cluster cluster(p.part, CommParams{});
  const DistVector x(p.part);
  const std::vector<Index> rows{0, 1, 2, 3};
  std::vector<double> x_f(rows.size());
  EsrOptions opts;
  opts.exact_local_solve = true;
  try {
    (void)esr_solve_lost_x(cluster, p.a, rows, {}, p.b, x, x_f, opts);
    FAIL() << "an indefinite A_{IF,IF} must not be solved";
  } catch (const std::exception& e) {
    EXPECT_EQ(classify_exception(e), ErrorClass::kDivergence) << e.what();
  }
}

TEST(Esr, IterativeLocalSolveMatchesPaperSetting) {
  // IC(0)-PCG local solve at rtol 1e-14 (the paper's configuration) is as
  // good as the exact solve for the final result.
  Problem p(circuit_like(10, 10, 0.05, 8), 8);
  const auto m = make_preconditioner("bjacobi", p.a, p.part);

  std::vector<double> x_exact, x_iter;
  int it_exact = 0, it_iter = 0;
  for (const bool exact : {true, false}) {
    Cluster cluster(p.part, CommParams{});
    ResilientPcg solver(cluster, p.a, *m, esr_options(3, exact));
    DistVector x(p.part);
    const auto res =
        solver.solve(p.b, x, FailureSchedule::contiguous(4, 1, 3));
    ASSERT_TRUE(res.converged);
    ASSERT_EQ(res.recoveries.size(), 1u);
    if (exact) {
      x_exact = x.gather_global();
      it_exact = res.iterations;
    } else {
      x_iter = x.gather_global();
      it_iter = res.iterations;
      EXPECT_GT(res.recoveries[0].stats.local_solve_iterations, 1);
      EXPECT_LE(res.recoveries[0].stats.local_solve_rel_residual, 1e-14);
    }
  }
  EXPECT_NEAR(it_iter, it_exact, 2);
  EXPECT_LT(max_diff(x_exact, x_iter), 1e-7);
}

TEST(Esr, SequentialFailuresAtDifferentIterations) {
  Problem p(poisson2d_5pt(12, 12), 8);
  const auto m = make_preconditioner("bjacobi", p.a, p.part);
  Cluster cluster(p.part, CommParams{});
  ResilientPcg solver(cluster, p.a, *m, esr_options(2));
  DistVector x(p.part);
  FailureSchedule schedule;
  schedule.add({3, {1, 2}, false});
  schedule.add({9, {5}, false});
  schedule.add({15, {1}, false});  // the replacement of node 1 fails again
  const auto res = solver.solve(p.b, x, schedule);
  ASSERT_TRUE(res.converged);
  ASSERT_EQ(res.recoveries.size(), 3u);
  EXPECT_LT(max_diff(x.gather_global(), p.x_ref), 1e-6);
}

TEST(Esr, OverlappingFailuresMergeAndRestartReconstruction) {
  // In every ESR engine, node 4 dying while {2, 3} are being reconstructed
  // merges into one recovery of all three, and the aborted first attempt is
  // charged: the overlap costs more recovery time than losing the same
  // three nodes at once.
  Problem p(poisson2d_5pt(12, 12), 8);
  const auto m = make_preconditioner("bjacobi", p.a, p.part);
  const DistMatrix dist = DistMatrix::distribute(p.a, p.part);
  const auto solve = [&](const std::string& engine,
                         const FailureSchedule& schedule) {
    Cluster cluster(p.part, CommParams{});
    DistVector x(p.part);
    engine::SolveReport res;
    if (engine == "resilient-pcg") {
      ResilientPcg solver(cluster, p.a, dist, *m, esr_options(3));
      res = solver.solve(p.b, x, schedule);
    } else if (engine == "resilient-bicgstab") {
      BicgstabOptions o;
      o.rtol = 1e-10;
      o.phi = 3;
      o.esr.exact_local_solve = true;
      res = ResilientBicgstab(cluster, p.a, dist, *m, o)
                .solve(p.b, x, schedule);
    } else {
      StationaryOptions o;
      o.method = StationaryMethod::kSsor;
      o.omega = 1.5;
      o.rtol = 1e-10;
      o.phi = 3;
      res = ResilientStationary(cluster, p.a, dist, o).solve(p.b, x, schedule);
    }
    EXPECT_TRUE(res.converged);
    EXPECT_LT(max_diff(x.gather_global(), p.x_ref), 1e-6);
    return res;
  };
  FailureSchedule overlapping;
  overlapping.add({5, {2, 3}, false});
  overlapping.add({5, {4}, true});  // during_recovery
  const auto recovery = [](const engine::SolveReport& r) {
    return r.sim_time_phase[static_cast<int>(Phase::kRecovery)];
  };
  for (const std::string engine :
       {"resilient-pcg", "resilient-bicgstab", "stationary"}) {
    SCOPED_TRACE(engine);
    const auto simultaneous =
        solve(engine, FailureSchedule::contiguous(5, 2, 3));
    const auto overlap = solve(engine, overlapping);
    ASSERT_EQ(overlap.recoveries.size(), 1u);  // merged into one recovery
    EXPECT_EQ(overlap.recoveries[0].nodes.size(), 3u);
    EXPECT_GT(recovery(overlap), recovery(simultaneous));
  }
}

TEST(Esr, MoreFailuresThanPhiAreUnrecoverableOnDiagonalMatrix) {
  // Diagonal matrix: no SpMV traffic, so survival depends solely on the phi
  // designated copies. psi = phi + 1 adjacent failures wipe an element.
  Problem p(CsrMatrix::identity(32), 8);
  const auto m = make_identity_preconditioner();
  Cluster cluster(p.part, CommParams{});
  ResilientPcg solver(cluster, p.a, *m, esr_options(1));
  DistVector x(p.part);
  // CG on the identity converges after one iteration, so the failure must
  // strike at iteration 0 (right after the first SpMV).
  const auto schedule = FailureSchedule::contiguous(0, 2, 2);  // nodes 2,3
  EXPECT_THROW((void)solver.solve(p.b, x, schedule), UnrecoverableFailure);
}

TEST(Esr, RecoveryStatsArepopulated) {
  Problem p(poisson2d_5pt(10, 10), 5);
  const auto m = make_preconditioner("bjacobi", p.a, p.part);
  Cluster cluster(p.part, CommParams{});
  ResilientPcg solver(cluster, p.a, *m, esr_options(2, /*exact_local=*/false));
  DistVector x(p.part);
  const auto res = solver.solve(p.b, x, FailureSchedule::contiguous(3, 1, 2));
  ASSERT_TRUE(res.converged);
  ASSERT_EQ(res.recoveries.size(), 1u);
  const RecoveryStats& s = res.recoveries[0].stats;
  EXPECT_EQ(s.psi, 2);
  EXPECT_EQ(s.lost_rows, p.part.size(1) + p.part.size(2));
  EXPECT_GT(s.gathered_elements, 0);
  EXPECT_GT(s.local_solve_iterations, 0);
  EXPECT_GT(s.sim_seconds, 0.0);
}

}  // namespace
}  // namespace rpcg
