#include "solver/pcg.hpp"

#include <gtest/gtest.h>

#include "sparse/generators.hpp"
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

  explicit Problem(CsrMatrix matrix, int nodes)
      : a(std::move(matrix)),
        part(Partition::block_rows(a.rows(), nodes)),
        b(part),
        x_ref(random_vector(a.rows(), 33)) {
    std::vector<double> bg(static_cast<std::size_t>(a.rows()));
    a.spmv(x_ref, bg);
    b.set_global(bg);
  }
};

class PcgConvergence
    : public ::testing::TestWithParam<std::tuple<const char*, int>> {};

TEST_P(PcgConvergence, SolvesToTolerance) {
  const auto [precond, nodes] = GetParam();
  Problem prob(poisson2d_5pt(13, 12), nodes);
  Cluster cluster(prob.part, CommParams{});
  const DistMatrix a = DistMatrix::distribute(prob.a, prob.part);
  const auto m = make_preconditioner(precond, prob.a, prob.part);
  DistVector x(prob.part);
  PcgOptions opts;
  opts.rtol = 1e-10;
  const engine::SolveReport res = pcg_solve(cluster, a, *m, prob.b, x, opts);
  EXPECT_TRUE(res.converged) << precond;
  EXPECT_LE(res.rel_residual, 1e-10);
  EXPECT_LT(max_diff(x.gather_global(), prob.x_ref), 1e-6) << precond;
  EXPECT_GT(res.sim_time, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    PrecondsAndNodes, PcgConvergence,
    ::testing::Combine(::testing::Values("identity", "jacobi", "bjacobi", "ic0",
                                         "ssor"),
                       ::testing::Values(2, 8)));

TEST(Pcg, PreconditioningReducesIterations) {
  Problem prob(poisson2d_5pt(20, 20), 4);
  const DistMatrix a = DistMatrix::distribute(prob.a, prob.part);
  PcgOptions opts;
  opts.rtol = 1e-8;

  Cluster c1(prob.part, CommParams{});
  const auto id = make_identity_preconditioner();
  DistVector x1(prob.part);
  const engine::SolveReport plain = pcg_solve(c1, a, *id, prob.b, x1, opts);

  Cluster c2(prob.part, CommParams{});
  const auto bj = make_preconditioner("bjacobi", prob.a, prob.part);
  DistVector x2(prob.part);
  const engine::SolveReport prec = pcg_solve(c2, a, *bj, prob.b, x2, opts);

  EXPECT_LT(prec.iterations, plain.iterations);
}

TEST(Pcg, DeltaMetricSmallForHealthyRun) {
  Problem prob(circuit_like(12, 12, 0.03, 3), 4);
  Cluster cluster(prob.part, CommParams{});
  const DistMatrix a = DistMatrix::distribute(prob.a, prob.part);
  const auto m = make_preconditioner("bjacobi", prob.a, prob.part);
  DistVector x(prob.part);
  PcgOptions opts;
  opts.rtol = 1e-8;
  const engine::SolveReport res = pcg_solve(cluster, a, *m, prob.b, x, opts);
  ASSERT_TRUE(res.converged);
  // The recurrence residual and the true residual agree closely relative to
  // the 1e8 residual reduction (Table 3's healthy-solver baseline).
  EXPECT_LT(std::abs(res.delta_metric), 1e-4);
  EXPECT_GT(res.true_residual_norm, 0.0);
}

TEST(Pcg, TrueResidualCostsNoSimTime) {
  Problem prob(tridiag_spd(64), 4);
  Cluster cluster(prob.part, CommParams{});
  const DistMatrix a = DistMatrix::distribute(prob.a, prob.part);
  DistVector x(prob.part);
  const double norm = true_residual_norm(cluster, a, prob.b, x);
  EXPECT_GT(norm, 0.0);  // x = 0, so ||b - Ax|| = ||b||
  EXPECT_DOUBLE_EQ(cluster.clock().total(), 0.0);
}

TEST(Pcg, ZeroRhs) {
  Problem prob(tridiag_spd(40), 4);
  Cluster cluster(prob.part, CommParams{});
  const DistMatrix a = DistMatrix::distribute(prob.a, prob.part);
  const auto m = make_identity_preconditioner();
  DistVector x(prob.part), zero_b(prob.part);
  const auto res = pcg_solve(cluster, a, *m, zero_b, x, PcgOptions{});
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.iterations, 0);
}

TEST(Pcg, FailedClusterRejected) {
  Problem prob(tridiag_spd(40), 4);
  Cluster cluster(prob.part, CommParams{});
  cluster.fail_node(0);
  const DistMatrix a = DistMatrix::distribute(prob.a, prob.part);
  const auto m = make_identity_preconditioner();
  DistVector x(prob.part);
  EXPECT_THROW((void)pcg_solve(cluster, a, *m, prob.b, x, PcgOptions{}),
               std::invalid_argument);
}

}  // namespace
}  // namespace rpcg
