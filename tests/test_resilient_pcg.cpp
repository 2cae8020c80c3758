#include "core/resilient_pcg.hpp"

#include <gtest/gtest.h>

#include "solver/pcg.hpp"
#include "sparse/generators.hpp"
#include "test_util.hpp"

namespace rpcg {
namespace {

using testing::max_diff;
using testing::random_vector;

struct Problem {
  CsrMatrix a;
  Partition part;
  DistMatrix dist;
  DistVector b;

  Problem(CsrMatrix matrix, int nodes)
      : a(std::move(matrix)),
        part(Partition::block_rows(a.rows(), nodes)),
        dist(DistMatrix::distribute(a, part)),
        b(part) {
    std::vector<double> bg(static_cast<std::size_t>(a.rows()));
    a.spmv(random_vector(a.rows(), 5), bg);
    b.set_global(bg);
  }
};

TEST(ResilientPcg, ReferenceModeMatchesPlainPcgBitForBit) {
  // The resilient engine with resilience off must be byte-identical to the
  // independent plain PCG implementation — two implementations of Alg. 1
  // that cross-validate each other.
  Problem p(circuit_like(9, 9, 0.06, 2), 4);
  const auto m = make_preconditioner("bjacobi", p.a, p.part);

  Cluster c1(p.part, CommParams{});
  DistVector x1(p.part);
  PcgOptions popts;
  popts.rtol = 1e-9;
  const engine::SolveReport plain = pcg_solve(c1, p.dist, *m, p.b, x1, popts);

  Cluster c2(p.part, CommParams{});
  ResilientPcgOptions ropts;
  ropts.pcg.rtol = 1e-9;
  ResilientPcg solver(c2, p.a, p.dist, *m, ropts);
  DistVector x2(p.part);
  const engine::SolveReport res = solver.solve(p.b, x2, {});

  ASSERT_TRUE(plain.converged);
  ASSERT_TRUE(res.converged);
  EXPECT_EQ(plain.iterations, res.iterations);
  EXPECT_EQ(x1.gather_global(), x2.gather_global());  // bitwise
  EXPECT_DOUBLE_EQ(plain.sim_time, res.sim_time);
  EXPECT_DOUBLE_EQ(plain.solver_residual_norm, res.solver_residual_norm);
}

TEST(ResilientPcg, UndisturbedEsrKeepsIterationTrajectory) {
  // Redundant copies are pure communication: they must not change any
  // numerical value, only add kRedundancy time.
  Problem p(poisson2d_5pt(12, 12), 8);
  const auto m = make_preconditioner("bjacobi", p.a, p.part);

  Cluster c1(p.part, CommParams{});
  ResilientPcgOptions ref;
  ref.pcg.rtol = 1e-9;
  ResilientPcg s1(c1, p.a, p.dist, *m, ref);
  DistVector x1(p.part);
  const auto r1 = s1.solve(p.b, x1, {});

  Cluster c2(p.part, CommParams{});
  ResilientPcgOptions esr;
  esr.pcg.rtol = 1e-9;
  esr.method = RecoveryMethod::kEsr;
  esr.phi = 3;
  ResilientPcg s2(c2, p.a, p.dist, *m, esr);
  DistVector x2(p.part);
  const auto r2 = s2.solve(p.b, x2, {});

  EXPECT_EQ(r1.iterations, r2.iterations);
  EXPECT_EQ(x1.gather_global(), x2.gather_global());
  EXPECT_GT(r2.sim_time_phase[static_cast<int>(Phase::kRedundancy)], 0.0);
  EXPECT_GT(r2.sim_time, r1.sim_time);
  EXPECT_DOUBLE_EQ(r2.sim_time_phase[static_cast<int>(Phase::kRecovery)], 0.0);
}

TEST(ResilientPcg, OverheadGrowsWithPhi) {
  Problem p(poisson2d_5pt(16, 16), 8);
  const auto m = make_preconditioner("bjacobi", p.a, p.part);
  double prev_overhead = -1.0;
  for (const int phi : {1, 3, 5}) {
    Cluster c(p.part, CommParams{});
    ResilientPcgOptions o;
    o.pcg.rtol = 1e-9;
    o.method = RecoveryMethod::kEsr;
    o.phi = phi;
    ResilientPcg s(c, p.a, p.dist, *m, o);
    const double step = s.redundancy_overhead_per_iteration();
    EXPECT_GE(step, prev_overhead);
    prev_overhead = step;
  }
  EXPECT_GT(prev_overhead, 0.0);
}

TEST(ResilientPcg, WallTimeAndPhaseBreakdownConsistent) {
  Problem p(poisson2d_5pt(10, 10), 4);
  const auto m = make_preconditioner("bjacobi", p.a, p.part);
  Cluster c(p.part, CommParams{});
  ResilientPcgOptions o;
  o.pcg.rtol = 1e-8;
  o.method = RecoveryMethod::kEsr;
  o.phi = 2;
  ResilientPcg s(c, p.a, p.dist, *m, o);
  DistVector x(p.part);
  const auto res = s.solve(p.b, x, FailureSchedule::contiguous(2, 0, 2));
  ASSERT_TRUE(res.converged);
  double sum = 0.0;
  for (const double t : res.sim_time_phase) sum += t;
  EXPECT_DOUBLE_EQ(res.sim_time, sum);
  EXPECT_GE(res.wall_seconds, 0.0);
}

TEST(ResilientPcg, NoiseChangesTimingNotNumerics) {
  Problem p(poisson2d_5pt(10, 10), 4);
  const auto m = make_preconditioner("bjacobi", p.a, p.part);

  auto run = [&](std::uint64_t seed) {
    Cluster c(p.part, CommParams{});
    c.clock().set_noise(0.05, seed);
    ResilientPcgOptions o;
    o.pcg.rtol = 1e-9;
    ResilientPcg s(c, p.a, p.dist, *m, o);
    DistVector x(p.part);
    const auto res = s.solve(p.b, x, {});
    return std::pair{res.sim_time, x.gather_global()};
  };
  const auto [t1, x1] = run(1);
  const auto [t2, x2] = run(2);
  EXPECT_NE(t1, t2);        // different jitter
  EXPECT_EQ(x1, x2);        // identical numerics
}

TEST(ResilientPcg, SolveRequiresHealthyCluster) {
  Problem p(tridiag_spd(32), 4);
  const auto m = make_identity_preconditioner();
  Cluster c(p.part, CommParams{});
  c.fail_node(1);
  ResilientPcgOptions o;
  ResilientPcg s(c, p.a, p.dist, *m, o);
  DistVector x(p.part);
  EXPECT_THROW((void)s.solve(p.b, x, {}), std::invalid_argument);
}

TEST(ResilientPcg, FailureScheduleValidation) {
  FailureSchedule s;
  EXPECT_THROW(s.add({3, {}, false}), std::invalid_argument);
  EXPECT_TRUE(s.empty());
  s.add({3, {1}, false});
  EXPECT_FALSE(s.empty());
  EXPECT_EQ(s.events_at(3).size(), 1u);
  EXPECT_EQ(s.events_at(4).size(), 0u);
}

}  // namespace
}  // namespace rpcg
