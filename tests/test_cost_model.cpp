// Analytical verification of the simulated-time accounting: the solver's
// reported times must decompose exactly into the per-operation costs of the
// model (SpMV scatter + flops, BLAS1, reductions, preconditioner applies,
// redundancy rounds). If these ever drift apart, the Table 2 overheads
// become meaningless — this is the test that pins the measurement
// instrument itself.
#include <gtest/gtest.h>

#include <cmath>

#include "core/resilient_pcg.hpp"
#include "sparse/generators.hpp"
#include "test_util.hpp"

namespace rpcg {
namespace {

using testing::random_vector;

struct Problem {
  CsrMatrix a = poisson2d_5pt(12, 12);
  Partition part = Partition::block_rows(a.rows(), 8);
  DistMatrix dist = DistMatrix::distribute(a, part);
  DistVector b{part};

  Problem() {
    std::vector<double> bg(static_cast<std::size_t>(a.rows()));
    a.spmv(random_vector(a.rows(), 8), bg);
    b.set_global(bg);
  }
};

// Model cost of one failure-free PCG iteration (matching the engine's ops:
// spmv, dot, 2 axpy, precond apply, dot_pair, copy-free xpby).
double iteration_cost(const Problem& p, const CommModel& model,
                      double precond_flops_max) {
  const auto scatter = p.dist.scatter_plan().comm_cost_per_node(model);
  double scatter_max = 0.0;
  for (const double c : scatter) scatter_max = std::max(scatter_max, c);
  double spmv_flops_max = 0.0;
  for (const double f : p.dist.spmv_flops_per_node())
    spmv_flops_max = std::max(spmv_flops_max, f);
  const auto blk = static_cast<double>(p.part.max_block_size());
  const int nn = p.part.num_nodes();

  double t = 0.0;
  t += scatter_max + model.compute_cost(spmv_flops_max);  // u = A p
  t += model.compute_cost(2.0 * blk) + model.allreduce_cost(nn, 1);  // p·u
  t += 2.0 * model.compute_cost(2.0 * blk);               // two axpys
  t += model.compute_cost(precond_flops_max);             // z = M⁻¹ r
  t += model.compute_cost(4.0 * blk) + model.allreduce_cost(nn, 2);  // dot_pair
  t += model.compute_cost(2.0 * blk);                     // p = z + beta p
  return t;
}

TEST(CostModel, ReferenceSolveDecomposesIntoPerIterationCosts) {
  Problem p;
  const auto m = make_identity_preconditioner();  // apply = copy: 1 flop/elem
  Cluster cluster(p.part, CommParams{});          // noise-free
  ResilientPcgOptions opts;
  opts.pcg.rtol = 1e-8;
  ResilientPcg solver(cluster, p.a, p.dist, *m, opts);
  DistVector x(p.part);
  const auto res = solver.solve(p.b, x, {});
  ASSERT_TRUE(res.converged);

  const CommModel model{CommParams{}};
  const auto blk = static_cast<double>(p.part.max_block_size());
  const double per_iter = iteration_cost(p, model, /*identity copy=*/blk);
  // Setup: one spmv + copy + axpy + precond + copy + dot_pair.
  const auto scatter = p.dist.scatter_plan().comm_cost_per_node(model);
  double scatter_max = 0.0;
  for (const double c : scatter) scatter_max = std::max(scatter_max, c);
  double spmv_flops_max = 0.0;
  for (const double f : p.dist.spmv_flops_per_node())
    spmv_flops_max = std::max(spmv_flops_max, f);
  double setup = scatter_max + model.compute_cost(spmv_flops_max);
  setup += model.compute_cost(1.0 * blk);  // copy b -> r
  setup += model.compute_cost(2.0 * blk);  // axpy
  setup += model.compute_cost(1.0 * blk);  // identity apply
  setup += model.compute_cost(1.0 * blk);  // copy z -> p
  setup += model.compute_cost(4.0 * blk) +
           model.allreduce_cost(p.part.num_nodes(), 2);  // dot_pair

  // The final iteration skips the p-update; add the difference back.
  const double skipped_tail = model.compute_cost(2.0 * blk);
  const double expected =
      setup + per_iter * res.iterations - skipped_tail;
  EXPECT_NEAR(res.sim_time, expected, 1e-12 * std::max(1.0, expected));
}

TEST(CostModel, RedundancyPhaseEqualsSchemeOverheadTimesIterations) {
  Problem p;
  const auto m = make_preconditioner("bjacobi", p.a, p.part);
  Cluster cluster(p.part, CommParams{});
  ResilientPcgOptions opts;
  opts.pcg.rtol = 1e-8;
  opts.method = RecoveryMethod::kEsr;
  opts.phi = 3;
  ResilientPcg solver(cluster, p.a, p.dist, *m, opts);
  DistVector x(p.part);
  const auto res = solver.solve(p.b, x, {});
  ASSERT_TRUE(res.converged);
  const double expected =
      solver.redundancy_overhead_per_iteration() * res.iterations;
  EXPECT_NEAR(res.sim_time_phase[static_cast<int>(Phase::kRedundancy)],
              expected, 1e-12 * std::max(1.0, expected));
}

TEST(CostModel, CheckpointPhaseEqualsWritesTimesCost) {
  Problem p;
  const auto m = make_preconditioner("bjacobi", p.a, p.part);
  const CommModel model{CommParams{}};
  for (const CheckpointMedium medium :
       {CheckpointMedium::kMemory, CheckpointMedium::kDisk}) {
    Cluster cluster(p.part, CommParams{});
    ResilientPcgOptions opts;
    opts.pcg.rtol = 1e-8;
    opts.method = RecoveryMethod::kCheckpointRestart;
    opts.checkpoint_interval = 10;
    opts.checkpoint.medium = medium;
    ResilientPcg solver(cluster, p.a, p.dist, *m, opts);
    DistVector x(p.part);
    const auto res = solver.solve(p.b, x, {});
    ASSERT_TRUE(res.converged) << to_string(medium);
    // Every save writes {x, r, p}: 3 blocks of the largest node at the
    // medium's default rates.
    const double expected =
        res.checkpoints_written *
        opts.checkpoint.write_cost(model, 3 * p.part.max_block_size());
    EXPECT_NEAR(res.sim_time_phase[static_cast<int>(Phase::kCheckpoint)],
                expected, 1e-12 * std::max(1.0, expected))
        << to_string(medium);
  }
}

TEST(CostModel, NoiseIsUnbiasedOverManyIterations) {
  Problem p;
  const auto m = make_preconditioner("bjacobi", p.a, p.part);
  // Noise-free baseline.
  double t_exact = 0.0;
  {
    Cluster cluster(p.part, CommParams{});
    ResilientPcgOptions opts;
    ResilientPcg solver(cluster, p.a, p.dist, *m, opts);
    DistVector x(p.part);
    t_exact = solver.solve(p.b, x, {}).sim_time;
  }
  // Mean over noisy replicas approaches the exact model time.
  double sum = 0.0;
  const int reps = 24;
  for (int r = 0; r < reps; ++r) {
    Cluster cluster(p.part, CommParams{});
    cluster.clock().set_noise(0.05, static_cast<std::uint64_t>(r) + 1);
    ResilientPcgOptions opts;
    ResilientPcg solver(cluster, p.a, p.dist, *m, opts);
    DistVector x(p.part);
    sum += solver.solve(p.b, x, {}).sim_time;
  }
  EXPECT_NEAR(sum / reps, t_exact, 0.01 * t_exact);
}

}  // namespace
}  // namespace rpcg
