// The pipelined (communication-hiding) PCG family: registry construction,
// exact-arithmetic agreement with the blocking reference on small systems,
// phi = 0 equivalence of the resilient variant with the plain pipelined
// solver, ESR survival of the blocking engine's multi-failure schedules,
// and the overlap accounting contract (exposed < posted on a
// latency-dominated interconnect; pipelined exposes less reduction time
// than the blocking solver posts in total).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "core/pipelined_pcg.hpp"
#include "engine/registry.hpp"
#include "sparse/generators.hpp"
#include "test_util.hpp"

namespace rpcg {
namespace {

using testing::max_diff;

engine::Problem small_problem(int nodes = 8) {
  return engine::ProblemBuilder()
      .matrix(poisson2d_5pt(16, 16))
      .nodes(nodes)
      .preconditioner("bjacobi")
      .build();
}

FailureSchedule two_event_schedule() {
  FailureSchedule schedule;
  FailureEvent first;
  first.iteration = 3;
  first.nodes = {1, 2};
  schedule.add(std::move(first));
  FailureEvent second;
  second.iteration = 7;
  second.nodes = {5, 6};
  schedule.add(std::move(second));
  return schedule;
}

TEST(PipelinedPcg, RegistryConstructsAllFourVariants) {
  auto& registry = engine::SolverRegistry::instance();
  const auto names = registry.names();
  for (const char* key : {"pipelined-pcg", "pipelined-resilient-pcg",
                          "pipelined-cr", "pipelined-resilient-cr"}) {
    EXPECT_TRUE(registry.contains(key)) << key;
    EXPECT_NE(std::find(names.begin(), names.end(), key), names.end()) << key;
    EXPECT_EQ(registry.create(key, {})->name(), key);
  }
}

TEST(PipelinedPcg, MatchesBlockingPcgOnSmallSystem) {
  // In exact arithmetic the pipelined recurrences are algebraically PCG;
  // in floating point, solutions and iteration counts agree to the solver
  // tolerance on a well-conditioned small system.
  engine::Problem problem = small_problem();
  engine::SolverConfig cfg;
  cfg.rtol = 1e-10;

  DistVector x_ref = problem.make_x();
  const engine::SolveReport ref =
      engine::SolverRegistry::instance().create("pcg", cfg)->solve(problem,
                                                                   x_ref);
  ASSERT_TRUE(ref.converged);

  DistVector x_pipe = problem.make_x();
  const engine::SolveReport pipe =
      engine::SolverRegistry::instance()
          .create("pipelined-pcg", cfg)
          ->solve(problem, x_pipe);
  ASSERT_TRUE(pipe.converged);

  EXPECT_LT(max_diff(x_ref.gather_global(), x_pipe.gather_global()), 1e-8);
  EXPECT_NEAR(pipe.iterations, ref.iterations, 3);
  // The recurrence residual must track the true residual (Eqn. 7 metric
  // stays small on a well-conditioned system).
  EXPECT_LT(std::abs(pipe.delta_metric), 1e-3);
}

TEST(PipelinedPcg, PhiZeroResilientIsBytewiseThePlainSolver) {
  // One engine serves both registry keys; with phi = 0 and no failures the
  // resilient variant must match the plain pipelined solver byte for byte
  // (modulo the host wall clock and the registry name in the report).
  engine::Problem problem = small_problem();
  engine::SolverConfig cfg;
  cfg.rtol = 1e-9;
  cfg.phi = 0;

  const auto run = [&](const std::string& name) {
    DistVector x = problem.make_x();
    engine::SolveReport rep = engine::SolverRegistry::instance()
                                  .create(name, cfg)
                                  ->solve(problem, x);
    rep.wall_seconds = 0.0;
    rep.solver = "normalized";
    return std::pair{rep.to_json(), x.gather_global()};
  };

  const auto [plain_json, plain_x] = run("pipelined-pcg");
  const auto [res_json, res_x] = run("pipelined-resilient-pcg");
  EXPECT_EQ(plain_json, res_json);
  ASSERT_EQ(plain_x.size(), res_x.size());
  for (std::size_t i = 0; i < plain_x.size(); ++i)
    ASSERT_EQ(plain_x[i], res_x[i]) << "entry " << i;
}

TEST(PipelinedPcg, PlainVariantRejectsFailureSchedules) {
  engine::Problem problem = small_problem();
  DistVector x = problem.make_x();
  const auto solver =
      engine::SolverRegistry::instance().create("pipelined-pcg", {});
  EXPECT_THROW((void)solver->solve(problem, x, two_event_schedule()),
               std::logic_error);
}

TEST(PipelinedPcg, SurvivesTheBlockingEnginesFailureSchedules) {
  // The same multi-failure schedule the blocking resilient engine is tested
  // with: two separate psi = 2 events, ESR with phi = 2, convergence to the
  // same tolerance and the same solution as the failure-free run.
  engine::Problem problem = small_problem();
  engine::SolverConfig cfg;
  cfg.rtol = 1e-9;
  cfg.phi = 2;
  cfg.recovery = RecoveryMethod::kEsr;

  DistVector x_ref = problem.make_x();
  const engine::SolveReport ref = engine::SolverRegistry::instance()
                                      .create("pipelined-pcg", [] {
                                        engine::SolverConfig c;
                                        c.rtol = 1e-9;
                                        return c;
                                      }())
                                      ->solve(problem, x_ref);
  ASSERT_TRUE(ref.converged);

  DistVector x = problem.make_x();
  const engine::SolveReport rep =
      engine::SolverRegistry::instance()
          .create("pipelined-resilient-pcg", cfg)
          ->solve(problem, x, two_event_schedule());
  ASSERT_TRUE(rep.converged);
  ASSERT_EQ(rep.recoveries.size(), 2u);
  EXPECT_EQ(rep.recoveries[0].nodes, (std::vector<NodeId>{1, 2}));
  EXPECT_EQ(rep.recoveries[1].nodes, (std::vector<NodeId>{5, 6}));
  EXPECT_LE(rep.rel_residual, 1e-9);
  EXPECT_LT(max_diff(x.gather_global(), x_ref.gather_global()), 1e-6);
  // Exact reconstruction keeps the trajectory: iteration counts stay close.
  EXPECT_NEAR(rep.iterations, ref.iterations, 6);
}

TEST(PipelinedPcg, SurvivesOverlappingFailures) {
  engine::Problem problem = small_problem();
  engine::SolverConfig cfg;
  cfg.rtol = 1e-9;
  cfg.phi = 4;
  FailureSchedule schedule;
  FailureEvent first;
  first.iteration = 4;
  first.nodes = {2, 3};
  schedule.add(std::move(first));
  FailureEvent second;
  second.iteration = 4;
  second.nodes = {5, 6};
  second.during_recovery = true;
  schedule.add(std::move(second));

  DistVector x = problem.make_x();
  const engine::SolveReport rep =
      engine::SolverRegistry::instance()
          .create("pipelined-resilient-pcg", cfg)
          ->solve(problem, x, schedule);
  ASSERT_TRUE(rep.converged);
  ASSERT_EQ(rep.recoveries.size(), 1u);  // merged into one recovery
  EXPECT_EQ(rep.recoveries[0].nodes, (std::vector<NodeId>{2, 3, 5, 6}));
}

TEST(PipelinedPcg, HidesReductionLatencyOnLatencyDominatedInterconnect) {
  // Acceptance contract: on a latency-dominated CommModel, the pipelined
  // solver's *exposed* reduction time stays strictly below the blocking
  // solver's *total* reduction time under the same failure schedule, and
  // a nonzero share of its posted latency is hidden.
  CommParams comm;
  comm.latency_s = 1e-3;  // 1 ms messages: reductions dominate
  engine::Problem problem = engine::ProblemBuilder()
                                .matrix(poisson2d_5pt(16, 16))
                                .nodes(8)
                                .preconditioner("bjacobi")
                                .comm(comm)
                                .build();
  engine::SolverConfig cfg;
  cfg.rtol = 1e-9;
  cfg.phi = 2;
  cfg.recovery = RecoveryMethod::kEsr;
  const FailureSchedule schedule = two_event_schedule();

  DistVector x_b = problem.make_x();
  const engine::SolveReport blocking =
      engine::SolverRegistry::instance()
          .create("resilient-pcg", cfg)
          ->solve(problem, x_b, schedule);
  ASSERT_TRUE(blocking.converged);

  DistVector x_p = problem.make_x();
  const engine::SolveReport pipelined =
      engine::SolverRegistry::instance()
          .create("pipelined-resilient-pcg", cfg)
          ->solve(problem, x_p, schedule);
  ASSERT_TRUE(pipelined.converged);

  // Blocking reductions are fully exposed; in-memory accounting is
  // populated for every solver.
  EXPECT_GT(blocking.reductions.posted_s, 0.0);
  EXPECT_DOUBLE_EQ(blocking.reductions.hidden_s, 0.0);
  EXPECT_DOUBLE_EQ(blocking.reductions.exposed_s,
                   blocking.reductions.posted_s);

  EXPECT_GT(pipelined.reductions.hidden_s, 0.0);
  EXPECT_LT(pipelined.reductions.exposed_s, pipelined.reductions.posted_s);
  EXPECT_LT(pipelined.reductions.exposed_s, blocking.reductions.posted_s);
  EXPECT_NEAR(
      pipelined.reductions.posted_s,
      pipelined.reductions.hidden_s + pipelined.reductions.exposed_s, 1e-12);
}

TEST(PipelinedPcg, DepthLMatchesBlockingPcgOnSmallSystem) {
  // The deep ring predicts its scalars from a d-iteration-old Gram matrix;
  // on a well-conditioned system the prediction error is O(eps * local
  // scale), so every depth must land on the reference solution with an
  // iteration count within a few of the blocking solver's.
  engine::Problem problem = small_problem();
  engine::SolverConfig ref_cfg;
  ref_cfg.rtol = 1e-10;
  DistVector x_ref = problem.make_x();
  const engine::SolveReport ref =
      engine::SolverRegistry::instance().create("pcg", ref_cfg)->solve(
          problem, x_ref);
  ASSERT_TRUE(ref.converged);

  for (const char* name : {"pipelined-pcg", "pipelined-cr"}) {
    for (const int depth : {2, 3, 4}) {
      engine::SolverConfig cfg;
      cfg.rtol = 1e-10;
      cfg.pipeline_depth = depth;
      DistVector x = problem.make_x();
      const engine::SolveReport rep =
          engine::SolverRegistry::instance().create(name, cfg)->solve(problem,
                                                                      x);
      ASSERT_TRUE(rep.converged) << name << " depth " << depth;
      EXPECT_LT(max_diff(x_ref.gather_global(), x.gather_global()), 1e-8)
          << name << " depth " << depth;
      EXPECT_NEAR(rep.iterations, ref.iterations, 6)
          << name << " depth " << depth;
    }
  }
}

TEST(PipelinedPcg, PipelinedCrMatchesReferenceConjugateResidual) {
  // Exact-arithmetic cross-check of the CR inner products: a plain-double
  // preconditioned CR loop (Jacobi M, the same Ghysels–Vanroose recurrences
  // computed with blocking global dots) must agree with the distributed
  // pipelined-cr engine on trajectory and solution. Early residuals agree
  // tightly; by convergence only roundoff-level divergence is allowed.
  const CsrMatrix a = poisson2d_5pt(16, 16);
  const Index n = a.rows();
  std::vector<double> diag(static_cast<std::size_t>(n));
  for (Index i = 0; i < n; ++i)
    diag[static_cast<std::size_t>(i)] = a.value_at(i, i);
  std::vector<double> bg(static_cast<std::size_t>(n));
  {
    const std::vector<double> ones(static_cast<std::size_t>(n), 1.0);
    a.spmv(ones, bg);
  }

  // Reference CR: gamma = u^T w, delta = w^T M^-1 w, identical recurrences.
  std::vector<double> x_ref(static_cast<std::size_t>(n), 0.0);
  std::vector<double> ref_history;
  int ref_iterations = 0;
  {
    using Vec = std::vector<double>;
    const auto nn = static_cast<std::size_t>(n);
    const auto vdot = [](const Vec& p, const Vec& q) {
      double acc = 0.0;
      for (std::size_t i = 0; i < p.size(); ++i) acc += p[i] * q[i];
      return acc;
    };
    const auto prec = [&diag, nn](const Vec& v) {
      Vec out(nn);
      for (std::size_t i = 0; i < nn; ++i) out[i] = v[i] / diag[i];
      return out;
    };
    const auto amul = [&a, nn](const Vec& v) {
      Vec out(nn);
      a.spmv(v, out);
      return out;
    };
    Vec r = bg, u = prec(r), w = amul(u);
    Vec s(nn, 0.0), q(nn, 0.0), z(nn, 0.0), p(nn, 0.0);
    double gamma_prev = 0.0, alpha_prev = 0.0, rnorm0 = 0.0;
    for (int k = 0; k < 400; ++k) {
      const Vec m = prec(w);
      const double gamma = vdot(u, w);
      const double delta = vdot(w, m);
      const double rr = vdot(r, r);
      if (k == 0) rnorm0 = std::sqrt(rr);
      const double rel = std::sqrt(rr) / rnorm0;
      if (k > 0) ref_history.push_back(rel);
      if (rel <= 1e-9) {
        ref_iterations = k;
        break;
      }
      const Vec nv = amul(m);
      double beta = 0.0, alpha = 0.0;
      if (k == 0) {
        alpha = gamma / delta;
      } else {
        beta = gamma / gamma_prev;
        alpha = gamma / (delta - beta * gamma / alpha_prev);
      }
      for (std::size_t i = 0; i < nn; ++i) {
        s[i] = w[i] + beta * s[i];
        q[i] = m[i] + beta * q[i];
        z[i] = nv[i] + beta * z[i];
        p[i] = u[i] + beta * p[i];
        x_ref[i] += alpha * p[i];
        r[i] -= alpha * s[i];
        u[i] -= alpha * q[i];
        w[i] -= alpha * z[i];
      }
      gamma_prev = gamma;
      alpha_prev = alpha;
    }
    ASSERT_GT(ref_iterations, 10);  // the cross-check must be non-trivial
  }

  for (const int depth : {1, 3}) {
    engine::Problem problem = engine::ProblemBuilder()
                                  .matrix(poisson2d_5pt(16, 16))
                                  .nodes(8)
                                  .preconditioner("jacobi")
                                  .build();
    engine::SolverConfig cfg;
    cfg.rtol = 1e-9;
    cfg.pipeline_depth = depth;
    std::vector<double> history;
    cfg.events.on_iteration = [&history](const IterationSnapshot& snap) {
      history.push_back(snap.rel_residual);
    };
    DistVector x = problem.make_x();
    const engine::SolveReport rep =
        engine::SolverRegistry::instance().create("pipelined-cr", cfg)->solve(
            problem, x);
    ASSERT_TRUE(rep.converged) << "depth " << depth;
    EXPECT_NEAR(rep.iterations, ref_iterations, 3) << "depth " << depth;
    EXPECT_LT(max_diff(x.gather_global(), x_ref), 1e-6) << "depth " << depth;
    const std::size_t prefix = std::min<std::size_t>(10, history.size());
    ASSERT_GE(ref_history.size(), prefix);
    for (std::size_t i = 0; i < prefix; ++i)
      EXPECT_NEAR(history[i], ref_history[i], 1e-6 * ref_history[i])
          << "depth " << depth << " iteration " << i;
  }
}

TEST(PipelinedPcg, PlainCrVariantRejectsFailureSchedules) {
  engine::Problem problem = small_problem();
  DistVector x = problem.make_x();
  const auto solver =
      engine::SolverRegistry::instance().create("pipelined-cr", {});
  EXPECT_THROW((void)solver->solve(problem, x, two_event_schedule()),
               std::logic_error);
}

TEST(PipelinedPcg, CrPhiZeroResilientIsBytewiseThePlainSolver) {
  // Same single-code-path contract as the CG pair, across depths.
  engine::Problem problem = small_problem();
  for (const int depth : {1, 2}) {
    engine::SolverConfig cfg;
    cfg.rtol = 1e-9;
    cfg.phi = 0;
    cfg.pipeline_depth = depth;
    const auto run = [&](const std::string& name) {
      DistVector x = problem.make_x();
      engine::SolveReport rep = engine::SolverRegistry::instance()
                                    .create(name, cfg)
                                    ->solve(problem, x);
      rep.wall_seconds = 0.0;
      rep.solver = "normalized";
      return std::pair{rep.to_json(), x.gather_global()};
    };
    const auto [plain_json, plain_x] = run("pipelined-cr");
    const auto [res_json, res_x] = run("pipelined-resilient-cr");
    EXPECT_EQ(plain_json, res_json) << "depth " << depth;
    ASSERT_EQ(plain_x.size(), res_x.size());
    for (std::size_t i = 0; i < plain_x.size(); ++i)
      ASSERT_EQ(plain_x[i], res_x[i]) << "depth " << depth << " entry " << i;
  }
}

TEST(PipelinedPcg, DeepRingSurvivesMultiFailureSchedules) {
  // Depth-l recovery: a failure flushes the in-flight ring, reconstructs
  // x/r/u (depth+1 generations) via ESR, rebuilds the chain ladders, and
  // re-enters warmup. Both resilient families must converge through the
  // blocking engine's two-event schedule at every depth and land on the
  // failure-free solution.
  engine::Problem problem = small_problem();
  for (const char* name :
       {"pipelined-resilient-pcg", "pipelined-resilient-cr"}) {
    for (const int depth : {2, 3, 4}) {
      engine::SolverConfig cfg;
      cfg.rtol = 1e-9;
      cfg.phi = 2;
      cfg.recovery = RecoveryMethod::kEsr;
      cfg.pipeline_depth = depth;

      engine::SolverConfig plain_cfg;
      plain_cfg.rtol = 1e-9;
      plain_cfg.pipeline_depth = depth;
      const std::string plain_name =
          std::string(name) == "pipelined-resilient-cr" ? "pipelined-cr"
                                                        : "pipelined-pcg";
      DistVector x_ref = problem.make_x();
      const engine::SolveReport ref =
          engine::SolverRegistry::instance()
              .create(plain_name, plain_cfg)
              ->solve(problem, x_ref);
      ASSERT_TRUE(ref.converged) << name << " depth " << depth;

      DistVector x = problem.make_x();
      const engine::SolveReport rep =
          engine::SolverRegistry::instance().create(name, cfg)->solve(
              problem, x, two_event_schedule());
      ASSERT_TRUE(rep.converged) << name << " depth " << depth;
      ASSERT_EQ(rep.recoveries.size(), 2u) << name << " depth " << depth;
      EXPECT_EQ(rep.recoveries[0].nodes, (std::vector<NodeId>{1, 2}));
      EXPECT_EQ(rep.recoveries[1].nodes, (std::vector<NodeId>{5, 6}));
      EXPECT_LE(rep.rel_residual, 1e-9);
      EXPECT_LT(max_diff(x.gather_global(), x_ref.gather_global()), 1e-6)
          << name << " depth " << depth;
      EXPECT_NEAR(rep.iterations, ref.iterations, 3 * depth + 6)
          << name << " depth " << depth;
    }
  }
}

TEST(PipelinedPcg, DeepRingSurvivesOverlappingFailures) {
  engine::Problem problem = small_problem();
  FailureSchedule schedule;
  FailureEvent first;
  first.iteration = 4;
  first.nodes = {2, 3};
  schedule.add(std::move(first));
  FailureEvent second;
  second.iteration = 4;
  second.nodes = {5, 6};
  second.during_recovery = true;
  schedule.add(std::move(second));

  for (const char* name :
       {"pipelined-resilient-pcg", "pipelined-resilient-cr"}) {
    engine::SolverConfig cfg;
    cfg.rtol = 1e-9;
    cfg.phi = 4;
    cfg.pipeline_depth = 3;
    DistVector x = problem.make_x();
    const engine::SolveReport rep =
        engine::SolverRegistry::instance().create(name, cfg)->solve(
            problem, x, schedule);
    ASSERT_TRUE(rep.converged) << name;
    ASSERT_EQ(rep.recoveries.size(), 1u) << name;  // merged into one recovery
    EXPECT_EQ(rep.recoveries[0].nodes, (std::vector<NodeId>{2, 3, 5, 6}))
        << name;
  }
}

TEST(PipelinedPcg, DeeperRingsExposeLessOnLatencyDominatedInterconnect) {
  // The perf contract of the depth knob: with 1 ms messages, each extra
  // reduction in flight buys roughly one more iteration of work to hide
  // behind, so exposed reduction time strictly drops from depth 1 to depth 2
  // and keeps (weakly) dropping to depth 4; the in-flight high-water mark
  // must reach the configured depth.
  CommParams comm;
  comm.latency_s = 1e-3;
  engine::Problem problem = engine::ProblemBuilder()
                                .matrix(poisson2d_5pt(16, 16))
                                .nodes(8)
                                .preconditioner("bjacobi")
                                .comm(comm)
                                .build();
  for (const char* name : {"pipelined-pcg", "pipelined-cr"}) {
    double exposed_d1 = 0.0, exposed_d2 = 0.0;
    for (const int depth : {1, 2, 4}) {
      engine::SolverConfig cfg;
      cfg.rtol = 1e-9;
      cfg.pipeline_depth = depth;
      DistVector x = problem.make_x();
      const engine::SolveReport rep =
          engine::SolverRegistry::instance().create(name, cfg)->solve(problem,
                                                                      x);
      ASSERT_TRUE(rep.converged) << name << " depth " << depth;
      EXPECT_EQ(rep.reductions.max_in_flight, depth)
          << name << " depth " << depth;
      EXPECT_GT(rep.reductions.hidden_s, 0.0) << name << " depth " << depth;
      if (depth == 1) {
        exposed_d1 = rep.reductions.exposed_s;
      } else if (depth == 2) {
        exposed_d2 = rep.reductions.exposed_s;
        EXPECT_LT(exposed_d2, exposed_d1) << name;
      } else {
        EXPECT_LE(rep.reductions.exposed_s, exposed_d2 * 1.05) << name;
      }
    }
  }
}

TEST(PipelinedPcg, OutOfRangeDepthThrows) {
  engine::Problem problem = small_problem();
  for (const int depth : {0, -1, kMaxPipelineDepth + 1}) {
    engine::SolverConfig cfg;
    cfg.pipeline_depth = depth;
    DistVector x = problem.make_x();
    EXPECT_THROW((void)engine::SolverRegistry::instance()
                     .create("pipelined-pcg", cfg)
                     ->solve(problem, x),
                 std::invalid_argument)
        << depth;
  }
}

TEST(PipelinedPcg, DirectEngineMatchesRegistrySolver) {
  // The core-layer engine and its registry adapter are the same solve.
  const CsrMatrix a = poisson2d_5pt(12, 12);
  const Partition part = Partition::block_rows(a.rows(), 6);
  const auto m = make_preconditioner("bjacobi", a, part);
  DistVector b(part);
  {
    std::vector<double> ones(static_cast<std::size_t>(a.rows()), 1.0);
    std::vector<double> bg(static_cast<std::size_t>(a.rows()));
    a.spmv(ones, bg);
    b.set_global(bg);
  }
  Cluster cluster(part, CommParams{});
  PipelinedPcgOptions opts;
  opts.pcg.rtol = 1e-9;
  PipelinedPcg engine(cluster, a, *m, opts);
  DistVector x(part);
  const engine::SolveReport res = engine.solve(b, x);
  ASSERT_TRUE(res.converged);
  const std::vector<double> xg = x.gather_global();
  for (const double v : xg) EXPECT_NEAR(v, 1.0, 1e-7);
}

}  // namespace
}  // namespace rpcg
