// FactorizationCache contract tests: hit/miss accounting, coalesced and
// failed builds, invalidation when an overlapping failure changes the
// surviving block structure mid-recovery, the refusal of an entry built for
// other rows, and the headline guarantee that cached and uncached ESR
// reconstruction produce byte-identical SolveReports and bitwise-identical
// iterates (the cache is a host-side wall-clock optimization only; every
// simulated cost is charged on hits too).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/errors.hpp"
#include "core/factorization_cache.hpp"
#include "core/resilient_pcg.hpp"
#include "engine/registry.hpp"
#include "repro/matrices.hpp"
#include "sparse/generators.hpp"
#include "test_util.hpp"

namespace rpcg {
namespace {

using testing::eventually;

engine::Problem make_problem() {
  return engine::ProblemBuilder()
      .matrix(poisson2d_5pt(14, 14))
      .nodes(7)
      .preconditioner("bjacobi")
      .build();
}

FailureSchedule schedule_at(int iteration, std::vector<NodeId> nodes) {
  FailureSchedule schedule;
  FailureEvent ev;
  ev.iteration = iteration;
  ev.nodes = std::move(nodes);
  schedule.add(std::move(ev));
  return schedule;
}

engine::SolverConfig esr_config(int phi, bool cache) {
  engine::SolverConfig cfg;
  cfg.rtol = 1e-9;
  cfg.recovery = RecoveryMethod::kEsr;
  cfg.phi = phi;
  cfg.factorization_cache = cache;
  return cfg;
}

engine::SolveReport solve(engine::Problem& problem,
                          const engine::SolverConfig& cfg,
                          const FailureSchedule& schedule, DistVector& x) {
  const auto solver =
      engine::SolverRegistry::instance().create("resilient-pcg", cfg);
  x = problem.make_x();
  return solver->solve(problem, x, schedule);
}

TEST(FactorizationCache, RepeatedFailureSetHitsAfterFirstMiss) {
  engine::Problem problem = make_problem();
  const engine::SolverConfig cfg = esr_config(2, true);
  const FailureSchedule schedule = schedule_at(2, {1, 3});

  DistVector x;
  (void)solve(problem, cfg, schedule, x);
  auto s = problem.factorization_cache().stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.entries, 1u);

  // Same failed set again (a harness rep): pure hit.
  (void)solve(problem, cfg, schedule, x);
  s = problem.factorization_cache().stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 1u);

  // A different failed set is a different key.
  (void)solve(problem, cfg, schedule_at(2, {4, 5}), x);
  s = problem.factorization_cache().stats();
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.entries, 2u);
}

TEST(FactorizationCache, DisabledConfigBypassesTheCache) {
  engine::Problem problem = make_problem();
  DistVector x;
  (void)solve(problem, esr_config(2, false), schedule_at(2, {1, 3}), x);
  const auto s = problem.factorization_cache().stats();
  EXPECT_EQ(s.hits + s.misses, 0u);
  EXPECT_EQ(s.entries, 0u);
}

TEST(FactorizationCache, OverlappingFailureInvalidatesIntersectingEntries) {
  engine::Problem problem = make_problem();
  const engine::SolverConfig cfg = esr_config(4, true);

  // Seed the cache with the entry for {1, 2}.
  DistVector x;
  (void)solve(problem, cfg, schedule_at(2, {1, 2}), x);
  ASSERT_EQ(problem.factorization_cache().stats().entries, 1u);

  // An overlapping chain at one iteration: the reconstruction of {1, 2} is
  // interrupted by a failure of {3}, so the in-flight entry is dropped and
  // the union {1, 2, 3} is reconstructed from scratch.
  FailureSchedule overlap = schedule_at(2, {1, 2});
  FailureEvent second;
  second.iteration = 2;
  second.nodes = {3};
  second.during_recovery = true;
  overlap.add(std::move(second));
  (void)solve(problem, cfg, overlap, x);

  const auto s = problem.factorization_cache().stats();
  EXPECT_EQ(s.invalidated, 1u);   // the {1, 2} entry
  EXPECT_EQ(s.entries, 1u);       // only {1, 2, 3} remains
  EXPECT_EQ(s.hits, 0u);

  // {1, 2} must rebuild on next use — its entry is gone.
  (void)solve(problem, cfg, schedule_at(2, {1, 2}), x);
  EXPECT_EQ(problem.factorization_cache().stats().misses, 3u);
}

TEST(FactorizationCache,
     PipelinedSolverInvalidatesOnFailureDuringRecoveryToo) {
  // The pipelined engine shares the ESR reconstruction path; a chain that
  // interrupts a recovery must drop the in-flight entry there as well.
  engine::Problem problem = make_problem();
  engine::SolverConfig cfg = esr_config(4, true);

  const auto solve_pipelined = [&](const FailureSchedule& schedule) {
    const auto solver =
        engine::SolverRegistry::instance().create("pipelined-resilient-pcg",
                                                  cfg);
    DistVector x = problem.make_x();
    return solver->solve(problem, x, schedule);
  };

  (void)solve_pipelined(schedule_at(2, {1, 2}));
  ASSERT_EQ(problem.factorization_cache().stats().entries, 1u);

  FailureSchedule overlap = schedule_at(2, {1, 2});
  FailureEvent second;
  second.iteration = 2;
  second.nodes = {3};
  second.during_recovery = true;
  overlap.add(std::move(second));
  (void)solve_pipelined(overlap);

  const auto s = problem.factorization_cache().stats();
  EXPECT_EQ(s.invalidated, 1u);   // the {1, 2} entry
  EXPECT_EQ(s.entries, 1u);       // only the union {1, 2, 3} remains
  EXPECT_EQ(s.hits, 0u);

  (void)solve_pipelined(schedule_at(2, {1, 2}));
  EXPECT_EQ(problem.factorization_cache().stats().misses, 3u);
}

TEST(FactorizationCache, UpstreamRetainsEntriesPastLocalInvalidation) {
  // Layered setup as the service wires it: a job-local cache delegating to a
  // shared upstream. A failure-during-recovery invalidates the local entry,
  // but the upstream keeps its copy — the next request is an upstream hit,
  // not a rebuild. Cross-job reuse survives intra-job invalidation.
  FactorizationCache upstream;
  FactorizationCache local;
  local.set_upstream(upstream.as_upstream());

  int builds = 0;
  const auto build = [&builds]() {
    ++builds;
    FactorizationCache::Entry e;
    e.a_ff = CsrMatrix::identity(6);
    return e;
  };
  const auto key = FactorizationCache::matrix_key(CsrMatrix::identity(6));
  const std::vector<NodeId> set{1, 2};

  (void)local.get_or_build("t", key, set, build);
  EXPECT_EQ(builds, 1);

  // A second failure of {2} lands during the recovery of {1, 2}: the solver
  // drops every local entry intersecting the newly failed set.
  EXPECT_EQ(local.invalidate_overlapping(std::vector<NodeId>{2}), 1u);
  EXPECT_EQ(local.stats().entries, 0u);

  const auto again = local.get_or_build("t", key, set, build);
  EXPECT_EQ(builds, 1);  // served by the upstream, no rebuild
  EXPECT_EQ(upstream.stats().hits, 1u);
  EXPECT_EQ(again->a_ff.rows(), 6);
}

TEST(FactorizationCache, DirectApiAccounting) {
  FactorizationCache cache;
  int builds = 0;
  const auto build = [&builds]() {
    ++builds;
    FactorizationCache::Entry e;
    e.a_ff = CsrMatrix::identity(4);
    return e;
  };
  const auto marker = FactorizationCache::matrix_key(CsrMatrix::identity(4));
  const std::vector<NodeId> set{2, 0};

  const auto first = cache.get_or_build("t", marker, set, build);
  // Node order must not matter: {0, 2} is the same key as {2, 0}.
  const std::vector<NodeId> sorted_set{0, 2};
  const auto second = cache.get_or_build("t", marker, sorted_set, build);
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(builds, 1);

  // Different tag or matrix key: different entries.
  (void)cache.get_or_build("u", marker, set, build);
  const auto other = FactorizationCache::matrix_key(CsrMatrix::identity(5));
  (void)cache.get_or_build("t", other, set, build);
  EXPECT_EQ(builds, 3);

  // Invalidation by intersection; non-intersecting sets survive.
  (void)cache.get_or_build("t", marker, std::vector<NodeId>{5}, build);
  const std::vector<NodeId> hit_set{2};
  EXPECT_EQ(cache.invalidate_overlapping(hit_set), 3u);
  auto s = cache.stats();
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.invalidated, 3u);

  cache.clear();
  s = cache.stats();
  EXPECT_EQ(s.entries, 0u);
  EXPECT_EQ(s.invalidated, 4u);

  // Entries returned before clear() stay alive (shared ownership).
  EXPECT_EQ(first->a_ff.rows(), 4);
}

TEST(FactorizationCache, MatrixKeyIsContentDerived) {
  // Two distinct objects with identical content share one key: this is what
  // lets a shared cache hit across Problems that each own a matrix copy.
  const CsrMatrix a = poisson2d_5pt(9, 9);
  const CsrMatrix b = poisson2d_5pt(9, 9);
  ASSERT_NE(&a, &b);
  const auto ka = FactorizationCache::matrix_key(a);
  EXPECT_EQ(ka, FactorizationCache::matrix_key(b));
  EXPECT_EQ(ka.rows, a.rows());
  EXPECT_EQ(ka.nnz, a.nnz());

  FactorizationCache cache;
  int builds = 0;
  const auto build = [&builds]() {
    ++builds;
    FactorizationCache::Entry e;
    e.a_ff = CsrMatrix::identity(2);
    return e;
  };
  const std::vector<NodeId> set{0};
  (void)cache.get_or_build("t", FactorizationCache::matrix_key(a), set, build);
  (void)cache.get_or_build("t", FactorizationCache::matrix_key(b), set, build);
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(cache.stats().hits, 1u);
}

// The digest runs over four lanes of words; two values that trade places
// land in neighbouring lanes, and the lanes fold in order, so the swap still
// shows. One swap per position mod 4 covers every pair of neighbouring lanes.
TEST(FactorizationCache, MatrixKeySeparatesSwappedAdjacentValues) {
  const CsrMatrix a = poisson2d_5pt(9, 9);
  const auto ka = FactorizationCache::matrix_key(a);
  const auto values = a.values();
  for (std::size_t p0 = 0; p0 < 4; ++p0) {
    std::size_t p = p0;
    while (p + 1 < values.size() && values[p] == values[p + 1]) p += 4;
    ASSERT_LT(p + 1, values.size());
    CsrMatrix b = a;
    std::swap(b.mutable_values()[p], b.mutable_values()[p + 1]);
    EXPECT_NE(FactorizationCache::matrix_key(b).digest, ka.digest) << p;
  }
}

TEST(FactorizationCache, MatrixKeySeparatesEqualShapeMatrices) {
  // Same dims and nnz, one value perturbed: only the digest can tell them
  // apart, and it must — tag reuse across different matrices must never
  // alias (the collision-behavior guarantee of the content key).
  const CsrMatrix a = poisson2d_5pt(9, 9);
  CsrMatrix b = poisson2d_5pt(9, 9);
  b.mutable_values()[7] += 1e-12;
  const auto ka = FactorizationCache::matrix_key(a);
  const auto kb = FactorizationCache::matrix_key(b);
  EXPECT_EQ(ka.rows, kb.rows);
  EXPECT_EQ(ka.nnz, kb.nnz);
  EXPECT_NE(ka.digest, kb.digest);
  EXPECT_NE(ka, kb);

  // The digest hashes value *bit patterns*, so even -0.0 vs 0.0 separates.
  CsrMatrix c = poisson2d_5pt(9, 9);
  CsrMatrix d = poisson2d_5pt(9, 9);
  c.mutable_values()[0] = 0.0;
  d.mutable_values()[0] = -0.0;
  EXPECT_NE(FactorizationCache::matrix_key(c),
            FactorizationCache::matrix_key(d));

  FactorizationCache cache;
  int builds = 0;
  const auto build = [&builds]() {
    ++builds;
    FactorizationCache::Entry e;
    e.a_ff = CsrMatrix::identity(2);
    return e;
  };
  const std::vector<NodeId> set{1};
  (void)cache.get_or_build("t", ka, set, build);
  (void)cache.get_or_build("t", kb, set, build);
  EXPECT_EQ(builds, 2);
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(FactorizationCache, UpstreamServesLocalMisses) {
  // Two sibling caches layered over one upstream: the second sibling's miss
  // is served by the upstream's retained entry, so the build runs once.
  FactorizationCache upstream;
  FactorizationCache left, right;
  left.set_upstream(upstream.as_upstream());
  right.set_upstream(upstream.as_upstream());

  int builds = 0;
  const auto build = [&builds]() {
    ++builds;
    FactorizationCache::Entry e;
    e.a_ff = CsrMatrix::identity(3);
    return e;
  };
  const auto key = FactorizationCache::matrix_key(CsrMatrix::identity(3));
  const std::vector<NodeId> set{0, 1};

  const auto from_left = left.get_or_build("t", key, set, build);
  const auto from_right = right.get_or_build("t", key, set, build);
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(from_left.get(), from_right.get());

  // Both locals missed (the entry was not resident), the upstream saw one
  // miss and one hit; each local now holds the entry and hits on its own.
  EXPECT_EQ(left.stats().misses, 1u);
  EXPECT_EQ(right.stats().misses, 1u);
  EXPECT_EQ(upstream.stats().misses, 1u);
  EXPECT_EQ(upstream.stats().hits, 1u);
  (void)left.get_or_build("t", key, set, build);
  EXPECT_EQ(left.stats().hits, 1u);
  EXPECT_EQ(upstream.stats().hits, 1u);  // not consulted again
}

FactorizationCache::MatrixKey test_key(int seed) {
  FactorizationCache::MatrixKey key;
  key.rows = key.cols = 4;
  key.nnz = 4;
  key.digest = static_cast<std::uint64_t>(seed);
  return key;
}

TEST(FactorizationCache, FailedBuildIsRetriedNotCached) {
  FactorizationCache cache;
  int calls = 0;
  const std::vector<NodeId> nodes{0};
  EXPECT_THROW((void)cache.get_or_build("t", test_key(1), nodes,
                                        [&calls]() -> FactorizationCache::Entry {
                                          ++calls;
                                          throw std::runtime_error("boom");
                                        }),
               std::runtime_error);
  EXPECT_EQ(cache.stats().entries, 0u);
  (void)cache.get_or_build("t", test_key(1), nodes, [&calls] {
    ++calls;
    return FactorizationCache::Entry{};
  });
  EXPECT_EQ(calls, 2);  // the failed slot was withdrawn, not served
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(FactorizationCache, ConcurrentRequestsCoalesceOntoOneBuild) {
  FactorizationCache cache;
  std::atomic<int> builds{0};
  std::promise<void> release;
  const std::shared_future<void> gate = release.get_future().share();
  const std::vector<NodeId> nodes{0};

  std::thread builder([&] {
    (void)cache.get_or_build("t", test_key(1), nodes, [&] {
      ++builds;
      gate.wait();  // hold the build open until the waiter has joined it
      return FactorizationCache::Entry{};
    });
  });
  // The builder has claimed the slot once misses hits 1.
  EXPECT_TRUE(eventually([&cache] { return cache.stats().misses == 1; }));

  FactorizationCache::EntryPtr waited;
  std::thread waiter([&] {
    waited = cache.get_or_build("t", test_key(1), nodes, [&] {
      ++builds;
      return FactorizationCache::Entry{};
    });
  });
  // The waiter joined the in-flight build (counted as a hit) without
  // starting a second factorization.
  EXPECT_TRUE(eventually([&cache] { return cache.stats().hits == 1; }));
  EXPECT_EQ(builds.load(), 1);

  release.set_value();
  builder.join();
  waiter.join();
  EXPECT_EQ(builds.load(), 1);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(waited.get(),
            cache.get_or_build("t", test_key(1), nodes, [] {
              return FactorizationCache::Entry{};
            }).get());
}

TEST(FactorizationCache, FailedBuildReachesEveryCoalescedWaiter) {
  // One failure of the shared level, reached by the builder and every
  // waiter that joined its build: each sees the typed CacheBuildFailure
  // with the original message, none builds a second time, and the failed
  // slot is withdrawn.
  FactorizationCache shared;
  const FactorizationCache::Upstream upstream = shared.as_upstream();
  constexpr int kWaiters = 3;
  std::atomic<int> builds{0};
  std::promise<void> release;
  const std::shared_future<void> gate = release.get_future().share();
  const std::vector<NodeId> nodes{0};
  const auto expect_failure =
      [&](const std::function<FactorizationCache::Entry()>& build) {
        try {
          (void)upstream("t", test_key(1), nodes, build);
          ADD_FAILURE() << "the build failure must reach this request";
        } catch (const CacheBuildFailure& e) {
          EXPECT_STREQ(e.what(),
                       "shared-cache factorization build failed: boom");
        }
      };

  std::thread builder([&] {
    expect_failure([&]() -> FactorizationCache::Entry {
      ++builds;
      gate.wait();  // hold the build open until every waiter has joined it
      throw std::runtime_error("boom");
    });
  });
  EXPECT_TRUE(eventually([&shared] { return shared.stats().misses == 1; }));
  std::vector<std::thread> waiters;
  waiters.reserve(kWaiters);
  for (int w = 0; w < kWaiters; ++w) {
    waiters.emplace_back([&] {
      expect_failure([&] {
        ++builds;
        return FactorizationCache::Entry{};
      });
    });
  }
  EXPECT_TRUE(eventually([&shared] {
    return shared.stats().hits == static_cast<std::uint64_t>(kWaiters);
  }));
  release.set_value();
  builder.join();
  for (std::thread& t : waiters) t.join();
  EXPECT_EQ(builds.load(), 1);
  EXPECT_EQ(shared.stats().entries, 0u);

  // The next request builds afresh instead of inheriting the failure.
  (void)upstream("t", test_key(1), nodes, [&builds] {
    ++builds;
    return FactorizationCache::Entry{};
  });
  EXPECT_EQ(builds.load(), 2);
  EXPECT_EQ(shared.stats().entries, 1u);
}

TEST(FactorizationCache, EntryServesOnlyTheRowsItWasBuiltFor) {
  // M2 at scale 8659 has 30 rows; node 2 holds rows 10-13 on 7 nodes and
  // 8-11 on 8 nodes. One cache handed to both solves keys both failures as
  // {2}: the second solve must refuse the first one's A_{IF,IF} instead of
  // reconstructing x from it.
  FactorizationCache cache;
  const auto solve_on = [&cache](int nodes) {
    engine::Problem problem =
        engine::ProblemBuilder()
            .matrix(repro::make_matrix(2, 8659.0).matrix)
            .nodes(nodes)
            .build();
    ResilientPcgOptions opts;
    opts.pcg.rtol = 1e-9;
    opts.method = RecoveryMethod::kEsr;
    opts.phi = 1;
    opts.esr.cache = &cache;
    Cluster cluster = problem.make_cluster();
    ResilientPcg solver(cluster, problem.matrix_global(), problem.matrix(),
                        problem.preconditioner(), opts);
    DistVector x = problem.make_x();
    return solver.solve(problem.rhs(), x, schedule_at(3, {2}));
  };
  ASSERT_TRUE(solve_on(7).converged);
  try {
    (void)solve_on(8);
    FAIL() << "an entry built for other rows must not be used";
  } catch (const std::invalid_argument& e) {
    FAIL() << "a mismatched entry is an internal fault, not an invalid job: "
           << e.what();
  } catch (const std::logic_error& e) {
    EXPECT_EQ(classify_exception(e), ErrorClass::kInternal);
    EXPECT_NE(std::string(e.what()).find("other rows"), std::string::npos)
        << e.what();
  }
}

class CachedVsUncached : public ::testing::TestWithParam<bool> {};

TEST_P(CachedVsUncached, IdenticalReportsAndIterates) {
  const bool exact_local_solve = GetParam();

  const auto run = [exact_local_solve](bool cache, std::string& json,
                                       std::vector<double>& solution) {
    engine::Problem problem = make_problem();
    engine::SolverConfig cfg = esr_config(3, cache);
    cfg.esr.exact_local_solve = exact_local_solve;
    // Two reps of the same failures, so the cached run actually hits.
    const FailureSchedule schedule = schedule_at(3, {2, 4, 5});
    DistVector x;
    for (int rep = 0; rep < 2; ++rep) {
      engine::SolveReport report = solve(problem, cfg, schedule, x);
      report.wall_seconds = 0.0;  // the only nondeterministic field
      json += report.to_json();
    }
    solution = x.gather_global();
    if (cache) {
      const auto s = problem.factorization_cache().stats();
      EXPECT_EQ(s.misses, 1u);
      EXPECT_GE(s.hits, 1u);
    }
  };

  std::string cached_json, uncached_json;
  std::vector<double> cached_x, uncached_x;
  run(true, cached_json, cached_x);
  run(false, uncached_json, uncached_x);

  EXPECT_EQ(cached_json, uncached_json);
  ASSERT_EQ(cached_x.size(), uncached_x.size());
  for (std::size_t i = 0; i < cached_x.size(); ++i)
    ASSERT_EQ(cached_x[i], uncached_x[i]) << "entry " << i;
}

INSTANTIATE_TEST_SUITE_P(Ic0AndExact, CachedVsUncached, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& p) {
                           return p.param ? "exact_ldlt" : "ic0_pcg";
                         });

TEST(FactorizationCache, CachedVsUncachedIdentityWithAmdSupernodalKernels) {
  // Same identity battery on an M2-style random-pattern matrix whose exact
  // local solves select AMD and pack supernodes — the cache must stay a
  // pure host-side optimization under the PR 5 kernels too.
  const auto run = [](bool cache, std::string& json,
                      std::vector<double>& solution) {
    engine::Problem problem = engine::ProblemBuilder()
                                  .matrix(random_spd(360, 10, 0.5, 60, 0xE1))
                                  .nodes(6)
                                  .preconditioner("bjacobi")
                                  .build();
    engine::SolverConfig cfg = esr_config(2, cache);
    cfg.esr.exact_local_solve = true;
    const FailureSchedule schedule = schedule_at(3, {1, 4});
    DistVector x;
    for (int rep = 0; rep < 2; ++rep) {
      engine::SolveReport report = solve(problem, cfg, schedule, x);
      report.wall_seconds = 0.0;
      json += report.to_json();
    }
    solution = x.gather_global();
  };
  std::string cached_json, uncached_json;
  std::vector<double> cached_x, uncached_x;
  run(true, cached_json, cached_x);
  run(false, uncached_json, uncached_x);
  EXPECT_EQ(cached_json, uncached_json);
  ASSERT_EQ(cached_x.size(), uncached_x.size());
  for (std::size_t i = 0; i < cached_x.size(); ++i)
    ASSERT_EQ(cached_x[i], uncached_x[i]) << "entry " << i;
}

}  // namespace
}  // namespace rpcg
