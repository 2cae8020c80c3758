// The SolverService battery: the JSON-lines job front end, the cross-job
// SharedFactorizationCache (hit/miss/eviction/coalescing), ThreadPool::submit,
// and the service determinism contract — submission-order per-job reports are
// byte-identical no matter how many workers raced to produce them.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/failure_scenario.hpp"
#include "service/job.hpp"
#include "service/json_value.hpp"
#include "service/shared_cache.hpp"
#include "service/solver_service.hpp"
#include "util/thread_pool.hpp"

namespace {

using rpcg::FactorizationCache;
using rpcg::service::JobResult;
using rpcg::service::JobSpec;
using rpcg::service::JsonValue;
using rpcg::service::ServiceOptions;
using rpcg::service::ServiceReport;
using rpcg::service::SharedFactorizationCache;
using rpcg::service::SolverService;

// ---- JsonValue -----------------------------------------------------------

TEST(JsonValue, ParsesScalarsAndNesting) {
  const JsonValue v = JsonValue::parse(
      R"({"a": 1.5, "b": [true, null, "x\n"], "c": {"d": -2e3}})");
  ASSERT_EQ(v.kind(), JsonValue::Kind::kObject);
  const JsonValue* a = v.find("a");
  ASSERT_NE(a, nullptr);
  EXPECT_DOUBLE_EQ(a->as_number(), 1.5);
  const JsonValue* b = v.find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(b->as_array().size(), 3u);
  EXPECT_TRUE(b->as_array()[0].as_bool());
  EXPECT_EQ(b->as_array()[1].kind(), JsonValue::Kind::kNull);
  EXPECT_EQ(b->as_array()[2].as_string(), "x\n");
  const JsonValue* c = v.find("c");
  ASSERT_NE(c, nullptr);
  EXPECT_DOUBLE_EQ(c->as_object().front().second.as_number(), -2000.0);
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(JsonValue, RejectsMalformedDocuments) {
  EXPECT_THROW((void)JsonValue::parse(R"({"a": 1} trailing)"),
               std::invalid_argument);
  EXPECT_THROW((void)JsonValue::parse(R"({"a": 1, "a": 2})"),
               std::invalid_argument);
  EXPECT_THROW((void)JsonValue::parse(R"("unterminated)"),
               std::invalid_argument);
  EXPECT_THROW((void)JsonValue::parse(R"({"a": })"), std::invalid_argument);
  EXPECT_THROW((void)JsonValue::parse(""), std::invalid_argument);
}

TEST(JsonValue, KindMismatchNamesActualKind) {
  const JsonValue v = JsonValue::parse(R"({"a": 1})");
  try {
    (void)v.find("a")->as_string();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("number"), std::string::npos);
  }
}

// ---- job parsing ---------------------------------------------------------

TEST(JobParsing, ParsesFullJobWithConfigForwarding) {
  const JobSpec job = rpcg::service::parse_job(JsonValue::parse(
      R"({"name": "m2-esr", "matrix": "M2", "scale": 64, "nodes": 16,
          "solver": "resilient-pcg", "precond": "bjacobi",
          "recovery": "esr", "phi": 2, "rtol": 1e-9,
          "failures": [{"iteration": 10, "first": 0, "psi": 2},
                       {"iteration": 20, "nodes": [3, 5]}]})"));
  EXPECT_EQ(job.name, "m2-esr");
  EXPECT_EQ(job.matrix, 2);
  EXPECT_EQ(job.matrix_id(), "M2");
  EXPECT_DOUBLE_EQ(job.scale, 64.0);
  EXPECT_EQ(job.nodes, 16);
  EXPECT_EQ(job.solver, "resilient-pcg");
  EXPECT_EQ(job.config.recovery, rpcg::RecoveryMethod::kEsr);
  EXPECT_EQ(job.config.phi, 2);
  EXPECT_DOUBLE_EQ(job.config.rtol, 1e-9);
  ASSERT_EQ(job.schedule.events().size(), 2u);
  EXPECT_EQ(job.schedule.events()[1].nodes, (std::vector<rpcg::NodeId>{3, 5}));
}

TEST(JobParsing, UnknownKeyListsValidKeys) {
  // A typo, and the report opt-in keys of the retired v1 report schema: the
  // complete report needs no opt-in, so a job file still naming one fails
  // fast instead of silently running.
  for (const char* key : {"solvr", "report-cache-stats", "report-checkpoint",
                          "report-scenario"}) {
    try {
      (void)rpcg::service::parse_job(
          JsonValue::parse(std::string("{\"") + key + "\": true}"));
      FAIL() << "expected std::invalid_argument for " << key;
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(key), std::string::npos) << what;
      EXPECT_NE(what.find("solver"), std::string::npos);  // the valid-key list
      EXPECT_NE(what.find("rtol"), std::string::npos);
    }
  }
}

TEST(JobParsing, FailureEventShapesAreExclusive) {
  EXPECT_THROW((void)rpcg::service::parse_job(JsonValue::parse(
                   R"({"failures": [{"iteration": 3, "psi": 2,
                                     "nodes": [1]}]})")),
               std::invalid_argument);
  EXPECT_THROW((void)rpcg::service::parse_job(
                   JsonValue::parse(R"({"failures": [{"iteration": 3}]})")),
               std::invalid_argument);
}

TEST(JobParsing, ScenarioKeysForwardToTheGeneratorConfig) {
  const JobSpec job = rpcg::service::parse_job(JsonValue::parse(
      R"({"solver": "checkpoint-recovery", "scenario": "cascading",
          "scenario-seed": 7, "scenario-events": 4, "scenario-nodes": 2,
          "scenario-horizon": 20, "scenario-window": 5})"));
  EXPECT_EQ(job.config.scenario.kind, rpcg::ScenarioKind::kCascading);
  EXPECT_EQ(job.config.scenario.seed, 7u);
  EXPECT_EQ(job.config.scenario.events, 4);
  EXPECT_EQ(job.config.scenario.max_nodes_per_event, 2);
  EXPECT_EQ(job.config.scenario.horizon, 20);
  EXPECT_EQ(job.config.scenario.window, 5);
  // The generator expands at solve time; the parsed spec stays data-only.
  EXPECT_TRUE(job.schedule.events().empty());
}

TEST(JobParsing, FailuresAndScenarioAreMutuallyExclusive) {
  try {
    (void)rpcg::service::parse_job(JsonValue::parse(
        R"({"solver": "resilient-pcg", "scenario": "correlated",
            "failures": [{"iteration": 3, "nodes": [1]}]})"));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("not both"), std::string::npos);
  }
}

TEST(JobParsing, LineNumbersPrefixStreamErrors) {
  std::istringstream in(R"({"solver": "pcg"}
# comment line

{"matrix": "M9"})");
  try {
    (void)rpcg::service::parse_job_lines(in);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 4"), std::string::npos);
  }
}

TEST(JobParsing, MissingJobFileThrows) {
  EXPECT_THROW((void)rpcg::service::read_job_file("/nonexistent/jobs.jsonl"),
               std::invalid_argument);
}

// ---- SharedFactorizationCache --------------------------------------------

FactorizationCache::MatrixKey test_key(int seed) {
  FactorizationCache::MatrixKey key;
  key.rows = key.cols = 4;
  key.nnz = 4;
  key.digest = static_cast<std::uint64_t>(seed);
  return key;
}

TEST(SharedCache, HitsMissesAndLruEviction) {
  SharedFactorizationCache cache(1);
  std::atomic<int> builds{0};
  const auto build = [&builds] {
    ++builds;
    return FactorizationCache::Entry{};
  };
  const std::vector<rpcg::NodeId> nodes{1, 2};
  (void)cache.get_or_build("t", test_key(1), "auto", nodes, build);
  (void)cache.get_or_build("t", test_key(1), "auto", nodes, build);
  EXPECT_EQ(builds.load(), 1);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().evictions, 0u);

  // Capacity 1: the second key evicts the first, so it misses again.
  (void)cache.get_or_build("t", test_key(2), "auto", nodes, build);
  (void)cache.get_or_build("t", test_key(1), "auto", nodes, build);
  EXPECT_EQ(builds.load(), 3);
  EXPECT_EQ(cache.stats().evictions, 2u);
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(SharedCache, KeyIncludesTagOrderingAndSortedNodes) {
  SharedFactorizationCache cache(8);
  std::atomic<int> builds{0};
  const auto build = [&builds] {
    ++builds;
    return FactorizationCache::Entry{};
  };
  const std::vector<rpcg::NodeId> ab{1, 2};
  const std::vector<rpcg::NodeId> ba{2, 1};
  (void)cache.get_or_build("t", test_key(1), "auto", ab, build);
  (void)cache.get_or_build("t", test_key(1), "auto", ba, build);  // sorted: hit
  EXPECT_EQ(builds.load(), 1);
  (void)cache.get_or_build("u", test_key(1), "auto", ab, build);  // other tag
  (void)cache.get_or_build("t", test_key(1), "amd", ab, build);  // other order
  EXPECT_EQ(builds.load(), 3);
}

TEST(SharedCache, FailedBuildIsRetriedNotCached) {
  SharedFactorizationCache cache(8);
  int calls = 0;
  const std::vector<rpcg::NodeId> nodes{0};
  EXPECT_THROW((void)cache.get_or_build("t", test_key(1), "auto", nodes,
                                        [&calls]() -> FactorizationCache::Entry {
                                          ++calls;
                                          throw std::runtime_error("boom");
                                        }),
               std::runtime_error);
  (void)cache.get_or_build("t", test_key(1), "auto", nodes, [&calls] {
    ++calls;
    return FactorizationCache::Entry{};
  });
  EXPECT_EQ(calls, 2);  // the poisoned slot was withdrawn, not served
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(SharedCache, ConcurrentRequestsCoalesceOntoOneBuild) {
  SharedFactorizationCache cache(8);
  std::atomic<int> builds{0};
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  const std::vector<rpcg::NodeId> nodes{0};

  std::thread builder([&] {
    (void)cache.get_or_build("t", test_key(1), "auto", nodes, [&] {
      ++builds;
      gate.wait();  // hold the build open until the waiter has joined it
      return FactorizationCache::Entry{};
    });
  });
  // The builder has claimed the slot once misses hits 1.
  while (cache.stats().misses == 0) std::this_thread::yield();

  std::thread waiter([&] {
    (void)cache.get_or_build("t", test_key(1), "auto", nodes, [&] {
      ++builds;
      return FactorizationCache::Entry{};
    });
  });
  // The waiter joined the in-flight build (counted as a hit) without
  // starting a second factorization.
  while (cache.stats().hits == 0) std::this_thread::yield();
  EXPECT_EQ(builds.load(), 1);

  release.set_value();
  builder.join();
  waiter.join();
  EXPECT_EQ(builds.load(), 1);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
}

// ---- ThreadPool::submit --------------------------------------------------

TEST(ThreadPoolSubmit, FuturesCompleteAndCount) {
  rpcg::ThreadPool pool(4);
  std::atomic<int> count{0};
  std::vector<std::future<void>> futures;
  futures.reserve(16);
  for (int i = 0; i < 16; ++i) {
    futures.push_back(pool.submit([&count] { ++count; }));
  }
  for (std::future<void>& f : futures) f.get();
  EXPECT_EQ(count.load(), 16);
}

TEST(ThreadPoolSubmit, ExceptionPropagatesThroughFuture) {
  rpcg::ThreadPool pool(2);
  std::future<void> f =
      pool.submit([] { throw std::runtime_error("task failed"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

// ---- the service ---------------------------------------------------------

/// A small mixed batch exercising every layer: plain PCG, resilient runs
/// with contiguous and explicit-node failures (two of them identical, so
/// the shared cache has something to share), a pipelined solver, and one
/// job whose inner loops run threaded (proving the private-pool/shared-pool
/// composition cannot deadlock).
std::vector<JobSpec> mixed_batch() {
  std::istringstream in(R"({"name": "plain", "matrix": "M1", "scale": 256, "nodes": 8, "solver": "pcg", "precond": "jacobi"}
{"name": "esr-a", "matrix": "M1", "scale": 256, "nodes": 8, "solver": "resilient-pcg", "recovery": "esr", "phi": 2, "failures": [{"iteration": 3, "first": 1, "psi": 2}]}
{"name": "pipe", "matrix": "M2", "scale": 256, "nodes": 8, "solver": "pipelined-resilient-pcg", "recovery": "esr", "phi": 2, "failures": [{"iteration": 5, "nodes": [4, 5]}]}
{"name": "esr-b", "matrix": "M1", "scale": 256, "nodes": 8, "solver": "resilient-pcg", "recovery": "esr", "phi": 2, "failures": [{"iteration": 3, "first": 1, "psi": 2}]}
{"name": "threaded", "matrix": "M2", "scale": 256, "nodes": 8, "solver": "pcg", "precond": "bjacobi", "exec": "threaded", "workers": 2}
{"name": "esr-late", "matrix": "M1", "scale": 256, "nodes": 8, "solver": "resilient-pcg", "recovery": "esr", "phi": 2, "failures": [{"iteration": 4, "first": 3, "psi": 1}]})");
  return rpcg::service::parse_job_lines(in);
}

/// Per-job JSON with the host-time fields (the only nondeterministic ones)
/// zeroed, so runs can be compared byte-for-byte.
std::vector<std::string> normalized_job_reports(const ServiceReport& report) {
  std::vector<std::string> out;
  out.reserve(report.jobs.size());
  for (const JobResult& job : report.jobs) {
    JobResult copy = job;
    copy.wall_seconds = 0.0;
    copy.report.wall_seconds = 0.0;
    out.push_back(copy.to_json());
  }
  return out;
}

ServiceReport run_batch(const std::vector<JobSpec>& jobs, int workers,
                        rpcg::service::OutputOrder order,
                        bool shared_cache = true,
                        std::vector<std::size_t>* sink_order = nullptr) {
  ServiceOptions opts;
  opts.workers = workers;
  opts.order = order;
  opts.shared_cache = shared_cache;
  SolverService service(opts);
  if (sink_order == nullptr) return service.run(jobs);
  return service.run(jobs, [sink_order](const JobResult& r) {
    sink_order->push_back(r.index);
  });
}

TEST(SolverService, SubmissionOrderReportsAreByteIdenticalAcrossWorkers) {
  const std::vector<JobSpec> jobs = mixed_batch();
  std::vector<std::size_t> ref_order;
  const ServiceReport ref = run_batch(
      jobs, 1, rpcg::service::OutputOrder::kSubmission, true, &ref_order);
  ASSERT_EQ(ref.failed, 0u);
  const std::vector<std::string> ref_reports = normalized_job_reports(ref);
  for (std::size_t i = 0; i < ref_order.size(); ++i) EXPECT_EQ(ref_order[i], i);

  for (const int workers : {2, 8}) {
    std::vector<std::size_t> order;
    const ServiceReport run = run_batch(
        jobs, workers, rpcg::service::OutputOrder::kSubmission, true, &order);
    EXPECT_EQ(run.failed, 0u);
    EXPECT_EQ(run.workers, workers);
    // The sink streamed submission order even though completion raced.
    ASSERT_EQ(order.size(), jobs.size());
    for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
    EXPECT_EQ(normalized_job_reports(run), ref_reports)
        << "per-job reports diverged at workers=" << workers;
  }
}

TEST(SolverService, CachedRunsMatchUncachedRuns) {
  const std::vector<JobSpec> jobs = mixed_batch();
  const ServiceReport cached =
      run_batch(jobs, 4, rpcg::service::OutputOrder::kSubmission, true);
  const ServiceReport uncached =
      run_batch(jobs, 4, rpcg::service::OutputOrder::kSubmission, false);
  // The shared cache changes who factorizes, never what any job computes.
  EXPECT_EQ(normalized_job_reports(cached), normalized_job_reports(uncached));
  EXPECT_LT(cached.total_factorizations, uncached.total_factorizations);
}

TEST(SolverService, CompletionOrderStreamsEveryJobOnce) {
  const std::vector<JobSpec> jobs = mixed_batch();
  std::vector<std::size_t> order;
  const ServiceReport run = run_batch(
      jobs, 8, rpcg::service::OutputOrder::kCompletion, true, &order);
  EXPECT_EQ(run.failed, 0u);
  std::vector<std::size_t> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  std::vector<std::size_t> expected(jobs.size());
  for (std::size_t i = 0; i < expected.size(); ++i) expected[i] = i;
  EXPECT_EQ(sorted, expected);
  // The summary's jobs array is submission-ordered regardless.
  for (std::size_t i = 0; i < run.jobs.size(); ++i)
    EXPECT_EQ(run.jobs[i].index, i);
}

TEST(SolverService, FailedJobDoesNotAbortBatchAndReportParses) {
  std::vector<JobSpec> jobs = mixed_batch();
  jobs[2].solver = "no-such-solver";
  const ServiceReport run =
      run_batch(jobs, 4, rpcg::service::OutputOrder::kSubmission);
  EXPECT_EQ(run.failed, 1u);
  EXPECT_FALSE(run.jobs[2].ok());
  EXPECT_NE(run.jobs[2].error.find("no-such-solver"), std::string::npos);
  for (const std::size_t i : {0u, 1u, 3u, 4u, 5u}) {
    EXPECT_TRUE(run.jobs[i].ok()) << "job " << i;
  }

  // The emitted service report is valid JSON (parsed by our own parser) and
  // carries the failure through the summary.
  const JsonValue parsed = JsonValue::parse(run.to_json());
  EXPECT_EQ(parsed.find("schema")->as_string(), "rpcg-service-report/v3");
  const JsonValue* summary = parsed.find("summary");
  ASSERT_NE(summary, nullptr);
  EXPECT_DOUBLE_EQ(summary->find("failed")->as_number(), 1.0);
  const JsonValue& failed = parsed.find("jobs")->as_array()[2];
  EXPECT_EQ(failed.find("error_class")->as_string(), "invalid-job");
  EXPECT_EQ(parsed.find("jobs")->as_array().size(), jobs.size());
}

TEST(SolverService, DefaultJobNamesUseSubmissionIndex) {
  std::vector<JobSpec> jobs = mixed_batch();
  jobs[0].name.clear();
  const ServiceReport run =
      run_batch(jobs, 1, rpcg::service::OutputOrder::kSubmission);
  EXPECT_EQ(run.jobs[0].name, "job-0");
}

/// Scenario-driven batch: every job names a seeded generator instead of an
/// explicit schedule, covering all four new strategy/scenario pairings
/// through the service front end. Two jobs are byte-identical on purpose.
std::vector<JobSpec> scenario_batch() {
  std::istringstream in(R"({"name": "ckpt-a", "matrix": "M1", "scale": 256, "nodes": 8, "solver": "checkpoint-recovery", "checkpoint-interval": 4, "scenario": "during-recovery", "scenario-seed": 5, "scenario-events": 2, "scenario-nodes": 1, "scenario-horizon": 8}
{"name": "ckpt-b", "matrix": "M1", "scale": 256, "nodes": 8, "solver": "checkpoint-recovery", "checkpoint-interval": 4, "scenario": "during-recovery", "scenario-seed": 5, "scenario-events": 2, "scenario-nodes": 1, "scenario-horizon": 8}
{"name": "twin", "matrix": "M1", "scale": 256, "nodes": 8, "solver": "twin-pcg", "scenario": "correlated", "scenario-seed": 9, "scenario-events": 2, "scenario-nodes": 1, "scenario-horizon": 8}
{"name": "esr", "matrix": "M1", "scale": 256, "nodes": 8, "solver": "resilient-pcg", "recovery": "esr", "phi": 3, "scenario": "cascading", "scenario-seed": 11, "scenario-events": 2, "scenario-nodes": 1, "scenario-horizon": 8, "scenario-window": 3})");
  return rpcg::service::parse_job_lines(in);
}

TEST(SolverService, ScenarioJobsRunDeterministicallyAcrossWorkers) {
  const std::vector<JobSpec> jobs = scenario_batch();
  const ServiceReport ref =
      run_batch(jobs, 1, rpcg::service::OutputOrder::kSubmission);
  ASSERT_EQ(ref.failed, 0u);
  for (const JobResult& job : ref.jobs) {
    EXPECT_TRUE(job.report.converged) << job.name;
  }
  // Identical jobs produce identical solves: only the name differs.
  {
    rpcg::engine::SolveReport a = ref.jobs[0].report;
    rpcg::engine::SolveReport b = ref.jobs[1].report;
    a.wall_seconds = b.wall_seconds = 0.0;
    EXPECT_EQ(a.to_json(), b.to_json());
  }
  // The generated scenario lands in every job's report.
  ASSERT_TRUE(ref.jobs[0].report.scenario.has_value());
  EXPECT_EQ(ref.jobs[0].report.scenario->kind, "during-recovery");
  EXPECT_EQ(ref.jobs[0].report.scenario->seed, 5u);
  ASSERT_TRUE(ref.jobs[3].report.scenario.has_value());
  EXPECT_EQ(ref.jobs[3].report.scenario->kind, "cascading");
  EXPECT_NE(ref.jobs[3].report.to_json().find("\"kind\": \"cascading\""),
            std::string::npos);

  const std::vector<std::string> ref_reports = normalized_job_reports(ref);
  for (const int workers : {2, 8}) {
    const ServiceReport run =
        run_batch(jobs, workers, rpcg::service::OutputOrder::kSubmission);
    EXPECT_EQ(run.failed, 0u);
    EXPECT_EQ(normalized_job_reports(run), ref_reports)
        << "scenario reports diverged at workers=" << workers;
  }
}

TEST(SolverService, MaxInFlightOneStillCompletes) {
  const std::vector<JobSpec> jobs = mixed_batch();
  ServiceOptions opts;
  opts.workers = 4;
  opts.max_in_flight = 1;
  const ServiceReport run = SolverService(opts).run(jobs);
  EXPECT_EQ(run.failed, 0u);
  EXPECT_EQ(run.jobs.size(), jobs.size());
}

}  // namespace
