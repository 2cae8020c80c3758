// The SolverService battery: the JSON-lines job front end, the problem store
// (coalescing, eviction, the factorization caches its entries share),
// ThreadPool::submit, and the service determinism contract — submission-order
// per-job reports are byte-identical no matter how many workers raced to
// produce them, and with the shared cache on or off.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <future>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/errors.hpp"
#include "core/failure_scenario.hpp"
#include "engine/problem.hpp"
#include "engine/registry.hpp"
#include "repro/matrices.hpp"
#include "service/job.hpp"
#include "service/json_value.hpp"
#include "service/problem_store.hpp"
#include "service/solver_service.hpp"
#include "util/thread_pool.hpp"
#include "test_util.hpp"

namespace {

using rpcg::FactorizationCache;
using rpcg::service::JobResult;
using rpcg::service::JobSpec;
using rpcg::service::JsonValue;
using rpcg::service::ProblemStore;
using rpcg::service::ServiceOptions;
using rpcg::service::ServiceReport;
using rpcg::service::SolverService;
using rpcg::testing::eventually;

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

// ---- ProblemStore --------------------------------------------------------

ProblemStore::Key store_key(int matrix) {
  return {matrix, 0, 8, "bjacobi"};
}

TEST(ProblemStore, ConcurrentFirstRequestsBuildOnce) {
  ProblemStore store(4);
  constexpr int kThreads = 4;
  std::atomic<int> builds{0};
  std::promise<void> release;
  const std::shared_future<void> gate = release.get_future().share();
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  std::vector<const ProblemStore::Parts*> seen(kThreads, nullptr);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const ProblemStore::Lease lease =
          store.acquire(store_key(1), [&](ProblemStore::Parts&) {
            ++builds;
            gate.wait();  // hold the build open until every request joined
          });
      seen[static_cast<std::size_t>(t)] = &*lease;
    });
  }
  // One request claimed the build; the others joined it as hits.
  EXPECT_TRUE(eventually([&store] {
    return store.stats().hits == static_cast<std::uint64_t>(kThreads - 1);
  }));
  EXPECT_EQ(builds.load(), 1);
  release.set_value();
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(builds.load(), 1);
  EXPECT_EQ(store.stats().builds, 1u);
  for (const ProblemStore::Parts* parts : seen) EXPECT_EQ(parts, seen[0]);
}

TEST(ProblemStore, FailedBuildReachesEveryWaiterUnwrappedAndIsRebuilt) {
  ProblemStore store(4);
  std::promise<void> release;
  const std::shared_future<void> gate = release.get_future().share();
  const auto expect_original = [](const std::function<void()>& request) {
    try {
      request();
      ADD_FAILURE() << "the build failure must reach this request";
    } catch (const rpcg::CacheBuildFailure&) {
      ADD_FAILURE() << "the original exception must not be wrapped";
    } catch (const rpcg::SolverError& e) {
      EXPECT_EQ(e.error_class(), rpcg::ErrorClass::kInternal);
      EXPECT_STREQ(e.what(), "transient build failure");
    }
  };
  std::thread builder([&] {
    expect_original([&] {
      (void)store.acquire(store_key(1), [&](ProblemStore::Parts&) {
        gate.wait();
        throw rpcg::SolverError(rpcg::ErrorClass::kInternal,
                                "transient build failure");
      });
    });
  });
  EXPECT_TRUE(eventually([&store] { return store.stats().builds == 1; }));
  std::thread waiter([&] {
    expect_original([&] {
      (void)store.acquire(store_key(1), [](ProblemStore::Parts&) {
        ADD_FAILURE() << "a coalesced request must not build";
      });
    });
  });
  EXPECT_TRUE(eventually([&store] { return store.stats().hits == 1; }));
  release.set_value();
  builder.join();
  waiter.join();
  EXPECT_EQ(store.stats().resident, 0u);  // the failed slot was dropped

  // A retry builds afresh instead of inheriting the failure.
  int rebuilds = 0;
  {
    const ProblemStore::Lease lease = store.acquire(
        store_key(1), [&rebuilds](ProblemStore::Parts&) { ++rebuilds; });
  }
  EXPECT_EQ(rebuilds, 1);
  EXPECT_EQ(store.stats().builds, 2u);
  EXPECT_EQ(store.stats().resident, 1u);
}

TEST(ProblemStore, FullStoreReleasesTheLeastRecentlyUsedUnheldEntry) {
  ProblemStore store(2);
  int builds = 0;
  const auto build = [&builds](ProblemStore::Parts&) { ++builds; };
  (void)store.acquire(store_key(1), build);
  (void)store.acquire(store_key(2), build);
  (void)store.acquire(store_key(1), build);  // hit: key 2 is now the LRU
  {
    const ProblemStore::Lease held = store.acquire(store_key(1), build);
    (void)store.acquire(store_key(3), build);  // releases key 2
    EXPECT_EQ(builds, 3);
    EXPECT_EQ(store.stats().evictions, 1u);
    (void)store.acquire(store_key(1), build);  // still resident
    EXPECT_EQ(builds, 3);

    // Key 1 is held, so key 3 goes; a second held entry fills the store.
    const ProblemStore::Lease also_held = store.acquire(store_key(4), build);
    EXPECT_EQ(builds, 4);
    EXPECT_THROW((void)store.acquire(store_key(5), build), std::logic_error);
  }
  EXPECT_EQ(store.stats().resident, 2u);
  EXPECT_EQ(store.stats().peak_resident, 2u);
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

/// A batch whose jobs repeat (matrix, scale, nodes, precond) keys across
/// bjacobi, jacobi, ic0 and ssor, with per-job inputs (rhs, noise, exec)
/// that differ between jobs of one key, an alias preconditioner name, and
/// keys that differ from another only in scale or only in nodes.
std::vector<JobSpec> shared_parts_batch() {
  std::istringstream in(R"({"name": "bj-esr", "matrix": "M1", "scale": 256, "nodes": 8, "solver": "resilient-pcg", "recovery": "esr", "phi": 2, "failures": [{"iteration": 3, "first": 1, "psi": 2}]}
{"name": "jac", "matrix": "M1", "scale": 256, "nodes": 8, "solver": "pcg", "precond": "jacobi"}
{"name": "ic0-esr", "matrix": "M1", "scale": 256, "nodes": 8, "solver": "resilient-pcg", "precond": "ic0", "recovery": "esr", "phi": 1, "failures": [{"iteration": 4, "nodes": [2]}]}
{"name": "ssor-esr", "matrix": "M1", "scale": 256, "nodes": 8, "solver": "resilient-pcg", "precond": "ssor", "recovery": "esr", "phi": 1, "failures": [{"iteration": 4, "nodes": [5]}]}
{"name": "bj-smooth", "matrix": "M1", "scale": 256, "nodes": 8, "solver": "resilient-pcg", "recovery": "esr", "phi": 2, "rhs": "random-smooth:3", "failures": [{"iteration": 5, "first": 4, "psi": 2}]}
{"name": "jac-noise", "matrix": "M1", "scale": 256, "nodes": 8, "solver": "checkpoint-recovery", "precond": "jacobi", "noise": 0.05, "noise-seed": 9, "checkpoint-interval": 4, "failures": [{"iteration": 6, "nodes": [0]}]}
{"name": "m2-pipe", "matrix": "M2", "scale": 256, "nodes": 8, "solver": "pipelined-resilient-pcg", "recovery": "esr", "phi": 2, "failures": [{"iteration": 5, "nodes": [4, 5]}]}
{"name": "m2-threaded", "matrix": "M2", "scale": 256, "nodes": 8, "solver": "pcg", "exec": "threaded", "workers": 2}
{"name": "ic0-plain", "matrix": "M1", "scale": 256, "nodes": 8, "solver": "pcg", "precond": "ic0"}
{"name": "ssor-twin", "matrix": "M1", "scale": 256, "nodes": 8, "solver": "twin-pcg", "precond": "ssor", "failures": [{"iteration": 3, "nodes": [6]}]}
{"name": "ic0-alias", "matrix": "M1", "scale": 256, "nodes": 8, "solver": "pcg", "precond": "ic0-split"}
{"name": "bj-scale", "matrix": "M1", "scale": 128, "nodes": 8, "solver": "pcg"}
{"name": "bj-nodes", "matrix": "M1", "scale": 256, "nodes": 16, "solver": "pcg"})");
  return rpcg::service::parse_job_lines(in);
}

/// The job solved on a Problem built privately from its spec — every
/// component owned by the Problem, as the service built them before it
/// shared parts — normalized like normalized_job_reports.
std::string private_solve(const JobSpec& spec) {
  rpcg::engine::Problem problem =
      rpcg::engine::ProblemBuilder()
          .matrix(rpcg::repro::make_matrix(spec.matrix, spec.scale).matrix)
          .nodes(spec.nodes)
          .preconditioner(spec.precond)
          .rhs_strategy(spec.rhs)
          .noise(spec.noise_cv, spec.noise_seed)
          .build();
  rpcg::DistVector x = problem.make_x();
  rpcg::engine::SolveReport report =
      rpcg::engine::SolverRegistry::instance()
          .create(spec.solver, spec.config)
          ->solve(problem, x, spec.schedule);
  report.wall_seconds = 0.0;
  const FactorizationCache::Stats cache = problem.factorization_cache().stats();
  return report.to_json() + " cache " + std::to_string(cache.hits) + "/" +
         std::to_string(cache.misses) + "/" + std::to_string(cache.entries);
}

std::string shared_solve(const JobResult& job) {
  EXPECT_TRUE(job.ok()) << job.name << ": " << job.error;
  rpcg::engine::SolveReport report = job.report;
  report.wall_seconds = 0.0;
  return report.to_json() + " cache " +
         std::to_string(job.problem_cache.hits) + "/" +
         std::to_string(job.problem_cache.misses) + "/" +
         std::to_string(job.problem_cache.entries);
}

TEST(SolverService, SharedPartsMatchPrivatelyBuiltProblems) {
  const std::vector<JobSpec> jobs = shared_parts_batch();
  std::vector<std::string> reference;
  reference.reserve(jobs.size());
  for (const JobSpec& spec : jobs) reference.push_back(private_solve(spec));

  for (const int workers : {1, 4}) {
    const ServiceReport run =
        run_batch(jobs, workers, rpcg::service::OutputOrder::kSubmission);
    ASSERT_EQ(run.failed, 0u);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      EXPECT_EQ(shared_solve(run.jobs[i]), reference[i])
          << jobs[i].name << " at workers=" << workers;
    }
  }
  // With room for all eight keys (M1 at scale 256 on 8 nodes x {bjacobi,
  // jacobi, ic0, ssor, ic0-split}, M2/bjacobi, and M1/bjacobi at scale 128
  // or on 16 nodes), each is built once for the thirteen jobs.
  ServiceOptions opts;
  opts.workers = 4;
  opts.max_in_flight = 8;
  const ServiceReport run = SolverService(opts).run(jobs);
  EXPECT_EQ(run.problem_store.builds, 8u);
  EXPECT_EQ(run.problem_store.hits, jobs.size() - 8);
  EXPECT_EQ(run.problem_store.evictions, 0u);
  // The alias name survives borrowing the shared instance.
  EXPECT_EQ(run.jobs[10].report.preconditioner, "ic0-split");
}

TEST(SolverService, SimultaneousRequestsForOneKeyBuildItOnce) {
  const std::vector<JobSpec> jobs(8, shared_parts_batch().front());
  for (const int workers : {4, 8}) {
    const ServiceReport run =
        run_batch(jobs, workers, rpcg::service::OutputOrder::kCompletion);
    EXPECT_EQ(run.failed, 0u);
    EXPECT_EQ(run.problem_store.builds, 1u) << "workers=" << workers;
    EXPECT_EQ(run.problem_store.hits, jobs.size() - 1) << "workers=" << workers;
  }
}

TEST(SolverService, UnknownPreconditionerFailsEveryJobAsAPrivateBuildDid) {
  std::vector<JobSpec> jobs = shared_parts_batch();
  for (const std::size_t i : {0u, 4u, 6u}) jobs[i].precond = "no-such-precond";
  for (const std::size_t i : {0u, 4u, 6u}) jobs[i].retry.max_attempts = 3;
  // The message a private build raises for the same spec.
  std::string expected;
  try {
    (void)rpcg::engine::ProblemBuilder()
        .matrix(rpcg::repro::make_matrix(1, 256.0).matrix)
        .nodes(8)
        .preconditioner("no-such-precond")
        .build();
  } catch (const std::invalid_argument& e) {
    expected = e.what();
  }
  ASSERT_FALSE(expected.empty());

  for (const int workers : {1, 4}) {
    const ServiceReport run =
        run_batch(jobs, workers, rpcg::service::OutputOrder::kSubmission);
    EXPECT_EQ(run.failed, 3u) << "workers=" << workers;
    for (const std::size_t i : {0u, 4u, 6u}) {
      const JobResult& job = run.jobs[i];
      EXPECT_EQ(job.error_class, rpcg::ErrorClass::kInvalidJob) << job.name;
      EXPECT_EQ(job.error, expected) << job.name;
      EXPECT_EQ(job.attempts.size(), 1u) << job.name;  // never retried
    }
  }
}

TEST(SolverService, MaxInFlightOneKeepsOneEntryResident) {
  // Keys alternate M1/bjacobi, M1/jacobi on every job.
  const std::vector<JobSpec> batch = shared_parts_batch();
  std::vector<JobSpec> jobs;
  jobs.reserve(6);
  for (std::size_t i = 0; i < 6; ++i) jobs.push_back(batch[i % 2]);
  const ServiceReport ref =
      run_batch(jobs, 4, rpcg::service::OutputOrder::kSubmission);
  EXPECT_EQ(ref.problem_store.builds, 2u);
  ServiceOptions opts;
  opts.workers = 4;
  opts.max_in_flight = 1;
  const ServiceReport run = SolverService(opts).run(jobs);
  EXPECT_EQ(run.failed, 0u);
  EXPECT_EQ(run.problem_store.peak_resident, 1u);
  // Every key change releases the one entry and builds the next.
  EXPECT_EQ(run.problem_store.builds, jobs.size());
  EXPECT_EQ(run.problem_store.evictions, jobs.size() - 1);
  EXPECT_EQ(normalized_job_reports(run), normalized_job_reports(ref));
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

// ---- the store entries' shared factorization caches ---------------------

TEST(SolverService, SharedCacheNeverServesAnotherPartitionsRows) {
  // Both jobs lose node 2 of M2 at scale 8659 (30 rows): it holds rows
  // 10-13 on 7 nodes and 8-11 on 8 nodes, so the failed node id names
  // different rows of one matrix and the same row count.
  std::istringstream in(R"({"name": "m2-7", "matrix": "M2", "scale": 8659, "nodes": 7, "solver": "resilient-pcg", "recovery": "esr", "phi": 1, "failures": [{"iteration": 3, "nodes": [2]}]}
{"name": "m2-8", "matrix": "M2", "scale": 8659, "nodes": 8, "solver": "resilient-pcg", "recovery": "esr", "phi": 1, "failures": [{"iteration": 3, "nodes": [2]}]})");
  const std::vector<JobSpec> jobs = rpcg::service::parse_job_lines(in);
  const ServiceReport cached =
      run_batch(jobs, 1, rpcg::service::OutputOrder::kSubmission, true);
  const ServiceReport uncached =
      run_batch(jobs, 1, rpcg::service::OutputOrder::kSubmission, false);
  ASSERT_EQ(cached.failed, 0u);
  EXPECT_EQ(normalized_job_reports(cached), normalized_job_reports(uncached));
}

TEST(SolverService, SharedCacheServesEachPartitionItsOwnRowCount) {
  // Nodes {1, 2} hold 1638 rows of M1 at scale 128 on 5 nodes and 1170 on
  // 7: the second job must build its own A_{IF,IF}, not meet a size
  // mismatch.
  std::istringstream in(R"({"name": "m1-5", "matrix": "M1", "scale": 128, "nodes": 5, "solver": "resilient-bicgstab", "phi": 2, "failures": [{"iteration": 3, "nodes": [1, 2]}]}
{"name": "m1-7", "matrix": "M1", "scale": 128, "nodes": 7, "solver": "resilient-bicgstab", "phi": 2, "failures": [{"iteration": 3, "nodes": [1, 2]}]})");
  const std::vector<JobSpec> jobs = rpcg::service::parse_job_lines(in);
  const ServiceReport run =
      run_batch(jobs, 1, rpcg::service::OutputOrder::kSubmission);
  EXPECT_EQ(run.failed, 0u);
  for (const JobResult& job : run.jobs) {
    EXPECT_TRUE(job.ok()) << job.name << ": " << job.error;
    EXPECT_TRUE(job.report.converged) << job.name;
  }
}

TEST(SolverService, EvictedProblemsReleaseTheirCachedFactorizations) {
  // One worker keeps one problem resident, and mixed_batch alternates
  // problems: M1/jacobi, M1/bjacobi {1,2}, M2/bjacobi {4,5}, M1/bjacobi
  // {1,2}, M2/bjacobi, M1/bjacobi {3}. Each switch releases the resident
  // problem with its cache, so esr-b rebuilds what esr-a built: four
  // builds, three of them released with their problems (esr-a's, pipe's
  // and esr-b's), one still resident.
  const ServiceReport run =
      run_batch(mixed_batch(), 1, rpcg::service::OutputOrder::kSubmission);
  ASSERT_EQ(run.failed, 0u);
  EXPECT_EQ(run.problem_store.evictions, 5u);
  EXPECT_EQ(run.shared_stats.hits, 0u);
  EXPECT_EQ(run.shared_stats.misses, 4u);
  EXPECT_EQ(run.shared_stats.evictions, 3u);
  EXPECT_EQ(run.shared_stats.entries, 1u);
  // Every entry built is either released or still resident.
  EXPECT_EQ(run.shared_stats.misses,
            run.shared_stats.evictions + run.shared_stats.entries);
  EXPECT_EQ(run.total_factorizations, 4u);

  // With every problem resident, esr-b is served esr-a's entry.
  const ServiceReport wide =
      run_batch(mixed_batch(), 4, rpcg::service::OutputOrder::kSubmission);
  EXPECT_EQ(wide.shared_stats.hits, 1u);
  EXPECT_EQ(wide.shared_stats.misses, 3u);
  EXPECT_EQ(wide.shared_stats.evictions, 0u);
  EXPECT_EQ(wide.shared_stats.entries, 3u);
}

TEST(SolverService, CheckMessagesNameTheSourcePathFromSrc) {
  std::istringstream in(R"({"name": "bad-omega", "matrix": "M1", "scale": 256, "nodes": 8, "solver": "stationary", "omega": 2.5})");
  const ServiceReport run = run_batch(rpcg::service::parse_job_lines(in), 1,
                                      rpcg::service::OutputOrder::kSubmission);
  ASSERT_EQ(run.failed, 1u);
  const std::string& error = run.jobs[0].error;
  EXPECT_EQ(run.jobs[0].error_class, rpcg::ErrorClass::kInvalidJob);
  EXPECT_NE(error.find(" at src/solver/stationary.cpp:"), std::string::npos)
      << error;
  EXPECT_EQ(error.find("/src/"), std::string::npos) << error;
}

}  // namespace
