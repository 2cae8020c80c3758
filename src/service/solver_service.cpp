#include "service/solver_service.hpp"

#include <bit>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "engine/registry.hpp"
#include "repro/matrices.hpp"
#include "util/check.hpp"
#include "util/json.hpp"
#include "util/json_writer.hpp"
#include "util/thread_pool.hpp"

namespace rpcg::service {

std::string to_string(OutputOrder order) { return enum_to_string(order); }

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Batch-level state threaded into every job task: the problem store, the
/// cache-sharing switch and the robustness knobs.
struct RunContext {
  ProblemStore* store = nullptr;
  bool shared_cache = false;
  const RetryPolicy* default_retry = nullptr;
  double default_deadline = 0.0;
  const FaultInjector* injector = nullptr;  ///< null when injection is off
  std::chrono::steady_clock::time_point t0;
  double wall_timeout = 0.0;
};

/// The job fields problem_parts reads, and nothing else: jobs with equal
/// keys share one store entry, so a field construction starts to read must
/// join the key in the same change.
ProblemStore::Key problem_key(const JobSpec& spec) {
  return {spec.matrix, std::bit_cast<std::uint64_t>(spec.scale), spec.nodes,
          spec.precond};
}

/// Builds the immutable parts of a job's problem in place, as
/// ProblemBuilder::build would for the same fields.
void problem_parts(const JobSpec& spec, ProblemStore::Parts& parts) {
  parts.matrix = repro::make_matrix(spec.matrix, spec.scale).matrix;
  parts.partition = Partition::block_rows(parts.matrix.rows(), spec.nodes);
  parts.dist = DistMatrix::distribute(parts.matrix, parts.partition);
  parts.precond = engine::PreconditionerRegistry::instance().create(
      spec.precond, parts.matrix, parts.partition);
}

/// Runs one attempt of one job; any exception propagates to the retry loop.
/// `rec` is filled with what ran and (on success) how it ended.
void run_attempt(const JobSpec& spec, std::size_t index, int attempt,
                 const RetryPolicy& policy, double deadline,
                 bool classify_budget, const RunContext& ctx,
                 JobResult& result, AttemptRecord& rec) {
  result.report = engine::SolveReport{};  // never a stale earlier attempt's
  engine::SolverConfig config = spec.config;
  if (deadline > 0.0) config.deadline_sim_seconds = deadline;
  if (config.scenario.kind != ScenarioKind::kNone && attempt > 1) {
    // Deterministic re-draw: the same attempt always sees the same scenario,
    // whatever the worker count or scheduling order.
    config.scenario.seed =
        spec.config.scenario.seed +
        policy.seed_bump * static_cast<std::uint64_t>(attempt - 1);
  }
  rec.scenario_seed = config.scenario.seed;

  if (ctx.injector != nullptr && ctx.injector->worker_fault(index, attempt)) {
    throw SolverError(ErrorClass::kInternal,
                      "injected worker-task fault (job " +
                          std::to_string(index) + ", attempt " +
                          std::to_string(attempt) + ")");
  }
  // The per-job inputs are validated before the shared parts are requested,
  // so a job with a bad rhs spec fails on it as a private build did.
  engine::ProblemBuilder builder;
  builder.nodes(spec.nodes)
      .rhs_strategy(spec.rhs)
      .noise(spec.noise_cv, spec.noise_seed);
  const ProblemStore::Lease parts =
      ctx.store->acquire(problem_key(spec), [&spec](ProblemStore::Parts& p) {
        problem_parts(spec, p);
      });
  engine::Problem problem = builder.borrow_matrix(parts->matrix)
                                .borrow_dist_matrix(parts->dist)
                                .borrow_preconditioner(*parts->precond,
                                                       spec.precond)
                                .build();
  if (ctx.injector != nullptr &&
      ctx.injector->cache_build_fault(index, attempt)) {
    // The injected upstream fires on the first factorization lookup the
    // attempt would have sent past its private cache.
    problem.factorization_cache().set_upstream(
        [index, attempt](std::string_view, const FactorizationCache::MatrixKey&,
                         std::span<const NodeId>,
                         const std::function<FactorizationCache::Entry()>&)
            -> FactorizationCache::EntryPtr {
          throw CacheBuildFailure("injected cache-build failure (job " +
                                  std::to_string(index) + ", attempt " +
                                  std::to_string(attempt) + ")");
        });
  } else if (ctx.shared_cache) {
    problem.factorization_cache().set_upstream(parts->cache.as_upstream());
  }
  const auto solver =
      engine::SolverRegistry::instance().create(rec.solver, config);
  DistVector x = problem.make_x();
  result.report = solver->solve(problem, x, spec.schedule);
  rec.iterations = result.report.iterations;
  rec.sim_time = result.report.sim_time;
  result.problem_cache = problem.factorization_cache().stats();
  if (classify_budget && !result.report.converged &&
      result.report.iterations >= config.max_iterations) {
    // Without a retry policy a non-converged run is a plain "ok" report
    // (status quo); under one, the spent iteration cap is a classified
    // budget failure so the policy can escalate.
    throw BudgetExceeded("iteration budget exhausted: " +
                         std::to_string(result.report.iterations) + " of " +
                         std::to_string(config.max_iterations) +
                         " iterations without convergence");
  }
  rec.ok = true;
}

/// Runs the job's retry loop and folds any failure into JobResult::error —
/// one broken job must never take the batch down.
JobResult run_one(const JobSpec& spec, std::size_t index,
                  const RunContext& ctx) {
  JobResult result;
  result.index = index;
  if (spec.name.empty()) {
    result.name = "job-";
    result.name += std::to_string(index);
  } else {
    result.name = spec.name;
  }
  result.matrix_id = spec.matrix_id();
  result.solver = spec.solver;
  result.precond = spec.precond;

  const auto t0 = std::chrono::steady_clock::now();
  if (ctx.wall_timeout > 0.0 && seconds_since(ctx.t0) > ctx.wall_timeout) {
    result.error_class = ErrorClass::kBudgetExceeded;
    result.error = "batch wall-clock budget exhausted before job start";
    result.wall_seconds = seconds_since(t0);
    return result;
  }

  const RetryPolicy& policy =
      spec.retry.enabled() ? spec.retry : *ctx.default_retry;
  const double deadline = spec.config.deadline_sim_seconds > 0.0
                              ? spec.config.deadline_sim_seconds
                              : ctx.default_deadline;
  // Budget reclassification is gated per job, so a plain job in a mixed
  // batch keeps its status-quo "ran out of iterations, still ok" report.
  const bool classify_budget =
      policy.enabled() || deadline > 0.0 || ctx.injector != nullptr;

  const int total_attempts = policy.attempts();
  for (int attempt = 1; attempt <= total_attempts; ++attempt) {
    AttemptRecord rec;
    rec.attempt = attempt;
    rec.solver = policy.solver_for_attempt(spec.solver, attempt);
    rec.backoff_sim_seconds = policy.backoff_before(attempt);
    try {
      run_attempt(spec, index, attempt, policy, deadline, classify_budget, ctx,
                  result, rec);
      result.error.clear();
      result.attempts.push_back(std::move(rec));
      break;
    } catch (const std::exception& e) {
      rec.ok = false;
      rec.error = e.what();
      rec.error_class = classify_exception(e);
      result.error = rec.error;
      result.error_class = rec.error_class;
      const bool retryable = is_retryable(rec.error_class);
      result.attempts.push_back(std::move(rec));
      if (!retryable) break;
    }
  }
  result.wall_seconds = seconds_since(t0);
  return result;
}

}  // namespace

SolverService::SolverService(ServiceOptions options)
    : options_(std::move(options)) {
  RPCG_CHECK(options_.workers >= 0, "workers must be >= 0");
  RPCG_CHECK(options_.max_in_flight >= 0, "max_in_flight must be >= 0");
}

ServiceReport SolverService::run(std::span<const JobSpec> jobs,
                                 const Sink& sink) {
  const int workers =
      options_.workers > 0 ? options_.workers : ThreadPool::shared().size();
  const int max_in_flight =
      options_.max_in_flight > 0 ? options_.max_in_flight : workers;

  ServiceReport summary;
  summary.workers = workers;
  summary.order = options_.order;
  summary.shared_cache = options_.shared_cache;
  summary.jobs.resize(jobs.size());

  // At most max_in_flight jobs run at once and each holds one entry, so the
  // store never needs more: a requesting job holds none, leaving an unheld
  // entry to release whenever the store is full.
  ProblemStore store(static_cast<std::size_t>(max_in_flight));

  const FaultInjector injector(options_.fault_injection);
  RunContext ctx;
  ctx.store = &store;
  ctx.shared_cache = options_.shared_cache;
  ctx.default_retry = &options_.retry;
  ctx.default_deadline = options_.default_deadline_sim_seconds;
  ctx.injector = options_.fault_injection.enabled ? &injector : nullptr;
  ctx.wall_timeout = options_.wall_timeout_seconds;

  // One mutex covers result storage, the in-flight bound, and the sink —
  // the sink is never entered concurrently with itself, and submission-
  // order flushing reads `done` under the same lock that wrote it.
  struct EmitState {
    std::mutex mu;
    std::condition_variable cv;  // signaled when in_flight drops
    int in_flight = 0;
    std::size_t next = 0;  // submission-order flush cursor
    std::vector<char> done;
  };
  EmitState emit;
  emit.done.assign(jobs.size(), 0);

  const auto t0 = std::chrono::steady_clock::now();
  ctx.t0 = t0;

  // Jobs run on a private pool; their inner threaded loops (if any) use the
  // disjoint shared pool. See the header's deadlock note.
  {
    ThreadPool pool(workers);
    std::vector<std::future<void>> futures;
    futures.reserve(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      {
        std::unique_lock<std::mutex> lock(emit.mu);
        emit.cv.wait(lock,
                     [&emit, max_in_flight] {
                       return emit.in_flight < max_in_flight;
                     });
        ++emit.in_flight;
      }
      const JobSpec& spec = jobs[i];
      futures.push_back(pool.submit([&summary, &emit, &sink, &spec, i, &ctx,
                                     order = options_.order] {
        JobResult result = run_one(spec, i, ctx);
        {
          std::lock_guard<std::mutex> lock(emit.mu);
          summary.jobs[i] = std::move(result);
          emit.done[i] = 1;
          --emit.in_flight;
          if (sink) {
            if (order == OutputOrder::kCompletion) {
              sink(summary.jobs[i]);
            } else {
              while (emit.next < emit.done.size() &&
                     emit.done[emit.next] != 0) {
                sink(summary.jobs[emit.next]);
                ++emit.next;
              }
            }
          }
        }
        emit.cv.notify_all();
      }));
    }
    // Job exceptions are folded into JobResult::error inside run_one; get()
    // only rethrows scheduler-level failures (a genuine bug).
    for (std::future<void>& f : futures) f.get();
  }

  summary.wall_seconds = seconds_since(t0);
  summary.shared_stats = store.cache_stats();
  summary.problem_store = store.stats();
  summary.total_factorizations = 0;
  for (const JobResult& job : summary.jobs) {
    if (!job.ok()) ++summary.failed;
    if (!options_.shared_cache) {
      summary.total_factorizations += job.problem_cache.misses;
    }
    if (job.attempts.size() > 1) summary.retries += job.attempts.size() - 1;
    for (const AttemptRecord& rec : job.attempts) {
      if (rec.solver != job.solver) ++summary.escalations;
      if (!rec.ok && rec.error_class == ErrorClass::kBudgetExceeded) {
        ++summary.deadline_misses;
      }
    }
    if (job.ok() && !job.attempts.empty() &&
        job.attempts.back().solver != job.solver) {
      ++summary.degraded;
    }
    if (job.attempts.empty() && !job.ok() &&
        job.error_class == ErrorClass::kBudgetExceeded) {
      ++summary.deadline_misses;  // cut off by the wall-clock budget
    }
  }
  if (options_.shared_cache) {
    summary.total_factorizations = summary.shared_stats.misses;
  }
  summary.jobs_per_second =
      summary.wall_seconds > 0.0
          ? static_cast<double>(jobs.size()) / summary.wall_seconds
          : 0.0;
  return summary;
}

std::string AttemptRecord::to_json(int indent) const {
  JsonWriter w(indent);
  w.open();
  w.field("attempt", std::to_string(attempt));
  w.field("solver", json_quote(solver));
  w.field("scenario_seed", std::to_string(scenario_seed));
  w.field("backoff_sim_seconds", json_double(backoff_sim_seconds));
  w.field("status", json_quote(ok ? "ok" : "error"));
  w.field("error_class", json_quote(ok ? "" : rpcg::to_string(error_class)));
  w.field("error", json_quote(error));
  w.field("iterations", std::to_string(iterations));
  w.field("sim_time", json_double(sim_time), false);
  w.close("}", false);
  return std::move(w).str();
}

std::string JobResult::to_json(int indent) const {
  JsonWriter w(indent);
  w.open();
  w.field("index", std::to_string(index));
  w.field("name", json_quote(name));
  w.field("matrix", json_quote(matrix_id));
  w.field("solver", json_quote(solver));
  w.field("preconditioner", json_quote(precond));
  w.field("status", json_quote(ok() ? "ok" : "error"));
  w.field("error", json_quote(error));
  w.field("error_class",
          json_quote(ok() ? "" : rpcg::to_string(error_class)));
  w.field("wall_seconds", json_double(wall_seconds));
  w.open_field("problem_cache", "{");
  w.field("hits", std::to_string(problem_cache.hits));
  w.field("misses", std::to_string(problem_cache.misses));
  w.field("invalidated", std::to_string(problem_cache.invalidated));
  w.field("entries", std::to_string(problem_cache.entries), false);
  w.close("}", true);
  w.open_field("attempts", "[");
  for (std::size_t i = 0; i < attempts.size(); ++i) {
    w.raw(attempts[i].to_json(w.current_indent()).substr(
              static_cast<std::size_t>(w.current_indent())),
          i + 1 < attempts.size());
  }
  w.close("]", true);
  w.embed_field("report", report.to_json(w.current_indent()), false);
  w.close("}", false);
  return std::move(w).str();
}

std::string ServiceReport::to_json(int indent) const {
  JsonWriter w(indent);
  w.open();
  w.field("schema", json_quote("rpcg-service-report/v3"));
  w.field("workers", std::to_string(workers));
  w.field("order", json_quote(service::to_string(order)));
  w.field("shared_cache", json_bool(shared_cache));
  w.open_field("summary", "{");
  w.field("jobs", std::to_string(jobs.size()));
  w.field("failed", std::to_string(failed));
  w.field("retries", std::to_string(retries));
  w.field("escalations", std::to_string(escalations));
  w.field("degraded", std::to_string(degraded));
  w.field("deadline_misses", std::to_string(deadline_misses));
  w.field("total_factorizations", std::to_string(total_factorizations));
  w.field("wall_seconds", json_double(wall_seconds));
  w.field("jobs_per_second", json_double(jobs_per_second));
  w.open_field("shared_cache", "{");
  w.field("hits", std::to_string(shared_stats.hits));
  w.field("misses", std::to_string(shared_stats.misses));
  w.field("evictions", std::to_string(shared_stats.evictions));
  w.field("entries", std::to_string(shared_stats.entries), false);
  w.close("}", false);
  w.close("}", true);
  w.open_field("jobs", "[");
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    w.raw(jobs[i].to_json(w.current_indent()).substr(
              static_cast<std::size_t>(w.current_indent())),
          i + 1 < jobs.size());
  }
  w.close("]", false);
  w.close("}", false);
  return std::move(w).str();
}

}  // namespace rpcg::service
