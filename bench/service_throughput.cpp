// SolverService throughput: factorizations shared through the problem
// store's entries vs the status quo of one isolated Problem per solve.
//
// The batch is deliberately factorization-heavy — failure-laden resilient
// jobs repeated over the same matrices — because that is the workload the
// shared cache exists for: an isolated Problem refactorizes its recovery
// operators from scratch, while the service builds each (problem,
// failed-set) factorization once in the problem's store entry and serves
// every later job of that problem from memory.
//
// Three configurations are timed over the identical batch:
//   serial    workers=1, shared cache off   (status-quo baseline)
//   batched   --service-workers, cache on   (the service as shipped)
//   nocache   --service-workers, cache off  (isolates the cache's share)
//
// The bench self-gates: batched must beat serial on jobs/s AND build
// strictly fewer factorizations than nocache, else the exit code is 1.
#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_support.hpp"
#include "service/job.hpp"
#include "service/solver_service.hpp"

namespace {

using rpcg::bench::CommonArgs;
using rpcg::service::JobSpec;
using rpcg::service::ServiceOptions;
using rpcg::service::ServiceReport;
using rpcg::service::SolverService;

/// The failure-heavy job mix: per matrix, `copies` repetitions of two
/// resilient templates that share one failed-node set, so the cache key
/// (matrix, failed set) repeats 2 * copies times per matrix.
std::vector<JobSpec> make_batch(const CommonArgs& args, int copies) {
  std::vector<JobSpec> jobs;
  const struct {
    const char* solver;
    int iteration;
  } templates[] = {{"resilient-pcg", 3}, {"pipelined-resilient-pcg", 5}};
  for (const long m : args.matrices) {
    for (int c = 0; c < copies; ++c) {
      for (const auto& t : templates) {
        JobSpec job;
        job.name = "M";
        job.name += std::to_string(m);
        job.name += '-';
        job.name += t.solver;
        job.name += "-c";
        job.name += std::to_string(c);
        job.matrix = static_cast<int>(m);
        // Clamp the divisor: below ~1/12 of paper size the LDLT kernel gets
        // too cheap to measure against 1-core scheduling noise, and the
        // jobs/s self-gate would flake on workloads the cache was never
        // meant to speed up. The suite-wide --scale still applies whenever
        // it asks for the same or bigger problems.
        job.scale = std::min(args.scale, 12.0);
        job.nodes = args.nodes;
        job.solver = t.solver;
        job.precond = args.precond;
        job.config.rtol = 1e-6;
        job.config.recovery = rpcg::RecoveryMethod::kEsr;
        job.config.phi = 8;
        job.config.strategy = args.strategy;
        // Exact LDLT recovery: the expensive, cacheable kernel this bench
        // exists to amortize. Jobs stay sequential inside — on the service
        // the parallelism dimension is across jobs, not within one.
        job.config.esr.exact_local_solve = true;
        // Three eight-node waves at distinct locations: every copy of the
        // template redoes all three factorizations when each Problem is
        // isolated, while the shared cache builds each (matrix, failed-set)
        // block once per store entry.
        for (const auto& [iter, first] : {std::pair<int, int>{t.iteration, 1},
                                          {t.iteration + 7, 17},
                                          {t.iteration + 14, 33}}) {
          rpcg::FailureSchedule wave =
              rpcg::FailureSchedule::contiguous(iter, first, 8);
          job.schedule.add(wave.events().front());
        }
        jobs.push_back(std::move(job));
      }
    }
  }
  return jobs;
}

struct RunStats {
  double wall_seconds = 0.0;
  double jobs_per_second = 0.0;
  std::uint64_t factorizations = 0;
  std::size_t failed = 0;
};

RunStats run_config(const std::vector<JobSpec>& jobs, int workers,
                    bool shared_cache) {
  ServiceOptions opts;
  opts.workers = workers;
  opts.shared_cache = shared_cache;
  const ServiceReport report = SolverService(opts).run(jobs);
  RunStats s;
  s.wall_seconds = report.wall_seconds;
  s.jobs_per_second = report.jobs_per_second;
  s.factorizations = report.total_factorizations;
  s.failed = report.failed;
  return s;
}

void print_stats(const char* label, const RunStats& s) {
  std::printf("%-26s wall=%9.4fs  jobs/s=%8.2f  factorizations=%llu%s\n",
              label, s.wall_seconds, s.jobs_per_second,
              static_cast<unsigned long long>(s.factorizations),
              s.failed == 0 ? "" : "  FAILED JOBS");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rpcg::bench;
  const CommonArgs args =
      CommonArgs::parse(argc, argv, {"copies", "service-workers"});
  const rpcg::Options o(argc, argv);
  const int copies = static_cast<int>(o.get_int("copies", 3));
  // One worker per hardware thread (at most 8): more would oversubscribe the
  // host, and jobs/s would measure the OS scheduler instead of the service.
  const int default_workers = std::clamp(
      static_cast<int>(std::thread::hardware_concurrency()), 1, 8);
  const int service_workers =
      static_cast<int>(o.get_int("service-workers", default_workers));

  const std::vector<JobSpec> jobs = make_batch(args, copies);
  print_header("SolverService throughput: shared factorization cache vs "
               "per-Problem isolation",
               args);
  std::printf("batch: %zu failure-heavy jobs over %zu matrices, "
              "service workers = %d\n\n",
              jobs.size(), args.matrices.size(), service_workers);

  const RunStats serial = run_config(jobs, 1, false);
  print_stats("serial (1 worker, no cache)", serial);
  const RunStats batched = run_config(jobs, service_workers, true);
  print_stats("batched (shared cache)", batched);
  const RunStats nocache = run_config(jobs, service_workers, false);
  print_stats("batched (cache off)", nocache);

  const double speedup = serial.wall_seconds > 0.0
                             ? serial.wall_seconds / batched.wall_seconds
                             : 0.0;
  const std::uint64_t saved =
      nocache.factorizations > batched.factorizations
          ? nocache.factorizations - batched.factorizations
          : 0;
  std::printf("\nbatched vs serial speedup: %.2fx; factorizations saved by "
              "shared cache: %llu (%llu -> %llu)\n",
              speedup, static_cast<unsigned long long>(saved),
              static_cast<unsigned long long>(nocache.factorizations),
              static_cast<unsigned long long>(batched.factorizations));

  // Self-gate: the service must pay for itself on this workload.
  int failures = 0;
  if (serial.failed + batched.failed + nocache.failed > 0) {
    std::fprintf(stderr, "service_throughput: FAILED — jobs errored\n");
    ++failures;
  }
  if (batched.jobs_per_second <= serial.jobs_per_second) {
    std::fprintf(stderr,
                 "service_throughput: FAILED — batched (%.2f jobs/s) did not "
                 "beat serial (%.2f jobs/s)\n",
                 batched.jobs_per_second, serial.jobs_per_second);
    ++failures;
  }
  if (batched.factorizations >= nocache.factorizations) {
    std::fprintf(stderr,
                 "service_throughput: FAILED — shared cache built %llu "
                 "factorizations, cache-off built %llu\n",
                 static_cast<unsigned long long>(batched.factorizations),
                 static_cast<unsigned long long>(nocache.factorizations));
    ++failures;
  }
  return failures == 0 ? 0 : 1;
}
