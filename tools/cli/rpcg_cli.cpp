// rpcg-cli — the single front door to the solver engine.
//
//   rpcg-cli solve [--matrix M2 --scale 64 --nodes 16 --solver resilient-pcg
//                   --precond bjacobi --failures 10:0:2 --recovery esr ...]
//   rpcg-cli batch --jobs FILE [--workers N --max-in-flight N
//                   --order submission|completion --shared-cache=BOOL
//                   --out FILE --retry N --fallbacks a,b --retry-backoff S
//                   --retry-backoff-multiplier M --retry-seed-bump K
//                   --deadline SIM_S --wall-timeout WALL_S
//                   --inject-seed K --inject-cache-rate P
//                   --inject-worker-rate P --inject-cache-first N
//                   --inject-worker-first N]
//   rpcg-cli list-solvers
//   rpcg-cli list-preconds
//
// `solve` runs one job and prints its rpcg-solve-report/v2 JSON to stdout.
// `batch` reads a JSON-lines job file (see src/service/job.hpp for the
// format; `--jobs -` reads stdin), runs it through the SolverService, and
// prints the rpcg-service-report/v3 summary to stdout (or --out FILE), with
// per-job progress lines on stderr. `solve` takes the solver-config keys of
// job files as flags — both go through SolverConfig::from_options; `batch`
// takes its own flags only, since each job line carries its config. A flag
// a command does not read is a usage error, not a default.
//
// Exit codes: 0 success, 1 at least one job failed, 2 usage error.
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "engine/registry.hpp"
#include "service/job.hpp"
#include "service/solver_service.hpp"
#include "util/options.hpp"

namespace {

using rpcg::FailureSchedule;
using rpcg::Options;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <solve|batch|list-solvers|list-preconds> "
               "[--flags]\n"
               "  solve          run one job from flags, print its solve "
               "report JSON\n"
               "  batch          run a JSON-lines job file through the "
               "SolverService\n"
               "  list-solvers   print the registered solver keys\n"
               "  list-preconds  print the registered preconditioner keys\n",
               argv0);
  return 2;
}

/// "M3" / "m3" / "3" -> 3.
int parse_matrix_id(const std::string& s) {
  std::string digits = s;
  if (!digits.empty() && (digits[0] == 'M' || digits[0] == 'm')) {
    digits = digits.substr(1);
  }
  const int index = static_cast<int>(std::strtol(digits.c_str(), nullptr, 10));
  if (index < 1 || index > 8) {
    throw std::invalid_argument("matrix must be M1..M8 (or 1..8), got " + s);
  }
  return index;
}

/// "ITER:FIRST:PSI[,ITER:FIRST:PSI...]" — the paper's contiguous protocol.
/// (Job files additionally support explicit node lists and
/// during-recovery events.)
FailureSchedule parse_failures_flag(const std::string& spec) {
  FailureSchedule schedule;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    auto comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string item = spec.substr(pos, comma - pos);
    int iteration = 0;
    int first = 0;
    int psi = 0;
    if (std::sscanf(item.c_str(), "%d:%d:%d", &iteration, &first, &psi) != 3 ||
        psi < 1) {
      throw std::invalid_argument(
          "--failures items must be ITER:FIRST:PSI, got " + item);
    }
    FailureSchedule one = FailureSchedule::contiguous(iteration, first, psi);
    schedule.add(one.events().front());
    pos = comma + 1;
  }
  return schedule;
}

// The flags each command reads: solve's own plus the solver-config keys,
// and batch's own.
std::vector<std::string> solve_flags() {
  std::vector<std::string> flags{"name",  "matrix",  "scale", "nodes",
                                 "solver", "precond", "rhs",   "noise",
                                 "noise-seed", "failures"};
  for (const char* key : rpcg::service::config_keys()) flags.emplace_back(key);
  return flags;
}

std::vector<std::string> batch_flags() {
  return {"jobs",          "workers",
          "max-in-flight", "order",
          "shared-cache",  "out",
          "retry",         "fallbacks",
          "retry-backoff", "retry-backoff-multiplier",
          "retry-seed-bump", "deadline",
          "wall-timeout",  "inject-seed",
          "inject-cache-rate", "inject-worker-rate",
          "inject-cache-first", "inject-worker-first"};
}

rpcg::service::JobSpec job_from_options(const Options& opts) {
  rpcg::service::JobSpec spec;
  spec.name = opts.get_string("name", "");
  spec.matrix = parse_matrix_id(opts.get_string("matrix", "M1"));
  spec.scale = opts.get_double("scale", 16.0);
  spec.nodes = static_cast<int>(opts.get_int("nodes", 16));
  spec.solver = opts.get_string("solver", "pcg");
  spec.precond = opts.get_string("precond", "bjacobi");
  spec.rhs = opts.get_string("rhs", "ones");
  spec.noise_cv = opts.get_double("noise", 0.0);
  spec.noise_seed = static_cast<std::uint64_t>(opts.get_int("noise-seed", 0));
  if (opts.has("failures")) {
    spec.schedule = parse_failures_flag(opts.get_string("failures", ""));
  }
  spec.config = rpcg::engine::SolverConfig::from_options(opts);
  return spec;
}

int cmd_solve(const Options& opts) {
  opts.require_known(solve_flags());
  const std::vector<rpcg::service::JobSpec> jobs{job_from_options(opts)};
  rpcg::service::ServiceOptions sopts;
  sopts.workers = 1;
  sopts.shared_cache = false;  // one job; nothing to share
  const rpcg::service::ServiceReport summary =
      rpcg::service::SolverService(sopts).run(jobs);
  const rpcg::service::JobResult& result = summary.jobs.front();
  if (!result.ok()) {
    std::fprintf(stderr, "rpcg-cli: solve failed: %s\n", result.error.c_str());
    return 1;
  }
  std::printf("%s\n", result.report.to_json().c_str());
  return 0;
}

int cmd_batch(const Options& opts) {
  opts.require_known(batch_flags());
  const std::string path = opts.get_string("jobs", "");
  if (path.empty()) {
    std::fprintf(stderr, "rpcg-cli: batch needs --jobs FILE (or --jobs -)\n");
    return 2;
  }
  std::vector<rpcg::service::JobSpec> jobs;
  if (path == "-") {
    jobs = rpcg::service::parse_job_lines(std::cin);
  } else {
    jobs = rpcg::service::read_job_file(path);
  }

  rpcg::service::ServiceOptions sopts;
  sopts.workers = static_cast<int>(opts.get_int("workers", 0));
  sopts.max_in_flight = static_cast<int>(opts.get_int("max-in-flight", 0));
  sopts.shared_cache = opts.get_bool("shared-cache", true);
  sopts.order = opts.get_enum<rpcg::service::OutputOrder>(
      "order", rpcg::service::OutputOrder::kSubmission);

  // Batch-wide robustness defaults; per-job "retry"/"fallbacks" keys in the
  // job file override the whole policy.
  sopts.retry.max_attempts = static_cast<int>(opts.get_int("retry", 1));
  const std::string fallbacks = opts.get_string("fallbacks", "");
  for (std::size_t pos = 0; pos < fallbacks.size();) {
    auto comma = fallbacks.find(',', pos);
    if (comma == std::string::npos) comma = fallbacks.size();
    if (comma > pos) {
      sopts.retry.fallbacks.push_back(fallbacks.substr(pos, comma - pos));
    }
    pos = comma + 1;
  }
  sopts.retry.backoff_sim_seconds = opts.get_double("retry-backoff", 0.0);
  sopts.retry.backoff_multiplier =
      opts.get_double("retry-backoff-multiplier", 2.0);
  sopts.retry.seed_bump =
      static_cast<std::uint64_t>(opts.get_int("retry-seed-bump", 1));
  sopts.default_deadline_sim_seconds = opts.get_double("deadline", 0.0);
  sopts.wall_timeout_seconds = opts.get_double("wall-timeout", 0.0);
  sopts.fault_injection.seed =
      static_cast<std::uint64_t>(opts.get_int("inject-seed", 0));
  sopts.fault_injection.cache_build_failure_rate =
      opts.get_double("inject-cache-rate", 0.0);
  sopts.fault_injection.worker_fault_rate =
      opts.get_double("inject-worker-rate", 0.0);
  sopts.fault_injection.cache_fail_first_attempts =
      static_cast<int>(opts.get_int("inject-cache-first", 0));
  sopts.fault_injection.worker_fail_first_attempts =
      static_cast<int>(opts.get_int("inject-worker-first", 0));
  sopts.fault_injection.enabled =
      sopts.fault_injection.cache_build_failure_rate > 0.0 ||
      sopts.fault_injection.worker_fault_rate > 0.0 ||
      sopts.fault_injection.cache_fail_first_attempts > 0 ||
      sopts.fault_injection.worker_fail_first_attempts > 0;

  const std::size_t total = jobs.size();
  std::size_t emitted = 0;
  const auto progress = [&emitted, total](const rpcg::service::JobResult& r) {
    ++emitted;
    std::string note;
    if (r.attempts.size() > 1) {
      note = " [" + std::to_string(r.attempts.size()) + " attempts]";
    }
    std::fprintf(stderr, "[%zu/%zu] %-5s %s (%s, %s/%s) %.3fs%s\n", emitted,
                 total, r.ok() ? "ok" : "FAIL", r.name.c_str(),
                 r.matrix_id.c_str(), r.solver.c_str(), r.precond.c_str(),
                 r.wall_seconds, note.c_str());
  };
  const rpcg::service::ServiceReport summary =
      rpcg::service::SolverService(sopts).run(jobs, progress);

  const std::string out_path = opts.get_string("out", "");
  const std::string rendered = summary.to_json();
  if (out_path.empty()) {
    std::printf("%s\n", rendered.c_str());
  } else {
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "rpcg-cli: cannot write %s\n", out_path.c_str());
      return 1;
    }
    out << rendered << '\n';
  }
  std::fprintf(stderr,
               "%zu jobs, %zu failed, %.3fs wall, %.2f jobs/s, "
               "%llu factorizations\n",
               summary.jobs.size(), summary.failed, summary.wall_seconds,
               summary.jobs_per_second,
               static_cast<unsigned long long>(summary.total_factorizations));
  return summary.failed == 0 ? 0 : 1;
}

int cmd_list(const std::vector<std::string>& names) {
  for (const std::string& name : names) std::printf("%s\n", name.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  const std::string command = argv[1];
  try {
    // Options skips its argv[0], which here is the subcommand token.
    const Options opts(argc - 1, argv + 1);
    if (command == "solve") return cmd_solve(opts);
    if (command == "batch") return cmd_batch(opts);
    if (command == "list-solvers") {
      return cmd_list(rpcg::engine::SolverRegistry::instance().names());
    }
    if (command == "list-preconds") {
      return cmd_list(rpcg::engine::PreconditionerRegistry::instance().names());
    }
    std::fprintf(stderr, "rpcg-cli: unknown command '%s'\n", command.c_str());
    return usage(argv[0]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rpcg-cli: %s\n", e.what());
    return 2;
  }
}
