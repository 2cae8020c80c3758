// Driver that runs the table/fig/ablation reproduction benches as one suite:
//
//   ./run_all [--bin-dir DIR] [--only table1_matrices,...]
//             [--scale S] [--nodes N] [--reps R] [--jobs J] [--keep-output]
//             [--noise/--matrices/--precond/--strategy/--exec/--workers V]
//             [--depths L]
//
// Each bench runs as a child process with the shared --scale/--nodes/--reps
// flags (see bench_support.hpp), the other shared flags given, and --depths
// for pipelined_overhead alone; one stderr line per bench gives its exit
// status and wall-clock seconds. Output of the children is suppressed
// unless --keep-output is given. With --jobs J > 1 the independent bench
// processes fan out over a worker pool (the wall times of concurrent runs
// contend for the same cores). The exit status is 2 for a flag run_all
// does not read, 1 when any bench exits nonzero (a failed run or a tripped
// self-gate) or is missing, else 0.
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.hpp"
#include "util/options.hpp"
#include "util/thread_pool.hpp"

#ifndef _WIN32
#include <sys/wait.h>
#endif

// Comma-separated default bench list, injected at configure time from the
// RPCG_BENCHES target list in bench/CMakeLists.txt (single source of truth).
#ifndef RPCG_BENCH_LIST
#define RPCG_BENCH_LIST ""
#endif

namespace {

std::vector<std::string> split_names(const std::string& csv) {
  std::vector<std::string> out;
  std::string token;
  for (const char c : csv + ",") {
    if (c == ',') {
      if (!token.empty()) out.push_back(token);
      token.clear();
    } else {
      token.push_back(c);
    }
  }
  return out;
}

struct BenchResult {
  std::string name;
  std::string command;
  int exit_code = -1;
};

// Forwarded flag values are pasted into a shell command line; restrict them
// to the numeric-list shapes the benches accept rather than escaping shell
// metacharacters.
bool safe_flag_value(const std::string& s) {
  for (const char c : s)
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '.' ||
          c == ',' || c == '-' || c == '_'))
      return false;
  return !s.empty();
}

int run_command(const std::string& cmd) {
  const int raw = std::system(cmd.c_str());
#ifndef _WIN32
  if (WIFEXITED(raw)) return WEXITSTATUS(raw);
  return -1;
#else
  return raw;
#endif
}

}  // namespace

int main(int argc, char** argv) {
  using Clock = std::chrono::steady_clock;
  // A flag run_all does not read exits 2 with the valid flags, as a bench
  // given one does.
  rpcg::Options opts;
  try {
    opts = rpcg::Options(argc, argv);
    opts.require_known({"bin-dir", "only", "scale", "nodes", "reps", "jobs",
                        "keep-output", "noise", "matrices", "precond",
                        "strategy", "exec", "workers", "depths"});
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "run_all: %s\n", e.what());
    return 2;
  }

  const std::string default_bin_dir =
      std::filesystem::path(argv[0]).parent_path().string();
  const std::string bin_dir =
      opts.get_string("bin-dir", default_bin_dir.empty() ? "." : default_bin_dir);
  const bool keep_output = opts.get_bool("keep-output", false);
  const double scale = opts.get_double("scale", 32.0);
  const long nodes = opts.get_int("nodes", 64);
  const long reps = opts.get_int("reps", 1);
  const int jobs = static_cast<int>(opts.get_int("jobs", 1));
  if (jobs < 1) {
    std::fprintf(stderr, "run_all: --jobs must be >= 1\n");
    return 1;
  }
  // The remaining shared bench flags (see bench_support.hpp) are forwarded
  // verbatim when given, and --depths to pipelined_overhead, the one bench
  // that reads it (the others refuse flags they do not read).
  std::string passthrough;
  std::string depths;
  for (const char* flag :
       {"noise", "matrices", "precond", "strategy", "exec", "workers",
        "depths"}) {
    if (!opts.has(flag)) continue;
    const std::string value = opts.get_string(flag, "");
    if (!safe_flag_value(value)) {
      std::fprintf(stderr, "run_all: invalid --%s value '%s'\n", flag,
                   value.c_str());
      return 1;
    }
    (std::string_view(flag) == "depths" ? depths : passthrough) +=
        std::string(" --") + flag + "=" + value;
  }

  const std::string only = opts.get_string("only", "");
  const std::vector<std::string> selected =
      split_names(only.empty() ? RPCG_BENCH_LIST : only);
  if (selected.empty()) {
    std::fprintf(stderr, "run_all: no benches selected\n");
    return 1;
  }

  // Pre-resolve every bench into its result slot so parallel execution can
  // fill the vector by index.
  std::vector<BenchResult> results(selected.size());
  for (std::size_t i = 0; i < selected.size(); ++i) {
    const std::string& name = selected[i];
#ifdef _WIN32
    const std::string exe_name = name + ".exe";
#else
    const std::string& exe_name = name;
#endif
    const std::string exe =
        (std::filesystem::path(bin_dir) / exe_name).string();
    BenchResult& r = results[i];
    r.name = name;
    // Quoted so bin dirs containing spaces survive the shell's word split.
    r.command = "\"" + exe + "\" --scale=" + rpcg::format_compact(scale) +
                " --nodes=" + std::to_string(nodes) +
                " --reps=" + std::to_string(reps) + passthrough +
                (name == "pipelined_overhead" ? depths : "");
    if (!std::filesystem::exists(exe)) {
      std::fprintf(stderr,
                   "run_all: %s FAILED (binary not found at %s — typo in "
                   "--only, or target missing from bench/CMakeLists.txt?)\n",
                   name.c_str(), exe.c_str());
      r.exit_code = 127;
    }
  }

  const auto run_one = [&](std::size_t i) {
    BenchResult& r = results[i];
    if (r.exit_code == 127) return;  // binary missing, reported above
#ifdef _WIN32
    const char* null_device = "NUL";
#else
    const char* null_device = "/dev/null";
#endif
    const std::string cmd =
        keep_output ? r.command
                    : r.command + " > " + null_device + " 2>&1";
    std::fprintf(stderr, "run_all: %s ...\n", r.name.c_str());
    const auto start = Clock::now();
    r.exit_code = run_command(cmd);
    const double seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    std::fprintf(stderr, "run_all: %s %s (%.2fs)\n", r.name.c_str(),
                 r.exit_code == 0 ? "ok" : "FAILED", seconds);
  };

  const auto suite_start = Clock::now();
  if (jobs == 1) {
    for (std::size_t i = 0; i < results.size(); ++i) run_one(i);
  } else {
    // Independent bench processes fan out over a private pool of exactly
    // `jobs` workers (the workers block in system(), so the shared compute
    // pool and its size cap are the wrong tool). Benches are claimed
    // dynamically — one long bench (table2 at scale 8) must not serialize
    // behind a statically co-chunked neighbor.
    rpcg::ThreadPool pool(jobs);
    std::atomic<std::size_t> next{0};
    pool.run_chunked(results.size(), jobs,
                     [&run_one, &next, &results](std::size_t, std::size_t) {
                       for (std::size_t i;
                            (i = next.fetch_add(1)) < results.size();)
                         run_one(i);
                     });
  }
  int failures = 0;
  for (const BenchResult& r : results)
    if (r.exit_code != 0) ++failures;
  const double total_seconds =
      std::chrono::duration<double>(Clock::now() - suite_start).count();

  std::fprintf(stderr, "run_all: %zu benches, %d failure(s), %.2fs\n",
               results.size(), failures, total_seconds);
  return failures == 0 ? 0 : 1;
}
