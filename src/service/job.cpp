#include "service/job.hpp"

#include <cmath>
#include <fstream>
#include <istream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "util/json.hpp"
#include "util/options.hpp"

namespace rpcg::service {

namespace {

// Solver-config keys, forwarded verbatim to SolverConfig::from_options as
// synthesized "--key=value" options — one spelling for job files, CLI
// flags, and bench command lines.
constexpr const char* kConfigKeys[] = {
    "rtol",           "max-iterations",  "deadline",
    "recovery",
    "phi",            "strategy",        "strategy-seed",
    "local-rtol",     "checkpoint-interval", "stationary-method",
    "omega",          "exec",            "workers",
    "factorization-cache",
    "checkpoint-medium",   "checkpoint-write-cost",
    "checkpoint-read-cost", "checkpoint-latency",
    "scenario",       "scenario-seed",   "scenario-events",
    "scenario-nodes", "scenario-horizon", "scenario-window",
    "scenario-rate",  "scenario-shape",  "scenario-node-spread",
    "pipeline-depth",
};

// Keys the job parser consumes directly.
constexpr const char* kJobKeys[] = {
    "name", "matrix", "scale", "nodes", "solver",
    "precond", "rhs", "noise", "noise-seed", "failures",
    "retry", "fallbacks", "retry-backoff", "retry-backoff-multiplier",
    "retry-seed-bump",
};

[[nodiscard]] bool is_config_key(const std::string& key) {
  for (const char* k : kConfigKeys) {
    if (key == k) return true;
  }
  return false;
}

[[noreturn]] void fail(const std::string& what) {
  throw std::invalid_argument("job: " + what);
}

[[nodiscard]] int as_int(const JsonValue& v, const char* key) {
  const double d = v.as_number();
  if (d != std::floor(d) || d < -2147483648.0 || d > 2147483647.0) {
    fail(std::string(key) + " must be an integer, got " + format_compact(d));
  }
  return static_cast<int>(d);
}

/// A seed: an integer in [0, 2^53], the range a JSON number holds exactly.
[[nodiscard]] std::uint64_t as_seed(const JsonValue& v, const char* key) {
  const double d = v.as_number();
  if (d != std::floor(d) || d < 0.0 || d > 9007199254740992.0) {
    fail(std::string(key) + " must be an integer in [0, 2^53], got " +
         format_compact(d));
  }
  return static_cast<std::uint64_t>(d);
}

/// "M3" / "m3" / 3 -> 3.
[[nodiscard]] int parse_matrix(const JsonValue& v) {
  int index = 0;
  if (v.is_string()) {
    const std::string& s = v.as_string();
    if (s.size() < 2 || (s[0] != 'M' && s[0] != 'm')) {
      fail("matrix must be \"M1\"..\"M8\" or 1..8, got \"" + s + "\"");
    }
    try {
      index = std::stoi(s.substr(1));
    } catch (const std::exception&) {
      fail("matrix must be \"M1\"..\"M8\" or 1..8, got \"" + s + "\"");
    }
  } else {
    index = as_int(v, "matrix");
  }
  if (index < 1 || index > 8) {
    fail("matrix index out of range 1..8: " + std::to_string(index));
  }
  return index;
}

[[nodiscard]] FailureSchedule parse_failures(const JsonValue& v) {
  FailureSchedule schedule;
  for (const JsonValue& ev : v.as_array()) {
    const JsonValue* iteration = ev.find("iteration");
    if (iteration == nullptr) fail("failure event needs \"iteration\"");
    const JsonValue* nodes = ev.find("nodes");
    const JsonValue* first = ev.find("first");
    const JsonValue* psi = ev.find("psi");
    for (const auto& [key, ignored] : ev.as_object()) {
      if (key != "iteration" && key != "nodes" && key != "first" &&
          key != "psi" && key != "during-recovery") {
        fail("unknown failure-event key \"" + key +
             "\" (valid: iteration, nodes, first, psi, during-recovery)");
      }
    }
    FailureEvent event;
    event.iteration = as_int(*iteration, "iteration");
    if (nodes != nullptr) {
      if (first != nullptr || psi != nullptr) {
        fail("failure event takes \"nodes\" or \"first\"+\"psi\", not both");
      }
      for (const JsonValue& n : nodes->as_array()) {
        event.nodes.push_back(as_int(n, "nodes[]"));
      }
      if (event.nodes.empty()) fail("failure event \"nodes\" is empty");
    } else if (first != nullptr && psi != nullptr) {
      const int f = as_int(*first, "first");
      const int p = as_int(*psi, "psi");
      if (p < 1) fail("failure event psi must be >= 1");
      for (int k = 0; k < p; ++k) event.nodes.push_back(f + k);
    } else {
      fail("failure event needs \"nodes\" or \"first\"+\"psi\"");
    }
    if (const JsonValue* dr = ev.find("during-recovery"); dr != nullptr) {
      event.during_recovery = dr->as_bool();
    }
    schedule.add(std::move(event));
  }
  return schedule;
}

/// Renders a JSON scalar as the option-value string from_options expects.
[[nodiscard]] std::string scalar_to_option(const JsonValue& v,
                                           const std::string& key) {
  switch (v.kind()) {
    case JsonValue::Kind::kBool:
      return v.as_bool() ? "true" : "false";
    case JsonValue::Kind::kNumber: {
      // %.17g round-trips doubles exactly: 1e-9 must survive the detour
      // through the option string bit-for-bit.
      char buf[32];
      const int len = std::snprintf(buf, sizeof buf, "%.17g", v.as_number());
      return std::string(buf, static_cast<std::size_t>(len));
    }
    case JsonValue::Kind::kString:
      return v.as_string();
    default:
      fail("\"" + key + "\" must be a scalar, got " +
           JsonValue::kind_name(v.kind()));
  }
}

/// "fallbacks": ["a", "b"] or the comma-separated shorthand "a,b".
[[nodiscard]] std::vector<std::string> parse_fallbacks(const JsonValue& v) {
  std::vector<std::string> out;
  if (v.is_string()) {
    std::stringstream ss(v.as_string());
    std::string part;
    while (std::getline(ss, part, ',')) {
      const auto b = part.find_first_not_of(" \t");
      const auto e = part.find_last_not_of(" \t");
      if (b != std::string::npos) out.push_back(part.substr(b, e - b + 1));
    }
  } else {
    for (const JsonValue& s : v.as_array()) out.push_back(s.as_string());
  }
  if (out.empty()) fail("fallbacks must name at least one solver");
  return out;
}

[[nodiscard]] std::string valid_keys_message() {
  std::string msg = "valid keys:";
  for (const char* k : kJobKeys) {
    msg += ' ';
    msg += k;
  }
  for (const char* k : kConfigKeys) {
    msg += ' ';
    msg += k;
  }
  return msg;
}

}  // namespace

std::span<const char* const> config_keys() { return kConfigKeys; }

JobSpec parse_job(const JsonValue& value) {
  JobSpec spec;
  std::vector<std::string> config_args;
  config_args.emplace_back("job");  // argv[0], skipped by Options
  bool saw_failures = false;
  bool saw_scenario = false;
  for (const auto& [key, member] : value.as_object()) {
    if (key == "failures") saw_failures = true;
    if (key == "scenario") saw_scenario = true;
    if (key == "name") {
      spec.name = member.as_string();
    } else if (key == "matrix") {
      spec.matrix = parse_matrix(member);
    } else if (key == "scale") {
      spec.scale = member.as_number();
      if (!(spec.scale > 0.0)) fail("scale must be > 0");
    } else if (key == "nodes") {
      spec.nodes = as_int(member, "nodes");
      if (spec.nodes < 1) fail("nodes must be >= 1");
    } else if (key == "solver") {
      spec.solver = member.as_string();
    } else if (key == "precond") {
      spec.precond = member.as_string();
    } else if (key == "rhs") {
      spec.rhs = member.as_string();
    } else if (key == "noise") {
      spec.noise_cv = member.as_number();
      if (spec.noise_cv < 0.0) fail("noise must be >= 0");
    } else if (key == "noise-seed") {
      spec.noise_seed = as_seed(member, "noise-seed");
    } else if (key == "failures") {
      spec.schedule = parse_failures(member);
    } else if (key == "retry") {
      spec.retry.max_attempts = as_int(member, "retry");
      if (spec.retry.max_attempts < 1) fail("retry must be >= 1");
    } else if (key == "fallbacks") {
      spec.retry.fallbacks = parse_fallbacks(member);
    } else if (key == "retry-backoff") {
      spec.retry.backoff_sim_seconds = member.as_number();
      if (spec.retry.backoff_sim_seconds < 0.0) {
        fail("retry-backoff must be >= 0");
      }
    } else if (key == "retry-backoff-multiplier") {
      spec.retry.backoff_multiplier = member.as_number();
      if (!(spec.retry.backoff_multiplier >= 1.0)) {
        fail("retry-backoff-multiplier must be >= 1");
      }
    } else if (key == "retry-seed-bump") {
      spec.retry.seed_bump = as_seed(member, "retry-seed-bump");
    } else if (is_config_key(key)) {
      config_args.push_back("--" + key + "=" + scalar_to_option(member, key));
    } else {
      fail("unknown key \"" + key + "\" (" + valid_keys_message() + ")");
    }
  }
  if (saw_failures && saw_scenario) {
    // A generated scenario only applies when the explicit schedule is empty
    // (engine rule); a job naming both is almost certainly a mistake.
    fail("a job takes \"failures\" or \"scenario\", not both");
  }

  std::vector<const char*> argv;
  argv.reserve(config_args.size());
  for (const std::string& a : config_args) argv.push_back(a.c_str());
  spec.config = engine::SolverConfig::from_options(
      Options(static_cast<int>(argv.size()), argv.data()));
  return spec;
}

std::vector<JobSpec> parse_job_lines(std::istream& in) {
  std::vector<JobSpec> jobs;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto start = line.find_first_not_of(" \t\r");
    if (start == std::string::npos || line[start] == '#') continue;
    try {
      jobs.push_back(parse_job(JsonValue::parse(line)));
    } catch (const std::exception& e) {
      throw std::invalid_argument("jobs line " + std::to_string(line_no) +
                                  ": " + e.what());
    }
    if (jobs.back().name.empty()) {
      jobs.back().name = "job-" + std::to_string(jobs.size() - 1);
    }
  }
  return jobs;
}

std::vector<JobSpec> read_job_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::invalid_argument("cannot open job file: " + path);
  return parse_job_lines(in);
}

}  // namespace rpcg::service
