// rpcg_bench: the repository benchmark. Five workloads, each generated from
// --seed and run through the public engine/service API, with every output
// checked. README.md beside this file holds the workload, metric and layer
// tables.
//
//   rpcg_bench --workload W --seed S [--seconds T] [--trace FILE]
//              [--out FILE] [--smoke]
//
// Without --trace the run measures the end-to-end metrics. With --trace it
// alternates untraced and traced reps of the same inputs for two thirds of
// --seconds, times single calls into each layer on the rep-0 problem in the
// last third, writes the spans to FILE and reports the per-layer metrics.
// Spans are recorded only here, around calls into the src/ layers (and from
// the engine's event hooks), never inside src/.
//
// The last stdout line is one JSON object:
//   {"correct": B, "attempted": N, "failed": F, "metrics": {NAME: {"value": V,
//    "unit": U}, ...}}
// --out FILE also writes an rpcg-benchmark/v1 report with each metric's
// samples summarized (n, q1, median, q3) and marked exact when it is read
// from simulated results, the input of compare_bench.py.
// Exit status: 0 when every check passed, 1 when a check failed, 2 on a
// usage or setup error (no result line is printed then).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/backup_store.hpp"
#include "core/events.hpp"
#include "core/factorization_cache.hpp"
#include "core/failure_schedule.hpp"
#include "core/redundancy.hpp"
#include "engine/registry.hpp"
#include "repro/matrices.hpp"
#include "service/job.hpp"
#include "service/solver_service.hpp"
#include "sim/collectives.hpp"
#include "solver/pipelined_kernel.hpp"
#include "sparse/ic0.hpp"
#include "sparse/ldlt.hpp"
#include "util/json.hpp"
#include "util/json_writer.hpp"
#include "util/options.hpp"
#include "util/rng.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using rpcg::Index;
using rpcg::NodeId;
namespace engine = rpcg::engine;
namespace service = rpcg::service;

constexpr double kRtol = 1e-8;
/// A converged solve must reach this true relative residual.
constexpr double kResidualLimit = 10.0 * kRtol;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ------------------------------------------------------------- statistics

/// Linear-interpolation percentile, p in [0, 1]; NaN for an empty sample
/// (the metric check then reports the metric as missing).
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return percentile(v, 0.5); }

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

// ------------------------------------------------------------------ trace

/// One span of the outside-in trace: a call from this file into a layer's
/// public function, or an interval between two engine events. Times are
/// microseconds since the trace origin.
struct Span {
  std::int64_t id = 0;
  std::string request;
  std::int64_t parent = -1;
  std::string name;
  std::string layer;
  double start_us = 0.0;
  double end_us = -1.0;  ///< below start_us while the span is open
};

/// In-memory span store, written out when the run ends. Thread-safe: the
/// service workload records spans from its worker threads via job hooks.
class Trace {
 public:
  explicit Trace(Clock::time_point origin) : origin_(origin) {}
  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  std::int64_t add(const std::string& request, std::int64_t parent,
                   const std::string& name, const std::string& layer,
                   Clock::time_point t0, Clock::time_point t1) {
    return push({0, request, parent, name, layer, us(t0), us(t1)});
  }

  /// Opens a span at `t0`; close() or set_interval() ends it.
  std::int64_t open(const std::string& request, std::int64_t parent,
                    const std::string& name, const std::string& layer,
                    Clock::time_point t0) {
    return push({0, request, parent, name, layer, us(t0), -1.0});
  }

  void close(std::int64_t id, Clock::time_point t1) {
    const std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end_us = us(t1);
  }

  void set_interval(std::int64_t id, Clock::time_point t0,
                    Clock::time_point t1) {
    const std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].start_us = us(t0);
    spans_[static_cast<std::size_t>(id)].end_us = us(t1);
  }

  void set_parent(std::int64_t id, std::int64_t parent) {
    const std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].parent = parent;
  }

  [[nodiscard]] std::vector<Span> spans() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

  /// The rpcg-trace/v1 document: {"schema", "workload", "seed", "spans"},
  /// one span per line.
  [[nodiscard]] std::string json(const std::string& workload,
                                 std::uint64_t seed) const {
    rpcg::JsonWriter j(0);
    j.open();
    j.field("schema", rpcg::json_quote("rpcg-trace/v1"));
    j.field("workload", rpcg::json_quote(workload));
    j.field("seed", std::to_string(seed));
    j.open_field("spans", "[");
    const std::vector<Span> all = spans();
    for (std::size_t i = 0; i < all.size(); ++i) {
      const Span& s = all[i];
      j.raw("{\"id\": " + std::to_string(s.id) +
                ", \"request\": " + rpcg::json_quote(s.request) +
                ", \"parent\": " + std::to_string(s.parent) +
                ", \"name\": " + rpcg::json_quote(s.name) +
                ", \"layer\": " + rpcg::json_quote(s.layer) +
                ", \"start_us\": " + rpcg::json_double(s.start_us) +
                ", \"end_us\": " + rpcg::json_double(s.end_us) + "}",
            i + 1 < all.size());
    }
    j.close("]");
    j.close();
    return std::move(j).str();
  }

 private:
  [[nodiscard]] double us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  std::int64_t push(Span s) {
    const std::lock_guard<std::mutex> lock(mu_);
    s.id = static_cast<std::int64_t>(spans_.size());
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }

  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Engine hooks that turn iteration, failure and recovery events into spans
/// under one solve (or job) span: `solver.iteration` is the gap between two
/// consecutive on_iteration hooks, `core.recovery` runs from the first
/// on_failure_injected to on_recovery_complete and becomes a child of the
/// iteration gap it falls in. The engine copies the bundle, so the state is
/// shared.
rpcg::SolverEvents traced_events(Trace& trace, const std::string& request,
                                 std::int64_t parent) {
  struct State {
    Clock::time_point last;
    bool have_last = false;
    Clock::time_point failed_at;
    bool failing = false;
    std::vector<std::int64_t> recoveries;  // since the last iteration hook
  };
  auto st = std::make_shared<State>();
  rpcg::SolverEvents events;
  events.on_iteration = [&trace, request, parent,
                         st](const rpcg::IterationSnapshot&) {
    const Clock::time_point now = Clock::now();
    if (st->have_last) {
      const std::int64_t gap = trace.add(request, parent, "solver.iteration",
                                         "solver", st->last, now);
      for (const std::int64_t r : st->recoveries) trace.set_parent(r, gap);
    }
    st->recoveries.clear();
    st->last = now;
    st->have_last = true;
  };
  events.on_failure_injected = [st](const rpcg::FailureEvent&) {
    if (!st->failing) st->failed_at = Clock::now();
    st->failing = true;
  };
  events.on_recovery_complete = [&trace, request, parent,
                                 st](const rpcg::RecoveryRecord&) {
    const Clock::time_point now = Clock::now();
    st->recoveries.push_back(trace.add(request, parent, "core.recovery",
                                       "core",
                                       st->failing ? st->failed_at : now, now));
    st->failing = false;
  };
  return events;
}

/// Durations in seconds of the spans named `name` whose request passes
/// `keep`.
template <typename Keep>
std::vector<double> span_seconds(const std::vector<Span>& spans,
                                 const std::string& name, Keep keep) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.name == name && keep(s))
      out.push_back((s.end_us - s.start_us) * 1e-6);
  }
  return out;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Iteration gaps of the matching requests, in seconds, leaving out the gaps
/// that contain a recovery.
template <typename Keep>
std::vector<double> iteration_gaps(const std::vector<Span>& spans, Keep keep) {
  std::vector<char> has_recovery(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.name == "core.recovery" && s.parent >= 0)
      has_recovery[static_cast<std::size_t>(s.parent)] = 1;
  }
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.name == "solver.iteration" && keep(s) &&
        has_recovery[static_cast<std::size_t>(s.id)] == 0)
      out.push_back((s.end_us - s.start_us) * 1e-6);
  }
  return out;
}

// ----------------------------------------------------------------- checks

struct Checks {
  int attempted = 0;
  int failed = 0;       ///< requests (solves or jobs) that failed a check
  bool run_ok = true;   ///< run-level checks: determinism, metric sanity

  /// Counts one request; `why` is empty when it passed every check.
  void request(const std::string& what, const std::string& why) {
    ++attempted;
    if (!why.empty()) {
      ++failed;
      report(what + ": " + why);
    }
  }
  void run_check(bool ok, const std::string& what) {
    if (!ok) {
      run_ok = false;
      report(what);
    }
  }
  static void report(const std::string& what) {
    std::fprintf(stderr, "rpcg_bench: check failed: %s\n", what.c_str());
  }
};

/// Simulated results must repeat bit for bit for the same input, whether the
/// solve was traced or not and whichever rep or batch ran it.
class DeterminismCheck {
 public:
  void observe(const std::string& key, double sim_time, int iterations,
               Checks& checks) {
    const auto [it, fresh] =
        seen_.emplace(key, std::make_pair(sim_time, iterations));
    if (!fresh) {
      checks.run_check(it->second.first == sim_time &&
                           it->second.second == iterations,
                       key + ": simulated time or iterations differ from an "
                             "earlier run of the same input");
    }
  }

 private:
  std::map<std::string, std::pair<double, int>> seen_;
};

// ---------------------------------------------------------------- metrics

struct Metric {
  std::string unit;
  double value = 0.0;
  std::vector<double> samples;
  bool exact = false;  ///< simulated: bit-identical for the same inputs
};
/// The run's metrics by name: the end-to-end metrics of BENCHMARK.json in an
/// untraced run, its per-layer metrics in a traced one (smoke_test.py checks
/// both name sets against it).
using Metrics = std::map<std::string, Metric>;

void put(Metrics& m, const std::string& name, const char* unit,
         std::vector<double> samples) {
  Metric& metric = m[name];
  metric.unit = unit;
  metric.value = median(samples);
  metric.samples = std::move(samples);
}

void put_value(Metrics& m, const std::string& name, const char* unit,
               double value) {
  put(m, name, unit, {value});
}

/// An end-to-end metric read from simulated results: compare_bench.py
/// requires it to stay bit-identical for the same seed.
void put_exact(Metrics& m, const std::string& name, const char* unit,
               std::vector<double> samples) {
  put(m, name, unit, std::move(samples));
  m[name].exact = true;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ------------------------------------------------------- single-call timing

/// How many calls each single-call timing makes: up to `max_calls`, stopping
/// after `budget_s` once `min_calls` have run. The per-call time is the
/// median.
struct CallPlan {
  int max_calls = 50;
  int min_calls = 3;
  double budget_s = 0.0;
};

/// A traced run spends this share of --seconds on the single-call timings,
/// split evenly over the kCallSites time_calls sites of time_layer_calls,
/// and the rest on reps. Calls slower than a site's share still run
/// min_calls times, which the workloads' slowest call (an LDLT factor of
/// A_FF, 0.3 s) keeps to about 1 s.
constexpr double kCallShare = 1.0 / 3.0;
constexpr int kCallSites = 12;

template <typename F>
double time_calls(Trace& trace, const std::string& name,
                  const std::string& layer, const CallPlan& plan, F&& call) {
  std::vector<double> samples;
  const Clock::time_point start = Clock::now();
  for (int c = 0; c < plan.max_calls; ++c) {
    if (c >= plan.min_calls &&
        seconds_between(start, Clock::now()) > plan.budget_s)
      break;
    const Clock::time_point t0 = Clock::now();
    call();
    const Clock::time_point t1 = Clock::now();
    trace.add("calls/" + name, -1, name, layer, t0, t1);
    samples.push_back(seconds_between(t0, t1));
  }
  return median(samples);
}

/// Per-call host times of the layer functions a solve spends its time in,
/// measured on one problem and one failed node set.
struct LayerCalls {
  double spmv_s = 0.0;
  double spmv_flops = 0.0;
  double spmv_bytes = 0.0;
  double precond_apply_s = 0.0;
  double blas1_s = 0.0;
  double gram_s = 0.0;
  double backup_record_s = 0.0;
  double esr_gather_s = 0.0;
  double cache_hit_s = 0.0;
  double submatrix_s = 0.0;
  double ldlt_factor_s = 0.0;
  double ldlt_factor_flops = 0.0;
  double ldlt_l_nnz = 0.0;
  double ldlt_solve_s = 0.0;
  double ic0_factor_s = 0.0;
  double precond_setup_s = 0.0;
};

LayerCalls time_layer_calls(const engine::Problem& problem,
                            const std::vector<NodeId>& failed, int phi,
                            int generations, Trace& trace,
                            const CallPlan& plan, Checks& checks) {
  using rpcg::Phase;
  LayerCalls out;
  const rpcg::CsrMatrix& a = problem.matrix_global();
  const rpcg::DistMatrix& dist = problem.matrix();
  const rpcg::Partition& partition = problem.partition();
  rpcg::Cluster cluster = problem.make_cluster();
  const rpcg::DistVector v = problem.rhs();
  rpcg::DistVector y = problem.make_x();
  rpcg::DistVector w = problem.rhs();

  std::vector<std::vector<double>> halos;
  out.spmv_s = time_calls(trace, "sim.spmv", "sim", plan, [&] {
    dist.spmv(cluster, v, y, halos, Phase::kIteration);
  });
  const auto nnz = static_cast<double>(a.nnz());
  const auto n = static_cast<double>(a.rows());
  out.spmv_flops = 2.0 * nnz;
  // Values and column indices once per nonzero, the row pointers, one read
  // of x and one write of y: computed from the array sizes, not measured.
  out.spmv_bytes = nnz * static_cast<double>(sizeof(double) + sizeof(Index)) +
                   (n + 1.0) * static_cast<double>(sizeof(Index)) +
                   2.0 * n * static_cast<double>(sizeof(double));

  out.precond_apply_s =
      time_calls(trace, "precond.apply", "precond", plan, [&] {
        problem.preconditioner().apply(cluster, v, y, Phase::kIteration);
      });

  // One blocking PCG iteration's BLAS1: the fused r'z / r'r reduction, the
  // curvature dot, the x and r updates, and the direction update.
  out.blas1_s = time_calls(trace, "sim.blas1", "sim", plan, [&] {
    (void)rpcg::dot_pair(cluster, v, w, Phase::kIteration);
    (void)rpcg::dot(cluster, v, w, Phase::kIteration);
    rpcg::axpy(cluster, 1e-3, v, y, Phase::kIteration);
    rpcg::axpy(cluster, -1e-3, v, y, Phase::kIteration);
    rpcg::xpby(cluster, v, 0.5, w, Phase::kIteration);
  });

  const rpcg::PipelinedBasisLayout layout = rpcg::PipelinedBasisLayout::make(
      rpcg::PipelinedMethod::kConjugateGradient, 2);
  const std::vector<rpcg::DistVector> basis(
      static_cast<std::size_t>(layout.nb), v);
  std::vector<const rpcg::DistVector*> basis_ptrs;
  for (const rpcg::DistVector& b : basis) basis_ptrs.push_back(&b);
  out.gram_s = time_calls(trace, "sim.gram", "sim", plan, [&] {
    auto pending =
        rpcg::ipipelined_gram(cluster, basis_ptrs, Phase::kIteration);
    pending.wait();
  });

  const rpcg::RedundancyScheme scheme = rpcg::RedundancyScheme::build(
      dist.scatter_plan(), partition, phi,
      rpcg::BackupStrategy::kPaperAlternating);
  rpcg::BackupStore store;
  store.configure(dist.scatter_plan(), scheme, partition, generations);
  out.backup_record_s = time_calls(trace, "core.backup_record", "core", plan,
                                   [&] { store.record(v); });

  rpcg::Cluster failed_cluster = problem.make_cluster();
  for (const NodeId f : failed) {
    failed_cluster.fail_node(f);
    store.invalidate_node(f);
  }
  const std::vector<Index> rows = partition.rows_of_set(failed);
  out.esr_gather_s = time_calls(trace, "core.esr_gather", "core", plan, [&] {
    (void)store.gather_lost(failed_cluster, rows);
  });

  rpcg::CsrMatrix a_ff;
  out.submatrix_s = time_calls(trace, "sparse.submatrix", "sparse", plan,
                               [&] { a_ff = a.submatrix(rows, rows); });

  std::optional<rpcg::ReorderedLdlt> ldlt;
  out.ldlt_factor_s =
      time_calls(trace, "sparse.ldlt_factor", "sparse", plan,
                 [&] { ldlt = rpcg::ReorderedLdlt::factor(a_ff); });
  checks.run_check(ldlt.has_value(), "LDLT factorization of A_FF failed");
  if (ldlt) {
    out.ldlt_factor_flops = ldlt->factor_flops();
    out.ldlt_l_nnz = static_cast<double>(ldlt->l_nnz());
    const std::vector<double> rhs(rows.size(), 1.0);
    std::vector<double> x(rows.size());
    out.ldlt_solve_s = time_calls(trace, "sparse.ldlt_solve", "sparse", plan,
                                  [&] { ldlt->solve(rhs, x); });
  }

  std::optional<rpcg::Ic0> ic0;
  out.ic0_factor_s = time_calls(trace, "sparse.ic0_factor", "sparse", plan,
                                [&] { ic0 = rpcg::Ic0::factor(a_ff); });
  checks.run_check(ic0.has_value(), "IC(0) factorization of A_FF failed");

  rpcg::FactorizationCache cache;
  const auto build = [&] {
    rpcg::FactorizationCache::Entry e;
    e.a_ff = a_ff;
    return e;
  };
  (void)cache.get_or_build("rpcg_bench", problem.matrix_key(), failed, build);
  out.cache_hit_s = time_calls(trace, "core.cache_hit", "core", plan, [&] {
    (void)cache.get_or_build("rpcg_bench", problem.matrix_key(), failed, build);
  });

  out.precond_setup_s =
      time_calls(trace, "precond.setup", "precond", plan, [&] {
        (void)engine::PreconditionerRegistry::instance().create("bjacobi", a,
                                                                partition);
      });
  return out;
}

/// How much of one request a layer's calls account for, from a per-call
/// time, the calls made and the request's host wall time.
double share_pct(double per_call_s, double calls, double wall_s) {
  return wall_s > 0.0 ? 100.0 * per_call_s * calls / wall_s : std::nan("");
}

/// A typical request of the workload: its host wall time and how often it
/// calls each iteration-level layer (once per iteration when it uses the
/// layer at all).
struct LayerUse {
  double wall_s = 0.0;
  double iterations = 0.0;         ///< SpMV, preconditioner, BLAS1
  double backup_iterations = 0.0;  ///< BackupStore::record (ESR solvers)
  double gram_iterations = 0.0;    ///< fused Gram reduction (depth >= 2)
};

/// Per-layer metrics shared by both workload kinds: single-call times and
/// each layer's share of the typical request.
void put_layer_calls(Metrics& m, const LayerCalls& c, const LayerUse& use) {
  put_value(m, "precond.setup_s", "s", c.precond_setup_s);
  put_value(m, "sim.spmv_us", "us", c.spmv_s * 1e6);
  put_value(m, "sim.spmv_share_pct", "%",
            share_pct(c.spmv_s, use.iterations, use.wall_s));
  put_value(m, "sim.spmv_gflops_computed", "GFLOP/s",
            c.spmv_flops / c.spmv_s * 1e-9);
  put_value(m, "sim.spmv_bytes_computed", "bytes", c.spmv_bytes);
  put_value(m, "precond.apply_us", "us", c.precond_apply_s * 1e6);
  put_value(m, "precond.apply_share_pct", "%",
            share_pct(c.precond_apply_s, use.iterations, use.wall_s));
  put_value(m, "sim.blas1_us", "us", c.blas1_s * 1e6);
  put_value(m, "sim.blas1_share_pct", "%",
            share_pct(c.blas1_s, use.iterations, use.wall_s));
  put_value(m, "sim.gram_us", "us", c.gram_s * 1e6);
  put_value(m, "sim.gram_share_pct", "%",
            share_pct(c.gram_s, use.gram_iterations, use.wall_s));
  put_value(m, "core.backup_record_us", "us", c.backup_record_s * 1e6);
  put_value(m, "core.backup_record_share_pct", "%",
            share_pct(c.backup_record_s, use.backup_iterations, use.wall_s));
  put_value(m, "core.esr_gather_us", "us", c.esr_gather_s * 1e6);
  put_value(m, "core.cache_hit_us", "us", c.cache_hit_s * 1e6);
  put_value(m, "sparse.submatrix_s", "s", c.submatrix_s);
  put_value(m, "sparse.ldlt_factor_s", "s", c.ldlt_factor_s);
  put_value(m, "sparse.ldlt_factor_gflops_computed", "GFLOP/s",
            c.ldlt_factor_flops / c.ldlt_factor_s * 1e-9);
  put_value(m, "sparse.ldlt_l_nnz", "count", c.ldlt_l_nnz);
  put_value(m, "sparse.ldlt_solve_us", "us", c.ldlt_solve_s * 1e6);
  put_value(m, "sparse.ic0_factor_s", "s", c.ic0_factor_s);
}

/// The simulated per-phase and reduction accounting of a set of reports
/// (medians), plus the recovery statistics: exact and repeatable.
void put_simulated(Metrics& m,
                   const std::vector<const engine::SolveReport*>& reports) {
  std::vector<double> it, red, rec, posted, exposed, count, in_flight, lost,
      gathered, local, deviation;
  for (const engine::SolveReport* r : reports) {
    it.push_back(r->sim_time_phase[static_cast<std::size_t>(
        rpcg::Phase::kIteration)]);
    red.push_back(r->redundancy_sim_time());
    rec.push_back(r->recovery_sim_time());
    posted.push_back(r->reductions.posted_s);
    exposed.push_back(r->reductions.exposed_s);
    count.push_back(r->reductions.count);
    in_flight.push_back(r->reductions.max_in_flight);
    double l = 0.0, g = 0.0, s = 0.0;
    for (const rpcg::RecoveryRecord& rr : r->recoveries) {
      l += static_cast<double>(rr.stats.lost_rows);
      g += static_cast<double>(rr.stats.gathered_elements);
      s += rr.stats.local_solve_iterations;
    }
    lost.push_back(l);
    gathered.push_back(g);
    local.push_back(s);
    deviation.push_back(std::abs(r->delta_metric));
  }
  put(m, "sim.phase_iteration_s", "sim_s", it);
  put(m, "sim.phase_redundancy_s", "sim_s", red);
  put(m, "sim.phase_recovery_s", "sim_s", rec);
  put(m, "sim.reduction_posted_s", "sim_s", posted);
  put(m, "sim.reduction_exposed_s", "sim_s", exposed);
  put(m, "sim.reductions", "count", count);
  put(m, "sim.max_in_flight", "count", in_flight);
  put(m, "core.lost_rows", "count", lost);
  put(m, "core.gathered_elements", "count", gathered);
  put(m, "core.local_solve_iterations", "count", local);
  put(m, "core.residual_deviation", "ratio", deviation);
}

/// Closed-loop accounting of one batch of requests served by `workers`
/// workers: when each request finished (seconds since the batch started)
/// and how long it ran. Queue wait is the rest of its latency.
struct RequestTimes {
  std::vector<double> done_s;
  std::vector<double> wall_s;
};

void put_service(Metrics& m, const std::vector<RequestTimes>& batches,
                 int workers, const std::vector<double>& setup_share_pct,
                 const std::vector<double>& factorizations,
                 const std::vector<double>& hit_ratios) {
  std::vector<double> waits, busy;
  for (const RequestTimes& b : batches) {
    double makespan = 0.0;
    for (std::size_t i = 0; i < b.done_s.size(); ++i) {
      waits.push_back(std::max(0.0, b.done_s[i] - b.wall_s[i]));
      makespan = std::max(makespan, b.done_s[i]);
    }
    busy.push_back(sum(b.wall_s) / (workers * makespan));
  }
  put_value(m, "service.queue_wait_p50_s", "s", percentile(waits, 0.5));
  put_value(m, "service.queue_wait_p90_s", "s", percentile(waits, 0.9));
  put(m, "service.busy_frac", "ratio", busy);
  put(m, "service.setup_share_pct", "%", setup_share_pct);
  put(m, "service.factorizations", "count", factorizations);
  put(m, "service.cache_hit_ratio", "ratio", hit_ratios);
}

double hit_ratio(std::uint64_t hits, std::uint64_t misses) {
  const std::uint64_t lookups = hits + misses;
  return lookups == 0
             ? 0.0
             : static_cast<double>(hits) / static_cast<double>(lookups);
}

// ------------------------------------------------------------- run control

struct RunContext {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool smoke = false;
  Trace* trace = nullptr;  ///< null in an untraced run
  Checks checks;
  DeterminismCheck determinism;
};

/// `count` evenly spaced values of [0, range), rotated by an offset drawn
/// from `rng`. Stratified like this, every seed covers the range alike, so
/// medians over the picks move little from one seed to the next.
std::vector<int> spread_picks(rpcg::Rng& rng, int range, int count) {
  const auto offset =
      static_cast<int>(rng.uniform_index(static_cast<std::uint64_t>(range)));
  std::vector<int> out;
  for (int k = 0; k < count; ++k)
    out.push_back((offset + k * range / count) % range);
  return out;
}

/// The paper-reproduction harness's exact solution x*_i = 1 + sin(0.01 i);
/// the solve workloads solve b = A x*, as Table 2 does.
std::vector<double> smooth_solution(Index n) {
  std::vector<double> x(static_cast<std::size_t>(n));
  for (Index i = 0; i < n; ++i)
    x[static_cast<std::size_t>(i)] =
        1.0 + std::sin(0.01 * static_cast<double>(i));
  return x;
}

double rhs_norm(const engine::Problem& problem) {
  double bb = 0.0;
  for (const double v : problem.rhs().gather_global()) bb += v * v;
  return std::sqrt(bb);
}

/// Builder of the Problem every workload solves: block Jacobi and the
/// default interconnect with its latency scaled by `latency_factor`. The
/// caller adds the RHS.
engine::ProblemBuilder problem_builder(rpcg::repro::ReproMatrix&& mat,
                                       int nodes, double latency_factor = 1.0) {
  rpcg::CommParams comm;
  comm.latency_s *= latency_factor;
  engine::ProblemBuilder builder;
  builder.matrix(std::move(mat.matrix))
      .nodes(nodes)
      .preconditioner("bjacobi")
      .comm(comm);
  return builder;
}

/// Whether another round fits in the time budget, judged by the median round
/// so far. The first round always runs.
bool another_round(Clock::time_point start, const std::vector<double>& rounds,
                   double seconds) {
  if (rounds.empty()) return true;
  return seconds_between(start, Clock::now()) + median(rounds) <= seconds;
}

// ----------------------------------------------------------- solve workloads

/// One solve of a rep. steps[0] of a workload is always the reference pcg:
/// it fixes the failure iteration (50 % of its count) and the Table 2 t0.
struct Step {
  const char* label;
  const char* solver;
  int phi;    ///< redundant copies; > 0 selects ESR
  bool fail;  ///< inject the rep's contiguous failure event
  int depth;  ///< pipeline depth of the pipelined solvers
};

struct SolveWorkload {
  const char* name;
  int matrix;
  double scale;
  int nodes;
  int variants;  ///< distinct inputs per seed; reps cycle through them
  int psi;       ///< contiguous failed nodes of the failure event
  double latency_factor;
  bool exact_local_solve;
  std::vector<Step> steps;
  std::size_t headline;
  /// ESR rebuilds the lost state exactly, so the headline must finish within
  /// max(2, 2 %) iterations of the undisturbed solve, steps[1].
  bool check_exact_recovery;
};

struct SolveRecord {
  engine::SolveReport report;
  double wall_s = 0.0;  ///< host time inside Solver::solve
  double done_s = 0.0;  ///< completion, seconds since the rep started
};

struct RepRecord {
  double make_matrix_s = 0.0;
  double build_s = 0.0;
  double key_s = 0.0;
  std::vector<SolveRecord> solves;
  rpcg::FactorizationCache::Stats cache;

  [[nodiscard]] double setup_s() const {
    return make_matrix_s + build_s + key_s;
  }
  [[nodiscard]] double solve_wall_s() const {
    double s = 0.0;
    for (const SolveRecord& r : solves) s += r.wall_s;
    return s;
  }
};

engine::SolverConfig step_config(const SolveWorkload& w, const Step& step) {
  engine::SolverConfig config;
  config.rtol = kRtol;
  config.phi = step.phi;
  if (step.phi > 0) config.recovery = rpcg::RecoveryMethod::kEsr;
  config.strategy = rpcg::BackupStrategy::kPaperAlternating;
  config.pipeline_depth = step.depth;
  config.esr.exact_local_solve = w.exact_local_solve;
  return config;
}

/// The run's input variants: the first of the psi contiguous failed nodes,
/// spread evenly from an offset drawn from the seed. The RHS is the same
/// for every variant and seed.
std::vector<NodeId> failed_starts(const SolveWorkload& w, std::uint64_t seed) {
  rpcg::Rng rng(seed);
  return spread_picks(rng, w.nodes - w.psi + 1, w.variants);
}

engine::Problem build_problem(const SolveWorkload& w,
                              rpcg::repro::ReproMatrix&& mat) {
  const Index n = mat.matrix.rows();
  return problem_builder(std::move(mat), w.nodes, w.latency_factor)
      .rhs_from_solution(smooth_solution(n))
      .build();
}

/// One rep as a CLI user runs it: generate the matrix, build a fresh
/// Problem, then run the workload's solves in order, failing `psi` nodes
/// from `first_failed` on. With a trace every layer call made here becomes a
/// span of request "rep<r>" (setup) or "rep<r>/<step>" (a solve and its
/// engine events).
RepRecord run_rep(const SolveWorkload& w, RunContext& ctx, int rep,
                  int variant, NodeId first_failed, Trace* trace) {
  RepRecord rec;
  const std::string request = "rep" + std::to_string(rep);
  const Clock::time_point rep_start = Clock::now();
  const std::int64_t rep_span =
      trace ? trace->open(request, -1, "bench.rep", "bench", rep_start) : -1;

  const Clock::time_point t0 = Clock::now();
  rpcg::repro::ReproMatrix mat = rpcg::repro::make_matrix(w.matrix, w.scale);
  const Clock::time_point t1 = Clock::now();
  engine::Problem problem = build_problem(w, std::move(mat));
  const Clock::time_point t2 = Clock::now();
  (void)problem.matrix_key();
  const Clock::time_point t3 = Clock::now();
  rec.make_matrix_s = seconds_between(t0, t1);
  rec.build_s = seconds_between(t1, t2);
  rec.key_s = seconds_between(t2, t3);
  if (trace) {
    trace->add(request, rep_span, "repro.make_matrix", "repro", t0, t1);
    trace->add(request, rep_span, "engine.problem_build", "engine", t1, t2);
    trace->add(request, rep_span, "engine.matrix_key", "engine", t2, t3);
  }
  const double b_norm = rhs_norm(problem);

  int fail_iteration = 1;
  for (std::size_t s = 0; s < w.steps.size(); ++s) {
    const Step& step = w.steps[s];
    const std::string what = ctx.workload + " " + request + " " + step.label;
    engine::SolverConfig config = step_config(w, step);
    const rpcg::FailureSchedule schedule =
        step.fail ? rpcg::FailureSchedule::contiguous(
                        fail_iteration, first_failed, w.psi)
                  : rpcg::FailureSchedule{};
    const std::string solve_request = request + "/" + step.label;
    std::int64_t solve_span = -1;
    if (trace) {
      solve_span = trace->open(solve_request, rep_span, "engine.solve",
                               "engine", Clock::now());
      config.events = traced_events(*trace, solve_request, solve_span);
    }
    SolveRecord out;
    std::string why;
    try {
      const auto solver =
          engine::SolverRegistry::instance().create(step.solver, config);
      rpcg::DistVector x = problem.make_x();
      const Clock::time_point s0 = Clock::now();
      out.report = solver->solve(problem, x, schedule);
      const Clock::time_point s1 = Clock::now();
      if (trace) trace->set_interval(solve_span, s0, s1);
      out.wall_s = seconds_between(s0, s1);
      out.done_s = seconds_between(rep_start, s1);
      const double residual = out.report.true_residual_norm / b_norm;
      if (!out.report.converged || !(residual <= kResidualLimit)) {
        why = "not converged, true relative residual " +
              rpcg::format_compact(residual);
      }
    } catch (const std::exception& e) {
      why = e.what();
      if (trace) trace->close(solve_span, Clock::now());
    }
    if (s == 0) fail_iteration = std::max(1, out.report.iterations / 2);
    if (s == w.headline && w.check_exact_recovery && why.empty()) {
      const int undisturbed = rec.solves[1].report.iterations;
      const int slack = std::max(2, static_cast<int>(0.02 * undisturbed));
      if (std::abs(out.report.iterations - undisturbed) > slack) {
        why = std::to_string(out.report.iterations) + " iterations against " +
              std::to_string(undisturbed) +
              " undisturbed; ESR recovery should be exact";
      }
    }
    ctx.checks.request(what, why);
    ctx.determinism.observe(
        "variant " + std::to_string(variant) + " " + step.label,
        out.report.sim_time, out.report.iterations, ctx.checks);
    rec.solves.push_back(std::move(out));
  }
  rec.cache = problem.factorization_cache().stats();
  if (trace) trace->close(rep_span, Clock::now());
  return rec;
}

/// The first untraced rep of each input variant that ran: the source of the
/// simulated metrics, which are exact for a given input. Untraced reps cycle
/// through the variants in order.
std::span<const RepRecord> first_pass(const SolveWorkload& w,
                                      const std::vector<RepRecord>& untraced) {
  return std::span(untraced).first(
      std::min(untraced.size(), static_cast<std::size_t>(w.variants)));
}

void solve_end_to_end(const SolveWorkload& w,
                      const std::vector<RepRecord>& reps, Metrics& m) {
  std::vector<double> setup, headline, rep_wall;
  double solves = 0.0, busy = 0.0;
  for (const RepRecord& r : reps) {
    setup.push_back(r.setup_s());
    headline.push_back(r.solves[w.headline].wall_s);
    rep_wall.push_back(r.solve_wall_s());
    solves += static_cast<double>(r.solves.size());
    busy += r.setup_s() + r.solve_wall_s();
  }
  std::vector<double> sim_time, overhead, iterations;
  for (const RepRecord& r : first_pass(w, reps)) {
    const engine::SolveReport& h = r.solves[w.headline].report;
    sim_time.push_back(h.sim_time);
    overhead.push_back(h.sim_time / r.solves[0].report.sim_time);
    iterations.push_back(h.iterations);
  }
  put(m, "setup_s", "s", setup);
  put(m, "time_to_solution_s", "s", headline);
  put(m, "rep_wall_s", "s", rep_wall);
  put_value(m, "solves_per_s", "1/s", solves / busy);
  put_exact(m, "sim_time_s", "sim_s", sim_time);
  put_exact(m, "sim_overhead_ratio", "ratio", overhead);
  put_exact(m, "iterations", "count", iterations);
}

bool is_pipelined(const Step& step) {
  return std::string(step.solver).rfind("pipelined", 0) == 0;
}

void solve_per_layer(const SolveWorkload& w,
                     const std::vector<RepRecord>& untraced,
                     const std::vector<RepRecord>& traced,
                     const std::vector<Span>& spans, const LayerCalls& calls,
                     Metrics& m) {
  std::vector<double> make, build, key, wall_u, wall_t;
  for (const RepRecord& r : traced) {
    make.push_back(r.make_matrix_s);
    build.push_back(r.build_s);
    key.push_back(r.key_s);
    wall_t.push_back(r.solves[w.headline].wall_s);
  }
  for (const RepRecord& r : untraced)
    wall_u.push_back(r.solves[w.headline].wall_s);
  put(m, "repro.make_matrix_s", "s", make);
  put(m, "engine.problem_build_s", "s", build);
  put(m, "engine.matrix_key_s", "s", key);

  const std::string headline = std::string("/") + w.steps[w.headline].label;
  const auto is_headline = [&](const Span& s) {
    return ends_with(s.request, headline);
  };
  const std::vector<double> gaps = iteration_gaps(spans, is_headline);
  std::vector<double> gaps_us;
  for (const double g : gaps) gaps_us.push_back(g * 1e6);
  put(m, "solver.iteration_us", "us", gaps_us);
  const std::vector<double> recovery =
      span_seconds(spans, "core.recovery", is_headline);
  put(m, "core.recovery_s", "s", recovery);
  put_value(m, "core.recovery_share_pct", "%",
            100.0 * median(recovery) / median(wall_t));

  std::vector<const engine::SolveReport*> reports;
  std::vector<double> iterations;
  for (const RepRecord& r : first_pass(w, untraced)) {
    reports.push_back(&r.solves[w.headline].report);
    iterations.push_back(r.solves[w.headline].report.iterations);
  }
  const Step& h = w.steps[w.headline];
  LayerUse use;
  use.wall_s = median(wall_u);
  use.iterations = median(iterations);
  use.backup_iterations = h.phi > 0 ? use.iterations : 0.0;
  use.gram_iterations = is_pipelined(h) && h.depth >= 2 ? use.iterations : 0.0;
  put_layer_calls(m, calls, use);

  std::vector<RequestTimes> batches;
  std::vector<double> setup_share, factorizations, hits;
  for (const RepRecord& r : untraced) {
    RequestTimes t;
    for (const SolveRecord& s : r.solves) {
      t.done_s.push_back(s.done_s);
      t.wall_s.push_back(s.wall_s);
    }
    batches.push_back(std::move(t));
    setup_share.push_back(100.0 * r.setup_s() / r.solve_wall_s());
    factorizations.push_back(static_cast<double>(r.cache.misses));
    hits.push_back(hit_ratio(r.cache.hits, r.cache.misses));
  }
  put_service(m, batches, 1, setup_share, factorizations, hits);
  put_simulated(m, reports);
  put_value(m, "trace.overhead_pct", "%",
            100.0 * (median(wall_t) / median(wall_u) - 1.0));
}

void run_solve_workload(const SolveWorkload& w, RunContext& ctx,
                        const CallPlan& plan, Metrics& m) {
  const std::vector<NodeId> starts = failed_starts(w, ctx.seed);
  std::vector<RepRecord> untraced, traced;
  std::vector<double> rounds;
  int rep = 0;
  const Clock::time_point start = Clock::now();
  if (ctx.trace == nullptr) {
    // A round is one rep of every variant, so each variant weighs the same
    // in the medians.
    while (another_round(start, rounds, ctx.seconds)) {
      const Clock::time_point r0 = Clock::now();
      for (int v = 0; v < w.variants; ++v) {
        untraced.push_back(run_rep(w, ctx, rep++, v,
                                   starts[static_cast<std::size_t>(v)],
                                   nullptr));
      }
      rounds.push_back(seconds_between(r0, Clock::now()));
    }
    solve_end_to_end(w, untraced, m);
    return;
  }
  // A traced round pairs an untraced rep with a traced rep of the same
  // input, so the tracing overhead is measured on the same work; which of
  // the two goes first alternates, so neither side always pays for a cold
  // start. Rounds cycle through the variants until the reps' share of
  // --seconds is used up; the single-call timings take the rest.
  for (int v = 0;
       another_round(start, rounds, ctx.seconds * (1.0 - kCallShare));
       v = (v + 1) % w.variants) {
    const Clock::time_point r0 = Clock::now();
    const NodeId first = starts[static_cast<std::size_t>(v)];
    const bool traced_first = rounds.size() % 2 == 1;
    if (traced_first)
      traced.push_back(run_rep(w, ctx, rep++, v, first, ctx.trace));
    untraced.push_back(run_rep(w, ctx, rep++, v, first, nullptr));
    if (!traced_first)
      traced.push_back(run_rep(w, ctx, rep++, v, first, ctx.trace));
    rounds.push_back(seconds_between(r0, Clock::now()));
  }
  // Single-call timings on the rep-0 problem and failed set.
  const engine::Problem problem =
      build_problem(w, rpcg::repro::make_matrix(w.matrix, w.scale));
  std::vector<NodeId> failed;
  for (int k = 0; k < w.psi; ++k) failed.push_back(starts.front() + k);
  const Step& h = w.steps[w.headline];
  const int generations = is_pipelined(h) ? h.depth + 1 : 2;
  const LayerCalls calls = time_layer_calls(problem, failed, h.phi, generations,
                                            *ctx.trace, plan, ctx.checks);
  solve_per_layer(w, untraced, traced, ctx.trace->spans(), calls, m);
}

// ---------------------------------------------------------- service workload

struct ServiceWorkload {
  const char* name;
  std::vector<int> matrices;
  double scale;
  int nodes;
  int jobs;
  int workers;
  int pool;  ///< failed sets drawn per matrix; jobs reuse them
};

/// The four job kinds the batch cycles through, as job-file keys. Each fails
/// `psi` contiguous nodes from one of its matrix's pooled first nodes.
struct JobKind {
  const char* solver;
  const char* keys;
  int psi;
};
constexpr JobKind kJobKinds[] = {
    {"resilient-pcg", R"("recovery": "esr", "phi": 3)", 3},
    {"pipelined-resilient-pcg", R"("phi": 3, "pipeline-depth": 2)", 3},
    {"checkpoint-recovery", R"("checkpoint-interval": 25)", 3},
    {"twin-pcg", "", 1},
};
constexpr int kMaxJobPsi = 3;

int matrix_index(const service::JobResult& r) {
  return std::stoi(r.matrix_id.substr(1));
}

struct MatrixInfo {
  double b_norm = 0.0;
  double ref_sim_time = 0.0;
  int ref_iterations = 0;
  double construct_s = 0.0;  ///< make_matrix + ProblemBuilder::build + key
  std::vector<NodeId> pool;  ///< first failed node of each failed set
};

struct ServiceSetup {
  std::map<int, MatrixInfo> matrices;
  std::vector<service::JobSpec> jobs;
  double setup_s = 0.0;
};

/// A job's RHS. It is fixed per matrix: the seed varies the service
/// workload through its failed sets only.
std::string job_rhs(int matrix) {
  return "random-smooth:" + std::to_string(matrix);
}

/// Builds each matrix's problem (timed), solves it once with the reference
/// pcg (untimed: it fixes the failure iteration, t0 and |b|), then writes and
/// parses the JSON-lines job list (timed), as a user of the service would.
ServiceSetup prepare_batch(const ServiceWorkload& w, RunContext& ctx,
                           const std::string& request, Trace* trace) {
  ServiceSetup setup;
  rpcg::Rng rng(ctx.seed);
  for (const int matrix : w.matrices) {
    MatrixInfo info;
    const Clock::time_point t0 = Clock::now();
    rpcg::repro::ReproMatrix mat = rpcg::repro::make_matrix(matrix, w.scale);
    const Clock::time_point t1 = Clock::now();
    engine::Problem problem = problem_builder(std::move(mat), w.nodes)
                                  .rhs_strategy(job_rhs(matrix))
                                  .build();
    const Clock::time_point t2 = Clock::now();
    (void)problem.matrix_key();
    const Clock::time_point t3 = Clock::now();
    info.construct_s = seconds_between(t0, t3);
    setup.setup_s += info.construct_s;
    if (trace) {
      trace->add(request, -1, "repro.make_matrix", "repro", t0, t1);
      trace->add(request, -1, "engine.problem_build", "engine", t1, t2);
      trace->add(request, -1, "engine.matrix_key", "engine", t2, t3);
    }
    engine::SolverConfig config;
    config.rtol = kRtol;
    rpcg::DistVector x = problem.make_x();
    const engine::SolveReport ref =
        engine::SolverRegistry::instance().create("pcg", config)->solve(problem,
                                                                         x);
    info.b_norm = rhs_norm(problem);
    info.ref_sim_time = ref.sim_time;
    info.ref_iterations = ref.iterations;
    ctx.checks.run_check(ref.converged,
                         "service reference pcg did not converge");
    for (const int first : spread_picks(rng, w.nodes - kMaxJobPsi + 1, w.pool))
      info.pool.push_back(first);
    setup.matrices.emplace(matrix, std::move(info));
  }

  const Clock::time_point t4 = Clock::now();
  std::string lines;
  const int kinds = static_cast<int>(std::size(kJobKinds));
  const int n_matrices = static_cast<int>(w.matrices.size());
  for (int j = 0; j < w.jobs; ++j) {
    const int matrix = w.matrices[static_cast<std::size_t>(j % n_matrices)];
    const JobKind& kind = kJobKinds[(j / n_matrices) % kinds];
    const MatrixInfo& info = setup.matrices.at(matrix);
    const int pooled = (j / (n_matrices * kinds)) % w.pool;
    const NodeId first = info.pool[static_cast<std::size_t>(pooled)];
    std::ostringstream line;
    line << R"({"name": "job)" << j << "-M" << matrix << "-" << kind.solver
         << R"(", "matrix": )" << matrix << R"(, "scale": )"
         << rpcg::format_compact(w.scale) << R"(, "nodes": )" << w.nodes
         << R"(, "solver": ")" << kind.solver << R"(", "rhs": ")"
         << job_rhs(matrix) << R"(", "rtol": 1e-8)";
    if (kind.keys[0] != '\0') line << ", " << kind.keys;
    line << R"(, "failures": [{"iteration": )"
         << std::max(1, info.ref_iterations / 2) << R"(, "first": )" << first
         << R"(, "psi": )" << kind.psi << "}]}\n";
    lines += line.str();
  }
  std::istringstream in(lines);
  setup.jobs = service::parse_job_lines(in);
  const Clock::time_point t5 = Clock::now();
  setup.setup_s += seconds_between(t4, t5);
  if (trace) trace->add(request, -1, "service.parse_jobs", "service", t4, t5);
  return setup;
}

struct BatchRecord {
  ServiceSetup setup;
  std::vector<service::JobResult> jobs;  ///< by submission index
  RequestTimes times;                    ///< by submission index
  double makespan_s = 0.0;
  std::uint64_t factorizations = 0;
  std::uint64_t shared_hits = 0;
  std::uint64_t shared_misses = 0;
};

BatchRecord run_batch(const ServiceWorkload& w, RunContext& ctx, int batch,
                      Trace* trace) {
  BatchRecord rec;
  const std::string request = "batch" + std::to_string(batch);
  rec.setup = prepare_batch(w, ctx, request + "/setup", trace);
  std::vector<service::JobSpec> jobs = rec.setup.jobs;

  const std::size_t n = jobs.size();
  rec.times.done_s.assign(n, 0.0);
  rec.times.wall_s.assign(n, 0.0);
  std::vector<std::int64_t> job_spans(n, -1);
  const Clock::time_point start = Clock::now();
  std::int64_t batch_span = -1;
  if (trace) {
    batch_span =
        trace->open(request, -1, "service.run", "service", start);
    for (std::size_t i = 0; i < n; ++i) {
      const std::string job_request = request + "/job" + std::to_string(i);
      job_spans[i] = trace->open(job_request, batch_span, "service.job",
                                 "service", start);
      jobs[i].config.events = traced_events(*trace, job_request, job_spans[i]);
    }
  }

  service::ServiceOptions options;
  options.workers = w.workers;
  options.max_in_flight = w.workers;
  options.shared_cache = true;
  options.order = service::OutputOrder::kCompletion;
  // The service never calls the sink concurrently with itself.
  const auto sink = [&](const service::JobResult& r) {
    const Clock::time_point now = Clock::now();
    rec.times.done_s[r.index] = seconds_between(start, now);
    rec.times.wall_s[r.index] = r.wall_seconds;
    if (trace) {
      const auto ran = std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(r.wall_seconds));
      const Clock::time_point began = std::max(start, now - ran);
      trace->set_interval(job_spans[r.index], began, now);
      trace->add(request + "/job" + std::to_string(r.index), batch_span,
                 "service.queue", "service", start, began);
    }
  };
  const service::ServiceReport report =
      service::SolverService(options).run(jobs, sink);
  const Clock::time_point end = Clock::now();
  if (trace) trace->close(batch_span, end);
  rec.makespan_s = seconds_between(start, end);
  rec.factorizations = report.total_factorizations;
  rec.shared_hits = report.shared_stats.hits;
  rec.shared_misses = report.shared_stats.misses;
  rec.jobs = report.jobs;

  ctx.checks.run_check(report.failed == 0,
                       ctx.workload + " " + request + ": " +
                           std::to_string(report.failed) + " jobs failed");
  for (const service::JobResult& r : rec.jobs) {
    const double b_norm = rec.setup.matrices.at(matrix_index(r)).b_norm;
    const double residual = r.report.true_residual_norm / b_norm;
    std::string why;
    if (!r.ok()) {
      why = r.error;
    } else if (!r.report.converged || !(residual <= kResidualLimit)) {
      why = "not converged, true relative residual " +
            rpcg::format_compact(residual);
    }
    ctx.checks.request(ctx.workload + " " + request + " " + r.name, why);
    ctx.determinism.observe("job " + std::to_string(r.index),
                            r.report.sim_time, r.report.iterations, ctx.checks);
  }
  return rec;
}

void service_end_to_end(const std::vector<BatchRecord>& batches, Metrics& m) {
  std::vector<double> setup, job_wall, makespan, sim_time, overhead,
      iterations;
  double jobs = 0.0, busy = 0.0;
  for (const BatchRecord& b : batches) {
    setup.push_back(b.setup.setup_s);
    makespan.push_back(b.makespan_s);
    for (const double s : b.times.wall_s) job_wall.push_back(s);
    jobs += static_cast<double>(b.jobs.size());
    busy += b.makespan_s;
  }
  for (const service::JobResult& r : batches.front().jobs) {
    const MatrixInfo& info = batches.front().setup.matrices.at(matrix_index(r));
    sim_time.push_back(r.report.sim_time);
    overhead.push_back(r.report.sim_time / info.ref_sim_time);
    iterations.push_back(r.report.iterations);
  }
  put(m, "setup_s", "s", setup);
  put(m, "time_to_solution_s", "s", job_wall);
  put(m, "rep_wall_s", "s", makespan);
  put_value(m, "solves_per_s", "1/s", jobs / busy);
  put_exact(m, "sim_time_s", "sim_s", sim_time);
  put_exact(m, "sim_overhead_ratio", "ratio", overhead);
  put_exact(m, "iterations", "count", iterations);
}

void service_per_layer(const ServiceWorkload& w,
                       const std::vector<BatchRecord>& untraced,
                       const std::vector<BatchRecord>& traced,
                       const std::vector<Span>& spans,
                       const LayerCalls& calls, Metrics& m) {
  const auto all = [](const Span&) { return true; };
  for (const char* name :
       {"repro.make_matrix", "engine.problem_build", "engine.matrix_key"}) {
    put(m, std::string(name) + "_s", "s", span_seconds(spans, name, all));
  }
  std::vector<double> gaps_us;
  for (const double g : iteration_gaps(spans, all)) gaps_us.push_back(g * 1e6);
  put(m, "solver.iteration_us", "us", gaps_us);
  const std::vector<double> recovery =
      span_seconds(spans, "core.recovery", all);
  put(m, "core.recovery_s", "s", recovery);

  std::vector<double> wall_u, wall_t, iterations, backup_iterations,
      gram_iterations;
  for (const BatchRecord& b : untraced) {
    for (const double s : b.times.wall_s) wall_u.push_back(s);
  }
  for (const BatchRecord& b : traced) {
    for (const double s : b.times.wall_s) wall_t.push_back(s);
  }
  put_value(m, "core.recovery_share_pct", "%",
            100.0 * median(recovery) / median(wall_t));
  std::vector<const engine::SolveReport*> reports;
  for (const service::JobResult& r : untraced.front().jobs) {
    reports.push_back(&r.report);
    const double it = r.report.iterations;
    iterations.push_back(it);
    const bool resilient = r.solver == "resilient-pcg" ||
                           r.solver == "pipelined-resilient-pcg";
    backup_iterations.push_back(resilient ? it : 0.0);
    gram_iterations.push_back(r.solver == "pipelined-resilient-pcg" ? it : 0.0);
  }
  // Shares of the median job: calls are the mean per job over the batch,
  // since only some job kinds use a layer.
  const auto mean = [](const std::vector<double>& v) {
    return sum(v) / static_cast<double>(v.size());
  };
  LayerUse use;
  use.wall_s = median(wall_u);
  use.iterations = mean(iterations);
  use.backup_iterations = mean(backup_iterations);
  use.gram_iterations = mean(gram_iterations);
  put_layer_calls(m, calls, use);

  std::vector<RequestTimes> batches;
  std::vector<double> setup_share, factorizations, hits;
  for (const BatchRecord& b : untraced) {
    batches.push_back(b.times);
    double construct = 0.0;
    for (const service::JobResult& r : b.jobs) {
      construct += b.setup.matrices.at(matrix_index(r)).construct_s;
    }
    setup_share.push_back(100.0 * construct / sum(b.times.wall_s));
    factorizations.push_back(static_cast<double>(b.factorizations));
    hits.push_back(hit_ratio(b.shared_hits, b.shared_misses));
  }
  put_service(m, batches, w.workers, setup_share, factorizations, hits);
  put_simulated(m, reports);
  put_value(m, "trace.overhead_pct", "%",
            100.0 * (median(wall_t) / median(wall_u) - 1.0));
}

void run_service_workload(const ServiceWorkload& w, RunContext& ctx,
                          const CallPlan& plan, Metrics& m) {
  std::vector<BatchRecord> untraced, traced;
  std::vector<double> rounds;
  int batch = 0;
  const Clock::time_point start = Clock::now();
  // A traced round runs untraced, traced, traced, untraced batches, so the
  // first batch's cold start does not land on one side only. It leaves the
  // single-call timings their share of --seconds.
  const double budget =
      ctx.trace != nullptr ? ctx.seconds * (1.0 - kCallShare) : ctx.seconds;
  while (another_round(start, rounds, budget)) {
    const Clock::time_point r0 = Clock::now();
    untraced.push_back(run_batch(w, ctx, batch++, nullptr));
    if (ctx.trace != nullptr) {
      traced.push_back(run_batch(w, ctx, batch++, ctx.trace));
      traced.push_back(run_batch(w, ctx, batch++, ctx.trace));
      untraced.push_back(run_batch(w, ctx, batch++, nullptr));
    }
    rounds.push_back(seconds_between(r0, Clock::now()));
  }
  if (ctx.trace == nullptr) {
    service_end_to_end(untraced, m);
    return;
  }
  // Single-call timings on job 0's problem and failed set.
  const ServiceSetup& setup = untraced.front().setup;
  const service::JobSpec& job0 = setup.jobs.front();
  const engine::Problem problem =
      problem_builder(rpcg::repro::make_matrix(job0.matrix, w.scale), w.nodes)
          .rhs_strategy(job0.rhs)
          .build();
  const std::vector<NodeId> failed = job0.schedule.events().front().nodes;
  const LayerCalls calls = time_layer_calls(problem, failed, job0.config.phi,
                                            2, *ctx.trace, plan, ctx.checks);
  service_per_layer(w, untraced, traced, ctx.trace->spans(), calls, m);
}

// --------------------------------------------------------------- workloads

std::vector<SolveWorkload> solve_workloads(bool smoke) {
  const std::vector<Step> esr_steps = {
      {"reference", "pcg", 0, false, 1},
      {"undisturbed", "resilient-pcg", 3, false, 1},
      {"headline", "resilient-pcg", 3, true, 1},
  };
  std::vector<SolveWorkload> out = {
      {"m1-iterate", 1, 8.0, 64, 4, 3, 1.0, false, esr_steps, 2, true},
      {"m8-dense-rows", 8, 32.0, 64, 3, 3, 1.0, false, esr_steps, 2, true},
      {"m2-recover", 2, 12.0, 64, 16, 8, 1.0, true,
       {{"reference", "pcg", 0, false, 1},
        {"undisturbed", "resilient-pcg", 8, false, 1},
        {"headline", "resilient-pcg", 8, true, 1}},
       2, true},
      {"pipelined-latency", 1, 16.0, 64, 3, 2, 100.0, false,
       {{"reference", "pcg", 0, false, 1},
        {"blocking", "resilient-pcg", 2, true, 1},
        {"depth1", "pipelined-resilient-pcg", 2, true, 1},
        {"headline", "pipelined-resilient-pcg", 2, true, 2},
        {"cr-depth2", "pipelined-resilient-cr", 2, true, 2}},
       3, false},
  };
  if (smoke) {
    for (SolveWorkload& w : out) {
      w.scale = 64.0;
      w.variants = 1;
    }
  }
  return out;
}

ServiceWorkload service_workload(bool smoke) {
  ServiceWorkload w{"service-mix", {1, 2, 4}, 32.0, 32, 48, 3, 4};
  if (smoke) {
    w.scale = 64.0;
    w.jobs = 8;
  }
  return w;
}

// ------------------------------------------------------------------ output

bool write_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool written = std::fputs(text.c_str(), f) >= 0 &&
                       std::fputc('\n', f) != EOF;
  return std::fclose(f) == 0 && written;
}

using NamedMetrics = std::vector<std::pair<std::string, const Metric*>>;

/// The rpcg-benchmark/v1 report: the run, its checks, and each metric's
/// value and unit, whether it is exact, and the quartiles of its samples.
std::string report_json(const RunContext& ctx, bool correct,
                        const NamedMetrics& metrics) {
  rpcg::JsonWriter j(0);
  j.open();
  j.field("schema", rpcg::json_quote("rpcg-benchmark/v1"));
  j.field("workload", rpcg::json_quote(ctx.workload));
  j.field("seed", std::to_string(ctx.seed));
  j.field("seconds", rpcg::json_double(ctx.seconds));
  j.field("trace", rpcg::json_bool(ctx.trace != nullptr));
  j.field("correct", rpcg::json_bool(correct));
  j.field("attempted", std::to_string(ctx.checks.attempted));
  j.field("failed", std::to_string(ctx.checks.failed));
  j.open_field("metrics", "{");
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& metric = *metrics[i].second;
    j.open_field(metrics[i].first.c_str(), "{");
    j.field("value", rpcg::json_double(metric.value));
    j.field("unit", rpcg::json_quote(metric.unit));
    j.field("exact", rpcg::json_bool(metric.exact));
    j.field("n", std::to_string(metric.samples.size()));
    j.field("q1", rpcg::json_double(percentile(metric.samples, 0.25)));
    j.field("median", rpcg::json_double(percentile(metric.samples, 0.5)));
    j.field("q3", rpcg::json_double(percentile(metric.samples, 0.75)),
            false);
    j.close("}", i + 1 < metrics.size());
  }
  j.close();
  j.close();
  return std::move(j).str();
}

/// Prints every metric by name and unit, then the result line. Returns false
/// when a metric is not a finite number or the report cannot be written.
bool emit(const RunContext& ctx, const Metrics& m,
          const std::string& out_path) {
  bool ok = true;
  NamedMetrics finite;
  for (const auto& [name, metric] : m) {
    if (!std::isfinite(metric.value)) {
      Checks::report("metric " + name + " has no finite value");
      ok = false;
      continue;
    }
    std::printf("%s %s: %s = %.6g %s\n", ctx.workload.c_str(),
                ctx.trace ? "layer" : "end-to-end", name.c_str(), metric.value,
                metric.unit.c_str());
    finite.emplace_back(name, &metric);
  }
  const bool correct = ok && ctx.checks.run_ok && ctx.checks.failed == 0;
  if (!out_path.empty() &&
      !write_file(out_path, report_json(ctx, correct, finite))) {
    Checks::report("cannot write " + out_path);
    return false;
  }
  std::string metrics_json;
  for (const auto& [name, metric] : finite) {
    if (!metrics_json.empty()) metrics_json += ", ";
    metrics_json += rpcg::json_quote(name) + ": {\"value\": " +
                    rpcg::json_double(metric->value) +
                    ", \"unit\": " + rpcg::json_quote(metric->unit) + "}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
              "\"metrics\": {%s}}\n",
              rpcg::json_bool(correct).c_str(), ctx.checks.attempted,
              ctx.checks.failed, metrics_json.c_str());
  return correct;
}

[[noreturn]] void usage(const std::string& error) {
  std::fprintf(stderr,
               "rpcg_bench: %s\n"
               "usage: rpcg_bench --workload W --seed S [--seconds T] "
               "[--trace FILE] [--out FILE] [--smoke]\n"
               "workloads: m1-iterate m8-dense-rows m2-recover "
               "pipelined-latency service-mix\n",
               error.c_str());
  std::exit(2);
}

std::uint64_t parse_seed(const std::string& s) {
  std::size_t pos = 0;
  unsigned long long v = 0;
  try {
    v = std::stoull(s, &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  if (s.empty() || pos != s.size() || s[0] == '-' || s[0] == '+')
    usage("--seed needs a non-negative integer, got '" + s + "'");
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const rpcg::Options o(argc, argv);
    RunContext ctx;
    ctx.workload = o.get_string("workload", "");
    if (!o.has("seed")) usage("--seed is required");
    ctx.seed = parse_seed(o.get_string("seed", ""));
    ctx.seconds = o.get_double("seconds", ctx.seconds);
    if (!(ctx.seconds >= 0.0)) usage("--seconds must be >= 0");
    ctx.smoke = o.get_bool("smoke", false);
    const std::string trace_path = o.get_string("trace", "");
    const std::string out_path = o.get_string("out", "");

    CallPlan plan;
    plan.budget_s = ctx.seconds * kCallShare / kCallSites;
    if (ctx.smoke) plan.min_calls = 1;

    const std::vector<SolveWorkload> solves = solve_workloads(ctx.smoke);
    const ServiceWorkload svc = service_workload(ctx.smoke);
    const SolveWorkload* solve = nullptr;
    for (const SolveWorkload& w : solves) {
      if (ctx.workload == w.name) solve = &w;
    }
    if (solve == nullptr && ctx.workload != svc.name)
      usage("unknown --workload '" + ctx.workload + "'");

    std::unique_ptr<Trace> trace;
    if (!trace_path.empty()) {
      trace = std::make_unique<Trace>(Clock::now());
      ctx.trace = trace.get();
    }
    Metrics metrics;
    const Clock::time_point start = Clock::now();
    if (solve != nullptr) {
      run_solve_workload(*solve, ctx, plan, metrics);
    } else {
      run_service_workload(svc, ctx, plan, metrics);
    }
    std::fprintf(stderr, "rpcg_bench: %s: %d requests in %.1f s\n",
                 ctx.workload.c_str(), ctx.checks.attempted,
                 seconds_between(start, Clock::now()));
    if (!trace) put_value(metrics, "peak_rss_mb", "MB", peak_rss_mb());
    if (trace && !write_file(trace_path, trace->json(ctx.workload, ctx.seed))) {
      std::fprintf(stderr, "rpcg_bench: cannot write %s\n", trace_path.c_str());
      return 2;
    }
    return emit(ctx, metrics, out_path) ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rpcg_bench: %s\n", e.what());
    return 2;
  }
}
