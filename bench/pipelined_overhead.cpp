// Blocking vs depth-l pipelined resilient CG/CR under identical multi-failure
// schedules, swept over the CommModel's message latency and the pipeline
// depth (Levonyak et al., arXiv:1912.09230): as the interconnect becomes
// latency-dominated, depth 1 hides its one fused reduction behind the
// preconditioner + SpMV, and every extra reduction in flight buys roughly one
// more full iteration of work to hide behind. The grid is
// depth (--depths, default 1,2,4) x latency multiplier {1, 10, 100, 1000};
// per point the table reports the median simulated time, iteration count, and
// the posted/hidden/exposed reduction split of both pipelined families next
// to the blocking baseline.
//
// Self-gates (exit 1 on violation, like service_throughput):
//   * at the x100 latency point, every depth >= 2 must expose strictly less
//     reduction time than depth 1 of the same family (requires 1 in --depths;
//     skipped with a printed note when depth 1 already exposes nothing —
//     exposure cannot drop strictly below zero);
//   * every pipelined-resilient-cr point must converge under the two-event
//     schedule with exposed < posted (the CR family earns its keep).
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_support.hpp"
#include "util/json.hpp"

namespace {

struct Point {
  std::string matrix;
  double latency_s = 0.0;
  std::string solver;
  int depth = 0;  // 0 = the blocking baseline
  double median_sim_time = 0.0;
  int iterations = 0;
  bool converged = false;
  double posted_s = 0.0;
  double hidden_s = 0.0;
  double exposed_s = 0.0;
};

void print_point(const Point& p) {
  std::printf("%-4s %9.2e %-24s %5s %12.4e %6d %12.4e %12.4e %12.4e %7.1f%%\n",
              p.matrix.c_str(), p.latency_s, p.solver.c_str(),
              p.depth == 0 ? "-" : std::to_string(p.depth).c_str(),
              p.median_sim_time, p.iterations, p.posted_s, p.hidden_s,
              p.exposed_s,
              p.posted_s > 0.0 ? 100.0 * p.hidden_s / p.posted_s : 0.0);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rpcg;
  using namespace rpcg::bench;
  const CommonArgs args = CommonArgs::parse(argc, argv, {"depths"});
  const Options o(argc, argv);
  const std::vector<long> depths = o.get_int_list("depths", {1, 2, 4});

  print_header(
      "Pipelined overhead: blocking vs depth-l pipelined CG/CR vs "
      "interconnect latency (phi = psi = 2, failures at 20/60 %)",
      args);
  std::printf("%-4s %9s %-24s %5s %12s %6s %12s %12s %12s %8s\n", "ID",
              "lambda", "solver", "depth", "med time[s]", "iters", "posted[s]",
              "hidden[s]", "exposed[s]", "hid%");

  const double base_latency = CommParams{}.latency_s;
  std::vector<std::string> gate_failures;

  for (const long idx : args.matrices) {
    const auto mat = repro::make_matrix(static_cast<int>(idx), args.scale);
    double crossover = -1.0;
    for (const double factor : {1.0, 10.0, 100.0, 1000.0}) {
      repro::ExperimentConfig cfg = args.config();
      cfg.comm.latency_s = base_latency * factor;
      repro::ExperimentRunner runner(mat.matrix, cfg);

      // The same two-event schedule for every solver: psi = 2 contiguous
      // center ranks at 20 %, again at 60 % (the store re-arms in between).
      const NodeId first = runner.first_rank(repro::FailureLocation::kCenter);
      FailureSchedule schedule;
      for (const double progress : {0.2, 0.6}) {
        FailureEvent ev;
        ev.iteration = runner.failure_iteration(progress);
        ev.nodes = {first, first + 1};
        schedule.add(std::move(ev));
      }

      engine::SolverConfig scfg = runner.base_config();
      scfg.phi = 2;
      scfg.recovery = RecoveryMethod::kEsr;

      const auto run_point = [&](const std::string& solver, int depth) {
        engine::SolverConfig c = scfg;
        if (depth > 0) c.pipeline_depth = depth;
        std::vector<double> times;
        engine::SolveReport first_rep;
        for (int r = 0; r < args.reps; ++r) {
          engine::SolveReport rep = runner.run_solver(
              solver, c, schedule, 400 + static_cast<std::uint64_t>(r));
          if (r == 0) first_rep = rep;
          times.push_back(rep.sim_time);
        }
        Point p;
        p.matrix = mat.id;
        p.latency_s = cfg.comm.latency_s;
        p.solver = solver;
        p.depth = depth;
        p.median_sim_time = summarize(times).median;
        p.iterations = first_rep.iterations;
        p.converged = first_rep.converged;
        p.posted_s = first_rep.reductions.posted_s;
        p.hidden_s = first_rep.reductions.hidden_s;
        p.exposed_s = first_rep.reductions.exposed_s;
        print_point(p);
        return p;
      };

      const Point blocking = run_point("resilient-pcg", 0);
      std::map<std::string, std::map<long, Point>> by_family;
      double best_pipelined = -1.0;
      for (const long depth : depths) {
        for (const char* family :
             {"pipelined-resilient-pcg", "pipelined-resilient-cr"}) {
          const Point p = run_point(family, static_cast<int>(depth));
          by_family[family][depth] = p;
          if (best_pipelined < 0.0 || p.median_sim_time < best_pipelined)
            best_pipelined = p.median_sim_time;
          if (p.solver == "pipelined-resilient-cr" &&
              (!p.converged || !(p.exposed_s < p.posted_s))) {
            gate_failures.push_back(
                p.matrix + " x" + format_compact(factor) + " depth " +
                std::to_string(p.depth) +
                ": pipelined-resilient-cr must converge with exposed < "
                "posted (converged=" + (p.converged ? "true" : "false") +
                ", exposed=" + format_compact(p.exposed_s) +
                ", posted=" + format_compact(p.posted_s) + ")");
          }
        }
      }
      // The depth gate, at the latency point where hiding matters most.
      if (factor == 100.0) {
        for (auto& [family, runs] : by_family) {
          const auto d1 = runs.find(1);
          if (d1 == runs.end()) continue;  // --depths without 1: nothing to gate
          if (!(d1->second.exposed_s > 0.0)) {
            // Depth 1 already hides every reduction on this problem (short
            // solves / compute-heavy iterations): exposure cannot drop
            // strictly below zero, so the comparison is vacuous — say so
            // rather than silently passing or spuriously failing.
            std::printf("gate note: %s x100 %s: depth 1 fully hidden, depth "
                        "comparison skipped\n",
                        mat.id.c_str(), family.c_str());
            continue;
          }
          for (const auto& [depth, p] : runs) {
            if (depth < 2) continue;
            if (!(p.exposed_s < d1->second.exposed_s)) {
              gate_failures.push_back(
                  p.matrix + " x100 " + family + ": depth " +
                  std::to_string(depth) + " exposed " +
                  format_compact(p.exposed_s) +
                  " not strictly below depth 1's " +
                  format_compact(d1->second.exposed_s));
            }
          }
        }
      }
      if (crossover < 0.0 && best_pipelined >= 0.0 &&
          best_pipelined < blocking.median_sim_time)
        crossover = cfg.comm.latency_s;
      std::fflush(stdout);
    }
    if (crossover >= 0.0)
      std::printf("%s: pipelining wins from lambda >= %.2e s\n\n",
                  mat.id.c_str(), crossover);
    else
      std::printf("%s: blocking stays ahead over the swept range\n\n",
                  mat.id.c_str());
  }

  if (!gate_failures.empty()) {
    std::printf("SELF-GATE FAILED:\n");
    for (const std::string& g : gate_failures)
      std::printf("  %s\n", g.c_str());
    return 1;
  }
  std::printf("self-gate ok: depth >= 2 exposes strictly less than depth 1 "
              "at x100 latency; every CR point converged with exposed < "
              "posted\n");
  return 0;
}
