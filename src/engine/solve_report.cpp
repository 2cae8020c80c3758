#include "engine/solve_report.hpp"

#include "solver/pcg.hpp"  // true_residual_norm
#include "util/json.hpp"
#include "util/json_writer.hpp"

namespace rpcg::engine {

namespace {

// Shortest round-trip rendering (see util/json_writer.hpp), named tersely
// because every field below goes through it.
std::string fmt(double v) { return json_double(v); }
std::string fmt(bool v) { return json_bool(v); }

constexpr const char* kPhaseNames[kNumPhases] = {"iteration", "redundancy",
                                                 "checkpoint", "recovery"};

}  // namespace

std::string SolveReport::to_json(int indent) const {
  JsonWriter w(indent);
  w.open();
  w.field("schema", json_quote("rpcg-solve-report/v2"));
  w.field("solver", json_quote(solver));
  w.field("preconditioner", json_quote(preconditioner));
  w.field("converged", fmt(converged));
  w.field("iterations", std::to_string(iterations));
  w.field("rel_residual", fmt(rel_residual));
  w.field("solver_residual_norm", fmt(solver_residual_norm));
  w.field("true_residual_norm", fmt(true_residual_norm));
  w.field("delta_metric", fmt(delta_metric));
  w.field("sim_time", fmt(sim_time));
  w.open_field("sim_time_phase", "{");
  for (int ph = 0; ph < kNumPhases; ++ph)
    w.field(kPhaseNames[ph], fmt(sim_time_phase[static_cast<std::size_t>(ph)]),
            ph + 1 < kNumPhases);
  w.close("}", true);
  w.field("wall_seconds", fmt(wall_seconds));
  w.field("redundancy_overhead_per_iteration",
          fmt(redundancy_overhead_per_iteration));
  w.open_field("reduction_time", "{");
  w.field("posted", fmt(reductions.posted_s));
  w.field("hidden", fmt(reductions.hidden_s));
  w.field("exposed", fmt(reductions.exposed_s));
  w.field("count", std::to_string(reductions.count));
  w.field("depth", std::to_string(reduction_depth));
  w.field("max_in_flight", std::to_string(reductions.max_in_flight), false);
  w.close("}", true);
  if (checkpoint) {
    w.open_field("checkpoint", "{");
    w.field("medium", json_quote(checkpoint->medium));
    w.field("interval", std::to_string(checkpoint->interval));
    w.field("write_per_element", fmt(checkpoint->write_per_element_s));
    w.field("read_per_element", fmt(checkpoint->read_per_element_s));
    w.field("access_latency", fmt(checkpoint->access_latency_s), false);
    w.close("}", true);
  } else {
    w.field("checkpoint", "null");
  }
  if (scenario) {
    w.open_field("scenario", "{");
    w.field("kind", json_quote(scenario->kind));
    w.field("seed", std::to_string(scenario->seed));
    w.field("events", std::to_string(scenario->events), false);
    w.close("}", true);
  } else {
    w.field("scenario", "null");
  }
  w.field("checkpoints_written", std::to_string(checkpoints_written));
  w.field("rolled_back_iterations", std::to_string(rolled_back_iterations));
  w.open_field("recoveries", "[");
  for (std::size_t i = 0; i < recoveries.size(); ++i) {
    const RecoveryRecord& rec = recoveries[i];
    std::string nodes;
    for (const NodeId f : rec.nodes) {
      if (!nodes.empty()) nodes += ", ";
      nodes += std::to_string(f);
    }
    std::string entry = "{\"iteration\": ";
    entry += std::to_string(rec.iteration);
    entry += ", \"nodes\": [";
    entry += nodes;
    entry += "], \"psi\": ";
    entry += std::to_string(rec.stats.psi);
    entry += ", \"lost_rows\": ";
    entry += std::to_string(rec.stats.lost_rows);
    entry += ", \"gathered_elements\": ";
    entry += std::to_string(rec.stats.gathered_elements);
    entry += ", \"local_solve_iterations\": ";
    entry += std::to_string(rec.stats.local_solve_iterations);
    entry += ", \"local_solve_rel_residual\": ";
    entry += fmt(rec.stats.local_solve_rel_residual);
    entry += ", \"sim_seconds\": ";
    entry += fmt(rec.stats.sim_seconds);
    entry += '}';
    w.raw(std::move(entry), i + 1 < recoveries.size());
  }
  w.close("]", false);
  w.close("}", false);
  return std::move(w).str();
}

SolveMeter::SolveMeter(Cluster& cluster) {
  for (int ph = 0; ph < kNumPhases; ++ph)
    clock_at_entry_[static_cast<std::size_t>(ph)] =
        cluster.clock().in_phase(static_cast<Phase>(ph));
  cluster.restart_reduction_times();
}

void SolveMeter::finish(Cluster& cluster, const DistMatrix& a,
                        const DistVector& b, const DistVector& x,
                        SolveReport& rep) const {
  rep.true_residual_norm = true_residual_norm(cluster, a, b, x);
  if (rep.true_residual_norm > 0.0)
    rep.delta_metric = (rep.solver_residual_norm - rep.true_residual_norm) /
                       rep.true_residual_norm;
  // Summed in phase order from zero, exactly as SimClock::total() does, so a
  // solve on a fresh cluster reports sim_time == clock().total() bit for bit.
  rep.sim_time = 0.0;
  for (int ph = 0; ph < kNumPhases; ++ph) {
    const auto i = static_cast<std::size_t>(ph);
    rep.sim_time_phase[i] =
        cluster.clock().in_phase(static_cast<Phase>(ph)) - clock_at_entry_[i];
    rep.sim_time += rep.sim_time_phase[i];
  }
  rep.reductions = cluster.reduction_times();
  rep.wall_seconds = wall_.seconds();
}

}  // namespace rpcg::engine
