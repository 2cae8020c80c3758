// Built-in solver and preconditioner registrations: the adapters that put
// the four solver families behind the uniform engine::Solver interface.
//
// Each adapter translates SolverConfig into the family's native options,
// mints a fresh cluster from the Problem, runs the family's engine (which
// returns a finished SolveReport), and names the report. Adding a family is
// one more adapter + one register_solver() line here — nothing else in the
// repo needs to know about it.
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "core/errors.hpp"
#include "core/failure_scenario.hpp"
#include "core/pipelined_pcg.hpp"
#include "core/resilient_bicgstab.hpp"
#include "core/resilient_pcg.hpp"
#include "engine/registry.hpp"
#include "solver/pcg.hpp"
#include "solver/stationary.hpp"
#include "util/check.hpp"

namespace rpcg::engine {

namespace {

/// Fresh cluster with the SolverConfig's execution policy layered over the
/// Problem's default: the config can switch threading on and/or cap the
/// workers for this solve (each field overrides only when set away from its
/// default), so "--workers 4" alone caps a threaded Problem default instead
/// of silently forcing it sequential. Switching threading *off* against a
/// threaded Problem default is the Problem's own knob
/// (set_execution_policy), not the config's.
Cluster make_cluster(const Problem& problem, const SolverConfig& config) {
  Cluster cluster = problem.make_cluster();
  ExecutionPolicy policy = cluster.execution_policy();
  if (config.exec.mode != ExecMode::kSequential) policy.mode = config.exec.mode;
  if (config.exec.workers != 0) policy.workers = config.exec.workers;
  cluster.set_execution_policy(policy);
  return cluster;
}

/// Wires the Problem's factorization cache (or nullptr when the config
/// opts out) plus its memoized matrix content key into the ESR options —
/// solvers must never force esr_solve_lost_x to re-derive the key.
void wire_esr_cache(EsrOptions& esr, Problem& problem,
                    const SolverConfig& config) {
  esr.cache = config.factorization_cache ? &problem.factorization_cache()
                                         : nullptr;
  if (esr.cache != nullptr) esr.matrix_key = problem.matrix_key();
}

/// Renders the deadline-miss message once, so the hook-based and post-run
/// enforcement paths cannot drift apart on wording.
std::string deadline_message(double deadline, double clock_total,
                             int iterations) {
  return "simulated-time deadline exceeded: clock at " +
         std::to_string(clock_total) + "s > " + std::to_string(deadline) +
         "s after " + std::to_string(iterations) + " iteration(s)";
}

/// Layers the config's simulated-time deadline over its event hooks: the
/// wrapped on_iteration throws BudgetExceeded the first time the cluster
/// clock passes the deadline. Cooperative — checked between iterations, so
/// the engines need no deadline knowledge — and deterministic, because the
/// clock is simulated time, not wall time. The returned bundle captures
/// `cluster` by reference; it must not outlive the adapter's solve call.
SolverEvents deadline_events(const SolverConfig& config, Cluster& cluster) {
  if (config.deadline_sim_seconds <= 0.0) return config.events;
  SolverEvents events = config.events;
  events.on_iteration = [inner = config.events.on_iteration, &cluster,
                         deadline = config.deadline_sim_seconds](
                            const IterationSnapshot& snap) {
    if (inner) inner(snap);
    const double total = cluster.clock().total();
    if (total > deadline) {
      throw BudgetExceeded(deadline_message(deadline, total, snap.iteration));
    }
  };
  return events;
}

/// Post-run deadline check for the hook-less reference "pcg": same outcome
/// class as the cooperative path, minus the early abort.
void enforce_deadline(const SolverConfig& config, const Cluster& cluster,
                      int iterations) {
  const double deadline = config.deadline_sim_seconds;
  if (deadline <= 0.0) return;
  const double total = cluster.clock().total();
  if (total > deadline) {
    throw BudgetExceeded(deadline_message(deadline, total, iterations));
  }
}

/// The schedule a resilient solve actually runs, plus the report section
/// describing it when it was generated from the config's scenario.
struct RunSchedule {
  FailureSchedule schedule;
  std::optional<ScenarioSection> scenario;
};

/// An explicit schedule wins; otherwise a configured scenario generates one
/// for this cluster size. `forbid_pair_shift` lets a method overlay its own
/// coverage constraint (twin forbids buddy pairs) without the caller
/// knowing it.
RunSchedule effective_schedule(const SolverConfig& config,
                               const FailureSchedule& schedule, int num_nodes,
                               int forbid_pair_shift = 0) {
  if (!schedule.empty() || config.scenario.kind == ScenarioKind::kNone)
    return {schedule, std::nullopt};
  FailureScenarioConfig scenario = config.scenario;
  if (forbid_pair_shift > 0) scenario.forbid_pair_shift = forbid_pair_shift;
  FailureSchedule generated = generate_scenario(scenario, num_nodes);
  const auto events = static_cast<int>(generated.events().size());
  return {std::move(generated),
          ScenarioSection{to_string(scenario.kind), scenario.seed, events}};
}

/// Names a finished engine report after the registry key and preconditioner
/// that produced it, and attaches the scenario section of its schedule.
SolveReport named(SolveReport rep, std::string solver, std::string precond,
                  std::optional<ScenarioSection> scenario = std::nullopt) {
  rep.solver = std::move(solver);
  rep.preconditioner = std::move(precond);
  rep.scenario = std::move(scenario);
  return rep;
}

/// The reference (non-resilient) PCG, wrapping the legacy pcg_solve free
/// function unchanged — it is the bit-for-bit baseline the resilient
/// engine is tested against, so it must stay exactly that code path.
class PcgSolver final : public Solver {
 public:
  explicit PcgSolver(const SolverConfig& config) : config_(config) {}

  [[nodiscard]] std::string name() const override { return "pcg"; }

  [[nodiscard]] SolveReport solve(Problem& problem, DistVector& x,
                                  const FailureSchedule& schedule) override {
    RPCG_CHECK(schedule.empty(),
               "the reference 'pcg' solver tolerates no failures; use "
               "'resilient-pcg'");
    Cluster cluster = make_cluster(problem, config_);
    PcgOptions opts;
    opts.rtol = config_.rtol;
    opts.max_iterations = config_.max_iterations;
    SolveReport rep = pcg_solve(cluster, problem.matrix(),
                                problem.preconditioner(), problem.rhs(), x,
                                opts);
    enforce_deadline(config_, cluster, rep.iterations);
    return named(std::move(rep), name(), problem.preconditioner_name());
  }

 private:
  SolverConfig config_;
};

/// The resilient PCG engine (core/resilient_pcg.hpp). One adapter serves
/// three registry keys: "resilient-pcg" runs the config's recovery method,
/// and the presets "checkpoint-recovery" and "twin-pcg" pin it to
/// checkpoint-restart and twin with phi = 0 and no ESR cache, so the
/// config's recovery, phi, strategy and ESR fields are ignored there.
/// Whenever the method is twin, generated scenarios avoid buddy pairs
/// (forbid_pair_shift = N/2), the losses twin redundancy cannot cover.
class ResilientPcgSolver final : public Solver {
 public:
  ResilientPcgSolver(const SolverConfig& config, std::string name,
                     std::optional<RecoveryMethod> preset = std::nullopt)
      : config_(config), name_(std::move(name)), preset_(preset) {}

  [[nodiscard]] std::string name() const override { return name_; }

  [[nodiscard]] SolveReport solve(Problem& problem, DistVector& x,
                                  const FailureSchedule& schedule) override {
    Cluster cluster = make_cluster(problem, config_);
    ResilientPcgOptions opts;
    opts.pcg.rtol = config_.rtol;
    opts.pcg.max_iterations = config_.max_iterations;
    if (preset_) {
      opts.method = *preset_;
    } else {
      opts.method = config_.recovery;
      opts.phi = config_.phi;
      opts.strategy = config_.strategy;
      opts.strategy_seed = config_.strategy_seed;
      opts.esr = config_.esr;
      wire_esr_cache(opts.esr, problem, config_);
    }
    const int num_nodes = cluster.num_nodes();
    RunSchedule run = effective_schedule(
        config_, schedule, num_nodes,
        opts.method == RecoveryMethod::kTwin ? num_nodes / 2 : 0);
    opts.checkpoint_interval = config_.checkpoint_interval;
    opts.checkpoint = config_.checkpoint;
    opts.events = deadline_events(config_, cluster);
    ResilientPcg engine(cluster, problem.matrix_global(), problem.matrix(),
                        problem.preconditioner(), opts);
    return named(engine.solve(problem.rhs(), x, run.schedule), name(),
                 problem.preconditioner_name(), std::move(run.scenario));
  }

 private:
  SolverConfig config_;
  std::string name_;
  std::optional<RecoveryMethod> preset_;
};

/// Communication-hiding Krylov methods (core/pipelined_pcg.hpp). One engine
/// serves four registry keys — {CG, CR} x {plain, resilient}: the plain keys
/// ("pipelined-pcg", "pipelined-cr") pin phi = 0 and reject failure
/// schedules; the resilient ones wire in the ESR configuration. All honor
/// config.pipeline_depth.
class PipelinedSolver final : public Solver {
 public:
  PipelinedSolver(const SolverConfig& config, PipelinedMethod method,
                  bool resilient)
      : config_(config), method_(method), resilient_(resilient) {}

  [[nodiscard]] std::string name() const override {
    if (method_ == PipelinedMethod::kConjugateGradient)
      return resilient_ ? "pipelined-resilient-pcg" : "pipelined-pcg";
    return resilient_ ? "pipelined-resilient-cr" : "pipelined-cr";
  }

  [[nodiscard]] SolveReport solve(Problem& problem, DistVector& x,
                                  const FailureSchedule& schedule) override {
    if (!resilient_) {
      RPCG_CHECK(schedule.empty(),
                 "'" + name() + "' tolerates no failures; use "
                 "'pipelined-resilient-" +
                     (method_ == PipelinedMethod::kConjugateGradient ? "pcg"
                                                                     : "cr") +
                     "'");
    }
    Cluster cluster = make_cluster(problem, config_);
    RunSchedule run =
        resilient_ ? effective_schedule(config_, schedule, cluster.num_nodes())
                   : RunSchedule{schedule, std::nullopt};
    PipelinedPcgOptions opts;
    opts.pcg.rtol = config_.rtol;
    opts.pcg.max_iterations = config_.max_iterations;
    opts.method = method_;
    opts.depth = config_.pipeline_depth;
    if (resilient_) {
      opts.phi = config_.phi;
      opts.strategy = config_.strategy;
      opts.strategy_seed = config_.strategy_seed;
      opts.esr = config_.esr;
      wire_esr_cache(opts.esr, problem, config_);
    }
    opts.events = deadline_events(config_, cluster);
    PipelinedPcg engine(cluster, problem.matrix_global(), problem.matrix(),
                        problem.preconditioner(), opts);
    return named(engine.solve(problem.rhs(), x, run.schedule), name(),
                 problem.preconditioner_name(), std::move(run.scenario));
  }

 private:
  SolverConfig config_;
  PipelinedMethod method_;
  bool resilient_;
};

class BicgstabSolver final : public Solver {
 public:
  explicit BicgstabSolver(const SolverConfig& config) : config_(config) {}

  [[nodiscard]] std::string name() const override {
    return "resilient-bicgstab";
  }

  [[nodiscard]] SolveReport solve(Problem& problem, DistVector& x,
                                  const FailureSchedule& schedule) override {
    Cluster cluster = make_cluster(problem, config_);
    RunSchedule run =
        effective_schedule(config_, schedule, cluster.num_nodes());
    BicgstabOptions opts;
    opts.rtol = config_.rtol;
    opts.max_iterations = config_.max_iterations;
    opts.phi = config_.phi;
    opts.strategy = config_.strategy;
    opts.strategy_seed = config_.strategy_seed;
    opts.esr = config_.esr;
    wire_esr_cache(opts.esr, problem, config_);
    opts.events = deadline_events(config_, cluster);
    ResilientBicgstab engine(cluster, problem.matrix_global(), problem.matrix(),
                             problem.preconditioner(), opts);
    return named(engine.solve(problem.rhs(), x, run.schedule), name(),
                 problem.preconditioner_name(), std::move(run.scenario));
  }

 private:
  SolverConfig config_;
};

class StationarySolver final : public Solver {
 public:
  explicit StationarySolver(const SolverConfig& config) : config_(config) {}

  [[nodiscard]] std::string name() const override { return "stationary"; }

  [[nodiscard]] SolveReport solve(Problem& problem, DistVector& x,
                                  const FailureSchedule& schedule) override {
    Cluster cluster = make_cluster(problem, config_);
    RunSchedule run =
        effective_schedule(config_, schedule, cluster.num_nodes());
    StationaryOptions opts;
    opts.method = config_.stationary_method;
    opts.omega = config_.omega;
    opts.rtol = config_.rtol;
    opts.max_iterations = config_.max_iterations;
    opts.phi = config_.phi;
    opts.strategy = config_.strategy;
    opts.strategy_seed = config_.strategy_seed;
    opts.events = deadline_events(config_, cluster);
    ResilientStationary engine(cluster, problem.matrix_global(),
                               problem.matrix(), opts);
    // The stationary family ignores the Problem's preconditioner ("none");
    // `solver` stays the registry key per the SolveReport contract, and the
    // method actually swept is the config's stationary_method.
    return named(engine.solve(problem.rhs(), x, run.schedule), name(), "none",
                 std::move(run.scenario));
  }

 private:
  SolverConfig config_;
};

}  // namespace

SolverConfig SolverConfig::from_options(const Options& o) {
  SolverConfig c;
  c.rtol = o.get_double("rtol", c.rtol);
  c.max_iterations =
      static_cast<int>(o.get_int("max-iterations", c.max_iterations));
  c.deadline_sim_seconds =
      o.get_double("deadline", c.deadline_sim_seconds);
  c.recovery = o.get_enum<RecoveryMethod>("recovery", c.recovery);
  c.phi = static_cast<int>(o.get_int("phi", c.phi));
  c.strategy = o.get_enum<BackupStrategy>("strategy", c.strategy);
  c.strategy_seed = static_cast<std::uint64_t>(
      o.get_int("strategy-seed", static_cast<long>(c.strategy_seed)));
  c.esr.local_rtol = o.get_double("local-rtol", c.esr.local_rtol);
  c.checkpoint_interval = static_cast<int>(
      o.get_int("checkpoint-interval", c.checkpoint_interval));
  c.checkpoint.medium =
      o.get_enum<CheckpointMedium>("checkpoint-medium", c.checkpoint.medium);
  c.checkpoint.write_per_element_s =
      o.get_double("checkpoint-write-cost", c.checkpoint.write_per_element_s);
  c.checkpoint.read_per_element_s =
      o.get_double("checkpoint-read-cost", c.checkpoint.read_per_element_s);
  c.checkpoint.access_latency_s =
      o.get_double("checkpoint-latency", c.checkpoint.access_latency_s);
  c.scenario.kind = o.get_enum<ScenarioKind>("scenario", c.scenario.kind);
  c.scenario.seed = static_cast<std::uint64_t>(
      o.get_int("scenario-seed", static_cast<long>(c.scenario.seed)));
  c.scenario.events =
      static_cast<int>(o.get_int("scenario-events", c.scenario.events));
  c.scenario.max_nodes_per_event = static_cast<int>(
      o.get_int("scenario-nodes", c.scenario.max_nodes_per_event));
  c.scenario.horizon =
      static_cast<int>(o.get_int("scenario-horizon", c.scenario.horizon));
  c.scenario.window =
      static_cast<int>(o.get_int("scenario-window", c.scenario.window));
  c.scenario.rate = o.get_double("scenario-rate", c.scenario.rate);
  c.scenario.weibull_shape =
      o.get_double("scenario-shape", c.scenario.weibull_shape);
  c.scenario.node_rate_spread =
      o.get_double("scenario-node-spread", c.scenario.node_rate_spread);
  c.stationary_method =
      o.get_enum<StationaryMethod>("stationary-method", c.stationary_method);
  c.omega = o.get_double("omega", c.omega);
  c.pipeline_depth =
      static_cast<int>(o.get_int("pipeline-depth", c.pipeline_depth));
  c.exec.mode = o.get_enum<ExecMode>("exec", c.exec.mode);
  c.exec.workers = static_cast<int>(o.get_int("workers", c.exec.workers));
  c.factorization_cache =
      o.get_bool("factorization-cache", c.factorization_cache);
  return c;
}

void register_builtin_solvers(SolverRegistry& registry) {
  registry.register_solver("pcg", [](const SolverConfig& c) {
    return std::make_unique<PcgSolver>(c);
  });
  registry.register_solver("resilient-pcg", [](const SolverConfig& c) {
    return std::make_unique<ResilientPcgSolver>(c, "resilient-pcg");
  });
  registry.register_solver("pipelined-pcg", [](const SolverConfig& c) {
    return std::make_unique<PipelinedSolver>(
        c, PipelinedMethod::kConjugateGradient, /*resilient=*/false);
  });
  registry.register_solver("pipelined-resilient-pcg", [](const SolverConfig& c) {
    return std::make_unique<PipelinedSolver>(
        c, PipelinedMethod::kConjugateGradient, /*resilient=*/true);
  });
  registry.register_solver("pipelined-cr", [](const SolverConfig& c) {
    return std::make_unique<PipelinedSolver>(
        c, PipelinedMethod::kConjugateResidual, /*resilient=*/false);
  });
  registry.register_solver("pipelined-resilient-cr", [](const SolverConfig& c) {
    return std::make_unique<PipelinedSolver>(
        c, PipelinedMethod::kConjugateResidual, /*resilient=*/true);
  });
  registry.register_solver("resilient-bicgstab", [](const SolverConfig& c) {
    return std::make_unique<BicgstabSolver>(c);
  });
  registry.register_solver("checkpoint-recovery", [](const SolverConfig& c) {
    return std::make_unique<ResilientPcgSolver>(
        c, "checkpoint-recovery", RecoveryMethod::kCheckpointRestart);
  });
  registry.register_solver("twin-pcg", [](const SolverConfig& c) {
    return std::make_unique<ResilientPcgSolver>(c, "twin-pcg",
                                                RecoveryMethod::kTwin);
  });
  registry.register_solver("stationary", [](const SolverConfig& c) {
    return std::make_unique<StationarySolver>(c);
  });
}

void register_builtin_preconditioners(PreconditionerRegistry& registry) {
  // Factories delegate to the legacy precond/ factory (which predates the
  // registry and remains the single place that knows the concrete types);
  // the registry adds the canonical names, aliases, and key-listing errors.
  const auto legacy = [](const char* legacy_name) {
    return [legacy_name](const CsrMatrix& a, const Partition& partition) {
      return make_preconditioner(legacy_name, a, partition);
    };
  };
  registry.register_preconditioner("none", legacy("identity"));
  registry.register_preconditioner("identity", legacy("identity"));
  registry.register_preconditioner("jacobi", legacy("jacobi"));
  registry.register_preconditioner("bjacobi", legacy("bjacobi"));
  registry.register_preconditioner("ssor", legacy("ssor"));
  registry.register_preconditioner("ic0-split", legacy("ic0"));
  registry.register_preconditioner("ic0", legacy("ic0"));
}

}  // namespace rpcg::engine
