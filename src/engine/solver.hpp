// The abstract Solver interface of the engine API and its one config type.
//
// A Solver is constructed from a SolverRegistry key + SolverConfig and runs
// against any Problem bundle:
//
//   auto solver = engine::SolverRegistry::instance().create("resilient-pcg",
//                                                           config);
//   DistVector x = problem.make_x();
//   engine::SolveReport report = solver->solve(problem, x, schedule);
//
// Every solve mints a fresh cluster from the Problem (all nodes alive,
// clock at zero, the Problem's noise settings applied), so repeated solves
// of one Solver are independent experiments.
#pragma once

#include <cstdint>
#include <string>

#include "core/checkpoint.hpp"      // CheckpointMedium, CheckpointCostModel
#include "core/events.hpp"
#include "core/failure_scenario.hpp"
#include "core/failure_schedule.hpp"
#include "core/resilient_pcg.hpp"   // RecoveryMethod, EsrOptions
#include "engine/problem.hpp"
#include "engine/solve_report.hpp"
#include "solver/stationary.hpp"    // StationaryMethod
#include "util/options.hpp"
#include "util/thread_pool.hpp"     // ExecutionPolicy

namespace rpcg::engine {

/// One config for every registered solver family. Fields a family does not
/// use are ignored (e.g. `omega` outside "stationary"; `recovery` outside
/// "resilient-pcg"). The string-keyed enum fields round-trip via
/// from_string/to_string, so a config is fully constructible from
/// command-line options (see from_options).
struct SolverConfig {
  double rtol = 1e-8;
  int max_iterations = 100000;

  /// Simulated-time deadline in seconds; 0 disables. Enforced cooperatively
  /// by the registry adapters: the on_iteration hook checks the cluster
  /// clock after every completed iteration and throws BudgetExceeded
  /// (core/errors.hpp) the first time total simulated time passes the
  /// deadline (the hook-less reference "pcg" checks once after the run).
  /// Deterministic — the clock is simulated, so the same job misses or
  /// makes its deadline identically on every host and worker count.
  double deadline_sim_seconds = 0.0;

  /// Recovery method of the resilient PCG engine ("none", "esr",
  /// "checkpoint-restart", "interpolation-restart", "twin"). The presets
  /// "checkpoint-recovery" and "twin-pcg" pin it.
  RecoveryMethod recovery = RecoveryMethod::kNone;
  /// Redundant copies; >= 1 enables ESR-style resilience, 0 disables it.
  int phi = 0;
  BackupStrategy strategy = BackupStrategy::kPaperAlternating;
  std::uint64_t strategy_seed = 0;
  EsrOptions esr;
  /// Checkpoint interval in iterations and the checkpoint cost model: where
  /// the checkpoints live (memory vs disk) and, optionally, explicit
  /// per-element/latency charges overriding the medium defaults
  /// (core/checkpoint.hpp). Both feed the one checkpoint engine, reached as
  /// "checkpoint-recovery" or as "resilient-pcg" with checkpoint-restart.
  int checkpoint_interval = 50;
  CheckpointCostModel checkpoint;

  /// Generated failure scenario (core/failure_scenario.hpp). When the
  /// schedule handed to solve() is empty and `scenario.kind` is not kNone,
  /// the resilient families solve against
  /// generate_scenario(scenario, nodes); an explicit schedule always wins.
  FailureScenarioConfig scenario;

  /// Stationary family only.
  StationaryMethod stationary_method = StationaryMethod::kJacobi;
  double omega = 1.0;

  /// Pipelined families only: reductions in flight (1..kMaxPipelineDepth).
  /// Depth 1 is the classic Ghysels–Vanroose one-reduction pipeline; deeper
  /// rings hide each reduction behind depth-1 full iterations of work at an
  /// (1 + depth)x redundancy charge in the resilient variants.
  int pipeline_depth = 1;

  /// Host-side execution policy for the minted cluster's per-node loops
  /// ("sequential" | "threaded"; workers = 0 means hardware concurrency).
  /// Layered over the Problem's default: mode overrides when "threaded",
  /// workers overrides when nonzero (so a worker cap alone does not force a
  /// threaded Problem back to sequential). Threaded runs are bit-for-bit
  /// identical to sequential ones.
  ExecutionPolicy exec;
  /// Reuse ESR factorizations across reconstructions through the Problem's
  /// FactorizationCache. Purely a host-side wall-clock optimization —
  /// reports are byte-identical either way.
  bool factorization_cache = true;

  /// Typed event hooks, forwarded to the underlying engine. The reference
  /// "pcg" solver supports no hooks (it exists as the bit-for-bit baseline).
  SolverEvents events;

  /// Reads --rtol, --max-iterations, --deadline, --recovery, --phi,
  /// --strategy, --strategy-seed, --local-rtol, --checkpoint-interval,
  /// --checkpoint-medium, --checkpoint-write-cost, --checkpoint-read-cost,
  /// --checkpoint-latency, --scenario, --scenario-seed, --scenario-events,
  /// --scenario-nodes, --scenario-horizon, --scenario-window,
  /// --scenario-rate, --scenario-shape, --scenario-node-spread,
  /// --stationary-method, --omega, --pipeline-depth, --exec, --workers,
  /// --factorization-cache. Unknown enum names throw std::invalid_argument
  /// listing the valid keys; so does an integer option with trailing
  /// characters ("2.9", "2x").
  [[nodiscard]] static SolverConfig from_options(const Options& o);
};

class Solver {
 public:
  virtual ~Solver() = default;

  /// The registry key this solver was created under.
  [[nodiscard]] virtual std::string name() const = 0;

  /// Solves A x = b for the Problem's RHS from the initial guess in x
  /// (overwritten with the solution); failures are injected per schedule.
  [[nodiscard]] virtual SolveReport solve(Problem& problem, DistVector& x,
                                          const FailureSchedule& schedule) = 0;

  [[nodiscard]] SolveReport solve(Problem& problem, DistVector& x) {
    return solve(problem, x, FailureSchedule{});
  }
};

}  // namespace rpcg::engine
