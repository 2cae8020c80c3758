// The simulated distributed-memory parallel computer: N nodes, an
// interconnection network with a latency–bandwidth cost model, fail-stop node
// failures and replacement nodes (Sec. 1.1 of the paper). Time is simulated:
// operations report their per-node costs and the cluster clock advances by
// the parallel (max-over-nodes) cost, optionally perturbed by deterministic
// log-normal noise to emulate machine jitter for box-plot statistics.
#pragma once

#include <algorithm>
#include <array>
#include <vector>

#include "sim/comm_model.hpp"
#include "sim/partition.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/types.hpp"

namespace rpcg {

/// Accounting buckets of the simulated clock. The repro harness uses these to
/// report the paper's "undisturbed overhead" (kRedundancy) and "relative
/// reconstruction time" (kRecovery) columns separately.
enum class Phase : int {
  kIteration = 0,   ///< baseline PCG work (SpMV, BLAS1, reductions, precond)
  kRedundancy = 1,  ///< extra traffic for the phi redundant copies
  kCheckpoint = 2,  ///< checkpoint/restart baseline writes and rollbacks
  kRecovery = 3,    ///< failure recovery (gathers, local solves, re-arming)
};
inline constexpr int kNumPhases = 4;

/// Aggregate split-phase reduction accounting (see sim/collectives.hpp):
/// every posted reduction contributes its full tree latency to `posted_s`;
/// the part overlapped by work charged between post and wait() goes to
/// `hidden_s`, the remainder charged to the clock at wait() to `exposed_s`
/// (posted_s == hidden_s + exposed_s). Blocking collectives are post+wait
/// with nothing in between, so for them everything is exposed.
struct ReductionTimes {
  double posted_s = 0.0;   ///< total reduction latency posted
  double hidden_s = 0.0;   ///< overlapped by work between post and wait
  double exposed_s = 0.0;  ///< charged to the clock at wait()
  int count = 0;           ///< reductions posted
  /// Peak number of reductions simultaneously in flight (posted, not yet
  /// waited). 1 for every blocking solver and the depth-1 pipelined engine;
  /// l for a depth-l reduction ring.
  int max_in_flight = 0;
};

class SimClock {
 public:
  /// Advances the clock by `seconds`, attributed to `phase`. When a noise
  /// coefficient of variation is set, the increment is multiplied by a
  /// deterministic log-normal factor with unit mean.
  void advance(Phase phase, double seconds);

  [[nodiscard]] double total() const;
  [[nodiscard]] double in_phase(Phase phase) const {
    return by_phase_[static_cast<std::size_t>(phase)];
  }

  /// Enables noisy timing. cv = 0 disables noise (exact model time).
  void set_noise(double cv, std::uint64_t seed);

  /// While paused, advance() is a no-op (used for diagnostics such as
  /// true-residual checks that a real solver would not perform).
  void set_paused(bool paused) { paused_ = paused; }
  [[nodiscard]] bool paused() const { return paused_; }

  void reset();

 private:
  std::array<double, kNumPhases> by_phase_{};
  double noise_cv_ = 0.0;
  bool paused_ = false;
  Rng rng_;
};

/// RAII guard that pauses a SimClock for the duration of a scope.
class ClockPause {
 public:
  explicit ClockPause(SimClock& clock) : clock_(clock), was_(clock.paused()) {
    clock_.set_paused(true);
  }
  ~ClockPause() { clock_.set_paused(was_); }
  ClockPause(const ClockPause&) = delete;
  ClockPause& operator=(const ClockPause&) = delete;

 private:
  SimClock& clock_;
  bool was_;
};

class Cluster {
 public:
  Cluster(Partition partition, CommParams comm_params);

  [[nodiscard]] const Partition& partition() const { return partition_; }
  [[nodiscard]] int num_nodes() const { return partition_.num_nodes(); }
  [[nodiscard]] const CommModel& comm() const { return comm_; }
  [[nodiscard]] SimClock& clock() { return clock_; }
  [[nodiscard]] const SimClock& clock() const { return clock_; }

  /// How this cluster's per-node loops execute on the host (sequential or
  /// fanned out over the shared worker pool). Simulated time is unaffected;
  /// threaded execution is bit-for-bit identical to sequential (see
  /// util/thread_pool.hpp for the determinism contract).
  void set_execution_policy(const ExecutionPolicy& policy) { exec_ = policy; }
  [[nodiscard]] const ExecutionPolicy& execution_policy() const {
    return exec_;
  }

  /// Marks a node failed (fail-stop: its memory contents are gone; data
  /// structures holding per-node state are invalidated by their owners).
  void fail_node(NodeId i);

  /// Brings a replacement node online in place of a failed node.
  void replace_node(NodeId i);

  [[nodiscard]] bool is_alive(NodeId i) const {
    return alive_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] int alive_count() const { return alive_count_; }
  [[nodiscard]] std::vector<NodeId> failed_nodes() const;

  /// Advances simulated time by an already-costed `seconds`, attributed to
  /// `phase`. The single entry point for charging time from outside the sim
  /// layer: solver/precond/engine code must come through here (or the
  /// charge_* helpers below) so phase accounting, pause state, and timing
  /// noise are applied in one place — rpcg-lint's sim-time rule bans direct
  /// SimClock mutation outside src/sim/.
  void charge(Phase phase, double seconds) { clock_.advance(phase, seconds); }

  /// Enables deterministic log-normal timing noise on the clock (cv = 0
  /// disables; see SimClock::set_noise).
  void set_clock_noise(double cv, std::uint64_t seed) {
    clock_.set_noise(cv, seed);
  }

  /// Advances the clock by the parallel cost of a compute step in which node
  /// i spends per_node_flops[i] flops: max_i flops_i / rate.
  void charge_compute(Phase phase, std::span<const double> per_node_flops);

  /// Advances the clock by max(per_node_seconds) (already-costed
  /// communication rounds; see ScatterPlan::comm_cost_per_node).
  void charge_parallel_seconds(Phase phase, std::span<const double> per_node_seconds);

  /// Charges an allreduce over the currently-alive nodes.
  void charge_allreduce(Phase phase, int scalars);

  /// Split-phase reduction accounting since construction or the last
  /// restart_reduction_times(), accumulated by PendingReduction
  /// (sim/collectives.hpp) at wait() time. Diagnostic reductions executed
  /// under a paused clock are not counted.
  void account_reduction(double posted_s, double hidden_s, double exposed_s) {
    reductions_.posted_s += posted_s;
    reductions_.hidden_s += hidden_s;
    reductions_.exposed_s += exposed_s;
    ++reductions_.count;
  }
  [[nodiscard]] const ReductionTimes& reduction_times() const {
    return reductions_;
  }
  /// Zeroes the totals and restarts the in-flight peak from the reductions
  /// in flight now. SolveMeter calls it at solve entry, so a solve on a
  /// reused cluster reports only its own reductions.
  void restart_reduction_times() {
    reductions_ = ReductionTimes{};
    reductions_.max_in_flight = reductions_in_flight_;
  }

  /// In-flight reduction tracking, driven by post_allreduce / wait() for
  /// reductions posted with a running clock (diagnostic reductions under a
  /// paused clock are invisible here too).
  void note_reduction_posted() {
    ++reductions_in_flight_;
    reductions_.max_in_flight =
        std::max(reductions_.max_in_flight, reductions_in_flight_);
  }
  void note_reduction_completed() { --reductions_in_flight_; }

 private:
  Partition partition_;
  CommModel comm_;
  SimClock clock_;
  ExecutionPolicy exec_;
  ReductionTimes reductions_;
  int reductions_in_flight_ = 0;
  std::vector<bool> alive_;
  int alive_count_ = 0;
};

}  // namespace rpcg
