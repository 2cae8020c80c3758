// The checkpoint store of ResilientPcg's kCheckpointRestart method
// (core/resilient_pcg.hpp; arXiv:2007.04066). It persists the minimal PCG
// state {x, r, p, rz, beta_prev} — z is recomputed from r through the
// preconditioner on restore — under a parameterized cost model that
// distinguishes in-memory (neighbor/NVRAM at network rates) from disk
// (reliable storage rates) checkpoints.
#pragma once

#include <array>
#include <string>
#include <utility>
#include <vector>

#include "sim/cluster.hpp"
#include "sim/dist_vector.hpp"
#include "util/enum_names.hpp"

namespace rpcg {

/// Where the checkpoints are kept.
enum class CheckpointMedium {
  kMemory,  ///< partner memory / NVRAM, reached at network rates
  kDisk,    ///< reliable external storage, reached at storage rates
};

template <>
struct EnumNames<CheckpointMedium> {
  static constexpr const char* context = "checkpoint medium";
  static constexpr std::array<std::pair<CheckpointMedium, const char*>, 2>
      table{{{CheckpointMedium::kMemory, "memory"},
             {CheckpointMedium::kDisk, "disk"}}};
};

[[nodiscard]] std::string to_string(CheckpointMedium m);

/// Per-element/latency charges of one checkpoint access. Negative values
/// resolve to the medium's default from the cluster's CommParams:
/// kMemory -> (latency_s, per_double_s), kDisk -> (storage_latency_s,
/// 1 / storage_doubles_per_s). Explicit non-negative values override —
/// that is the knob the checkpoint-vs-ESR crossover study sweeps.
struct CheckpointCostModel {
  CheckpointMedium medium = CheckpointMedium::kMemory;
  double write_per_element_s = -1.0;
  double read_per_element_s = -1.0;
  double access_latency_s = -1.0;

  /// The model with every negative field replaced by the medium default.
  [[nodiscard]] CheckpointCostModel resolved(const CommModel& comm) const;

  [[nodiscard]] double write_cost(const CommModel& comm, Index elements) const;
  [[nodiscard]] double read_cost(const CommModel& comm, Index elements) const;
};

/// The 3-vector checkpoint store. All nodes write their blocks
/// concurrently, so an access costs as much as the largest block under the
/// cost model.
class CostedCheckpointStore {
 public:
  explicit CostedCheckpointStore(CheckpointCostModel costs)
      : costs_(costs) {}

  [[nodiscard]] const CheckpointCostModel& costs() const { return costs_; }
  [[nodiscard]] bool has_checkpoint() const { return has_; }
  [[nodiscard]] int iteration() const { return iter_; }

  /// Charges the parallel write cost (3 blocks/node) to Phase::kCheckpoint.
  void save(Cluster& cluster, int iteration, const DistVector& x,
            const DistVector& r, const DistVector& p, double rz,
            double beta_prev);

  /// Restores {x, r, p, rz, beta_prev} on all nodes; charges the parallel
  /// read cost (3 blocks/node) to Phase::kRecovery. Replacements must
  /// already be online.
  void restore(Cluster& cluster, DistVector& x, DistVector& r, DistVector& p,
               double& rz, double& beta_prev) const;

  /// Cost of a restore cut short by an overlapping failure (the read had to
  /// be redone with the merged failed set); charged to Phase::kRecovery.
  void charge_aborted_restore(Cluster& cluster) const;

 private:
  CheckpointCostModel costs_;
  bool has_ = false;
  int iter_ = 0;
  std::vector<double> x_, r_, p_;
  double rz_ = 0.0;
  double beta_prev_ = 0.0;
};

}  // namespace rpcg
