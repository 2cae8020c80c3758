#include "core/checkpoint.hpp"

#include "util/check.hpp"

namespace rpcg {

std::string to_string(CheckpointMedium m) { return enum_to_string(m); }

CheckpointCostModel CheckpointCostModel::resolved(const CommModel& comm) const {
  CheckpointCostModel r = *this;
  const CommParams& p = comm.params();
  const double elem = medium == CheckpointMedium::kMemory
                          ? p.per_double_s
                          : 1.0 / p.storage_doubles_per_s;
  const double lat = medium == CheckpointMedium::kMemory ? p.latency_s
                                                         : p.storage_latency_s;
  if (r.write_per_element_s < 0.0) r.write_per_element_s = elem;
  if (r.read_per_element_s < 0.0) r.read_per_element_s = elem;
  if (r.access_latency_s < 0.0) r.access_latency_s = lat;
  return r;
}

double CheckpointCostModel::write_cost(const CommModel& comm,
                                       Index elements) const {
  const CheckpointCostModel r = resolved(comm);
  return r.access_latency_s +
         static_cast<double>(elements) * r.write_per_element_s;
}

double CheckpointCostModel::read_cost(const CommModel& comm,
                                      Index elements) const {
  const CheckpointCostModel r = resolved(comm);
  return r.access_latency_s +
         static_cast<double>(elements) * r.read_per_element_s;
}

void CostedCheckpointStore::save(Cluster& cluster, int iteration,
                                 const DistVector& x, const DistVector& r,
                                 const DistVector& p, double rz,
                                 double beta_prev) {
  {
    ClockPause pause(cluster.clock());
    x_ = x.gather_global();
    r_ = r.gather_global();
    p_ = p.gather_global();
  }
  rz_ = rz;
  beta_prev_ = beta_prev;
  iter_ = iteration;
  has_ = true;
  cluster.charge(Phase::kCheckpoint,
                 costs_.write_cost(cluster.comm(),
                                   3 * cluster.partition().max_block_size()));
}

void CostedCheckpointStore::restore(Cluster& cluster, DistVector& x,
                                    DistVector& r, DistVector& p, double& rz,
                                    double& beta_prev) const {
  RPCG_CHECK(has_, "no checkpoint to restore");
  {
    ClockPause pause(cluster.clock());
    x.set_global(x_);
    r.set_global(r_);
    p.set_global(p_);
  }
  rz = rz_;
  beta_prev = beta_prev_;
  cluster.charge(Phase::kRecovery,
                 costs_.read_cost(cluster.comm(),
                                  3 * cluster.partition().max_block_size()));
}

void CostedCheckpointStore::charge_aborted_restore(Cluster& cluster) const {
  cluster.charge(Phase::kRecovery,
                 costs_.read_cost(cluster.comm(),
                                  3 * cluster.partition().max_block_size()));
}

}  // namespace rpcg
