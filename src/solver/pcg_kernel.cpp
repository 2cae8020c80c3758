#include "solver/pcg_kernel.hpp"

#include "core/errors.hpp"

namespace rpcg {

PcgKernel::PcgKernel(Cluster& cluster, const DistMatrix& a,
                     const Preconditioner& m)
    : r(cluster.partition()),
      z(cluster.partition()),
      p(cluster.partition()),
      u(cluster.partition()),
      cluster_(&cluster),
      a_(&a),
      m_(&m) {}

DotPair PcgKernel::initialize(const DistVector& b, const DistVector& x,
                              Phase phase) {
  a_->spmv(*cluster_, x, u, halos_, phase);
  copy(*cluster_, b, r, phase);
  axpy(*cluster_, -1.0, u, r, phase);
  m_->apply(*cluster_, r, z, phase);
  copy(*cluster_, z, p, phase);
  const DotPair d0 = dot_pair(*cluster_, r, z, phase);
  rz = d0.rz;
  return d0;
}

void PcgKernel::spmv_direction(Phase phase) {
  a_->spmv(*cluster_, p, u, halos_, phase);
}

double PcgKernel::direction_curvature(Phase phase) {
  const double pap = dot(*cluster_, p, u, phase);
  if (!(pap > 0.0))
    throw DivergenceError(
        "CG breakdown: matrix is not positive definite along p");
  return pap;
}

void PcgKernel::descend(double alpha, DistVector& x, Phase phase) {
  axpy(*cluster_, alpha, p, x, phase);
  axpy(*cluster_, -alpha, u, r, phase);
}

DotPair PcgKernel::precondition(Phase phase) {
  m_->apply(*cluster_, r, z, phase);
  return dot_pair(*cluster_, r, z, phase);
}

void PcgKernel::advance_direction(const DotPair& d, Phase phase) {
  const double beta = d.rz / rz;
  beta_prev = beta;
  rz = d.rz;
  xpby(*cluster_, z, beta, p, phase);
}

std::vector<DistVector*> PcgKernel::state_vectors(DistVector& x) {
  return {&x, &r, &z, &p, &u};
}

}  // namespace rpcg
