#include "core/resilient_bicgstab.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "core/errors.hpp"
#include "sim/collectives.hpp"
#include "util/check.hpp"

namespace rpcg {

ResilientBicgstab::ResilientBicgstab(Cluster& cluster, const CsrMatrix& a_global,
                                     const DistMatrix& a,
                                     const Preconditioner& m,
                                     BicgstabOptions opts)
    : cluster_(cluster),
      a_global_(&a_global),
      a_(&a),
      m_(&m),
      opts_(opts) {
  RPCG_CHECK(opts_.phi >= 0 && opts_.phi < cluster.num_nodes(),
             "phi must satisfy 0 <= phi < N");
  if (opts_.esr.cache != nullptr && !opts_.esr.matrix_key)
    opts_.esr.matrix_key = FactorizationCache::matrix_key(a_global);
  if (opts_.phi > 0) {
    scheme_ = RedundancyScheme::build(a.scatter_plan(), cluster.partition(),
                                      opts_.phi, opts_.strategy,
                                      opts_.strategy_seed);
    // Recovery reads only the newest p̂ and ŝ: one generation each.
    store_phat_.configure(a.scatter_plan(), scheme_, cluster.partition(), 1);
    store_shat_.configure(a.scatter_plan(), scheme_, cluster.partition(), 1);
    redundancy_step_cost_ = scheme_.per_iteration_overhead(cluster.comm());
  }
}

void ResilientBicgstab::recompute_lost_rows(std::span<const Index> rows,
                                            const DistVector& y,
                                            std::span<const double> y_f,
                                            std::span<double> out) const {
  const Partition& part = cluster_.partition();
  std::map<NodeId, std::vector<Index>> gather;
  double flops = 0.0;
  for (std::size_t k = 0; k < rows.size(); ++k) {
    const auto cols = a_global_->row_cols(rows[k]);
    const auto vals = a_global_->row_vals(rows[k]);
    double acc = 0.0;
    for (std::size_t p = 0; p < cols.size(); ++p) {
      const Index c = cols[p];
      const auto it = std::lower_bound(rows.begin(), rows.end(), c);
      if (it != rows.end() && *it == c) {
        acc += vals[p] * y_f[static_cast<std::size_t>(it - rows.begin())];
      } else {
        const NodeId owner = part.owner(c);
        gather[owner].push_back(c);
        acc += vals[p] *
               y.block(owner)[static_cast<std::size_t>(c - part.begin(owner))];
      }
    }
    out[k] = acc;
    flops += 2.0 * static_cast<double>(cols.size());
  }
  std::vector<double> per_holder(static_cast<std::size_t>(cluster_.num_nodes()), 0.0);
  for (auto& [owner, needed] : gather) {
    std::sort(needed.begin(), needed.end());
    needed.erase(std::unique(needed.begin(), needed.end()), needed.end());
    per_holder[static_cast<std::size_t>(owner)] +=
        cluster_.comm().message_cost(static_cast<Index>(needed.size()));
  }
  cluster_.charge_parallel_seconds(Phase::kRecovery, per_holder);
  cluster_.charge(Phase::kRecovery, cluster_.comm().compute_cost(flops));
}

RecoveryStats ResilientBicgstab::recover(std::span<const NodeId> failed,
                                         double alpha, const DistVector& b,
                                         DistVector& x, State& st) {
  // r̂0 is static data derived from b and the initial guess: it is re-fetched
  // from reliable storage alongside b.
  LostBlocks lost(cluster_, *a_global_, failed, /*static_vectors=*/2);
  const std::vector<Index>& rows = lost.rows();

  // Recover the replicated scalar alpha (one message from any survivor),
  // then gather the redundant copies of p̂ and ŝ.
  cluster_.charge(Phase::kRecovery, cluster_.comm().message_cost(1));
  const auto got_phat = lost.gather(store_phat_);
  const auto got_shat = lost.gather(store_shat_);

  // p_IF = M p̂_IF and s_IF = M ŝ_IF through the preconditioner (the same
  // residual-recovery relation as Alg. 2: given M⁻¹y's block, produce y's).
  std::vector<double> p_f(rows.size()), s_f(rows.size());
  m_->esr_recover_residual(cluster_, rows, got_phat.gens[0], st.p, st.phat,
                           p_f);
  m_->esr_recover_residual(cluster_, rows, got_shat.gens[0], st.s, st.shat,
                           s_f);

  // v_IF = (A p̂)_IF and t_IF = (A ŝ)_IF recomputed from the lost rows of A.
  std::vector<double> v_f(rows.size()), t_f(rows.size());
  recompute_lost_rows(rows, st.phat, got_phat.gens[0], v_f);
  recompute_lost_rows(rows, st.shat, got_shat.gens[0], t_f);

  // r_IF = s_IF + alpha v_IF (from s = r - alpha v; alpha is replicated).
  std::vector<double> r_f(rows.size());
  for (std::size_t k = 0; k < rows.size(); ++k) r_f[k] = s_f[k] + alpha * v_f[k];
  cluster_.charge(Phase::kRecovery, cluster_.comm().compute_cost(
                                        2.0 * static_cast<double>(rows.size())));

  // x_IF from the local system (identical to PCG's Alg. 2 lines 7-8).
  lost.install(x, lost.solve_x(*a_global_, r_f, b, x, opts_.esr));
  lost.install(st.r, r_f);
  lost.install(st.p, p_f);
  lost.install(st.v, v_f);
  lost.install(st.s, s_f);
  lost.install(st.t, t_f);
  lost.install(st.phat, got_phat.gens[0]);
  lost.install(st.shat, got_shat.gens[0]);
  lost.install_from(st.r0, st.r0_pristine);

  // Restore full redundancy on the replacements.
  store_phat_.re_arm(cluster_, lost.nodes());
  store_shat_.re_arm(cluster_, lost.nodes());
  return lost.finish();
}

engine::SolveReport ResilientBicgstab::solve(const DistVector& b,
                                             DistVector& x,
                                             const FailureSchedule& schedule) {
  RPCG_CHECK(cluster_.alive_count() == cluster_.num_nodes(),
             "all nodes must be alive at solve entry");
  const Partition& part = cluster_.partition();
  const Phase it = Phase::kIteration;
  const engine::SolveMeter meter(cluster_);

  State st(part);
  DistVector &r = st.r, &r0 = st.r0, &p = st.p, &v = st.v, &s = st.s,
             &t = st.t, &phat = st.phat, &shat = st.shat;
  std::vector<std::vector<double>> halos;

  // r = r̂0 = b - A x0; keep a pristine copy of r̂0 as (derived) static data.
  a_->spmv(cluster_, x, v, halos, it);
  copy(cluster_, b, r, it);
  axpy(cluster_, -1.0, v, r, it);
  copy(cluster_, r, r0, it);
  {
    ClockPause pause(cluster_.clock());
    copy(cluster_, r0, st.r0_pristine, it);
    v.set_zero();
  }

  const double rnorm0 = std::sqrt(dot(cluster_, r, r, it));
  engine::SolveReport res;
  res.converged = rnorm0 == 0.0;

  FailureCursor cursor(schedule, opts_.phi > 0);
  double rho_prev = 1.0, alpha = 1.0, omega = 1.0;

  for (int j = 0; !res.converged && j < opts_.max_iterations; ++j) {
    const double rho = dot(cluster_, r0, r, it);
    if (!(std::abs(rho) > 1e-300)) {
      throw DivergenceError("BiCGSTAB breakdown: rho ~ 0");
    }
    if (j == 0) {
      copy(cluster_, r, p, it);
    } else {
      const double beta = (rho / rho_prev) * (alpha / omega);
      // p = r + beta (p - omega v)
      axpy(cluster_, -omega, v, p, it);
      xpby(cluster_, r, beta, p, it);
    }
    rho_prev = rho;

    m_->apply(cluster_, p, phat, it);      // p̂ = M⁻¹ p
    a_->spmv(cluster_, phat, v, halos, it);  // v = A p̂  (scatters p̂)
    if (opts_.phi > 0) {
      store_phat_.record(phat);
      cluster_.charge(Phase::kRedundancy, redundancy_step_cost_);
    }

    const double r0v = dot(cluster_, r0, v, it);
    if (!(std::abs(r0v) > 1e-300)) {
      throw DivergenceError("BiCGSTAB breakdown: r̂0·v ~ 0");
    }
    alpha = rho / r0v;

    // s = r - alpha v
    copy(cluster_, r, s, it);
    axpy(cluster_, -alpha, v, s, it);

    m_->apply(cluster_, s, shat, it);      // ŝ = M⁻¹ s
    a_->spmv(cluster_, shat, t, halos, it);  // t = A ŝ  (scatters ŝ)
    if (opts_.phi > 0) {
      store_shat_.record(shat);
      cluster_.charge(Phase::kRedundancy, redundancy_step_cost_);
    }

    // --- Failure injection point: copies of p̂ and ŝ are distributed. ---
    const std::vector<NodeId> merged = cursor.merge_due(
        j,
        [&](const FailureEvent& ev) {
          for (const NodeId f : ev.nodes) {
            cluster_.fail_node(f);
            x.invalidate(f);
            for (DistVector* vec : {&r, &r0, &p, &v, &s, &t, &phat, &shat})
              vec->invalidate(f);
            store_phat_.invalidate_node(f);
            store_shat_.invalidate_node(f);
          }
        },
        opts_.events.on_failure_injected,
        [&](const std::vector<NodeId>& so_far) {
          esr_abort_recovery(cluster_, so_far, {&store_phat_, &store_shat_},
                             opts_.esr.cache);
        });
    if (!merged.empty()) {
      res.recoveries.push_back(
          RecoveryRecord{j, merged, recover(merged, alpha, b, x, st)});
      if (opts_.events.on_recovery_complete)
        opts_.events.on_recovery_complete(res.recoveries.back());
    }

    const DotPair ts = dot_pair(cluster_, t, s, it);  // t·s and ||t||²
    if (!(ts.rr > 0.0)) {
      throw DivergenceError("BiCGSTAB breakdown: ||t|| = 0");
    }
    omega = ts.rz / ts.rr;

    // x += alpha p̂ + omega ŝ ;  r = s - omega t
    axpy(cluster_, alpha, phat, x, it);
    axpy(cluster_, omega, shat, x, it);
    copy(cluster_, s, r, it);
    axpy(cluster_, -omega, t, r, it);

    const double rnorm = std::sqrt(dot(cluster_, r, r, it));
    res.iterations = j + 1;
    res.rel_residual = rnorm / rnorm0;
    res.solver_residual_norm = rnorm;
    if (opts_.events.on_iteration) {
      IterationSnapshot snap;
      snap.iteration = res.iterations;
      snap.rel_residual = res.rel_residual;
      snap.x = &x;
      snap.r = &r;
      snap.p = &p;
      opts_.events.on_iteration(snap);
    }
    if (res.rel_residual <= opts_.rtol) {
      res.converged = true;
      break;
    }
    if (!(std::abs(omega) > 1e-300)) {
      throw DivergenceError("BiCGSTAB breakdown: omega ~ 0");
    }
  }

  meter.finish(cluster_, *a_, b, x, res);
  return res;
}

}  // namespace rpcg
