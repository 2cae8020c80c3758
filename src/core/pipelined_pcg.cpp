#include "core/pipelined_pcg.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "core/errors.hpp"
#include "core/factorization_cache.hpp"
#include "sim/collectives.hpp"
#include "util/check.hpp"

namespace rpcg {

/// The live iteration state at loop top k (k completed updates): the
/// current-generation vectors r_k, u_k, w_k, the recurrence vectors s/q/z
/// of update k-1, the directions p_{k-1}, p_{k-2}, the `depth` previous
/// generations of u that the backup set keeps reconstructible, and the
/// chains m_i = (M^-1 A)^i u, n_i = A m_i (i = 1..L) and
/// zeta_i = (M^-1 A)^i q, xi_i = A zeta_i (i = 1..L-1) that close the
/// coefficient-space replay. Depth 1 has one chain rung (its in-flight
/// m = M^-1 w, n = A m) and one old u generation. Replicated scalars ride
/// along: gamma_{k-1}, alpha_{k-1} (recovered from any survivor on failure).
struct PipelinedPcg::DeepState {
  DeepState(const Partition& part, const PipelinedBasisLayout& layout)
      : r(part), u(part), w(part), s(part), q(part), z(part), p(part),
        p_prev(part) {
    for (int g = 0; g < layout.depth; ++g) u_hist.emplace_back(part);
    for (int i = 0; i < layout.chain; ++i) {
      m.emplace_back(part);
      n.emplace_back(part);
    }
    for (int i = 0; i + 1 < layout.chain; ++i) {
      zeta.emplace_back(part);
      xi.emplace_back(part);
    }
  }

  DistVector r, u, w, s, q, z, p, p_prev;
  std::vector<DistVector> u_hist;      // u^(k-1) .. u^(k-depth)
  std::vector<DistVector> m, n;        // m[i] = m_{i+1}, n[i] = n_{i+1}
  std::vector<DistVector> zeta, xi;    // zeta[i] = zeta_{i+1}, likewise xi
  double gamma_prev = 0.0;
  double alpha_prev = 0.0;

  /// Pointers in PipelinedBasisLayout index order — the fused Gram posts
  /// reduce exactly this basis.
  [[nodiscard]] std::vector<const DistVector*> basis() const {
    std::vector<const DistVector*> out = {&r, &u, &w, &s, &q, &z};
    for (const DistVector& v : m) out.push_back(&v);
    for (const DistVector& v : n) out.push_back(&v);
    for (const DistVector& v : zeta) out.push_back(&v);
    for (const DistVector& v : xi) out.push_back(&v);
    return out;
  }

  [[nodiscard]] std::vector<DistVector*> all() {
    std::vector<DistVector*> out = {&r, &u, &w, &s, &q, &z, &p, &p_prev};
    for (DistVector& v : u_hist) out.push_back(&v);
    for (DistVector& v : m) out.push_back(&v);
    for (DistVector& v : n) out.push_back(&v);
    for (DistVector& v : zeta) out.push_back(&v);
    for (DistVector& v : xi) out.push_back(&v);
    return out;
  }
};

PipelinedPcg::PipelinedPcg(Cluster& cluster, const CsrMatrix& a_global,
                           const Preconditioner& m, PipelinedPcgOptions opts)
    : PipelinedPcg(cluster, a_global,
                   MaybeOwned<DistMatrix>::owned(
                       DistMatrix::distribute(a_global, cluster.partition())),
                   m, std::move(opts)) {}

PipelinedPcg::PipelinedPcg(Cluster& cluster, const CsrMatrix& a_global,
                           const DistMatrix& a, const Preconditioner& m,
                           PipelinedPcgOptions opts)
    : PipelinedPcg(cluster, a_global, MaybeOwned<DistMatrix>::borrowed(a), m,
                   std::move(opts)) {}

PipelinedPcg::PipelinedPcg(Cluster& cluster, const CsrMatrix& a_global,
                           MaybeOwned<DistMatrix> a, const Preconditioner& m,
                           PipelinedPcgOptions opts)
    : cluster_(cluster),
      a_global_(&a_global),
      m_(&m),
      opts_(std::move(opts)),
      a_(std::move(a)),
      layout_(PipelinedBasisLayout::make(opts_.method, opts_.depth)) {
  RPCG_CHECK(opts_.phi >= 0, "phi must be non-negative");
  if (opts_.esr.cache != nullptr && !opts_.esr.matrix_key)
    opts_.esr.matrix_key = FactorizationCache::matrix_key(a_global);
  if (opts_.phi > 0) {
    scheme_ = RedundancyScheme::build(a_->scatter_plan(), cluster_.partition(),
                                      opts_.phi, opts_.strategy,
                                      opts_.strategy_seed);
    store_p_.configure(a_->scatter_plan(), scheme_, cluster_.partition());
    store_u_.configure(a_->scatter_plan(), scheme_, cluster_.partition(),
                       opts_.depth + 1);
    // 1 + depth vectors ride the per-iteration halo exchange: two p
    // generations share one round, and each of the depth+1 u generations the
    // deeper pipeline must keep reconstructible adds another.
    redundancy_step_cost_ =
        (1.0 + opts_.depth) * scheme_.per_iteration_overhead(cluster_.comm());
  }
}

RecoveryStats PipelinedPcg::recover(std::span<const NodeId> failed,
                                    const DistVector& b, DistVector& x,
                                    DeepState& st) {
  const Partition& part = cluster_.partition();
  const int L = layout_.chain;
  LostBlocks lost(cluster_, *a_global_, failed);

  // Replicated scalars gamma^(k-1), alpha^(k-1) from any survivor, then every
  // backed-up generation of the lost u blocks (depth+1 of them) and both p
  // generations.
  cluster_.charge(Phase::kRecovery, cluster_.comm().message_cost(1));
  const BackupStore::Gathered got_u = lost.gather(store_u_);
  const BackupStore::Gathered got_p = lost.gather(store_p_);

  // r_{IF} through the preconditioner from the backed-up u = M^{-1} r —
  // the same Alg. 2 step the blocking engine applies to z — and x_{IF} from
  // the A_{IF,IF} local system (lines 7-8, cache-served).
  std::vector<double> r_f(lost.size());
  m_->esr_recover_residual(cluster_, lost.rows(), got_u.gens[0], st.r, st.u,
                           r_f);
  lost.install(x, lost.solve_x(*a_global_, r_f, b, x, opts_.esr));
  lost.install(st.r, r_f);
  lost.install(st.u, got_u.gens[0]);
  for (int g = 0; g < opts_.depth; ++g)
    lost.install(st.u_hist[static_cast<std::size_t>(g)],
                 got_u.gens[static_cast<std::size_t>(g) + 1]);
  lost.install(st.p, got_p.gens[0]);
  lost.install(st.p_prev, got_p.gens[1]);

  // Relation-based rebuild of the lost blocks (Levonyak et al.): s = A p,
  // q = M^{-1} s, z = A q, w = A u, then the chain ladders
  // m_i = (M^{-1} A)^i u (seeded from the rebuilt w = A u) and
  // zeta_i = (M^{-1} A)^i q (seeded from z = A q); n_i = A m_i and
  // xi_i = A zeta_i ride each rung. All identities the recurrences preserve
  // exactly, so replacements rejoin consistently. Full operator applications
  // charged to recovery — the same resume-recompute accounting as the
  // blocking engine's u = A p.
  DistVector tmp(part);
  std::vector<std::vector<double>> halos;
  const auto rebuild_lost = [&](DistVector& dst) {
    lost.install_from(dst, tmp);
  };
  a_->spmv(cluster_, st.p, tmp, halos, Phase::kRecovery);
  rebuild_lost(st.s);
  m_->apply(cluster_, st.s, tmp, Phase::kRecovery);
  rebuild_lost(st.q);
  a_->spmv(cluster_, st.q, tmp, halos, Phase::kRecovery);
  rebuild_lost(st.z);
  a_->spmv(cluster_, st.u, tmp, halos, Phase::kRecovery);
  rebuild_lost(st.w);

  if (opts_.depth == 1) {
    // Depth 1's in-flight m = M^{-1} w, n = A m are minted fresh every
    // iteration, so they are recomputed whole: survivors reproduce their
    // values bit-for-bit from the rebuilt w and the replacements obtain
    // consistent ones.
    for (const NodeId f : lost.nodes()) {
      st.m[0].revalidate_zero(f);
      st.n[0].revalidate_zero(f);
    }
    m_->apply(cluster_, st.w, st.m[0], Phase::kRecovery);
    a_->spmv(cluster_, st.m[0], st.n[0], halos, Phase::kRecovery);
  } else {
    m_->apply(cluster_, st.w, tmp, Phase::kRecovery);
    rebuild_lost(st.m[0]);
    a_->spmv(cluster_, st.m[0], tmp, halos, Phase::kRecovery);
    rebuild_lost(st.n[0]);
    for (int i = 1; i < L; ++i) {
      const auto iz = static_cast<std::size_t>(i);
      m_->apply(cluster_, st.n[iz - 1], tmp, Phase::kRecovery);
      rebuild_lost(st.m[iz]);
      a_->spmv(cluster_, st.m[iz], tmp, halos, Phase::kRecovery);
      rebuild_lost(st.n[iz]);
    }
    if (L >= 2) {
      m_->apply(cluster_, st.z, tmp, Phase::kRecovery);
      rebuild_lost(st.zeta[0]);
      a_->spmv(cluster_, st.zeta[0], tmp, halos, Phase::kRecovery);
      rebuild_lost(st.xi[0]);
      for (int i = 1; i + 1 < L; ++i) {
        const auto iz = static_cast<std::size_t>(i);
        m_->apply(cluster_, st.xi[iz - 1], tmp, Phase::kRecovery);
        rebuild_lost(st.zeta[iz]);
        a_->spmv(cluster_, st.zeta[iz], tmp, halos, Phase::kRecovery);
        rebuild_lost(st.xi[iz]);
      }
    }
  }

  // Restore full phi+1 redundancy of both backup sets right away.
  store_p_.re_arm(cluster_, lost.nodes(), st.p, st.p_prev);
  std::vector<const DistVector*> ugens;
  ugens.push_back(&st.u);
  for (const DistVector& uh : st.u_hist) ugens.push_back(&uh);
  store_u_.re_arm(cluster_, lost.nodes(), ugens);
  return lost.finish();
}

void PipelinedPcg::recover_due(FailureCursor& cursor, int k,
                               const DistVector& b, DistVector& x,
                               DeepState& st, engine::SolveReport& res) {
  const std::vector<NodeId> merged = cursor.merge_due(
      k,
      [&](const FailureEvent& ev) {
        for (const NodeId f : ev.nodes) {
          cluster_.fail_node(f);
          x.invalidate(f);
          for (DistVector* v : st.all()) v->invalidate(f);
          store_p_.invalidate_node(f);
          store_u_.invalidate_node(f);
        }
      },
      opts_.events.on_failure_injected,
      [&](const std::vector<NodeId>& so_far) {
        esr_abort_recovery(cluster_, so_far, {&store_u_, &store_p_},
                           opts_.esr.cache);
      });
  res.recoveries.push_back(
      RecoveryRecord{k, merged, recover(merged, b, x, st)});
  if (opts_.events.on_recovery_complete)
    opts_.events.on_recovery_complete(res.recoveries.back());
}

engine::SolveReport PipelinedPcg::solve(const DistVector& b, DistVector& x,
                                        const FailureSchedule& schedule) {
  engine::SolveReport res = opts_.depth == 1 ? solve_depth1(b, x, schedule)
                                             : solve_deep(b, x, schedule);
  // The loops finish the report before their locals go out of scope, so the
  // reductions the depth-l ring still holds complete after the time
  // snapshot. Count them in the reduction accounting all the same.
  res.reductions = cluster_.reduction_times();
  res.redundancy_overhead_per_iteration = redundancy_step_cost_;
  res.reduction_depth = opts_.depth;
  return res;
}

engine::SolveReport PipelinedPcg::solve_depth1(
    const DistVector& b, DistVector& x, const FailureSchedule& schedule) {
  RPCG_CHECK(cluster_.alive_count() == cluster_.num_nodes(),
             "all nodes must be alive at solve entry");
  const Partition& part = cluster_.partition();
  const engine::SolveMeter meter(cluster_);
  engine::SolveReport res;

  DeepState st(part, layout_);
  DistVector& m = st.m[0];
  DistVector& n = st.n[0];
  DistVector& u_prev = st.u_hist[0];
  std::vector<std::vector<double>> halos;
  const Phase it = Phase::kIteration;
  const bool cg = opts_.method == PipelinedMethod::kConjugateGradient;

  // r^(0) = b - A x^(0); u^(0) = M^{-1} r^(0); w^(0) = A u^(0). The first
  // loop turn delivers ||r^(0)|| with its fused reduction, so no separate
  // startup reduction is needed.
  a_->spmv(cluster_, x, n, halos, it);  // n as scratch
  copy(cluster_, b, st.r, it);
  axpy(cluster_, -1.0, n, st.r, it);
  m_->apply(cluster_, st.r, st.u, it);
  a_->spmv(cluster_, st.u, st.w, halos, it);

  FailureCursor cursor(schedule, opts_.phi > 0);
  double rnorm0 = 0.0;

  for (int k = 0;; ++k) {
    // Post the fused reduction, then hide it behind the work of this
    // iteration. CG posts gamma = r^T u, delta = w^T u before both operator
    // applications; CR's gamma = u^T w, delta = w^T m need m = M^{-1} w
    // first, so only the SpMV overlaps (the CR pipelining trade).
    PendingReduction red;
    if (cg) {
      red = ipipelined_dots(cluster_, st.r, st.u, st.w, it);
      m_->apply(cluster_, st.w, m, it);
    } else {
      m_->apply(cluster_, st.w, m, it);
      red = ipipelined_cr_dots(cluster_, st.r, st.u, st.w, m, it);
    }
    a_->spmv(cluster_, m, n, halos, it);
    if (opts_.phi > 0) {
      store_p_.record(st.p);
      store_u_.record(st.u);
      cluster_.charge(Phase::kRedundancy, redundancy_step_cost_);
    }

    // --- Failure injection point (backups of both generations in place). ---
    if (cursor.due(k)) {
      // The posted reduction completes among the survivors before the
      // reconstruction starts.
      red.wait();
      recover_due(cursor, k, b, x, st, res);
    }

    red.wait();
    const double gamma = red.value(0);
    const double delta = red.value(1);
    const double rr = red.value(2);

    if (k == 0) {
      rnorm0 = std::sqrt(rr);
      if (rnorm0 == 0.0) {
        res.converged = true;
        res.solver_residual_norm = 0.0;
        break;
      }
    } else {
      res.iterations = k;
      res.rel_residual = std::sqrt(rr) / rnorm0;
      res.solver_residual_norm = std::sqrt(rr);
      if (opts_.events.on_iteration) {
        IterationSnapshot snap;
        snap.iteration = res.iterations;
        snap.rel_residual = res.rel_residual;
        snap.x = &x;
        snap.r = &st.r;
        snap.z = &st.u;  // u is the preconditioned residual
        snap.p = &st.p;
        opts_.events.on_iteration(snap);
      }
      if (res.rel_residual <= opts_.pcg.rtol) {
        res.converged = true;
        break;
      }
    }
    if (k >= opts_.pcg.max_iterations) break;

    // Scalar recurrences (replicated on every node; identical for CG and CR,
    // only the inner products defining gamma/delta differ).
    double beta, alpha;
    if (k == 0) {
      beta = 0.0;
      if (!(delta > 0.0))
        throw DivergenceError(
            "CG breakdown: matrix is not positive definite along u");
      alpha = gamma / delta;
    } else {
      beta = gamma / st.gamma_prev;
      const double denom = delta - beta * gamma / st.alpha_prev;
      if (!(denom > 0.0))
        throw DivergenceError(
            "CG breakdown: matrix is not positive definite along p");
      alpha = gamma / denom;
    }

    // Vector recurrences of update k.
    xpby(cluster_, n, beta, st.z, it);  // z = n + beta z
    xpby(cluster_, m, beta, st.q, it);  // q = m + beta q
    xpby(cluster_, st.w, beta, st.s, it);  // s = w + beta s
    {
      // Keeping the previous p/u generations is a local pointer swap in a
      // real implementation; it costs no time.
      ClockPause pause(cluster_.clock());
      copy(cluster_, st.p, st.p_prev, it);
      copy(cluster_, st.u, u_prev, it);
    }
    xpby(cluster_, st.u, beta, st.p, it);   // p = u + beta p
    axpy(cluster_, alpha, st.p, x, it);     // x += alpha p
    axpy(cluster_, -alpha, st.s, st.r, it); // r -= alpha s
    axpy(cluster_, -alpha, st.q, st.u, it); // u -= alpha q
    axpy(cluster_, -alpha, st.z, st.w, it); // w -= alpha z
    st.gamma_prev = gamma;
    st.alpha_prev = alpha;
  }

  meter.finish(cluster_, *a_, b, x, res);
  return res;
}

engine::SolveReport PipelinedPcg::solve_deep(
    const DistVector& b, DistVector& x, const FailureSchedule& schedule) {
  RPCG_CHECK(cluster_.alive_count() == cluster_.num_nodes(),
             "all nodes must be alive at solve entry");
  const Partition& part = cluster_.partition();
  const engine::SolveMeter meter(cluster_);
  engine::SolveReport res;

  DeepState st(part, layout_);
  std::vector<std::vector<double>> halos;
  const Phase it = Phase::kIteration;
  const int d = layout_.steps;  // iterations each reduction stays in flight
  const int L = layout_.chain;

  // Startup: r/u/w as in depth 1, then the chains built directly from their
  // definitions (L preconditioner applications + L SpMVs, once).
  a_->spmv(cluster_, x, st.n[0], halos, it);  // n_1 as scratch
  copy(cluster_, b, st.r, it);
  axpy(cluster_, -1.0, st.n[0], st.r, it);
  m_->apply(cluster_, st.r, st.u, it);
  a_->spmv(cluster_, st.u, st.w, halos, it);
  m_->apply(cluster_, st.w, st.m[0], it);
  a_->spmv(cluster_, st.m[0], st.n[0], halos, it);
  for (int i = 1; i < L; ++i) {
    m_->apply(cluster_, st.n[static_cast<std::size_t>(i) - 1],
              st.m[static_cast<std::size_t>(i)], it);
    a_->spmv(cluster_, st.m[static_cast<std::size_t>(i)],
             st.n[static_cast<std::size_t>(i)], halos, it);
  }

  const std::vector<const DistVector*> basis = st.basis();
  const int entries = layout_.gram_entries();
  const auto gram_of = [entries](const PendingReduction& red) {
    std::vector<double> gram(static_cast<std::size_t>(entries));
    for (int i = 0; i < entries; ++i)
      gram[static_cast<std::size_t>(i)] = red.value(i);
    return gram;
  };

  FailureCursor cursor(schedule, opts_.phi > 0);
  double rnorm0 = 0.0;

  // Ring of the depth in-flight Gram reductions: H_k lands in slot
  // k % depth, displacing H_{k-depth} (waited d = depth-1 iterations ago).
  struct RingEntry {
    PendingReduction red;
    int iteration = -1;
  };
  std::vector<RingEntry> ring(static_cast<std::size_t>(layout_.depth));
  // The (beta, alpha) of the last d completed updates, oldest first — the
  // prediction replay input. Cleared on recovery (the flushed ring restarts).
  std::vector<IterationCoeffs> history;

  for (int k = 0;; ++k) {
    RingEntry& slot = ring[static_cast<std::size_t>(k % layout_.depth)];
    slot.red = ipipelined_gram(cluster_, basis, it);
    slot.iteration = k;
    if (opts_.phi > 0) {
      store_p_.record(st.p);
      store_u_.record(st.u);
      cluster_.charge(Phase::kRedundancy, redundancy_step_cost_);
    }

    // --- Failure injection point (backups of all generations in place). ---
    if (cursor.due(k)) {
      // Flush the pipeline: every in-flight reduction completes among the
      // survivors before reconstruction — predicting across a recovery would
      // mix pre- and post-failure bases.
      for (RingEntry& e : ring) {
        e.red.wait();
        e.iteration = -1;
      }
      recover_due(cursor, k, b, x, st, res);
      history.clear();
      // Re-post over the reconstructed basis; the next d iterations warm the
      // ring back up on direct (fully exposed) reductions.
      slot.red = ipipelined_gram(cluster_, basis, it);
      slot.iteration = k;
    }

    // Steady state: wait H_{k-d} (posted d iterations ago, hidden behind d
    // iterations of work) and *predict* this iteration's scalars from it.
    // Warmup (first d turns, and after every flush): wait our own H_k fully
    // exposed and read the scalars directly.
    PipelinedScalars sc;
    RingEntry& old_slot =
        ring[static_cast<std::size_t>((k + 1) % layout_.depth)];
    // A consistent scalar triple has gamma > 0, ||r||^2 > 0, and a positive
    // alpha denominator; anything else is roundoff drift, not the matrix.
    // The predicate reads only replicated reduced values, so every node —
    // and the sequential executor — branches identically.
    const auto inconsistent = [&](const PipelinedScalars& v) {
      if (!(v.gamma > 0.0) || !(v.rr > 0.0)) return true;
      const double beta_hat = v.gamma / st.gamma_prev;
      return !(v.delta - beta_hat * v.gamma / st.alpha_prev > 0.0);
    };
    bool restarted = false;
    if (old_slot.iteration == k - d &&
        static_cast<int>(history.size()) == d) {
      old_slot.red.wait();
      sc = predict_pipelined_scalars(layout_, gram_of(old_slot.red), history);
      // The predicted scalars carry an absolute error of order eps times the
      // d-iterations-old basis norms; near convergence the true values decay
      // below it and the prediction can turn inconsistent. Stall the
      // pipeline for this one iteration: wait our own just-posted reduction
      // (fully exposed, like a warmup turn) and read the scalars directly.
      // The ring itself stays consistent: H_{k-d+1}..H_{k-1} are consumed by
      // later iterations as usual.
      if (inconsistent(sc)) {
        slot.red.wait();
        sc = direct_pipelined_scalars(layout_, gram_of(slot.red));
      }
    } else {
      slot.red.wait();
      sc = direct_pipelined_scalars(layout_, gram_of(slot.red));
    }
    if (k > 0 && inconsistent(sc)) {
      // Even the direct scalars are inconsistent: the auxiliary recurrences
      // (s, q, z, the chains) have drifted away from the true residual — the
      // classical attainable-accuracy wall of deeper pipelines, which
      // Levonyak et al. counter with residual replacement. Restart: flush
      // the ring, rebuild r/u/w and the chains from x, and take a beta = 0
      // step — with beta = 0 every auxiliary recurrence below rebuilds
      // itself from the fresh vectors (s = w, q = m_1, ...), so conjugacy
      // restarts cleanly from the current iterate.
      for (RingEntry& e : ring) {
        e.red.wait();
        e.iteration = -1;
      }
      a_->spmv(cluster_, x, st.n[0], halos, it);
      copy(cluster_, b, st.r, it);
      axpy(cluster_, -1.0, st.n[0], st.r, it);
      m_->apply(cluster_, st.r, st.u, it);
      a_->spmv(cluster_, st.u, st.w, halos, it);
      m_->apply(cluster_, st.w, st.m[0], it);
      a_->spmv(cluster_, st.m[0], st.n[0], halos, it);
      for (int i = 1; i < L; ++i) {
        m_->apply(cluster_, st.n[static_cast<std::size_t>(i) - 1],
                  st.m[static_cast<std::size_t>(i)], it);
        a_->spmv(cluster_, st.m[static_cast<std::size_t>(i)],
                 st.n[static_cast<std::size_t>(i)], halos, it);
      }
      history.clear();
      slot.red = ipipelined_gram(cluster_, basis, it);
      slot.iteration = k;
      slot.red.wait();
      sc = direct_pipelined_scalars(layout_, gram_of(slot.red));
      restarted = true;
    }
    const double gamma = sc.gamma;
    const double delta = sc.delta;
    const double rr = sc.rr;

    if (k == 0) {
      rnorm0 = std::sqrt(rr);
      if (rnorm0 == 0.0) {
        res.converged = true;
        res.solver_residual_norm = 0.0;
        break;
      }
    } else {
      res.iterations = k;
      res.rel_residual = std::sqrt(rr) / rnorm0;
      res.solver_residual_norm = std::sqrt(rr);
      if (opts_.events.on_iteration) {
        IterationSnapshot snap;
        snap.iteration = res.iterations;
        snap.rel_residual = res.rel_residual;
        snap.x = &x;
        snap.r = &st.r;
        snap.z = &st.u;  // u is the preconditioned residual
        snap.p = &st.p;
        opts_.events.on_iteration(snap);
      }
      if (res.rel_residual <= opts_.pcg.rtol) {
        res.converged = true;
        break;
      }
    }
    if (k >= opts_.pcg.max_iterations) break;

    // Scalar recurrences (replicated; the predicted gamma/delta/rr are pure
    // functions of the reduced Gram matrix and the replicated history, so
    // every node computes identical values).
    double beta, alpha;
    if (k == 0 || restarted) {
      beta = 0.0;
      if (!(delta > 0.0))
        throw DivergenceError(
            "CG breakdown: matrix is not positive definite along u");
      alpha = gamma / delta;
    } else {
      beta = gamma / st.gamma_prev;
      const double denom = delta - beta * gamma / st.alpha_prev;
      if (!(denom > 0.0))
        throw DivergenceError(
            "CG breakdown: matrix is not positive definite along p");
      alpha = gamma / denom;
    }
    history.push_back({beta, alpha});
    if (static_cast<int>(history.size()) > d) history.erase(history.begin());

    // Vector recurrences of update k — the order predict_pipelined_scalars
    // replays in coefficient space, so keep them in lockstep.
    xpby(cluster_, st.w, beta, st.s, it);     // s = w + beta s
    xpby(cluster_, st.m[0], beta, st.q, it);  // q = m_1 + beta q
    xpby(cluster_, st.n[0], beta, st.z, it);  // z = n_1 + beta z
    for (int i = 0; i + 1 < L; ++i) {
      const auto iz = static_cast<std::size_t>(i);
      xpby(cluster_, st.m[iz + 1], beta, st.zeta[iz], it);
      xpby(cluster_, st.n[iz + 1], beta, st.xi[iz], it);
      axpy(cluster_, -alpha, st.zeta[iz], st.m[iz], it);
      axpy(cluster_, -alpha, st.xi[iz], st.n[iz], it);
    }
    {
      // Generation keeping is a pointer rotation in a real implementation.
      ClockPause pause(cluster_.clock());
      for (int g = opts_.depth - 1; g >= 1; --g)
        copy(cluster_, st.u_hist[static_cast<std::size_t>(g) - 1],
             st.u_hist[static_cast<std::size_t>(g)], it);
      copy(cluster_, st.u, st.u_hist[0], it);
      copy(cluster_, st.p, st.p_prev, it);
    }
    xpby(cluster_, st.u, beta, st.p, it);    // p = u + beta p
    axpy(cluster_, alpha, st.p, x, it);      // x += alpha p
    axpy(cluster_, -alpha, st.s, st.r, it);  // r -= alpha s
    axpy(cluster_, -alpha, st.q, st.u, it);  // u -= alpha q
    axpy(cluster_, -alpha, st.z, st.w, it);  // w -= alpha z
    st.gamma_prev = gamma;
    st.alpha_prev = alpha;

    // Fresh deepest chain pair — the one preconditioner application and one
    // SpMV of the iteration; the shallower rungs advanced by recurrence.
    m_->apply(cluster_,
              L == 1 ? st.w : st.n[static_cast<std::size_t>(L) - 2],
              st.m[static_cast<std::size_t>(L) - 1], it);
    a_->spmv(cluster_, st.m[static_cast<std::size_t>(L) - 1],
             st.n[static_cast<std::size_t>(L) - 1], halos, it);
  }

  meter.finish(cluster_, *a_, b, x, res);
  return res;
}

}  // namespace rpcg
