#include "sparse/amd.hpp"

#include <algorithm>
#include <numeric>

#include "util/check.hpp"

namespace rpcg {

namespace {

// Approximate minimum degree over a quotient graph of per-variable lists.
// Per pivot p: build Lp (the new element's variables), the |Le \ Lp| pass,
// the per-variable update (prune, absorb, mass-eliminate, re-degree), then
// supervariable detection through hash buckets, which compares only the
// variables of equal hash instead of every pair of Lp.
//
// The quotient graph: every index 0..n-1 is either a live supervariable
// (weight nv > 0), a variable absorbed into a supervariable (merged), an
// eliminated pivot that now names an *element* (the clique its elimination
// created), or a dead element absorbed by a newer one. Variable i's current
// fill row is  A[i] ∪ ⋃_{e ∈ E[i]} vars(e)  — the invariant the whole
// algorithm maintains.
struct QuotientGraph {
  std::vector<std::vector<Index>> a;  // variable-variable adjacency
  std::vector<std::vector<Index>> e;  // variable-element adjacency
  std::vector<std::vector<Index>> elem_vars;  // element -> member variables
  std::vector<Index> nv;              // supervariable weight; 0 = merged away
  std::vector<char> eliminated;       // variable became an element / was mass-eliminated
  std::vector<char> elem_alive;       // element not yet absorbed
  std::vector<std::vector<Index>> members;  // merged children, absorption order
};

// Intrusive doubly-linked degree buckets for O(1) minimum-degree pivoting.
struct DegreeLists {
  std::vector<Index> head, next, prev;
  Index mindeg = 0;

  explicit DegreeLists(Index n)
      : head(static_cast<std::size_t>(n) + 1, -1),
        next(static_cast<std::size_t>(n), -1),
        prev(static_cast<std::size_t>(n), -1) {}

  void insert(Index i, Index d) {
    auto du = static_cast<std::size_t>(d);
    next[static_cast<std::size_t>(i)] = head[du];
    prev[static_cast<std::size_t>(i)] = -1;
    if (head[du] != -1) prev[static_cast<std::size_t>(head[du])] = i;
    head[du] = i;
    mindeg = std::min(mindeg, d);
  }
  void remove(Index i, Index d) {
    const Index nx = next[static_cast<std::size_t>(i)];
    const Index pv = prev[static_cast<std::size_t>(i)];
    if (nx != -1) prev[static_cast<std::size_t>(nx)] = pv;
    if (pv != -1)
      next[static_cast<std::size_t>(pv)] = nx;
    else
      head[static_cast<std::size_t>(d)] = nx;
  }
  Index pop_min() {
    while (head[static_cast<std::size_t>(mindeg)] == -1) ++mindeg;
    const Index p = head[static_cast<std::size_t>(mindeg)];
    remove(p, mindeg);
    return p;
  }
};

}  // namespace

std::vector<Index> amd_ordering(const CsrMatrix& mat) {
  RPCG_CHECK(mat.rows() == mat.cols(), "AMD needs a square matrix");
  const Index n = mat.rows();
  if (n == 0) return {};

  QuotientGraph g;
  g.a.resize(static_cast<std::size_t>(n));
  g.e.resize(static_cast<std::size_t>(n));
  g.elem_vars.resize(static_cast<std::size_t>(n));
  g.nv.assign(static_cast<std::size_t>(n), 1);
  g.eliminated.assign(static_cast<std::size_t>(n), 0);
  g.elem_alive.assign(static_cast<std::size_t>(n), 0);
  g.members.resize(static_cast<std::size_t>(n));

  // Symmetrized pattern without the diagonal (AMD orders the graph, so an
  // unsymmetric input pattern is treated as A + Aᵀ).
  for (Index i = 0; i < n; ++i) {
    for (const Index j : mat.row_cols(i)) {
      if (j == i) continue;
      g.a[static_cast<std::size_t>(i)].push_back(j);
      g.a[static_cast<std::size_t>(j)].push_back(i);
    }
  }
  for (Index i = 0; i < n; ++i) {
    auto& ai = g.a[static_cast<std::size_t>(i)];
    std::sort(ai.begin(), ai.end());
    ai.erase(std::unique(ai.begin(), ai.end()), ai.end());
  }

  std::vector<Index> degree(static_cast<std::size_t>(n));
  DegreeLists lists(n);
  for (Index i = 0; i < n; ++i) {
    degree[static_cast<std::size_t>(i)] =
        static_cast<Index>(g.a[static_cast<std::size_t>(i)].size());
    lists.insert(i, degree[static_cast<std::size_t>(i)]);
  }

  // Stamped workspaces (reset by bumping the stamp, not by clearing).
  std::vector<Index> mark(static_cast<std::size_t>(n), 0);
  std::vector<Index> wstamp(static_cast<std::size_t>(n), 0);
  std::vector<Index> wval(static_cast<std::size_t>(n), 0);
  Index stamp = 0;

  std::vector<Index> order_seq;  // eliminated supervariable representatives
  order_seq.reserve(static_cast<std::size_t>(n));
  std::vector<Index> lp;  // vars of the pivot element, rebuilt per pivot
  // Supervariable detection's hash of each var and its buckets: a bucket's
  // head counts only while its stamp is the pivot's.
  std::vector<Index> hash(static_cast<std::size_t>(n), 0);
  std::vector<Index> bucket_head(static_cast<std::size_t>(n), -1);
  std::vector<Index> bucket_stamp(static_cast<std::size_t>(n), 0);
  std::vector<Index> bucket_next(static_cast<std::size_t>(n), -1);

  Index eliminated_weight = 0;
  while (eliminated_weight < n) {
    const Index p = lists.pop_min();
    const auto pu = static_cast<std::size_t>(p);

    // --- Build Lp = A[p] ∪ ⋃_{e ∈ E[p]} vars(e), live vars only. ---
    ++stamp;
    mark[pu] = stamp;
    lp.clear();
    Index lpw = 0;  // Σ nv over Lp
    for (const Index v : g.a[pu]) {
      const auto vu = static_cast<std::size_t>(v);
      if (g.nv[vu] > 0 && mark[vu] != stamp) {
        mark[vu] = stamp;
        lp.push_back(v);
        lpw += g.nv[vu];
      }
    }
    for (const Index e : g.e[pu]) {
      const auto eu = static_cast<std::size_t>(e);
      if (!g.elem_alive[eu]) continue;
      for (const Index v : g.elem_vars[eu]) {
        const auto vu = static_cast<std::size_t>(v);
        if (g.nv[vu] > 0 && v != p && mark[vu] != stamp) {
          mark[vu] = stamp;
          lp.push_back(v);
          lpw += g.nv[vu];
        }
      }
      // Every var of e is now covered by the new element p: e is absorbed.
      g.elem_alive[eu] = 0;
      g.elem_vars[eu].clear();
      g.elem_vars[eu].shrink_to_fit();
    }

    // p becomes element p.
    eliminated_weight += g.nv[pu];
    g.eliminated[pu] = 1;
    g.elem_alive[pu] = 1;
    g.elem_vars[pu] = lp;
    g.a[pu].clear();
    g.a[pu].shrink_to_fit();
    g.e[pu].clear();
    g.e[pu].shrink_to_fit();
    order_seq.push_back(p);

    if (lp.empty()) continue;

    // --- |Le \ Lp| pass: wval[e] ends as the weight of e's vars outside
    // Lp. Every live var of e that lies in Lp is visited exactly once below
    // (list invariant: v ∈ vars(e) ⟺ e ∈ E[v]), so initializing wval[e] to
    // e's live weight and subtracting nv[i] per visit computes the bound. ---
    for (const Index i : lp) {
      for (const Index e : g.e[static_cast<std::size_t>(i)]) {
        const auto eu = static_cast<std::size_t>(e);
        if (!g.elem_alive[eu]) continue;
        if (wstamp[eu] != stamp) {
          // Recompute e's live weight, pruning dead vars while at it.
          auto& ev = g.elem_vars[eu];
          Index wt = 0;
          std::size_t keep = 0;
          for (const Index v : ev) {
            if (g.nv[static_cast<std::size_t>(v)] > 0) {
              ev[keep++] = v;
              wt += g.nv[static_cast<std::size_t>(v)];
            }
          }
          ev.resize(keep);
          wval[eu] = wt;
          wstamp[eu] = stamp;
        }
        wval[eu] -= g.nv[static_cast<std::size_t>(i)];
      }
    }

    // --- Per-variable update: prune lists, absorb subsumed elements,
    // approximate the external degree, mass-eliminate, re-bucket. ---
    for (const Index i : lp) {
      const auto iu = static_cast<std::size_t>(i);
      if (g.nv[iu] <= 0) continue;  // merged by an earlier i this round

      // E[i]: drop dead elements; aggressively absorb any e with
      // Le ⊆ Lp (wval == 0) — its fill is covered by element p.
      auto& ei = g.e[iu];
      std::size_t keep = 0;
      Index esum = 0;  // Σ wval[e] for the surviving elements
      for (const Index e : ei) {
        const auto eu = static_cast<std::size_t>(e);
        if (!g.elem_alive[eu]) continue;
        if (wval[eu] == 0 && wstamp[eu] == stamp) {
          g.elem_alive[eu] = 0;
          g.elem_vars[eu].clear();
          g.elem_vars[eu].shrink_to_fit();
          continue;
        }
        esum += wval[eu];
        ei[keep++] = e;
      }
      ei.resize(keep);
      ei.push_back(p);
      std::sort(ei.begin(), ei.end());

      // A[i]: drop dead vars and vars inside Lp (covered by element p now).
      auto& ai = g.a[iu];
      keep = 0;
      Index asum = 0;
      for (const Index v : ai) {
        const auto vu = static_cast<std::size_t>(v);
        if (g.nv[vu] <= 0 || mark[vu] == stamp || v == p) continue;
        asum += g.nv[vu];
        ai[keep++] = v;
      }
      ai.resize(keep);

      // Mass elimination: i's fill row is contained in vars(p), so
      // eliminating i right now adds no fill beyond what p already created.
      if (ai.empty() && ei.size() == 1) {
        lists.remove(i, degree[iu]);
        eliminated_weight += g.nv[iu];
        g.eliminated[iu] = 1;
        g.nv[iu] = 0;
        ei.clear();
        order_seq.push_back(i);
        continue;
      }

      // Approximate external degree (Amestoy–Davis–Duff bound), clamped by
      // the exact-degree upper bounds that keep the approximation monotone.
      Index d = asum + (lpw - g.nv[iu]) + esum;
      d = std::min(d, degree[iu] + lpw - g.nv[iu]);
      d = std::min(d, n - eliminated_weight - g.nv[iu]);
      d = std::max(d, Index{0});
      lists.remove(i, degree[iu]);
      degree[iu] = d;
      lists.insert(i, d);
    }

    // --- Supervariable detection: hash the pruned (A, E) lists of the
    // surviving Lp vars; equal lists mean identical quotient-graph rows,
    // i.e. identical fill futures — merge them into one supervariable.
    // Var i goes to bucket hash(i) mod n, each bucket listed in Lp order, so
    // walking i's bucket after i meets every later var of equal hash in Lp
    // order: the merges of comparing every pair of Lp, in the same order,
    // for the cost of the pairs that share a bucket. ---
    for (auto it = lp.rbegin(); it != lp.rend(); ++it) {
      const auto iu = static_cast<std::size_t>(*it);
      if (g.nv[iu] <= 0) continue;
      Index h = static_cast<Index>(g.a[iu].size()) +
                37 * static_cast<Index>(g.e[iu].size());
      for (const Index v : g.a[iu]) h = (h * 31 + v) & 0x7fffffff;
      for (const Index e : g.e[iu]) h = (h * 31 + e) & 0x7fffffff;
      hash[iu] = h;
      const auto b = static_cast<std::size_t>(h % n);
      if (bucket_stamp[b] != stamp) {
        bucket_stamp[b] = stamp;
        bucket_head[b] = -1;
      }
      bucket_next[iu] = bucket_head[b];
      bucket_head[b] = *it;
    }
    for (const Index i : lp) {
      const auto iu = static_cast<std::size_t>(i);
      if (g.nv[iu] <= 0) continue;
      for (Index j = bucket_next[iu]; j != -1;
           j = bucket_next[static_cast<std::size_t>(j)]) {
        const auto ju = static_cast<std::size_t>(j);
        if (hash[ju] != hash[iu] || g.nv[ju] <= 0) continue;
        if (g.a[iu] != g.a[ju] || g.e[iu] != g.e[ju]) continue;
        // Merge j into i (i precedes j in Lp order — deterministic).
        lists.remove(j, degree[ju]);
        g.nv[iu] += g.nv[ju];
        g.nv[ju] = 0;
        g.a[ju].clear();
        g.a[ju].shrink_to_fit();
        g.e[ju].clear();
        g.e[ju].shrink_to_fit();
        g.members[iu].push_back(j);
        // i's weighted degree shrank relative to its bucket position only
        // through nv bookkeeping, not its external structure; leave the
        // bucket untouched (the approximation stays an upper bound).
      }
    }
  }

  // --- Expand supervariables: each representative is followed by the
  // variables it absorbed, recursively, in absorption order. ---
  std::vector<Index> perm;
  perm.reserve(static_cast<std::size_t>(n));
  std::vector<Index> dfs;
  for (const Index rep : order_seq) {
    dfs.push_back(rep);
    while (!dfs.empty()) {
      const Index v = dfs.back();
      dfs.pop_back();
      perm.push_back(v);
      const auto& kids = g.members[static_cast<std::size_t>(v)];
      for (auto it = kids.rbegin(); it != kids.rend(); ++it) dfs.push_back(*it);
    }
  }
  RPCG_CHECK(static_cast<Index>(perm.size()) == n,
             "AMD lost variables during elimination");
  return perm;
}

}  // namespace rpcg
