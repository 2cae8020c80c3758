#include "sparse/amd.hpp"

#include <algorithm>
#include <span>

#include "util/check.hpp"

namespace rpcg {

namespace {

// Approximate minimum degree over a quotient graph held in flat arrays.
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
//
// A[i] (variables) and E[i] (elements) sit at the same offset of two
// arrays, each with room for i's initial degree: |A[i]| + |E[i]| never
// grows, since the update that adds p to E[i] also drops p from A[i] or an
// element p absorbed from E[i]. Both lists stay sorted. The elements'
// variable lists share one arena, appended once per pivot and compacted
// when it fills.
struct QuotientGraph {
  std::vector<Index> slot;        // offset of A[i] in a and of E[i] in e
  std::vector<Index> a, alen;     // variable-variable adjacency
  std::vector<Index> e, elen;     // variable-element adjacency
  std::vector<Index> vars;        // arena of the elements' variable lists
  std::vector<Index> vstart, vlen;
  Index vused = 0;
  std::vector<Index> nv;          // supervariable weight; 0 = merged away
  std::vector<char> elem_alive;   // element not yet absorbed
  // Merged variables as child lists in absorption order.
  std::vector<Index> first_child, last_child, next_sibling;

  // A[i], E[i] and vars(el) as they stand.
  std::span<Index> a_list(Index i) { return slice(a, slot, alen, i); }
  std::span<Index> e_list(Index i) { return slice(e, slot, elen, i); }
  std::span<Index> vars_list(Index el) { return slice(vars, vstart, vlen, el); }
  static std::span<Index> slice(std::vector<Index>& arr,
                                const std::vector<Index>& start,
                                const std::vector<Index>& len, Index i) {
    const auto iu = static_cast<std::size_t>(i);
    return {arr.data() + start[iu], static_cast<std::size_t>(len[iu])};
  }
  Index capacity(Index i) const {
    return slot[static_cast<std::size_t>(i) + 1] - slot[static_cast<std::size_t>(i)];
  }

  // Stores element p's variables at the end of the arena; when it is full,
  // first moves the live elements' lists (`order` lists every element in
  // creation order, which is arena order, among variables that never
  // became one) to its front, without the merged variables every reader
  // skips. That always makes room: each entry left is a live variable of
  // a live element, which the variable's E slot lists too, so the lists
  // hold at most the initial degrees' sum, and Lp at most n more.
  void append_element(Index p, const std::vector<Index>& lp,
                      const std::vector<Index>& order) {
    const auto need = static_cast<Index>(lp.size());
    if (vused + need > static_cast<Index>(vars.size())) {
      Index out = 0;
      for (const Index el : order) {
        const auto eu = static_cast<std::size_t>(el);
        if (!elem_alive[eu]) continue;
        const Index from = vstart[eu];
        vstart[eu] = out;
        for (Index k = from; k < from + vlen[eu]; ++k) {
          const Index v = vars[static_cast<std::size_t>(k)];
          if (nv[static_cast<std::size_t>(v)] > 0) vars[static_cast<std::size_t>(out++)] = v;
        }
        vlen[eu] = out - vstart[eu];
      }
      vused = out;
      RPCG_CHECK(vused + need <= static_cast<Index>(vars.size()),
                 "AMD: the element lists outgrew their arena");
    }
    const auto pu = static_cast<std::size_t>(p);
    vstart[pu] = vused;
    vlen[pu] = need;
    std::copy(lp.begin(), lp.end(), vars.begin() + vused);
    vused += need;
  }

  void absorb(Index el) {
    elem_alive[static_cast<std::size_t>(el)] = 0;
    vlen[static_cast<std::size_t>(el)] = 0;
  }

  void merge(Index i, Index j) {
    const auto iu = static_cast<std::size_t>(i);
    const auto ju = static_cast<std::size_t>(j);
    nv[iu] += nv[ju];
    nv[ju] = 0;
    alen[ju] = 0;
    elen[ju] = 0;
    if (first_child[iu] == -1)
      first_child[iu] = j;
    else
      next_sibling[static_cast<std::size_t>(last_child[iu])] = j;
    last_child[iu] = j;
  }
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
  return amd_ordering(symmetric_pattern(mat));
}

std::vector<Index> amd_ordering(const SymmetricPattern& pattern) {
  const Index n = pattern.rows();
  if (n == 0) return {};
  const auto nu = static_cast<std::size_t>(n);

  QuotientGraph g;
  g.slot = pattern.ptr;
  g.a = pattern.adj;
  g.e.resize(g.a.size());
  g.alen.resize(nu);
  g.elen.assign(nu, 0);
  g.vars.resize(g.a.size() + nu);
  g.vstart.assign(nu, 0);
  g.vlen.assign(nu, 0);
  g.nv.assign(nu, 1);
  g.elem_alive.assign(nu, 0);
  g.first_child.assign(nu, -1);
  g.last_child.assign(nu, -1);
  g.next_sibling.assign(nu, -1);

  std::vector<Index> degree(nu);
  DegreeLists lists(n);
  for (Index i = 0; i < n; ++i) {
    const auto iu = static_cast<std::size_t>(i);
    g.alen[iu] = g.capacity(i);
    degree[iu] = g.alen[iu];
    lists.insert(i, degree[iu]);
  }

  // Stamped workspaces (reset by bumping the stamp, not by clearing).
  std::vector<Index> mark(nu, 0);
  std::vector<Index> wstamp(nu, 0);
  std::vector<Index> wval(nu, 0);
  Index stamp = 0;

  std::vector<Index> order_seq;  // eliminated supervariable representatives
  order_seq.reserve(nu);
  std::vector<Index> lp;  // vars of the pivot element, rebuilt per pivot
  // Supervariable detection's hash of each var and its buckets: a bucket's
  // head counts only while its stamp is the pivot's.
  std::vector<Index> hash(nu, 0);
  std::vector<Index> bucket_head(nu, -1);
  std::vector<Index> bucket_stamp(nu, 0);
  std::vector<Index> bucket_next(nu, -1);

  Index eliminated_weight = 0;
  while (eliminated_weight < n) {
    const Index p = lists.pop_min();
    const auto pu = static_cast<std::size_t>(p);

    // --- Build Lp = A[p] ∪ ⋃_{e ∈ E[p]} vars(e), live vars only. ---
    ++stamp;
    mark[pu] = stamp;
    lp.clear();
    Index lpw = 0;  // Σ nv over Lp
    for (const Index v : g.a_list(p)) {
      const auto vu = static_cast<std::size_t>(v);
      if (g.nv[vu] > 0 && mark[vu] != stamp) {
        mark[vu] = stamp;
        lp.push_back(v);
        lpw += g.nv[vu];
      }
    }
    for (const Index e : g.e_list(p)) {
      if (!g.elem_alive[static_cast<std::size_t>(e)]) continue;
      for (const Index v : g.vars_list(e)) {
        const auto vu = static_cast<std::size_t>(v);
        if (g.nv[vu] > 0 && v != p && mark[vu] != stamp) {
          mark[vu] = stamp;
          lp.push_back(v);
          lpw += g.nv[vu];
        }
      }
      // Every var of e is now covered by the new element p: e is absorbed.
      g.absorb(e);
    }

    // p becomes element p.
    eliminated_weight += g.nv[pu];
    g.elem_alive[pu] = 1;
    g.append_element(p, lp, order_seq);
    g.alen[pu] = 0;
    g.elen[pu] = 0;
    order_seq.push_back(p);

    if (lp.empty()) continue;

    // --- |Le \ Lp| pass: wval[e] ends as the weight of e's vars outside
    // Lp. Every live var of e that lies in Lp is visited exactly once below
    // (list invariant: v ∈ vars(e) ⟺ e ∈ E[v]), so initializing wval[e] to
    // e's live weight and subtracting nv[i] per visit computes the bound. ---
    for (const Index i : lp) {
      for (const Index e : g.e_list(i)) {
        const auto eu = static_cast<std::size_t>(e);
        if (!g.elem_alive[eu]) continue;
        if (wstamp[eu] != stamp) {
          // Recompute e's live weight, pruning dead vars while at it.
          const auto ev = g.vars_list(e);
          Index wt = 0;
          Index keep = 0;
          for (const Index v : ev) {
            if (g.nv[static_cast<std::size_t>(v)] > 0) {
              ev[static_cast<std::size_t>(keep++)] = v;
              wt += g.nv[static_cast<std::size_t>(v)];
            }
          }
          g.vlen[eu] = keep;
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

      // A[i]: drop dead vars and vars inside Lp (covered by element p now).
      const auto ai = g.a_list(i);
      Index keep = 0;
      Index asum = 0;
      for (const Index v : ai) {
        const auto vu = static_cast<std::size_t>(v);
        if (g.nv[vu] <= 0 || mark[vu] == stamp || v == p) continue;
        asum += g.nv[vu];
        ai[static_cast<std::size_t>(keep++)] = v;
      }
      g.alen[iu] = keep;

      // E[i]: drop dead elements; aggressively absorb any e with
      // Le ⊆ Lp (wval == 0) — its fill is covered by element p. Then p
      // joins at its sorted place.
      const auto ei = g.e_list(i);
      keep = 0;
      Index esum = 0;  // Σ wval[e] for the surviving elements
      for (const Index e : ei) {
        const auto eu = static_cast<std::size_t>(e);
        if (!g.elem_alive[eu]) continue;
        if (wval[eu] == 0 && wstamp[eu] == stamp) {
          g.absorb(e);
          continue;
        }
        esum += wval[eu];
        ei[static_cast<std::size_t>(keep++)] = e;
      }
      RPCG_CHECK(g.alen[iu] + keep + 1 <= g.capacity(i),
                 "AMD: a variable's lists outgrew its initial degree");
      g.elen[iu] = keep + 1;
      const auto grown = g.e_list(i);
      auto at = grown.end() - 1;
      for (; at != grown.begin() && *(at - 1) > p; --at) *at = *(at - 1);
      *at = p;

      // Mass elimination: i's fill row is contained in vars(p), so
      // eliminating i right now adds no fill beyond what p already created.
      if (g.alen[iu] == 0 && g.elen[iu] == 1) {
        lists.remove(i, degree[iu]);
        eliminated_weight += g.nv[iu];
        g.nv[iu] = 0;
        g.elen[iu] = 0;
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
      Index h = g.alen[iu] + 37 * g.elen[iu];
      for (const Index v : g.a_list(*it)) h = (h * 31 + v) & 0x7fffffff;
      for (const Index e : g.e_list(*it)) h = (h * 31 + e) & 0x7fffffff;
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
        if (!std::ranges::equal(g.a_list(i), g.a_list(j)) ||
            !std::ranges::equal(g.e_list(i), g.e_list(j)))
          continue;
        // Merge j into i (i precedes j in Lp order — deterministic).
        // i's weighted degree shrank relative to its bucket position only
        // through nv bookkeeping, not its external structure; leave the
        // bucket untouched (the approximation stays an upper bound).
        lists.remove(j, degree[ju]);
        g.merge(i, j);
      }
    }
  }

  // --- Expand supervariables: each representative is followed by the
  // variables it absorbed, recursively, in absorption order (a preorder
  // walk: a child's own children come before its next sibling). ---
  std::vector<Index> perm;
  perm.reserve(nu);
  std::vector<Index> dfs;
  for (const Index rep : order_seq) {
    dfs.push_back(rep);
    while (!dfs.empty()) {
      const Index v = dfs.back();
      dfs.pop_back();
      perm.push_back(v);
      const auto vu = static_cast<std::size_t>(v);
      if (g.next_sibling[vu] != -1) dfs.push_back(g.next_sibling[vu]);
      if (g.first_child[vu] != -1) dfs.push_back(g.first_child[vu]);
    }
  }
  RPCG_CHECK(static_cast<Index>(perm.size()) == n,
             "AMD lost variables during elimination");
  return perm;
}

}  // namespace rpcg
