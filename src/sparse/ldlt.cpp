#include "sparse/ldlt.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>

#include "sparse/amd.hpp"
#include "sparse/ldlt_lanes.hpp"
#include "sparse/reorder.hpp"
#include "util/check.hpp"
#include "util/lanes.hpp"

namespace rpcg {

namespace {

// Supernodes narrower than this stay on the scalar column sweep: the blocked
// kernel's per-block bookkeeping (row-list indirection, panel strides, the
// backward accumulator) only pays off once a panel is wide enough to stream.
// Perfect bands detect only singleton supernodes and thus keep the exact
// PR 3 code path; fill-heavy AMD-ordered factors pack their wide trailing
// supernodes and solve them dense.
constexpr Index kMinPanelWidth = 8;

// Factors doing at least this many flops per stored L entry
// (factor_flops / l_nnz) run the supernodal numeric kernel; sparser ones
// keep the up-looking kernel, whose scattered per-entry updates cost less
// than a supernode's bookkeeping when the dense blocks are small. Set at the
// measured crossover: on 72 node blocks of M2 and M4-M8 (scales 12-32,
// 32-64 nodes, 250-1230 rows; Release, one core of an x86-64 Xeon) the
// supernodal/up-looking time ratio had a median of 1.16 at 15-20 flops per
// entry, 0.89 at 20-25, 1.03 at 25-30 (M4 blocks up to 1.38), 0.83 at 30-35
// (none above 1.05) and 0.5-0.8 from 35 on; the m2-recover A_FF (800 flops
// per entry) factors in 0.24x the up-looking time.
constexpr double kMinSupernodalFlopsPerEntry = 30.0;

// Blocking of the supernodal kernel. A supernode is factored kGroup
// columns at a time; every update into a group — from earlier supernodes and
// from the supernode's own columns left of it — runs while the group's
// columns sit in L2. An update accumulates register tiles of rows x kTile
// target columns over up to kChunk source columns, the tile's source rows
// staying in L1 across the group's column tiles.
constexpr Index kTile = 4;
constexpr Index kChunk = 64;
constexpr Index kGroup = 128;
// Updates from fewer source columns than this skip the tiles: one fused
// pass per target column costs less than packing their multipliers.
constexpr Index kMinTiledSources = 4;
// Rows of a register tile W lanes wide: two Vec2 at W = 2; at W = 4 and 8,
// two Vec4 or one Vec8, the height that measured fastest for both.
template <int W>
constexpr Index kTileRows = W == 2 ? kTile : 8;

// Up-looking numeric LDLᵀ, row by row: row k of L is the sparse triangular
// solve against the rows above it, its pattern the row subtree of the
// elimination tree. Appends each row's entries to their columns of lp/li/lx
// and fills d; returns false on a pivot that is not positive.
bool factor_up_looking(const CsrMatrix& a, const std::vector<Index>& parent,
                       const std::vector<Index>& lp, std::vector<Index>& li,
                       std::vector<double>& lx, std::vector<double>& d) {
  const Index n = a.rows();
  std::vector<double> y(static_cast<std::size_t>(n), 0.0);
  std::vector<Index> pattern(static_cast<std::size_t>(n));
  std::vector<Index> flag(static_cast<std::size_t>(n), -1);
  std::vector<Index> lnz(static_cast<std::size_t>(n), 0);

  for (Index k = 0; k < n; ++k) {
    Index top = n;
    flag[static_cast<std::size_t>(k)] = k;
    const auto cols = a.row_cols(k);
    const auto vals = a.row_vals(k);
    for (std::size_t p = 0; p < cols.size(); ++p) {
      Index i = cols[p];
      if (i > k) continue;
      y[static_cast<std::size_t>(i)] += vals[p];
      Index len = 0;
      for (; flag[static_cast<std::size_t>(i)] != k; i = parent[static_cast<std::size_t>(i)]) {
        pattern[static_cast<std::size_t>(len++)] = i;
        flag[static_cast<std::size_t>(i)] = k;
      }
      // Reverse the freshly discovered chain onto the pattern stack so the
      // final pattern [top, n) is in ascending (topological) order.
      while (len > 0) pattern[static_cast<std::size_t>(--top)] = pattern[static_cast<std::size_t>(--len)];
    }

    double dk = y[static_cast<std::size_t>(k)];
    y[static_cast<std::size_t>(k)] = 0.0;
    for (; top < n; ++top) {
      const Index i = pattern[static_cast<std::size_t>(top)];
      const double yi = y[static_cast<std::size_t>(i)];
      y[static_cast<std::size_t>(i)] = 0.0;
      const Index p2 = lp[static_cast<std::size_t>(i)] + lnz[static_cast<std::size_t>(i)];
      for (Index p = lp[static_cast<std::size_t>(i)]; p < p2; ++p)
        y[static_cast<std::size_t>(li[static_cast<std::size_t>(p)])] -=
            lx[static_cast<std::size_t>(p)] * yi;
      const double lki = yi / d[static_cast<std::size_t>(i)];
      dk -= lki * yi;
      li[static_cast<std::size_t>(p2)] = k;
      lx[static_cast<std::size_t>(p2)] = lki;
      ++lnz[static_cast<std::size_t>(i)];
    }
    if (!(dk > 0.0)) return false;  // not positive definite (or NaN)
    d[static_cast<std::size_t>(k)] = dk;
  }
  return true;
}

// Left-looking supernodal numeric LDLᵀ over the exact supernodes of the
// symbolic pass, writing L and D in place into the column storage the
// up-looking kernel fills, so the solves cannot tell the kernels apart.
//
// A supernode of columns [c0, c1) has one row list S = (c0, ..., c1 - 1, R),
// R the rows below it, and column c0 + jj holds exactly the rows of S after
// position jj. So column c0 + jj keeps the entry of row S[p], p > jj, at
// lx[base(c0 + jj, jj) + p], base(j, jj) = lp[j] - jj - 1, and S[p] itself is
// li[base(c0, 0) + p]: every supernode is a dense trapezoid addressed by list
// position, with no copy and no padding. (A base can be -1, so it stays an
// integer offset; only offsets of stored entries become pointers.)
//
// Supernodes are factored in column order. Each gathers its columns of A,
// then, a group of columns at a time, takes the updates of every earlier
// supernode with rows in the group (found through a linked list keyed on
// each source's next target supernode) and of its own columns left of the
// group, and factors the group. Updates scatter through rel_, the target's
// row -> list position map. The order of every update is fixed, so the
// factor is deterministic; all state lives in the instance, and no scratch
// grows beyond O(n).
class SupernodalKernel {
 public:
  /// `lanes`: the width of the update tiles, 2, 4 or 8 (at most
  /// host_lanes()).
  SupernodalKernel(const std::vector<Index>& lp, std::vector<Index>& li,
                   std::vector<double>& lx, std::vector<double>& d, int lanes)
      : lp_(lp.data()),
        li_(li),
        lx_(lx.data()),
        d_(d.data()),
        n_(static_cast<Index>(d.size())),
        lanes_(lanes),
        rel_(d.size()),
        w_(static_cast<std::size_t>(kGroup * kChunk)) {}

  /// Factors A; returns false on a pivot that is not positive (or NaN).
  /// `count` holds the sub-diagonal count of every column of L.
  bool run(const CsrMatrix& a, const std::vector<Index>& parent,
           const std::vector<Index>& count);

 private:
  /// A supernode as the source of an update: first column, list length.
  struct Source {
    Index c0;
    Index nrows;
  };

  void fill_patterns(const CsrMatrix& a, const std::vector<Index>& parent);
  /// Offset of list position 0 in column j, the jj-th of its supernode.
  [[nodiscard]] Index base(Index j, Index jj) const { return lp_[j] - jj - 1; }
  [[nodiscard]] Index row_at(Source src, Index p) const {
    return li_[static_cast<std::size_t>(base(src.c0, 0) + p)];
  }
  void update(Source src, Index ka, Index kb, Index c_lo, Index c_hi);
  template <Index KN>
  void update_narrow(Source src, Index ka, Index c_lo, Index c_hi);
  // The tiled update W lanes wide. It and everything it calls are inlined
  // into their caller, so the wrappers below build all of it for their ISA.
  template <int W>
  [[gnu::always_inline]] inline void update_tiled(Source src, Index ka,
                                                  Index kb, Index c_lo,
                                                  Index c_hi);
#if defined(__x86_64__)
  __attribute__((target("avx2"))) void update_avx2(Source src, Index ka,
                                                   Index kb, Index c_lo,
                                                   Index c_hi);
  __attribute__((target("avx512f"))) void update_avx512(Source src, Index ka,
                                                       Index kb, Index c_lo,
                                                       Index c_hi);
#endif
  template <int W, Index R>
  [[gnu::always_inline]] inline void row_tiles(Source src, Index k0, Index k1,
                                               Index p, Index c_lo,
                                               Index c_hi, const Index* tcol);
  template <int W, Index R>
  [[gnu::always_inline]] inline void tile(Source src, Index k0, Index k1,
                                          Index p, const Vec2* w,
                                          double (&acc)[R][kTile]) const;
  template <Index R>
  [[gnu::always_inline]] inline void scatter(Source src, Index p, Index nc,
                                             const Index* tcol,
                                             const double (&acc)[R][kTile]);
  bool factor_columns(Source self, Index jb, Index je);
  bool factor_block(Index c0, Index nrows, Index jb, Index je);

  const Index* lp_;
  std::vector<Index>& li_;
  double* lx_;
  double* d_;
  Index n_;
  int lanes_;
  std::vector<Index> rel_;  // row -> position in the target's row list
  std::vector<Vec2> w_;     // d_kk L(c, kk) of one group and chunk, twice
};

void SupernodalKernel::fill_patterns(const CsrMatrix& a,
                                     const std::vector<Index>& parent) {
  // Row k of L is the row subtree of A's row k; appending k to each of its
  // columns leaves every column's rows ascending.
  std::vector<Index> next(lp_, lp_ + n_);
  std::vector<Index> flag(static_cast<std::size_t>(n_), -1);
  for (Index k = 0; k < n_; ++k) {
    flag[static_cast<std::size_t>(k)] = k;
    for (Index i : a.row_cols(k)) {
      if (i >= k) continue;
      for (; flag[static_cast<std::size_t>(i)] != k;
           i = parent[static_cast<std::size_t>(i)]) {
        li_[static_cast<std::size_t>(next[static_cast<std::size_t>(i)]++)] = k;
        flag[static_cast<std::size_t>(i)] = k;
      }
    }
  }
}

// acc[r][c] = sum over source columns kk in [k0, k1) of L(p + r, kk) w[kk][c]
// (w packs kTile multipliers per kk, each twice). Every entry is one lane
// that starts at 0.0 and adds its products with kk ascending, whatever W
// and R, so the tile's shape never changes a bit. Spelled out in vectors
// because the auto-vectorizer picks the kk loop and gathers across columns
// instead. One row runs its kTile columns as lanes; taller tiles run R / W
// vectors of rows against each column's broadcast multiplier.
template <int W, Index R>
void SupernodalKernel::tile(Source src, Index k0, Index k1, Index p,
                            const Vec2* w, double (&acc)[R][kTile]) const {
  // Column kk + 1 keeps list position p nrows - kk - 2 entries after
  // column kk does.
  Index off = base(src.c0 + k0, k0) + p;
  Index stride = src.nrows - k0 - 2;
  if constexpr (R == 1) {
    Vec2 s01 = {0.0, 0.0};
    Vec2 s23 = {0.0, 0.0};
    for (Index kk = k0; kk < k1; ++kk, w += kTile, off += stride--) {
      const Vec2 v = {lx_[off], lx_[off]};
      s01 += v * Vec2{w[0][0], w[1][0]};
      s23 += v * Vec2{w[2][0], w[3][0]};
    }
    acc[0][0] = s01[0];
    acc[0][1] = s01[1];
    acc[0][2] = s23[0];
    acc[0][3] = s23[1];
  } else {
    static_assert(R % W == 0 && kTile == 4, "whole vectors of rows");
    using V = Lanes<W>;
    constexpr Index kRowVecs = R / W;
    V sum[kRowVecs][kTile] = {};
    for (Index kk = k0; kk < k1; ++kk, w += kTile, off += stride--) {
      V rows[kRowVecs];
      for (Index v = 0; v < kRowVecs; ++v)
        std::memcpy(&rows[v], lx_ + off + v * W, sizeof(V));
      for (Index c = 0; c < kTile; ++c) {
        for (Index v = 0; v < kRowVecs; ++v) {
          // A Vec2 multiplier is its own broadcast; wider ones broadcast
          // one copy.
          if constexpr (W == 2)
            sum[v][c] += rows[v] * w[c];
          else
            sum[v][c] += rows[v] * w[c][0];
        }
      }
    }
    for (Index v = 0; v < kRowVecs; ++v)
      for (Index lane = 0; lane < W; ++lane)
        for (Index c = 0; c < kTile; ++c)
          acc[v * W + lane][c] = sum[v][c][lane];
  }
}

// Subtracts a tile of source positions [p, p + R) from its nc target
// columns tcol: entries below a column's diagonal from its slot
// for the row, the diagonal from the pivot; entries above it do not exist.
template <Index R>
void SupernodalKernel::scatter(Source src, Index p, Index nc,
                               const Index* tcol,
                               const double (&acc)[R][kTile]) {
  Index tp[R] = {};
  for (Index r = 0; r < R; ++r) tp[r] = rel_[row_at(src, p + r)];
  for (Index c = 0; c < nc; ++c) {
    const Index tc = tcol[c];
    const Index tc_pos = rel_[tc];
    const Index tbase = base(tc, tc_pos);
    for (Index r = 0; r < R; ++r) {
      if (tp[r] > tc_pos)
        lx_[tbase + tp[r]] -= acc[r][c];
      else if (tp[r] == tc_pos)
        d_[tc] -= acc[r][c];
    }
  }
}

// Subtracts sum_kk L(p, kk) d_kk L(c, kk) over the source's columns kk in
// [ka, kb) from the target entry of every list position pair p >= c of the
// source, c in [c_lo, c_hi) (at most kGroup target columns): row S[p] of
// column S[c], its pivot when p == c.
void SupernodalKernel::update(Source src, Index ka, Index kb, Index c_lo,
                              Index c_hi) {
  static_assert(kMinTiledSources == 4, "narrow updates take 1 to 3 columns");
  switch (kb - ka) {
    case 1: update_narrow<1>(src, ka, c_lo, c_hi); return;
    case 2: update_narrow<2>(src, ka, c_lo, c_hi); return;
    case 3: update_narrow<3>(src, ka, c_lo, c_hi); return;
    default: break;
  }
  switch (lanes_) {
#if defined(__x86_64__)
    case 8: update_avx512(src, ka, kb, c_lo, c_hi); return;
    case 4: update_avx2(src, ka, kb, c_lo, c_hi); return;
#endif
    default: update_tiled<2>(src, ka, kb, c_lo, c_hi); return;
  }
}

#if defined(__x86_64__)
// The only code of the library built for AVX2 and AVX-512F, run only when
// host_lanes() has found the ISA.
__attribute__((target("avx2"))) void SupernodalKernel::update_avx2(
    Source src, Index ka, Index kb, Index c_lo, Index c_hi) {
  update_tiled<4>(src, ka, kb, c_lo, c_hi);
}

__attribute__((target("avx512f"))) void SupernodalKernel::update_avx512(
    Source src, Index ka, Index kb, Index c_lo, Index c_hi) {
  update_tiled<8>(src, ka, kb, c_lo, c_hi);
}
#endif

// update() from at least kMinTiledSources source columns, in tiles of
// kTileRows<W> rows; the rows left below the last of them take 4-row and
// then 1-row tiles.
template <int W>
void SupernodalKernel::update_tiled(Source src, Index ka, Index kb,
                                    Index c_lo, Index c_hi) {
  constexpr Index kRows = kTileRows<W>;
  Index tcol[kGroup] = {};
  for (Index c = c_lo; c < c_hi; ++c) tcol[c - c_lo] = row_at(src, c);
  for (Index k0 = ka; k0 < kb; k0 += kChunk) {
    const Index k1 = std::min(k0 + kChunk, kb);
    Vec2* w = w_.data();
    for (Index cb = c_lo; cb < c_hi; cb += kTile) {
      for (Index kk = k0; kk < k1; ++kk, w += kTile) {
        const Index col = base(src.c0 + kk, kk);
        const double dk = d_[src.c0 + kk];
        for (Index c = 0; c < kTile; ++c) {
          const double v = cb + c < c_hi ? dk * lx_[col + cb + c] : 0.0;
          w[c] = Vec2{v, v};
        }
      }
    }
    Index p = c_lo;
    for (; p + kRows <= src.nrows; p += kRows)
      row_tiles<W, kRows>(src, k0, k1, p, c_lo, c_hi, tcol);
    if constexpr (kRows > kTile) {
      for (; p + kTile <= src.nrows; p += kTile)
        row_tiles<4, kTile>(src, k0, k1, p, c_lo, c_hi, tcol);
    }
    for (; p < src.nrows; ++p) row_tiles<W, 1>(src, k0, k1, p, c_lo, c_hi, tcol);
  }
}

// The tiles of source positions [p, p + R) against every column tile of
// [c_lo, c_hi) that holds an entry of theirs. Row and column tiles both
// start at c_lo, so a row tile meets a column tile on the diagonal or
// below it; scatter() drops the products above the diagonal that a tile
// taller than kTile computes.
template <int W, Index R>
void SupernodalKernel::row_tiles(Source src, Index k0, Index k1, Index p,
                                 Index c_lo, Index c_hi, const Index* tcol) {
  for (Index cb = c_lo; cb < p + R && cb < c_hi; cb += kTile) {
    double acc[R][kTile] = {};
    tile<W, R>(src, k0, k1, p, w_.data() + (cb - c_lo) * (k1 - k0), acc);
    scatter<R>(src, p, std::min(kTile, c_hi - cb), tcol + (cb - c_lo), acc);
  }
}

// update() for KN < kMinTiledSources source columns starting at ka: per
// target column, one pass sums every source column's contribution to each
// row before the scatter.
template <Index KN>
void SupernodalKernel::update_narrow(Source src, Index ka, Index c_lo,
                                     Index c_hi) {
  Index col[KN] = {};
  double dk[KN] = {};
  for (Index kk = 0; kk < KN; ++kk) {
    col[kk] = base(src.c0 + ka + kk, ka + kk);
    dk[kk] = d_[src.c0 + ka + kk];
  }
  const Index* li = li_.data();
  const Index rows = base(src.c0, 0);  // row of position p: li[rows + p]
  for (Index c = c_lo; c < c_hi; ++c) {
    const Index tc = li[rows + c];
    const Index tc_pos = rel_[tc];
    const Index tbase = base(tc, tc_pos);
    double t[KN] = {};
    for (Index kk = 0; kk < KN; ++kk) {
      t[kk] = dk[kk] * lx_[col[kk] + c];
      d_[tc] -= t[kk] * lx_[col[kk] + c];
    }
    for (Index p = c + 1; p < src.nrows; ++p) {
      double sum = 0.0;
      for (Index kk = 0; kk < KN; ++kk) sum += t[kk] * lx_[col[kk] + p];
      lx_[tbase + rel_[li[rows + p]]] -= sum;
    }
  }
}

// Factors columns [jb, je) of a supernode once every column left of jb has
// updated them: halves recursively, the left half updating the right one
// through the blocked kernel, down to single tiles.
bool SupernodalKernel::factor_columns(Source self, Index jb, Index je) {
  if (je - jb <= kTile) return factor_block(self.c0, self.nrows, jb, je);
  const Index mid = jb + std::max(kTile, (je - jb) / (2 * kTile) * kTile);
  if (!factor_columns(self, jb, mid)) return false;
  update(self, jb, mid, mid, je);
  return factor_columns(self, mid, je);
}

// Factors columns [jb, je) of a supernode starting at c0 once every column
// left of jb has updated them: the within-tile left-looking updates, then
// each pivot check and the division by it.
bool SupernodalKernel::factor_block(Index c0, Index nrows, Index jb,
                                    Index je) {
  for (Index jj = jb; jj < je; ++jj) {
    const Index col = base(c0 + jj, jj);
    for (Index kk = jb; kk < jj; ++kk) {
      const Index src = base(c0 + kk, kk);
      const double ljk = lx_[src + jj];
      const double t = d_[c0 + kk] * ljk;
      d_[c0 + jj] -= t * ljk;
      for (Index p = jj + 1; p < nrows; ++p) lx_[col + p] -= t * lx_[src + p];
    }
    const double dj = d_[c0 + jj];
    if (!(dj > 0.0)) return false;  // not positive definite (or NaN)
    for (Index p = jj + 1; p < nrows; ++p) lx_[col + p] /= dj;
  }
  return true;
}

bool SupernodalKernel::run(const CsrMatrix& a, const std::vector<Index>& parent,
                           const std::vector<Index>& count) {
  fill_patterns(a, parent);

  // Exact supernodes: column j + 1 joins column j's iff it is j's parent and
  // j's pattern is {j + 1} plus j + 1's.
  std::vector<Index> first;
  for (Index j = 0; j < n_; ++j) {
    if (j == 0 || parent[static_cast<std::size_t>(j - 1)] != j ||
        count[static_cast<std::size_t>(j - 1)] != count[static_cast<std::size_t>(j)] + 1)
      first.push_back(j);
  }
  first.push_back(n_);
  const auto ns = static_cast<Index>(first.size()) - 1;
  std::vector<Index> sn_of(static_cast<std::size_t>(n_));
  for (Index s = 0; s < ns; ++s)
    std::fill(sn_of.begin() + first[static_cast<std::size_t>(s)],
              sn_of.begin() + first[static_cast<std::size_t>(s) + 1], s);
  const auto source = [&](Index s) {
    const Index c0 = first[static_cast<std::size_t>(s)];
    return Source{c0, count[static_cast<std::size_t>(c0)] + 1};
  };

  // head[t] lists the supernodes whose next rows to apply lie in t; next[s]
  // is the first list position of s not yet applied.
  std::vector<Index> head(static_cast<std::size_t>(ns), -1);
  std::vector<Index> link(static_cast<std::size_t>(ns), -1);
  std::vector<Index> next(static_cast<std::size_t>(ns), 0);
  const auto enqueue = [&](Index s, Index pos) {
    const Index t = sn_of[static_cast<std::size_t>(row_at(source(s), pos))];
    next[static_cast<std::size_t>(s)] = pos;
    link[static_cast<std::size_t>(s)] = head[static_cast<std::size_t>(t)];
    head[static_cast<std::size_t>(t)] = s;
  };
  std::vector<Index> pending;  // the supernodes updating the current one

  for (Index s = 0; s < ns; ++s) {
    const Source self = source(s);
    const Index c0 = self.c0;
    const Index w = first[static_cast<std::size_t>(s) + 1] - c0;
    for (Index p = 0; p < w; ++p) rel_[static_cast<std::size_t>(c0 + p)] = p;
    for (Index p = w; p < self.nrows; ++p)
      rel_[static_cast<std::size_t>(row_at(self, p))] = p;

    // Gather A's lower triangle of the supernode's columns.
    for (Index jj = 0; jj < w; ++jj) {
      const Index j = c0 + jj;
      const Index col = base(j, jj);
      const auto cols = a.row_cols(j);
      const auto vals = a.row_vals(j);
      for (std::size_t q = 0; q < cols.size(); ++q) {
        if (cols[q] == j)
          d_[j] += vals[q];
        else if (cols[q] > j)
          lx_[col + rel_[static_cast<std::size_t>(cols[q])]] += vals[q];
      }
    }

    pending.clear();
    for (Index k = head[static_cast<std::size_t>(s)]; k != -1;
         k = link[static_cast<std::size_t>(k)])
      pending.push_back(k);

    for (Index jb = 0; jb < w; jb += kGroup) {
      const Index je = std::min(jb + kGroup, w);
      // Earlier supernodes' rows in [c0 + jb, c0 + je), each the next run
      // of its row list.
      for (const Index k : pending) {
        const Source src = source(k);
        const Index p1 = next[static_cast<std::size_t>(k)];
        Index p2 = p1;
        while (p2 < src.nrows && row_at(src, p2) < c0 + je) ++p2;
        const Index kw = first[static_cast<std::size_t>(k) + 1] - src.c0;
        if (p2 > p1) update(src, 0, kw, p1, p2);
        next[static_cast<std::size_t>(k)] = p2;
      }
      // The supernode's own columns left of the group, in one blocked pass.
      if (jb > 0) update(self, 0, jb, jb, je);
      if (!factor_columns(self, jb, je)) return false;
    }
    for (const Index k : pending)
      if (next[static_cast<std::size_t>(k)] < source(k).nrows)
        enqueue(k, next[static_cast<std::size_t>(k)]);
    if (self.nrows > w) enqueue(s, w);
  }
  return true;
}

// The scalar column sweeps of a unit lower-triangular L stored by columns,
// over a vector b being solved in place. Both walk column j's entries in
// storage order: forward() scatters b[j] into the rows below; backward()
// subtracts them from s, the column's starting value (b[j], or b[j] / d[j]
// when it runs the D solve too), through one chain and stores b[j].
struct ColumnSweeps {
  const Index* lp;
  const Index* li;
  const double* lx;
  double* b;

  void forward(Index j) const {
    const double bj = b[j];
    for (Index p = lp[j]; p < lp[j + 1]; ++p) b[li[p]] -= lx[p] * bj;
  }
  void backward(Index j, double s) const {
    for (Index p = lp[j]; p < lp[j + 1]; ++p) s -= lx[p] * b[li[p]];
    b[j] = s;
  }
};

}  // namespace

const char* to_string(LdltOrdering o) {
  switch (o) {
    case LdltOrdering::kNatural: return "natural";
    case LdltOrdering::kRcm: return "rcm";
    case LdltOrdering::kAmd: return "amd";
  }
  return "?";
}

Index SparseLdlt::symbolic_nnz(const CsrMatrix& a) {
  RPCG_CHECK(a.rows() == a.cols(), "LDLt needs a square matrix");
  const Index n = a.rows();
  std::vector<Index> parent(static_cast<std::size_t>(n), -1);
  std::vector<Index> flag(static_cast<std::size_t>(n), -1);
  Index nnz = 0;
  for (Index k = 0; k < n; ++k) {
    flag[static_cast<std::size_t>(k)] = k;
    for (Index i : a.row_cols(k)) {
      if (i >= k) continue;
      for (; flag[static_cast<std::size_t>(i)] != k;
           i = parent[static_cast<std::size_t>(i)]) {
        if (parent[static_cast<std::size_t>(i)] == -1)
          parent[static_cast<std::size_t>(i)] = k;
        ++nnz;
        flag[static_cast<std::size_t>(i)] = k;
      }
    }
  }
  return nnz;
}

std::optional<SparseLdlt> SparseLdlt::factor(const CsrMatrix& a,
                                             bool supernodal) {
  return factor_lanes(a, supernodal, host_lanes());
}

std::optional<SparseLdlt> detail::LdltLanes::factor(const CsrMatrix& a,
                                                   int lanes) {
  if ((lanes != 2 && lanes != 4 && lanes != 8) || lanes > host_lanes()) {
    throw std::invalid_argument("LDLt update tiles cannot run " +
                                std::to_string(lanes) +
                                " lanes wide on this host");
  }
  return SparseLdlt::factor_lanes(a, true, lanes);
}

std::optional<SparseLdlt> SparseLdlt::factor_lanes(const CsrMatrix& a,
                                                   bool supernodal,
                                                   int lanes) {
  RPCG_CHECK(a.rows() == a.cols(), "LDLt needs a square matrix");
  const Index n = a.rows();
  SparseLdlt f;
  f.n_ = n;

  // --- Symbolic pass: elimination tree and per-column counts of L. ---
  std::vector<Index> parent(static_cast<std::size_t>(n), -1);
  std::vector<Index> flag(static_cast<std::size_t>(n), -1);
  std::vector<Index> lnz(static_cast<std::size_t>(n), 0);
  for (Index k = 0; k < n; ++k) {
    flag[static_cast<std::size_t>(k)] = k;
    for (Index i : a.row_cols(k)) {
      if (i >= k) continue;
      // Walk from i up the partially built elimination tree, marking the
      // path: every vertex on the path gains an entry in column "vertex" of
      // row k of L.
      for (; flag[static_cast<std::size_t>(i)] != k; i = parent[static_cast<std::size_t>(i)]) {
        if (parent[static_cast<std::size_t>(i)] == -1)
          parent[static_cast<std::size_t>(i)] = k;
        ++lnz[static_cast<std::size_t>(i)];
        flag[static_cast<std::size_t>(i)] = k;
      }
    }
  }
  f.lp_.assign(static_cast<std::size_t>(n) + 1, 0);
  for (Index j = 0; j < n; ++j) {
    const Index c = lnz[static_cast<std::size_t>(j)];
    f.lp_[static_cast<std::size_t>(j) + 1] = f.lp_[static_cast<std::size_t>(j)] + c;
    // A column with c sub-diagonal entries costs c^2 + 3c flops: its t-th
    // entry takes a 2t-flop sparse dot plus a division and two madds. Every
    // partial sum is an integer below 2^53, so the total is exact.
    f.factor_flops_ += static_cast<double>(c) * static_cast<double>(c + 3);
  }
  f.li_.assign(static_cast<std::size_t>(f.lp_.back()), 0);
  f.lx_.assign(static_cast<std::size_t>(f.lp_.back()), 0.0);
  f.d_.assign(static_cast<std::size_t>(n), 0.0);

  // --- Numeric pass: supernodal when the factor is dense enough per entry
  // for its supernodes to pay off, else up-looking. ---
  const auto l_nnz = static_cast<double>(f.lp_.back());
  const bool use_supernodal =
      supernodal && l_nnz > 0.0 &&
      f.factor_flops_ >= kMinSupernodalFlopsPerEntry * l_nnz;
  const bool ok =
      use_supernodal
          ? SupernodalKernel(f.lp_, f.li_, f.lx_, f.d_, lanes).run(a, parent, lnz)
          : factor_up_looking(a, parent, f.lp_, f.li_, f.lx_, f.d_);
  if (!ok) return std::nullopt;
  if (supernodal) f.build_supernodes();
  return f;
}

void SparseLdlt::build_supernodes() {
  // --- Detect maximal exact supernodes: column j extends the supernode of
  // column j+1 iff its pattern is {j+1} ∪ pattern(j+1), i.e. its first
  // sub-diagonal entry is j+1 and the rest matches column j+1 exactly. Row
  // indices within a column are ascending (the numeric pass appends rows in
  // k order), so the match is a plain range compare. ---
  std::vector<Index> first;  // supernode boundaries
  if (n_ > 0) first.push_back(0);
  num_supernodes_ = 0;
  max_sn_width_ = 1;
  for (Index j = 0; j + 1 < n_; ++j) {
    const auto p0 = static_cast<std::size_t>(lp_[static_cast<std::size_t>(j)]);
    const auto p1 = static_cast<std::size_t>(lp_[static_cast<std::size_t>(j) + 1]);
    const auto q1 = static_cast<std::size_t>(lp_[static_cast<std::size_t>(j) + 2]);
    const bool merges = (p1 - p0 == q1 - p1 + 1) && p1 > p0 &&
                        li_[p0] == j + 1 &&
                        std::equal(li_.begin() + static_cast<std::ptrdiff_t>(p0) + 1,
                                   li_.begin() + static_cast<std::ptrdiff_t>(p1),
                                   li_.begin() + static_cast<std::ptrdiff_t>(p1));
    if (!merges) first.push_back(j + 1);
  }
  if (n_ > 0) first.push_back(n_);
  num_supernodes_ = std::max<Index>(static_cast<Index>(first.size()) - 1, 0);
  for (std::size_t s = 0; s + 1 < first.size(); ++s)
    max_sn_width_ = std::max(max_sn_width_, first[s + 1] - first[s]);

  // --- Pack the wide supernodes: per block a dense strict-lower triangle
  // (column-major, packed) and a dense row-major panel over the shared
  // sub-diagonal rows (the pattern of the block's last column). Exact
  // supernodes mean every packed slot holds a genuine L entry — zero
  // padding, so l_nnz() and the flop accounting are format-independent. ---
  for (std::size_t s = 0; s + 1 < first.size(); ++s) {
    const Index c0 = first[s];
    const Index c1 = first[s + 1];
    if (c1 - c0 < kMinPanelWidth) continue;
    blk_first_.push_back(c0);
    blk_last_.push_back(c1);
  }
  if (blk_first_.empty()) return;

  const std::size_t nblk = blk_first_.size();
  blk_rowptr_.assign(nblk + 1, 0);
  blk_triptr_.assign(nblk + 1, 0);
  blk_panelptr_.assign(nblk + 1, 0);
  for (std::size_t s = 0; s < nblk; ++s) {
    const Index c0 = blk_first_[s];
    const Index c1 = blk_last_[s];
    const Index w = c1 - c0;
    const Index nrows =
        lp_[static_cast<std::size_t>(c1)] - lp_[static_cast<std::size_t>(c1 - 1)];
    blk_rowptr_[s + 1] = blk_rowptr_[s] + nrows;
    blk_triptr_[s + 1] = blk_triptr_[s] + w * (w - 1) / 2;
    blk_panelptr_[s + 1] = blk_panelptr_[s] + nrows * w;
  }
  blk_rows_.assign(static_cast<std::size_t>(blk_rowptr_.back()), 0);
  blk_tri_.assign(static_cast<std::size_t>(blk_triptr_.back()), 0.0);
  blk_panel_.assign(static_cast<std::size_t>(blk_panelptr_.back()), 0.0);

  for (std::size_t s = 0; s < nblk; ++s) {
    const Index c0 = blk_first_[s];
    const Index c1 = blk_last_[s];
    const Index w = c1 - c0;
    const Index nrows = blk_rowptr_[s + 1] - blk_rowptr_[s];
    // Shared sub-diagonal rows = pattern of the block's last column.
    Index* rows = blk_rows_.data() + blk_rowptr_[s];
    const Index last_p0 = lp_[static_cast<std::size_t>(c1 - 1)];
    for (Index r = 0; r < nrows; ++r)
      rows[r] = li_[static_cast<std::size_t>(last_p0 + r)];
    double* tri = blk_tri_.data() + blk_triptr_[s];
    double* panel = blk_panel_.data() + blk_panelptr_[s];
    for (Index jj = 0; jj < w; ++jj) {
      const Index col = c0 + jj;
      const Index p0 = lp_[static_cast<std::size_t>(col)];
      // Column col holds (w - 1 - jj) within-supernode entries (rows
      // col+1..c1-1) followed by the nrows shared sub-diagonal entries.
      for (Index i = 0; i < w - 1 - jj; ++i) *tri++ = lx_[static_cast<std::size_t>(p0 + i)];
      for (Index r = 0; r < nrows; ++r)
        panel[r * w + jj] = lx_[static_cast<std::size_t>(p0 + (w - 1 - jj) + r)];
    }
  }
}

void SparseLdlt::solve_in_place_simplicial(std::span<double> b) const {
  // L y = b; then D z = y and Lᵀ x = z in one backward pass: b[j] is
  // divided just before column j's backward chain reads it.
  const ColumnSweeps l{lp_.data(), li_.data(), lx_.data(), b.data()};
  const double* d = d_.data();
  for (Index j = 0; j < n_; ++j) l.forward(j);
  for (Index j = n_ - 1; j >= 0; --j) l.backward(j, l.b[j] / d[j]);
}

void SparseLdlt::solve_in_place_supernodal(std::span<double> b) const {
  // Per-block accumulator for the backward panel sweep; thread-local so
  // shared factors (cache entries) can be solved from concurrent threads.
  static thread_local std::vector<double> acc;
  const auto nblk = static_cast<Index>(blk_first_.size());
  const ColumnSweeps l{lp_.data(), li_.data(), lx_.data(), b.data()};

  // L y = b: packed blocks run a dense unit-lower triangle solve followed by
  // a row-major panel update (each panel row is one contiguous dot product);
  // the columns between blocks keep the scalar sweep.
  Index j = 0;
  Index bi = 0;
  while (j < n_) {
    if (bi < nblk && blk_first_[static_cast<std::size_t>(bi)] == j) {
      const auto s = static_cast<std::size_t>(bi);
      const Index c0 = j;
      const Index w = blk_last_[s] - c0;
      const double* tri = blk_tri_.data() + blk_triptr_[s];
      for (Index jj = 0; jj < w; ++jj) {
        const double bj = b[static_cast<std::size_t>(c0 + jj)];
        for (Index i = jj + 1; i < w; ++i)
          b[static_cast<std::size_t>(c0 + i)] -= (*tri++) * bj;
      }
      const Index nrows = blk_rowptr_[s + 1] - blk_rowptr_[s];
      const Index* rows = blk_rows_.data() + blk_rowptr_[s];
      const double* panel = blk_panel_.data() + blk_panelptr_[s];
      for (Index r = 0; r < nrows; ++r) {
        double dot = 0.0;
        const double* prow = panel + r * w;
        for (Index jj = 0; jj < w; ++jj)
          dot += prow[jj] * b[static_cast<std::size_t>(c0 + jj)];
        b[static_cast<std::size_t>(rows[r])] -= dot;
      }
      j = blk_last_[s];
      ++bi;
    } else {
      l.forward(j);
      ++j;
    }
  }
  // D z = y.
  for (Index i = 0; i < n_; ++i) b[static_cast<std::size_t>(i)] /= d_[static_cast<std::size_t>(i)];
  // Lᵀ x = z: walk backwards; packed blocks accumulate their panel
  // contributions per row (contiguous panel access again), then run the
  // transposed dense triangle solve.
  j = n_ - 1;
  bi = nblk - 1;
  while (j >= 0) {
    if (bi >= 0 && blk_last_[static_cast<std::size_t>(bi)] == j + 1) {
      const auto s = static_cast<std::size_t>(bi);
      const Index c0 = blk_first_[s];
      const Index w = blk_last_[s] - c0;
      const Index nrows = blk_rowptr_[s + 1] - blk_rowptr_[s];
      const Index* rows = blk_rows_.data() + blk_rowptr_[s];
      const double* panel = blk_panel_.data() + blk_panelptr_[s];
      if (nrows > 0) {
        acc.assign(static_cast<std::size_t>(w), 0.0);
        for (Index r = 0; r < nrows; ++r) {
          const double xr = b[static_cast<std::size_t>(rows[r])];
          const double* prow = panel + r * w;
          for (Index jj = 0; jj < w; ++jj)
            acc[static_cast<std::size_t>(jj)] += prow[jj] * xr;
        }
        for (Index jj = 0; jj < w; ++jj)
          b[static_cast<std::size_t>(c0 + jj)] -= acc[static_cast<std::size_t>(jj)];
      }
      const double* tri = blk_tri_.data() + blk_triptr_[s];
      for (Index jj = w - 1; jj >= 0; --jj) {
        // Column jj's triangle entries (rows jj+1..w-1) are contiguous.
        const double* tcol = tri + (jj * (2 * w - jj - 1)) / 2;
        double sum = b[static_cast<std::size_t>(c0 + jj)];
        for (Index i = jj + 1; i < w; ++i)
          sum -= tcol[i - jj - 1] * b[static_cast<std::size_t>(c0 + i)];
        b[static_cast<std::size_t>(c0 + jj)] = sum;
      }
      j = c0 - 1;
      --bi;
    } else {
      l.backward(j, l.b[j]);
      --j;
    }
  }
}

void SparseLdlt::solve_in_place(std::span<double> b) const {
  RPCG_CHECK(static_cast<Index>(b.size()) == n_, "solve size mismatch");
  if (supernodal())
    solve_in_place_supernodal(b);
  else
    solve_in_place_simplicial(b);
}

void SparseLdlt::solve(std::span<const double> b, std::span<double> x) const {
  RPCG_CHECK(b.size() == x.size(), "solve size mismatch");
  std::copy(b.begin(), b.end(), x.begin());
  solve_in_place(x);
}

void SparseLdlt::solve_pair_in_place(const SparseLdlt& f, std::span<double> x,
                                     const SparseLdlt& g, std::span<double> y) {
  if (f.supernodal() || g.supernodal()) {
    f.solve_in_place(x);
    g.solve_in_place(y);
    return;
  }
  RPCG_CHECK(static_cast<Index>(x.size()) == f.n_ &&
                 static_cast<Index>(y.size()) == g.n_,
             "solve size mismatch");
  // solve_in_place_simplicial on both, column j of f then column j of g:
  // the two chains are independent, so each hides the other's latency.
  const ColumnSweeps lf{f.lp_.data(), f.li_.data(), f.lx_.data(), x.data()};
  const ColumnSweeps lg{g.lp_.data(), g.li_.data(), g.lx_.data(), y.data()};
  const double* fd = f.d_.data();
  const double* gd = g.d_.data();
  const Index both = std::min(f.n_, g.n_);
  for (Index j = 0; j < both; ++j) {
    lf.forward(j);
    lg.forward(j);
  }
  for (Index j = both; j < f.n_; ++j) lf.forward(j);
  for (Index j = both; j < g.n_; ++j) lg.forward(j);
  for (Index j = f.n_ - 1; j >= both; --j) lf.backward(j, lf.b[j] / fd[j]);
  for (Index j = g.n_ - 1; j >= both; --j) lg.backward(j, lg.b[j] / gd[j]);
  for (Index j = both - 1; j >= 0; --j) {
    lf.backward(j, lf.b[j] / fd[j]);
    lg.backward(j, lg.b[j] / gd[j]);
  }
}

std::optional<ReorderedLdlt> ReorderedLdlt::factor(const CsrMatrix& a) {
  // Candidate selection by symbolic fill. A later candidate must beat the
  // incumbent by a small margin (not just win a near-tie): equal-fill
  // factors solve equally many entries, but the earlier orderings have the
  // friendlier memory layout (natural needs no permute at all, RCM clusters
  // the factor along a band), so e.g. M1-style banded blocks where AMD and
  // RCM land within a handful of entries must keep RCM. Deterministic, and
  // never more fill than plain factor(a).
  Index best_nnz = SparseLdlt::symbolic_nnz(a);
  LdltOrdering best = LdltOrdering::kNatural;
  std::vector<Index> best_perm;
  std::optional<CsrMatrix> best_mat;

  const auto consider = [&](LdltOrdering ordering, std::vector<Index> perm) {
    bool identity = true;
    for (Index i = 0; i < a.rows(); ++i) {
      if (perm[static_cast<std::size_t>(i)] != i) {
        identity = false;
        break;
      }
    }
    if (identity) return;
    CsrMatrix permuted = a.permuted_symmetric(perm);
    const Index nnz = SparseLdlt::symbolic_nnz(permuted);
    // 2% improvement threshold; switching orderings for less cannot pay
    // back the locality it gives up.
    if (nnz < best_nnz - best_nnz / 50) {
      best_nnz = nnz;
      best = ordering;
      best_perm = std::move(perm);
      best_mat = std::move(permuted);
    }
  };
  consider(LdltOrdering::kRcm, rcm_ordering(a));
  consider(LdltOrdering::kAmd, amd_ordering(a));

  auto f = SparseLdlt::factor(best_mat.has_value() ? *best_mat : a);
  if (!f.has_value()) return std::nullopt;
  return ReorderedLdlt(std::move(*f), std::move(best_perm), best);
}

std::optional<ReorderedLdlt> ReorderedLdlt::factor_with(const CsrMatrix& a,
                                                        LdltOrdering ordering,
                                                        bool supernodal) {
  std::vector<Index> perm;
  switch (ordering) {
    case LdltOrdering::kNatural: break;
    case LdltOrdering::kRcm: perm = rcm_ordering(a); break;
    case LdltOrdering::kAmd: perm = amd_ordering(a); break;
  }
  bool identity = true;
  for (Index i = 0; i < a.rows() && identity; ++i)
    identity = perm.empty() || perm[static_cast<std::size_t>(i)] == i;
  std::optional<SparseLdlt> f;
  if (identity) {
    perm.clear();
    f = SparseLdlt::factor(a, supernodal);
  } else {
    f = SparseLdlt::factor(a.permuted_symmetric(perm), supernodal);
  }
  if (!f.has_value()) return std::nullopt;
  // An identity RCM/AMD permutation is honestly the natural ordering.
  // (Resolved before the constructor call: its perm parameter is taken by
  // value, so reading perm.empty() as a sibling argument would race the
  // move in unspecified evaluation order.)
  const LdltOrdering reported =
      identity ? LdltOrdering::kNatural : ordering;
  return ReorderedLdlt(std::move(*f), std::move(perm), reported);
}

std::span<double> ReorderedLdlt::permute_in(std::span<const double> b,
                                            std::span<double> x,
                                            std::span<double> work) const {
  RPCG_CHECK(b.size() == x.size(), "solve size mismatch");
  if (perm_.empty()) {
    std::copy(b.begin(), b.end(), x.begin());
    return x;
  }
  // B = P A Pᵀ with B-row i = A-row perm[i]: solve B (P x) = P b.
  for (std::size_t i = 0; i < b.size(); ++i)
    work[i] = b[static_cast<std::size_t>(perm_[i])];
  return work;
}

void ReorderedLdlt::permute_out(std::span<const double> work,
                                std::span<double> x) const {
  if (perm_.empty()) return;
  for (std::size_t i = 0; i < x.size(); ++i)
    x[static_cast<std::size_t>(perm_[i])] = work[i];
}

void ReorderedLdlt::solve(std::span<const double> b, std::span<double> x) const {
  // The workspace is thread-local (not a member) so shared instances — e.g.
  // FactorizationCache entries — can be solved from concurrent threads.
  static thread_local std::vector<double> scratch;
  scratch.resize(b.size());
  const std::span<double> w = permute_in(b, x, scratch);
  ldlt_.solve_in_place(w);
  permute_out(w, x);
}

void ReorderedLdlt::solve_pair(const ReorderedLdlt& f, std::span<const double> bf,
                               std::span<double> xf, const ReorderedLdlt& g,
                               std::span<const double> bg, std::span<double> xg) {
  static thread_local std::vector<double> scratch;
  scratch.resize(bf.size() + bg.size());
  const std::span<double> work(scratch);
  const std::span<double> wf = f.permute_in(bf, xf, work.first(bf.size()));
  const std::span<double> wg = g.permute_in(bg, xg, work.subspan(bf.size()));
  SparseLdlt::solve_pair_in_place(f.ldlt_, wf, g.ldlt_, wg);
  f.permute_out(wf, xf);
  g.permute_out(wg, xg);
}

}  // namespace rpcg
