#include "sim/collectives.hpp"

#include <algorithm>
#include <array>
#include <utility>
#include <vector>

#include "util/check.hpp"
#include "util/lanes.hpp"
#include "util/thread_pool.hpp"

namespace rpcg {

namespace {

// Charges a BLAS-1 operation with `flops_per_element` work per owned element.
void charge_blas1(Cluster& cluster, double flops_per_element, Phase phase) {
  const Partition& part = cluster.partition();
  double mx = 0.0;
  for (NodeId i = 0; i < part.num_nodes(); ++i)
    mx = std::max(mx, static_cast<double>(part.size(i)));
  cluster.clock().advance(phase,
                          cluster.comm().compute_cost(flops_per_element * mx));
}

// ---- The Gram kernel of ipipelined_gram ---------------------------------
//
// Entry (i, j), i <= j, of one node's Gram block is a single accumulator
// lane that starts at 0.0 and adds b_i[k] * b_j[k] for k ascending: the
// exact sequence of the plain dot loop, so every entry equals
// dot(cluster, b_i, b_j)'s node partial bit for bit, and so does everything
// built on it. What the kernel changes is how many of those chains run at
// once. One scalar chain per entry runs at the FP-add latency; here one pass
// over a chunk of rows runs up to 2 * kGramPassPairs independent chains.
//
// kGramChunk rows of the nb slices are packed k-major into a stack buffer
// (row k holds b_0[k] ... b_{nb-1}[k], plus a zero pad column when nb is
// odd). A Vec2 (util/lanes.hpp) holds the lanes (i, j) and (i, j + 1),
// j even: the broadcast b_i[k] times the packed pair. Rows come in pairs
// 2m, 2m + 1, which share the column pairs from 2m on, so the strip of row
// pair m is h - m column pairs wide (h = padded nb / 2), two chains per
// column pair. Strip m is folded with strip h - 1 - m into h + 1 column
// pairs, which are cut into passes of near-equal width: the short strips at
// the bottom of the triangle ride along with the long ones instead of
// running alone on one or two chains.

// Rows per packed chunk, and column pairs (two chains each) per pass.
constexpr std::size_t kGramChunk = 64;
constexpr std::size_t kGramPassPairs = 5;

// Widest basis one fused reduction can carry, rounded up to even: bounds
// the packed row.
constexpr int kMaxGramBasis = [] {
  int nb = 1;
  while ((nb + 1) * (nb + 2) / 2 <= PendingReduction::kMaxScalars) ++nb;
  return nb + nb % 2;
}();
// Row pair x column pair blocks of that basis's upper triangle, two chains
// each: bounds the passes and the accumulators.
constexpr auto kMaxGramPairs = static_cast<std::size_t>(kMaxGramBasis / 2);
constexpr std::size_t kMaxGramBlocks = kMaxGramPairs * (kMaxGramPairs + 1) / 2;

// Rows `row`, `row` + 1 against `pairs` column pairs from column `col`.
struct GramStrip {
  int row = 0;
  int col = 0;
  int pairs = 0;
};

struct GramPass;
using GramPassFn = void (*)(const double* buf, std::size_t rows,
                            std::size_t stride, const GramPass& pass,
                            Vec2* acc);

// Strip b may be empty. The pass owns the accumulators from index acc on,
// two per column pair (rows row, row + 1): strip a's first, then strip b's.
struct GramPass {
  GramStrip a, b;
  int acc = 0;
  GramPassFn run = nullptr;
};

struct GramPlan {
  int nb = 0;
  std::size_t stride = 0;  // padded nb
  int passes = 0;
  std::array<GramPass, kMaxGramBlocks> pass{};
};

// One step (one packed row) of a C-pair strip.
template <std::size_t C>
void strip_step(const double* row, const GramStrip& strip, Vec2* s) {
  const double* x = row + strip.row;
  const double* y = row + strip.col;
  const Vec2 x0 = {x[0], x[0]};
  const Vec2 x1 = {x[1], x[1]};
  for (std::size_t q = 0; q < C; ++q) {
    const Vec2 pair = load2(y + 2 * q);
    s[2 * q] += x0 * pair;
    s[2 * q + 1] += x1 * pair;
  }
}

// One pass over `rows` packed rows, its accumulators held in registers.
template <std::size_t A, std::size_t B>
void gram_pass(const double* buf, std::size_t rows, std::size_t stride,
               const GramPass& pass, Vec2* acc) {
  std::array<Vec2, 2 * (A + B)> s;
  std::copy_n(acc, s.size(), s.begin());
  for (std::size_t k = 0; k < rows; ++k) {
    const double* row = buf + k * stride;
    strip_step<A>(row, pass.a, s.data());
    if constexpr (B > 0) strip_step<B>(row, pass.b, s.data() + 2 * A);
  }
  std::copy_n(s.begin(), s.size(), acc);
}

// kGramPasses[a * (kGramPassPairs + 1) + b] runs a pass of strips a and b
// pairs wide; null where a is 0 or the pass would be too wide.
template <std::size_t I>
constexpr GramPassFn gram_pass_fn() {
  constexpr std::size_t a = I / (kGramPassPairs + 1);
  constexpr std::size_t b = I % (kGramPassPairs + 1);
  if constexpr (a >= 1 && a + b <= kGramPassPairs)
    return &gram_pass<a, b>;
  else
    return nullptr;
}

template <std::size_t... I>
constexpr auto gram_pass_table(std::index_sequence<I...>) {
  return std::array<GramPassFn, sizeof...(I)>{gram_pass_fn<I>()...};
}

constexpr auto kGramPasses = gram_pass_table(
    std::make_index_sequence<(kGramPassPairs + 1) * (kGramPassPairs + 1)>{});

GramPlan make_gram_plan(int nb) {
  GramPlan plan;
  plan.nb = nb;
  plan.stride = static_cast<std::size_t>(nb + nb % 2);
  const int h = static_cast<int>(plan.stride) / 2;
  int chains = 0;
  for (int m = 0; m <= h - 1 - m; ++m) {
    const int fold = h - 1 - m;
    const int wa = h - m;
    const int width = fold > m ? h + 1 : wa;
    const int per_pass = static_cast<int>(kGramPassPairs);
    const int passes = (width + per_pass - 1) / per_pass;
    for (int p = 0, lo = 0; p < passes; ++p) {
      // Column pairs [lo, hi) of strip m followed by strip `fold`.
      const int hi = lo + (width - lo) / (passes - p);
      GramPass& pass = plan.pass[static_cast<std::size_t>(plan.passes++)];
      if (lo < wa)
        pass.a = {2 * m, 2 * (m + lo), std::min(hi, wa) - lo};
      if (hi > wa) {
        const int first = std::max(lo, wa) - wa;
        pass.b = {2 * fold, 2 * (fold + first), hi - wa - first};
        if (pass.a.pairs == 0) std::swap(pass.a, pass.b);
      }
      pass.acc = chains;
      pass.run = kGramPasses[static_cast<std::size_t>(pass.a.pairs) *
                                 (kGramPassPairs + 1) +
                             static_cast<std::size_t>(pass.b.pairs)];
      chains += 2 * (hi - lo);
      lo = hi;
    }
  }
  return plan;
}

// Fills out[gram_index(i, j, nb)] with slice[i] . slice[j] over n rows.
void gram_block(const GramPlan& plan, const double* const* slice,
                std::size_t n, double* out) {
  const int nb = plan.nb;
  const std::size_t stride = plan.stride;
  // Left uninitialized: each chunk's pack writes every element its passes
  // read (rows x stride), and zeroing 11 KB per node would cost more than
  // the packing. Pairs start at even columns, so with 16-byte alignment no
  // pair load splits a cache line.
  alignas(16) std::array<double, kGramChunk * kMaxGramBasis> buf;
  const std::array<double, kGramChunk> zeros{};  // the pad column's slice
  std::array<Vec2, 2 * kMaxGramBlocks> acc{};
  for (std::size_t k0 = 0; k0 < n; k0 += kGramChunk) {
    const std::size_t rows = std::min(kGramChunk, n - k0);
    // Two slices and two rows per step: two pair loads, two shuffles.
    for (int i = 0; i < nb; i += 2) {
      const double* lo = slice[i] + k0;
      const double* hi = i + 1 < nb ? slice[i + 1] + k0 : zeros.data();
      double* dst = buf.data() + i;
      std::size_t k = 0;
      for (; k + 2 <= rows; k += 2, dst += 2 * stride) {
        const Vec2 u = load2(lo + k);
        const Vec2 v = load2(hi + k);
        store2(dst, Vec2{u[0], v[0]});
        store2(dst + stride, Vec2{u[1], v[1]});
      }
      if (k < rows) store2(dst, Vec2{lo[k], hi[k]});
    }
    for (int p = 0; p < plan.passes; ++p) {
      const GramPass& pass = plan.pass[static_cast<std::size_t>(p)];
      pass.run(buf.data(), rows, stride, pass, acc.data() + pass.acc);
    }
  }
  for (int p = 0; p < plan.passes; ++p) {
    const GramPass& pass = plan.pass[static_cast<std::size_t>(p)];
    int chain = pass.acc;
    for (const GramStrip& strip : {pass.a, pass.b}) {
      for (int q = 0; q < strip.pairs; ++q) {
        for (int r = 0; r < 2; ++r, ++chain) {
          const int i = strip.row + r;
          for (int lane = 0; lane < 2; ++lane) {
            const int j = strip.col + 2 * q + lane;
            if (i <= j && j < nb)
              out[gram_index(i, j, nb)] =
                  acc[static_cast<std::size_t>(chain)][lane];
          }
        }
      }
    }
  }
}

}  // namespace

void PendingReduction::wait() {
  if (!pending()) return;
  Cluster& cluster = *cluster_;
  cluster_ = nullptr;
  // Work charged (to any phase) since the post hides reduction latency; only
  // the remainder is exposed and advances the clock now.
  const double elapsed = cluster.clock().total() - posted_at_;
  const double exposed = std::max(0.0, cost_ - elapsed);
  cluster.clock().advance(phase_, exposed);
  if (counted_) cluster.note_reduction_completed();
  // Diagnostic reductions under a paused clock charge nothing and must not
  // distort the overlap totals either.
  if (!cluster.clock().paused())
    cluster.account_reduction(cost_, cost_ - exposed, exposed);
}

double PendingReduction::value(int i) const {
  RPCG_CHECK(!pending(), "reduction result read before wait()");
  RPCG_CHECK(i >= 0 && i < scalars_, "reduction scalar index out of range");
  return values_[static_cast<std::size_t>(i)];
}

PendingReduction post_allreduce(Cluster& cluster,
                                std::span<const double> per_node, int scalars,
                                Phase phase) {
  RPCG_CHECK(scalars >= 1 && scalars <= PendingReduction::kMaxScalars,
             "unsupported reduction width");
  RPCG_CHECK(static_cast<int>(per_node.size()) ==
                 cluster.num_nodes() * scalars,
             "one contribution per node and scalar required");
  PendingReduction red;
  red.cluster_ = &cluster;
  red.scalars_ = scalars;
  red.phase_ = phase;
  red.posted_at_ = cluster.clock().total();
  red.cost_ = cluster.comm().allreduce_cost(cluster.alive_count(), scalars);
  // Diagnostic reductions under a paused clock stay out of the in-flight
  // counter, matching the account_reduction exclusion at wait().
  if (!cluster.clock().paused()) {
    red.counted_ = true;
    cluster.note_reduction_posted();
  }
  // The reduced values are fixed at post time, summed in node order per
  // scalar — deterministic, and independent of when wait() runs.
  red.values_.assign(static_cast<std::size_t>(scalars), 0.0);
  for (int i = 0; i < cluster.num_nodes(); ++i)
    for (int s = 0; s < scalars; ++s)
      red.values_[static_cast<std::size_t>(s)] +=
          per_node[static_cast<std::size_t>(i * scalars + s)];
  return red;
}

PendingReduction iallreduce_sum(Cluster& cluster,
                                std::span<const double> per_node, Phase phase) {
  return post_allreduce(cluster, per_node, 1, phase);
}

PendingReduction idot(Cluster& cluster, const DistVector& a,
                      const DistVector& b, Phase phase) {
  const int nn = cluster.num_nodes();
  std::vector<double> partial(static_cast<std::size_t>(nn), 0.0);
  // Per-node partials computed independently (possibly on the worker pool),
  // then reduced in node order by post_allreduce — bitwise identical either
  // way.
  exec_parallel_for(cluster.execution_policy(), static_cast<std::size_t>(nn),
                    [&](std::size_t i) {
                      const auto ab = a.block(static_cast<NodeId>(i));
                      const auto bb = b.block(static_cast<NodeId>(i));
                      double s = 0.0;
                      for (std::size_t k = 0; k < ab.size(); ++k)
                        s += ab[k] * bb[k];
                      partial[i] = s;
                    });
  charge_blas1(cluster, 2.0, phase);
  return post_allreduce(cluster, partial, 1, phase);
}

PendingReduction idot_pair(Cluster& cluster, const DistVector& r,
                           const DistVector& z, Phase phase) {
  const int nn = cluster.num_nodes();
  std::vector<double> partial(static_cast<std::size_t>(nn) * 2, 0.0);
  exec_parallel_for(cluster.execution_policy(), static_cast<std::size_t>(nn),
                    [&](std::size_t i) {
                      const auto rb = r.block(static_cast<NodeId>(i));
                      const auto zb = z.block(static_cast<NodeId>(i));
                      double rz = 0.0, rr = 0.0;
                      for (std::size_t k = 0; k < rb.size(); ++k) {
                        rz += rb[k] * zb[k];
                        rr += rb[k] * rb[k];
                      }
                      partial[i * 2] = rz;
                      partial[i * 2 + 1] = rr;
                    });
  charge_blas1(cluster, 4.0, phase);
  return post_allreduce(cluster, partial, 2, phase);
}

PendingReduction ipipelined_dots(Cluster& cluster, const DistVector& r,
                                 const DistVector& u, const DistVector& w,
                                 Phase phase) {
  const int nn = cluster.num_nodes();
  std::vector<double> partial(static_cast<std::size_t>(nn) * 3, 0.0);
  exec_parallel_for(cluster.execution_policy(), static_cast<std::size_t>(nn),
                    [&](std::size_t i) {
                      const auto rb = r.block(static_cast<NodeId>(i));
                      const auto ub = u.block(static_cast<NodeId>(i));
                      const auto wb = w.block(static_cast<NodeId>(i));
                      double ru = 0.0, wu = 0.0, rr = 0.0;
                      for (std::size_t k = 0; k < rb.size(); ++k) {
                        ru += rb[k] * ub[k];
                        wu += wb[k] * ub[k];
                        rr += rb[k] * rb[k];
                      }
                      partial[i * 3] = ru;
                      partial[i * 3 + 1] = wu;
                      partial[i * 3 + 2] = rr;
                    });
  charge_blas1(cluster, 6.0, phase);
  return post_allreduce(cluster, partial, 3, phase);
}

PendingReduction ipipelined_cr_dots(Cluster& cluster, const DistVector& r,
                                    const DistVector& u, const DistVector& w,
                                    const DistVector& m, Phase phase) {
  const int nn = cluster.num_nodes();
  std::vector<double> partial(static_cast<std::size_t>(nn) * 3, 0.0);
  exec_parallel_for(cluster.execution_policy(), static_cast<std::size_t>(nn),
                    [&](std::size_t i) {
                      const auto rb = r.block(static_cast<NodeId>(i));
                      const auto ub = u.block(static_cast<NodeId>(i));
                      const auto wb = w.block(static_cast<NodeId>(i));
                      const auto mb = m.block(static_cast<NodeId>(i));
                      double uw = 0.0, wm = 0.0, rr = 0.0;
                      for (std::size_t k = 0; k < rb.size(); ++k) {
                        uw += ub[k] * wb[k];
                        wm += wb[k] * mb[k];
                        rr += rb[k] * rb[k];
                      }
                      partial[i * 3] = uw;
                      partial[i * 3 + 1] = wm;
                      partial[i * 3 + 2] = rr;
                    });
  charge_blas1(cluster, 6.0, phase);
  return post_allreduce(cluster, partial, 3, phase);
}

PendingReduction ipipelined_gram(Cluster& cluster,
                                 std::span<const DistVector* const> basis,
                                 Phase phase) {
  const int nb = static_cast<int>(basis.size());
  const int entries = nb * (nb + 1) / 2;
  RPCG_CHECK(nb >= 1 && entries <= PendingReduction::kMaxScalars,
             "pipelined basis too large for one fused reduction");
  const int nn = cluster.num_nodes();
  std::vector<double> partial(
      static_cast<std::size_t>(nn) * static_cast<std::size_t>(entries), 0.0);
  const GramPlan plan = make_gram_plan(nb);
  exec_parallel_for(
      cluster.execution_policy(), static_cast<std::size_t>(nn),
      [&](std::size_t node) {
        std::array<const double*, kMaxGramBasis> slice{};
        std::size_t n = 0;
        for (int i = 0; i < nb; ++i) {
          const auto b = basis[static_cast<std::size_t>(i)]->block(
              static_cast<NodeId>(node));
          slice[static_cast<std::size_t>(i)] = b.data();
          n = b.size();
        }
        gram_block(plan, slice.data(), n,
                   &partial[node * static_cast<std::size_t>(entries)]);
      });
  // Every element feeds nb*(nb+1)/2 multiply-adds — the all-pairs Gram is
  // the compute price of posting l iterations of dots at once.
  charge_blas1(cluster, static_cast<double>(nb * (nb + 1)), phase);
  return post_allreduce(cluster, partial, entries, phase);
}

double allreduce_sum(Cluster& cluster, std::span<const double> per_node,
                     Phase phase) {
  PendingReduction red = iallreduce_sum(cluster, per_node, phase);
  red.wait();
  return red.value(0);
}

double dot(Cluster& cluster, const DistVector& a, const DistVector& b,
           Phase phase) {
  PendingReduction red = idot(cluster, a, b, phase);
  red.wait();
  return red.value(0);
}

DotPair dot_pair(Cluster& cluster, const DistVector& r, const DistVector& z,
                 Phase phase) {
  PendingReduction red = idot_pair(cluster, r, z, phase);
  red.wait();
  return {red.value(0), red.value(1)};
}

void axpy(Cluster& cluster, double alpha, const DistVector& x, DistVector& y,
          Phase phase) {
  exec_parallel_for(cluster.execution_policy(),
                    static_cast<std::size_t>(cluster.num_nodes()),
                    [&](std::size_t i) {
                      const auto xb = x.block(static_cast<NodeId>(i));
                      auto yb = y.block(static_cast<NodeId>(i));
                      for (std::size_t k = 0; k < xb.size(); ++k)
                        yb[k] += alpha * xb[k];
                    });
  charge_blas1(cluster, 2.0, phase);
}

void xpby(Cluster& cluster, const DistVector& x, double beta, DistVector& y,
          Phase phase) {
  exec_parallel_for(cluster.execution_policy(),
                    static_cast<std::size_t>(cluster.num_nodes()),
                    [&](std::size_t i) {
                      const auto xb = x.block(static_cast<NodeId>(i));
                      auto yb = y.block(static_cast<NodeId>(i));
                      for (std::size_t k = 0; k < xb.size(); ++k)
                        yb[k] = xb[k] + beta * yb[k];
                    });
  charge_blas1(cluster, 2.0, phase);
}

void copy(Cluster& cluster, const DistVector& x, DistVector& y, Phase phase) {
  exec_parallel_for(cluster.execution_policy(),
                    static_cast<std::size_t>(cluster.num_nodes()),
                    [&](std::size_t i) {
                      const auto xb = x.block(static_cast<NodeId>(i));
                      auto yb = y.block(static_cast<NodeId>(i));
                      std::copy(xb.begin(), xb.end(), yb.begin());
                    });
  charge_blas1(cluster, 1.0, phase);
}

}  // namespace rpcg
