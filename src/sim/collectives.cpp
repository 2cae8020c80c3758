#include "sim/collectives.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/gram_lanes.hpp"
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

// The dots of P terms over one node's block, one accumulator per term from
// 0.0 with k ascending: the sequence of a lone dot loop, so fusing the terms
// changes no bit.
template <std::size_t P>
void node_dots(std::span<const DotTerm> terms, NodeId node, double* out) {
  std::array<const double*, P> a{}, b{};
  std::size_t n = 0;
  for (std::size_t t = 0; t < P; ++t) {
    const auto at = terms[t].a->block(node);
    a[t] = at.data();
    b[t] = terms[t].b->block(node).data();
    n = at.size();
  }
  std::array<double, P> s{};
  for (std::size_t k = 0; k < n; ++k)
    for (std::size_t t = 0; t < P; ++t) s[t] += a[t][k] * b[t][k];
  std::copy(s.begin(), s.end(), out);
}

// ---- The Gram kernel of ipipelined_gram ---------------------------------
//
// Entry (i, j), i <= j, of one node's Gram block is a single accumulator
// lane that starts at 0.0 and adds b_i[k] * b_j[k] for k ascending: the
// exact sequence of the plain dot loop, so every entry equals
// dot(cluster, b_i, b_j)'s node partial bit for bit, and so does everything
// built on it. What the kernel changes is how many of those chains run at
// once. One scalar chain per entry runs at the FP-add latency; here one pass
// over a chunk of rows runs up to W * W * kGramPassBlocks<W> independent
// chains, W lanes to a vector (util/lanes.hpp). W is 2, 4 or 8, the widest
// host_lanes() finds, and no width changes a bit of the output.
//
// kGramChunk rows of the nb slices are packed k-major into a stack buffer
// (row k holds b_0[k] ... b_{nb-1}[k], then zero pad columns up to a
// multiple of W). A vector holds the lanes (i, j) ... (i, j + W - 1), j a
// multiple of W: the broadcast b_i[k] times a block of W packed columns.
// Rows come in groups of W, which share the column blocks from their own
// on, so the strip of row group g is h - g blocks wide (h = padded nb / W),
// W accumulator vectors per block. Strip g is folded with strip h - 1 - g
// into h + 1 blocks, which are cut into passes of near-equal width: the
// short strips at the bottom of the triangle ride along with the long ones
// instead of running alone on a few chains.

// Rows per packed chunk.
constexpr std::size_t kGramChunk = 64;

// Column blocks per pass, W accumulator vectors each, sized to the register
// file of each width: 10 of the 16 xmm at W = 2, 8 of the 16 ymm at W = 4,
// 24 of the 32 zmm at W = 8.
template <int W>
constexpr std::size_t kGramPassBlocks = W == 2 ? 5 : W == 4 ? 2 : 3;

// Widest basis one fused reduction can carry, and its packed row padded to
// the widest lanes: bounds the buffer.
constexpr int kMaxGramBasis = [] {
  int nb = 1;
  while ((nb + 1) * (nb + 2) / 2 <= PendingReduction::kMaxScalars) ++nb;
  return nb;
}();
constexpr std::size_t kMaxGramStride = (kMaxGramBasis + 7) / 8 * 8;
// Accumulator vectors of that basis's upper triangle at W lanes.
template <int W>
constexpr std::size_t kMaxGramChains = [] {
  const std::size_t h = (kMaxGramBasis + W - 1) / W;
  return W * h * (h + 1) / 2;
}();

// Rows `row` ... `row` + W - 1 against `blocks` column blocks from column
// `col`.
struct GramStrip {
  int row = 0;
  int col = 0;
  int blocks = 0;
};

// Strip b may be empty. The pass owns the accumulators from index acc on, W
// per column block (one per row): strip a's first, then strip b's. Its loop
// is the one compiled for shape a.blocks * (kGramPassBlocks + 1) + b.blocks.
struct GramPass {
  GramStrip a, b;
  int acc = 0;
  std::size_t shape = 0;
};

struct GramPlan {
  int nb = 0;
  int lanes = 0;
  std::size_t stride = 0;  // nb padded to a multiple of lanes
  int chains = 0;          // accumulator vectors
  std::vector<GramPass> pass;
};

GramPlan make_gram_plan(int nb, int lanes, std::size_t blocks_per_pass) {
  const auto per_pass = static_cast<int>(blocks_per_pass);
  GramPlan plan;
  plan.nb = nb;
  plan.lanes = lanes;
  plan.stride = static_cast<std::size_t>((nb + lanes - 1) / lanes * lanes);
  const int h = static_cast<int>(plan.stride) / lanes;
  for (int m = 0; m <= h - 1 - m; ++m) {
    const int fold = h - 1 - m;
    const int wa = h - m;
    const int width = fold > m ? h + 1 : wa;
    const int passes = (width + per_pass - 1) / per_pass;
    for (int p = 0, lo = 0; p < passes; ++p) {
      // Column blocks [lo, hi) of strip m followed by strip `fold`.
      const int hi = lo + (width - lo) / (passes - p);
      GramPass& pass = plan.pass.emplace_back();
      if (lo < wa)
        pass.a = {lanes * m, lanes * (m + lo), std::min(hi, wa) - lo};
      if (hi > wa) {
        const int first = std::max(lo, wa) - wa;
        pass.b = {lanes * fold, lanes * (fold + first), hi - wa - first};
        if (pass.a.blocks == 0) std::swap(pass.a, pass.b);
      }
      pass.acc = plan.chains;
      pass.shape = static_cast<std::size_t>(pass.a.blocks * (per_pass + 1) +
                                            pass.b.blocks);
      plan.chains += lanes * (hi - lo);
      lo = hi;
    }
  }
  return plan;
}

// The plan of basis width nb at `lanes` lanes, built once per process for
// every width.
const GramPlan& gram_plan(int nb, int lanes) {
  static const auto plans = [] {
    std::array<std::vector<GramPlan>, 3> all;  // 2, 4 and 8 lanes
    for (int b = 0; b <= kMaxGramBasis; ++b) {
      all[0].push_back(make_gram_plan(b, 2, kGramPassBlocks<2>));
      all[1].push_back(make_gram_plan(b, 4, kGramPassBlocks<4>));
      all[2].push_back(make_gram_plan(b, 8, kGramPassBlocks<8>));
    }
    return all;
  }();
  return plans[static_cast<std::size_t>(lanes / 4)]
              [static_cast<std::size_t>(nb)];
}

// One step (one packed row) of a C-block strip: x points at the strip's W
// rows in the packed row, y at its first column block.
template <int W, std::size_t C>
[[gnu::always_inline]] inline void strip_step(const double* x,
                                              const double* y, Lanes<W>* s) {
  using V = Lanes<W>;
  constexpr auto kW = static_cast<std::size_t>(W);
  if constexpr (W == 2) {
    // Both broadcasts stay in registers and each block is loaded once.
    const V x0 = {x[0], x[0]};
    const V x1 = {x[1], x[1]};
    for (std::size_t q = 0; q < C; ++q) {
      const V block = load2(y + 2 * q);
      s[2 * q] += x0 * block;
      s[2 * q + 1] += x1 * block;
    }
  } else {
    // The blocks stay in registers and each row is broadcast once: W
    // broadcasts would not fit beside the accumulators.
    V blocks[C];
    for (std::size_t q = 0; q < C; ++q)
      std::memcpy(&blocks[q], y + kW * q, sizeof(V));
    for (std::size_t r = 0; r < kW; ++r) {
      const double xr = x[r];
      for (std::size_t q = 0; q < C; ++q) s[kW * q + r] += blocks[q] * xr;
    }
  }
}

// One pass of strips A and B blocks wide over `rows` packed rows, its
// accumulators held in registers. Shapes the plan never makes compile to
// nothing.
template <int W, std::size_t A, std::size_t B>
[[gnu::always_inline]] inline void gram_pass(const double* buf,
                                             std::size_t rows,
                                             std::size_t stride,
                                             const GramPass& pass,
                                             Lanes<W>* acc) {
  constexpr auto kW = static_cast<std::size_t>(W);
  if constexpr (A >= 1 && A + B <= kGramPassBlocks<W>) {
    Lanes<W> s[kW * (A + B)];
    for (std::size_t c = 0; c < kW * (A + B); ++c) s[c] = acc[c];
    // Each strip's operands advance one packed row per step, so that every
    // load is a constant offset from one of four pointers. Indexed from the
    // row start instead, GCC kept one offset register per row and spilled
    // them inside the loop at W = 8.
    const double* xa = buf + pass.a.row;
    const double* ya = buf + pass.a.col;
    const double* xb = buf + pass.b.row;
    const double* yb = buf + pass.b.col;
    for (std::size_t k = 0; k < rows; ++k) {
      strip_step<W, A>(xa, ya, s);
      if constexpr (B > 0) strip_step<W, B>(xb, yb, s + kW * A);
      xa += stride;
      ya += stride;
      xb += stride;
      yb += stride;
    }
    for (std::size_t c = 0; c < kW * (A + B); ++c) acc[c] = s[c];
  }
}

// Runs `pass` through the loop compiled for its shape.
template <int W, std::size_t... S>
[[gnu::always_inline]] inline void run_pass(std::index_sequence<S...>,
                                            const double* buf,
                                            std::size_t rows,
                                            std::size_t stride,
                                            const GramPass& pass,
                                            Lanes<W>* acc) {
  constexpr std::size_t kShapes = kGramPassBlocks<W> + 1;
  (void)((pass.shape == S &&
          (gram_pass<W, S / kShapes, S % kShapes>(buf, rows, stride, pass,
                                                  acc),
           true)) ||
         ...);
}

// The W x W transpose: out[t] = {a[0][t], ..., a[W - 1][t]}.
template <int W>
[[gnu::always_inline]] inline void transpose(const Lanes<W> (&a)[W],
                                             Lanes<W> (&out)[W]) {
  if constexpr (W == 2) {
    out[0] = __builtin_shufflevector(a[0], a[1], 0, 2);
    out[1] = __builtin_shufflevector(a[0], a[1], 1, 3);
  } else if constexpr (W == 4) {
    Lanes<4> t[4];
    for (int m = 0; m < 4; m += 2) {
      t[m] = __builtin_shufflevector(a[m], a[m + 1], 0, 4, 2, 6);
      t[m + 1] = __builtin_shufflevector(a[m], a[m + 1], 1, 5, 3, 7);
    }
    for (int m = 0; m < 2; ++m) {
      out[m] = __builtin_shufflevector(t[m], t[m + 2], 0, 1, 4, 5);
      out[m + 2] = __builtin_shufflevector(t[m], t[m + 2], 2, 3, 6, 7);
    }
  } else {
    // Rows interleaved in pairs, then quads, then halves.
    Lanes<8> u[8], v[8];
    for (int m = 0; m < 8; m += 2) {
      u[m] = __builtin_shufflevector(a[m], a[m + 1], 0, 8, 2, 10, 4, 12, 6,
                                     14);
      u[m + 1] = __builtin_shufflevector(a[m], a[m + 1], 1, 9, 3, 11, 5, 13,
                                         7, 15);
    }
    for (int m = 0; m < 8; m += 4) {
      for (int r = 0; r < 2; ++r) {
        v[m + r] = __builtin_shufflevector(u[m + r], u[m + r + 2], 0, 1, 8, 9,
                                           4, 5, 12, 13);
        v[m + r + 2] = __builtin_shufflevector(u[m + r], u[m + r + 2], 2, 3,
                                               10, 11, 6, 7, 14, 15);
      }
    }
    for (int m = 0; m < 4; ++m) {
      out[m] = __builtin_shufflevector(v[m], v[m + 4], 0, 1, 2, 3, 8, 9, 10,
                                       11);
      out[m + 4] = __builtin_shufflevector(v[m], v[m + 4], 4, 5, 6, 7, 12, 13,
                                           14, 15);
    }
  }
}

// Packs `rows` rows of the `stride` columns src[i] k-major into buf, W
// columns by W rows at a time through registers. The loops over a tile's
// vectors are unrolled so that the tile never goes through memory.
template <int W>
[[gnu::always_inline]] inline void pack_chunk(const double* const* src,
                                              std::size_t rows,
                                              std::size_t stride,
                                              double* buf) {
  using V = Lanes<W>;
  constexpr auto kW = static_cast<std::size_t>(W);
  for (std::size_t i = 0; i < stride; i += kW) {
    std::size_t k = 0;
    for (; k + kW <= rows; k += kW) {
      V a[W], t[W];
#pragma GCC unroll 8
      for (std::size_t c = 0; c < kW; ++c)
        std::memcpy(&a[c], src[i + c] + k, sizeof(V));
      transpose<W>(a, t);
#pragma GCC unroll 8
      for (std::size_t r = 0; r < kW; ++r)
        std::memcpy(buf + (k + r) * stride + i, &t[r], sizeof(V));
    }
    for (; k < rows; ++k)
      for (std::size_t c = 0; c < kW; ++c)
        buf[k * stride + i + c] = src[i + c][k];
  }
}

// Fills out[gram_index(i, j, nb)] with slice[i] . slice[j] over n rows.
template <int W>
[[gnu::always_inline]] inline void gram_block(const GramPlan& plan,
                                              const double* const* slice,
                                              std::size_t n, double* out) {
  const int nb = plan.nb;
  const std::size_t stride = plan.stride;
  // Left uninitialized: each chunk's pack writes every element its passes
  // read (rows x stride), and zeroing 12 KB per node would cost more than
  // the packing. Blocks start at multiples of W columns, so with 64-byte
  // alignment no load splits a cache line.
  alignas(64) double buf[kGramChunk * kMaxGramStride];
  const double zeros[kGramChunk] = {};  // the pad columns' slice
  const double* src[kMaxGramStride] = {};
  Lanes<W> acc[kMaxGramChains<W>];
  for (int c = 0; c < plan.chains; ++c) acc[c] = Lanes<W>{};
  constexpr std::size_t kShapes = kGramPassBlocks<W> + 1;
  for (std::size_t k0 = 0; k0 < n; k0 += kGramChunk) {
    const std::size_t rows = std::min(kGramChunk, n - k0);
    for (std::size_t i = 0; i < stride; ++i)
      src[i] = i < static_cast<std::size_t>(nb) ? slice[i] + k0 : zeros;
    pack_chunk<W>(src, rows, stride, buf);
    for (const GramPass& pass : plan.pass)
      run_pass<W>(std::make_index_sequence<kShapes * kShapes>{}, buf, rows,
                  stride, pass, acc + pass.acc);
  }
  for (const GramPass& pass : plan.pass) {
    int chain = pass.acc;
    for (const GramStrip& strip : {pass.a, pass.b}) {
      for (int q = 0; q < strip.blocks; ++q) {
        for (int r = 0; r < W; ++r, ++chain) {
          const int i = strip.row + r;
          for (int lane = 0; lane < W; ++lane) {
            const int j = strip.col + W * q + lane;
            if (i <= j && j < nb) out[gram_index(i, j, nb)] = acc[chain][lane];
          }
        }
      }
    }
  }
}

#if defined(__x86_64__)
// The Gram kernel's AVX2 and AVX-512F builds, run only when host_lanes()
// has found the ISA.
__attribute__((target("avx2"))) void gram_block_avx2(
    const GramPlan& plan, const double* const* slice, std::size_t n,
    double* out) {
  gram_block<4>(plan, slice, n, out);
}

__attribute__((target("avx512f"))) void gram_block_avx512(
    const GramPlan& plan, const double* const* slice, std::size_t n,
    double* out) {
  gram_block<8>(plan, slice, n, out);
}
#endif

void run_gram_block(const GramPlan& plan, const double* const* slice,
                    std::size_t n, double* out) {
  switch (plan.lanes) {
#if defined(__x86_64__)
    case 8: gram_block_avx512(plan, slice, n, out); return;
    case 4: gram_block_avx2(plan, slice, n, out); return;
#endif
    default: gram_block<2>(plan, slice, n, out); return;
  }
}

// ipipelined_gram with the Gram kernel `lanes` wide.
PendingReduction post_gram(Cluster& cluster,
                           std::span<const DistVector* const> basis,
                           Phase phase, int lanes) {
  const int nb = static_cast<int>(basis.size());
  const int entries = nb * (nb + 1) / 2;
  RPCG_CHECK(nb >= 1 && entries <= PendingReduction::kMaxScalars,
             "pipelined basis too large for one fused reduction");
  const int nn = cluster.num_nodes();
  std::vector<double> partial(
      static_cast<std::size_t>(nn) * static_cast<std::size_t>(entries), 0.0);
  const GramPlan& plan = gram_plan(nb, lanes);
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
        run_gram_block(plan, slice.data(), n,
                       &partial[node * static_cast<std::size_t>(entries)]);
      });
  // Every element feeds nb*(nb+1)/2 multiply-adds — the all-pairs Gram is
  // the compute price of posting l iterations of dots at once.
  charge_blas1(cluster, static_cast<double>(nb * (nb + 1)), phase);
  return post_allreduce(cluster, partial, entries, phase);
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

PendingReduction idots(Cluster& cluster, std::initializer_list<DotTerm> terms,
                       Phase phase) {
  const std::size_t p = terms.size();
  RPCG_CHECK(p >= 1 && p <= 3, "a fused dot reduction carries 1 to 3 terms");
  const std::span<const DotTerm> ts(terms.begin(), p);
  std::vector<double> partial(static_cast<std::size_t>(cluster.num_nodes()) *
                              p);
  // Per-node partials computed independently (possibly on the worker pool),
  // then reduced in node order by post_allreduce — bitwise identical either
  // way.
  exec_parallel_for(cluster.execution_policy(),
                    static_cast<std::size_t>(cluster.num_nodes()),
                    [&](std::size_t i) {
                      const auto node = static_cast<NodeId>(i);
                      double* out = &partial[i * p];
                      switch (p) {
                        case 1: node_dots<1>(ts, node, out); return;
                        case 2: node_dots<2>(ts, node, out); return;
                        default: node_dots<3>(ts, node, out); return;
                      }
                    });
  charge_blas1(cluster, 2.0 * static_cast<double>(p), phase);
  return post_allreduce(cluster, partial, static_cast<int>(p), phase);
}

PendingReduction ipipelined_gram(Cluster& cluster,
                                 std::span<const DistVector* const> basis,
                                 Phase phase) {
  return post_gram(cluster, basis, phase, host_lanes());
}

PendingReduction detail::GramLanes::post(
    Cluster& cluster, std::span<const DistVector* const> basis, Phase phase,
    int lanes) {
  if ((lanes != 2 && lanes != 4 && lanes != 8) || lanes > host_lanes()) {
    throw std::invalid_argument("the Gram kernel cannot run " +
                                std::to_string(lanes) +
                                " lanes wide on this host");
  }
  return post_gram(cluster, basis, phase, lanes);
}

double dot(Cluster& cluster, const DistVector& a, const DistVector& b,
           Phase phase) {
  PendingReduction red = idots(cluster, {{&a, &b}}, phase);
  red.wait();
  return red.value(0);
}

DotPair dot_pair(Cluster& cluster, const DistVector& r, const DistVector& z,
                 Phase phase) {
  PendingReduction red = idots(cluster, {{&r, &z}, {&r, &r}}, phase);
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
