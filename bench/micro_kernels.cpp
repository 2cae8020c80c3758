// Google-benchmark microbenchmarks of the kernels underlying the solver:
// problem setup (matrix generation and its content key), sequential SpMV,
// the distributed SpMV with halo exchange, preconditioner applications, the
// factorizations, the redundancy-scheme construction, the backup
// record/gather path, the fused dot reductions, and the pipelined solvers'
// fused Gram reduction. Real wall-clock time (the table/figure
// benches report model time; these kernels are what the compute model
// abstracts).
#include <benchmark/benchmark.h>

#include <vector>

#include "core/backup_store.hpp"
#include "core/factorization_cache.hpp"
#include "core/redundancy.hpp"
#include "precond/block_jacobi.hpp"
#include "repro/matrices.hpp"
#include "sim/collectives.hpp"
#include "sim/dist_matrix.hpp"
#include "sim/gram_lanes.hpp"
#include "sparse/generators.hpp"
#include "sparse/ic0.hpp"
#include "sparse/ldlt.hpp"
#include "util/lanes.hpp"
#include "util/rng.hpp"

namespace {

using namespace rpcg;

CsrMatrix bench_matrix() { return poisson3d_7pt(24, 24, 24); }  // 13824 rows

// One scale-8 node block (64-node partition) of the M1 (banded FEM) and the
// M2 (random-pattern) reproduction matrices — the exact inputs of the block
// Jacobi hot path whose ordering-selection policy these benches isolate.
CsrMatrix repro_node_block(int matrix_index) {
  const auto m = repro::make_matrix(matrix_index, 8.0);
  const Partition part = Partition::block_rows(m.matrix.rows(), 64);
  const auto rows = part.rows_of(0);
  return m.matrix.submatrix(rows, rows);
}

// Matrix argument of the distributed-kernel benches (BM_DistSpmv,
// BM_DistMatrixDistribute, BM_BlockJacobiApply): 0 = the 24³ Poisson matrix; 1, 8 and 2 = the matrices
// of the rpcg_bench workloads m1-iterate (M1 at scale 8), m8-dense-rows (M8 at
// scale 32) and m2-recover (M2 at scale 12), which run on 64 nodes.
CsrMatrix layout_matrix(long matrix) {
  switch (matrix) {
    case 1: return repro::make_matrix(1, 8.0).matrix;
    case 8: return repro::make_matrix(8, 32.0).matrix;
    case 2: return repro::make_matrix(2, 12.0).matrix;
    default: return bench_matrix();
  }
}

// (matrix, nodes) pairs: the Poisson matrix, then the workloads' layouts.
void layout_args(benchmark::internal::Benchmark* b) {
  for (const long nodes : {16, 64, 128}) b->Args({0, nodes});
  for (const long matrix : {1, 8, 2}) b->Args({matrix, 64});
}

// The A_{IF,IF} of the rpcg_bench m2-recover workload: M2 at scale 12 on 64
// nodes with the 8 contiguous nodes 20..27 failed — the fill-heavy local
// system whose exact factorization dominates that workload's recovery.
CsrMatrix m2_recover_a_ff() {
  const auto m = repro::make_matrix(2, 12.0);
  const Partition part = Partition::block_rows(m.matrix.rows(), 64);
  const std::vector<NodeId> failed{20, 21, 22, 23, 24, 25, 26, 27};
  const auto rows = part.rows_of_set(failed);
  return m.matrix.submatrix(rows, rows);
}

// Matrix argument of the LDLᵀ benches: 1 = M1-band block, 2 = M2-random
// block, 3 = the m2-recover A_FF.
CsrMatrix ldlt_bench_matrix(long matrix) {
  return matrix == 3 ? m2_recover_a_ff()
                     : repro_node_block(static_cast<int>(matrix));
}

// Ordering x kernel sweep over the LDLᵀ factor/solve kernels. Arg pairs:
// (0) matrix (see ldlt_bench_matrix);
// (1) ordering: 0 = natural, 1 = RCM, 2 = AMD;
// (2) kernel: 0 = scalar reference path (up-looking factor, unpacked
//     solve), 1 = production (kernel chosen by the factor's flops per L
//     entry, packed solve panels).
void ldlt_sweep_args(benchmark::internal::Benchmark* b) {
  for (const long matrix : {1, 2})
    for (const long ordering : {0, 1, 2})
      for (const long supernodal : {0, 1})
        b->Args({matrix, ordering, supernodal});
}

void BM_LdltOrderedFactor(benchmark::State& state) {
  const CsrMatrix a = ldlt_bench_matrix(state.range(0));
  const auto ordering = static_cast<LdltOrdering>(state.range(1));
  const bool supernodal = state.range(2) != 0;
  for (auto _ : state) {
    auto f = ReorderedLdlt::factor_with(a, ordering, supernodal);
    benchmark::DoNotOptimize(f->l_nnz());
  }
  const auto f = ReorderedLdlt::factor_with(a, ordering, supernodal);
  state.counters["l_nnz"] = static_cast<double>(f->l_nnz());
  state.counters["gflops"] =
      benchmark::Counter(f->factor_flops() * 1e-9,
                         benchmark::Counter::kIsIterationInvariantRate);
  // How many doubles wide the supernodal kernel's update tiles run on this
  // host (2 SSE2, 4 AVX2, 8 AVX-512F), so a log shows which path was timed.
  state.counters["lanes"] = static_cast<double>(host_lanes());
}
BENCHMARK(BM_LdltOrderedFactor)
    ->Apply(ldlt_sweep_args)
    ->Args({3, 2, 0})
    ->Args({3, 2, 1});

void BM_LdltOrderedSolve(benchmark::State& state) {
  const CsrMatrix a = ldlt_bench_matrix(state.range(0));
  const auto ordering = static_cast<LdltOrdering>(state.range(1));
  const bool supernodal = state.range(2) != 0;
  const auto f = ReorderedLdlt::factor_with(a, ordering, supernodal);
  std::vector<double> b(static_cast<std::size_t>(a.rows()), 1.0);
  std::vector<double> x(b.size());
  for (auto _ : state) {
    f->solve(b, x);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(state.iterations() * f->l_nnz());
  state.counters["supernodal"] =
      f->factorization().supernodal() ? 1.0 : 0.0;
}
BENCHMARK(BM_LdltOrderedSolve)->Apply(ldlt_sweep_args);

// The production factor: ReorderedLdlt::factor's ordering selection (its
// bounded fill counts and the AMD ordering) and the numeric pass, which
// reuses the winner's analysis. Matrix argument as ldlt_bench_matrix: 1 =
// M1-band block, 2 = M2-random block, 3 = the m2-recover A_FF.
void BM_LdltAutoSelectedFactor(benchmark::State& state) {
  const CsrMatrix a = ldlt_bench_matrix(state.range(0));
  for (auto _ : state) {
    auto f = ReorderedLdlt::factor(a);
    benchmark::DoNotOptimize(f->l_nnz());
  }
  const auto f = ReorderedLdlt::factor(a);
  state.counters["ordering"] = static_cast<double>(f->ordering());
  state.counters["l_nnz"] = static_cast<double>(f->l_nnz());
}
BENCHMARK(BM_LdltAutoSelectedFactor)->Arg(1)->Arg(2)->Arg(3);

void BM_LdltAutoSelectedSolve(benchmark::State& state) {
  // The production path: ReorderedLdlt::factor's own candidate selection.
  const CsrMatrix a = repro_node_block(static_cast<int>(state.range(0)));
  const auto f = ReorderedLdlt::factor(a);
  std::vector<double> b(static_cast<std::size_t>(a.rows()), 1.0);
  std::vector<double> x(b.size());
  for (auto _ : state) {
    f->solve(b, x);
    benchmark::DoNotOptimize(x.data());
  }
  state.counters["ordering"] = static_cast<double>(f->ordering());
  state.counters["l_nnz"] = static_cast<double>(f->l_nnz());
}
BENCHMARK(BM_LdltAutoSelectedSolve)->Arg(1)->Arg(2);

void BM_SeqSpmv(benchmark::State& state) {
  const CsrMatrix a = bench_matrix();
  std::vector<double> x(static_cast<std::size_t>(a.rows()), 1.0);
  std::vector<double> y(static_cast<std::size_t>(a.rows()));
  for (auto _ : state) {
    a.spmv(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * a.nnz());
}
BENCHMARK(BM_SeqSpmv);

// Problem setup on the workloads' matrices (1, 8 or 2 of layout_matrix):
// the generator, and the content key every Problem computes once.
void BM_MakeMatrix(benchmark::State& state) {
  for (auto _ : state) {
    const CsrMatrix a = layout_matrix(state.range(0));
    benchmark::DoNotOptimize(a.values().data());
  }
}
BENCHMARK(BM_MakeMatrix)->Arg(1)->Arg(8)->Arg(2)->Unit(benchmark::kMillisecond);

void BM_MatrixKey(benchmark::State& state) {
  const CsrMatrix a = layout_matrix(state.range(0));
  for (auto _ : state) {
    const auto key = FactorizationCache::matrix_key(a);
    benchmark::DoNotOptimize(key.digest);
  }
  state.SetItemsProcessed(state.iterations() * a.nnz());
}
BENCHMARK(BM_MatrixKey)->Arg(1)->Arg(8)->Arg(2)->Unit(benchmark::kMillisecond);

void BM_DistSpmv(benchmark::State& state) {
  const CsrMatrix a = layout_matrix(state.range(0));
  const Partition part =
      Partition::block_rows(a.rows(), static_cast<int>(state.range(1)));
  Cluster cluster(part, CommParams{});
  const DistMatrix d = DistMatrix::distribute(a, part);
  DistVector x(part), y(part);
  std::vector<double> g(static_cast<std::size_t>(a.rows()), 1.0);
  x.set_global(g);
  std::vector<std::vector<double>> halos;
  for (auto _ : state) {
    d.spmv(cluster, x, y, halos, Phase::kIteration);
    benchmark::DoNotOptimize(y.block(0).data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * a.nnz());
}
BENCHMARK(BM_DistSpmv)->Apply(layout_args);

// The SpMV setup on the same layouts: the scatter plan and every node's
// operand columns, derived from the global CSR the DistMatrix borrows.
void BM_DistMatrixDistribute(benchmark::State& state) {
  const CsrMatrix a = layout_matrix(state.range(0));
  const Partition part =
      Partition::block_rows(a.rows(), static_cast<int>(state.range(1)));
  for (auto _ : state) {
    const DistMatrix d = DistMatrix::distribute(a, part);
    benchmark::DoNotOptimize(d.scatter_plan().messages().data());
  }
  state.SetItemsProcessed(state.iterations() * a.nnz());
}
BENCHMARK(BM_DistMatrixDistribute)
    ->Apply(layout_args)
    ->Unit(benchmark::kMillisecond);

void BM_BlockJacobiApply(benchmark::State& state) {
  const CsrMatrix a = layout_matrix(state.range(0));
  const Partition part =
      Partition::block_rows(a.rows(), static_cast<int>(state.range(1)));
  Cluster cluster(part, CommParams{});
  const BlockJacobiPreconditioner m(a, part);
  DistVector r(part), z(part);
  std::vector<double> g(static_cast<std::size_t>(a.rows()), 1.0);
  r.set_global(g);
  for (auto _ : state) {
    m.apply(cluster, r, z, Phase::kIteration);
    benchmark::DoNotOptimize(z.block(0).data());
    benchmark::ClobberMemory();
  }
  state.counters["supernodal_blocks"] =
      static_cast<double>(m.supernodal_blocks());
}
BENCHMARK(BM_BlockJacobiApply)->Apply(layout_args);

// The block-Jacobi setup on the workloads' layouts (matrix 1, 8 or 2 of
// layout_matrix, 64 nodes): one ReorderedLdlt::factor per node block, each
// choosing its ordering by bounded symbolic fill counts. The counters say
// how many blocks each ordering won.
void BM_BlockJacobiSetup(benchmark::State& state) {
  const CsrMatrix a = layout_matrix(state.range(0));
  const Partition part = Partition::block_rows(a.rows(), 64);
  for (auto _ : state) {
    const BlockJacobiPreconditioner m(a, part);
    benchmark::DoNotOptimize(m.supernodal_blocks());
  }
  const BlockJacobiPreconditioner m(a, part);
  for (const LdltOrdering o :
       {LdltOrdering::kNatural, LdltOrdering::kRcm, LdltOrdering::kAmd}) {
    state.counters[to_string(o)] =
        static_cast<double>(m.ordering_counts()[static_cast<std::size_t>(o)]);
  }
}
BENCHMARK(BM_BlockJacobiSetup)
    ->Arg(1)
    ->Arg(8)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond);

void BM_LdltFactor(benchmark::State& state) {
  const CsrMatrix a =
      poisson2d_5pt(static_cast<Index>(state.range(0)), state.range(0));
  for (auto _ : state) {
    auto f = SparseLdlt::factor(a);
    benchmark::DoNotOptimize(f->l_nnz());
  }
}
BENCHMARK(BM_LdltFactor)->Arg(16)->Arg(32)->Arg(64);

void BM_Ic0FactorAndSolve(benchmark::State& state) {
  const CsrMatrix a = poisson2d_5pt(48, 48);
  const auto ic = Ic0::factor(a);
  std::vector<double> b(static_cast<std::size_t>(a.rows()), 1.0);
  std::vector<double> x(b.size());
  for (auto _ : state) {
    ic->solve(b, x);
    benchmark::DoNotOptimize(x.data());
  }
}
BENCHMARK(BM_Ic0FactorAndSolve);

void BM_RedundancySchemeBuild(benchmark::State& state) {
  const CsrMatrix a = bench_matrix();
  const Partition part = Partition::block_rows(a.rows(), 128);
  const DistMatrix d = DistMatrix::distribute(a, part);
  const int phi = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto scheme = RedundancyScheme::build(d.scatter_plan(), part, phi,
                                          BackupStrategy::kPaperAlternating);
    benchmark::DoNotOptimize(scheme.total_extra_elements());
  }
}
BENCHMARK(BM_RedundancySchemeBuild)->Arg(1)->Arg(3)->Arg(8);

// The backup store of the workloads' layouts: (matrix of layout_matrix, phi)
// on 64 nodes — the Poisson matrix, m1-iterate and m8-dense-rows at phi = 3,
// and m2-recover at phi = 8 — with the paper's two generations.
struct BackupBench {
  explicit BackupBench(const benchmark::State& state)
      : a(layout_matrix(state.range(0))),
        part(Partition::block_rows(a.rows(), 64)),
        d(DistMatrix::distribute(a, part)),
        phi(static_cast<int>(state.range(1))),
        p(part) {
    const auto scheme = RedundancyScheme::build(
        d.scatter_plan(), part, phi, BackupStrategy::kPaperAlternating);
    store.configure(d.scatter_plan(), scheme, part);
    std::vector<double> g(static_cast<std::size_t>(a.rows()), 1.0);
    p.set_global(g);
  }

  CsrMatrix a;
  Partition part;
  DistMatrix d;
  int phi;
  BackupStore store;
  DistVector p;
};

void backup_args(benchmark::internal::Benchmark* b) {
  b->Args({0, 3})->Args({1, 3})->Args({8, 3})->Args({2, 8});
}

void BM_BackupRecord(benchmark::State& state) {
  BackupBench bb(state);
  for (auto _ : state) {
    bb.store.record(bb.p);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_BackupRecord)->Apply(backup_args);

// Gathers both generations of psi = phi contiguous failed nodes from node 20.
void BM_GatherLost(benchmark::State& state) {
  BackupBench bb(state);
  bb.store.record(bb.p);
  bb.store.record(bb.p);
  Cluster cluster(bb.part, CommParams{});
  std::vector<NodeId> failed;
  for (NodeId f = 20; f < 20 + bb.phi; ++f) {
    failed.push_back(f);
    cluster.fail_node(f);
    bb.store.invalidate_node(f);
  }
  const auto rows = bb.part.rows_of_set(failed);
  for (auto _ : state) {
    auto got = bb.store.gather_lost(cluster, rows);
    benchmark::DoNotOptimize(got.gens[0].data());
  }
}
BENCHMARK(BM_GatherLost)->Apply(backup_args);

// The fused dot reduction, post + wait, of 1, 2 or 3 terms on 2^20 rows
// over 128 nodes: dot()'s r.z; dot_pair()'s r.z and r.r, the blocking PCG's
// per-iteration pair; and depth-1 pipelined CG's r.u, w.u and r.r.
void BM_FusedDots(benchmark::State& state) {
  const Partition part = Partition::block_rows(1 << 20, 128);
  Cluster cluster(part, CommParams{});
  DistVector r(part), z(part), w(part);
  std::vector<double> g(static_cast<std::size_t>(part.n()), 1.5);
  r.set_global(g);
  z.set_global(g);
  w.set_global(g);
  const Phase it = Phase::kIteration;
  for (auto _ : state) {
    PendingReduction red;
    switch (state.range(0)) {
      case 1: red = idots(cluster, {{&r, &z}}, it); break;
      case 2: red = idots(cluster, {{&r, &z}, {&r, &r}}, it); break;
      default: red = idots(cluster, {{&r, &z}, {&w, &z}, {&r, &r}}, it);
    }
    red.wait();
    benchmark::DoNotOptimize(red.value(0));
  }
}
BENCHMARK(BM_FusedDots)->DenseRange(1, 3);

// The depth-l pipelined solvers' fused Gram reduction (post + wait) at the
// rpcg_bench pipelined-latency shape, 64 nodes x 512 rows, for every basis
// width the pipelined layouts make: nb = 8, 12, 16 and 20 are CG and CR at
// depths 2 to 4 (nb = 8 is the pipelined-latency headline, CG at depth 2;
// nb = 12 is CR at depth 2). Every row feeds nb (nb + 1) / 2 multiply-adds.
// The second argument is the kernel's lane width, forced through
// detail::GramLanes: each width this host runs (2 SSE2, 4 AVX2, 8
// AVX-512F), so a log shows every path; ipipelined_gram runs the widest.
void gram_args(benchmark::internal::Benchmark* b) {
  for (const long nb : {8, 12, 16, 20})
    for (const long lanes : {2, 4, 8})
      if (lanes <= host_lanes()) b->Args({nb, lanes});
}

void BM_PipelinedGram(benchmark::State& state) {
  const auto nb = static_cast<int>(state.range(0));
  const auto lanes = static_cast<int>(state.range(1));
  const Partition part = Partition::block_rows(Index{64} * 512, 64);
  Cluster cluster(part, CommParams{});
  Rng rng(static_cast<std::uint64_t>(state.range(0)));
  std::vector<DistVector> basis;
  std::vector<double> g(static_cast<std::size_t>(part.n()));
  for (int i = 0; i < nb; ++i) {
    for (double& v : g) v = rng.uniform(-1.0, 1.0);
    basis.emplace_back(part);
    basis.back().set_global(g);
  }
  std::vector<const DistVector*> ptrs;
  for (const DistVector& b : basis) ptrs.push_back(&b);
  for (auto _ : state) {
    PendingReduction red =
        detail::GramLanes::post(cluster, ptrs, Phase::kIteration, lanes);
    red.wait();
    benchmark::DoNotOptimize(red.value(0));
  }
  state.counters["madds"] = benchmark::Counter(
      static_cast<double>(nb * (nb + 1) / 2) * static_cast<double>(part.n()),
      benchmark::Counter::kIsIterationInvariantRate);
  state.counters["lanes"] = static_cast<double>(lanes);
}
BENCHMARK(BM_PipelinedGram)->Apply(gram_args);

}  // namespace

BENCHMARK_MAIN();
