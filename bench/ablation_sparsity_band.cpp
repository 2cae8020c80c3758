// Sec. 5 of the paper: the redundancy overhead is governed by the sparsity
// pattern. Sweeping the half-bandwidth of a (periodic) banded matrix shows
// the predicted transition: once the matrix is dense within a band of
// half-width phi*n/(2N) around the diagonal, every element already reaches
// its phi designated backups during SpMV and the extra traffic vanishes.
#include <cstdio>

#include "bench_support.hpp"
#include "core/redundancy.hpp"
#include "sim/dist_matrix.hpp"
#include "sparse/generators.hpp"

int main(int argc, char** argv) {
  using namespace rpcg;
  using namespace rpcg::bench;
  const CommonArgs args = CommonArgs::parse(argc, argv, {"n", "phi"});
  const Options o(argc, argv);
  const Index n = o.get_int("n", 8192);
  const int phi = static_cast<int>(o.get_int("phi", 3));
  print_header("Sec. 5 ablation: extra traffic vs matrix bandwidth "
               "(periodic band, density 1)",
               args);
  const Index block = n / args.nodes;
  const Index threshold = phi * block / 2 + (phi * block % 2 != 0 ? 1 : 0);
  std::printf("n=%lld, N=%d, phi=%d -> zero-overhead threshold at half-band "
              ">= ceil(phi*n/(2N)) = %lld\n\n",
              static_cast<long long>(n), args.nodes, phi,
              static_cast<long long>(threshold));
  std::printf("%10s %14s %14s %14s\n", "half-band", "extra elems",
              "extra lat.", "overhead [s]");

  const CommModel model{CommParams{}};
  for (const Index hb :
       {block / 8, block / 4, block / 2, block, (3 * block) / 2, 2 * block,
        threshold, threshold + block / 4}) {
    if (hb < 1) continue;
    const CsrMatrix a = banded_spd(n, hb, 1.0, 11, /*periodic=*/true);
    const Partition part = Partition::block_rows(n, args.nodes);
    const DistMatrix dist = DistMatrix::distribute(a, part);
    const auto scheme = RedundancyScheme::build(
        dist.scatter_plan(), part, phi, BackupStrategy::kPaperAlternating);
    std::printf("%10lld %14lld %14d %14.3e\n", static_cast<long long>(hb),
                static_cast<long long>(scheme.total_extra_elements()),
                scheme.extra_latency_messages(),
                scheme.per_iteration_overhead(model));
    std::fflush(stdout);
  }
  return 0;
}
