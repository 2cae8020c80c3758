// Ablation of the backup-target strategy (the paper's Eqn. 5 heuristic vs
// the ring generalization of Chen's scheme, random placement, and the
// greedy sparsity-adaptive selection named as future work in Sec. 8):
// extra elements, extra latency messages, and per-iteration model overhead.
#include <cstdio>

#include "bench_support.hpp"
#include "core/redundancy.hpp"
#include "sim/dist_matrix.hpp"

int main(int argc, char** argv) {
  using namespace rpcg;
  using namespace rpcg::bench;
  const CommonArgs args = CommonArgs::parse(argc, argv, {"phi"});
  const Options o(argc, argv);
  const int phi = static_cast<int>(o.get_int("phi", 3));
  print_header("Backup-target strategy ablation (phi = 3)", args);
  std::printf("%-4s %-18s %14s %12s %14s\n", "ID", "strategy", "extra elems",
              "extra lat.", "overhead [s]");

  const CommModel model{CommParams{}};
  for (const long idx : args.matrices) {
    const auto mat = repro::make_matrix(static_cast<int>(idx), args.scale);
    const Partition part = Partition::block_rows(mat.matrix.rows(), args.nodes);
    const DistMatrix dist = DistMatrix::distribute(mat.matrix, part);
    for (const BackupStrategy strat :
         {BackupStrategy::kPaperAlternating, BackupStrategy::kRing,
          BackupStrategy::kRandom, BackupStrategy::kGreedyOverlap}) {
      const auto scheme =
          RedundancyScheme::build(dist.scatter_plan(), part, phi, strat, 42);
      std::printf("%-4s %-18s %14lld %12d %14.3e\n", mat.id.c_str(),
                  to_string(strat).c_str(),
                  static_cast<long long>(scheme.total_extra_elements()),
                  scheme.extra_latency_messages(),
                  scheme.per_iteration_overhead(model));
    }
    std::fflush(stdout);
  }
  return 0;
}
