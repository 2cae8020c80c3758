// Sec. 4.2 of the paper: the communication overhead of distributing the phi
// redundant copies lies between 0 and phi * (lambda_max + ceil(n/N) mu).
// This bench measures the model overhead per iteration for every matrix and
// phi = 1..8 and reports it against the analytic upper bound.
#include <cstdio>

#include "bench_support.hpp"
#include "core/redundancy.hpp"
#include "sim/dist_matrix.hpp"

int main(int argc, char** argv) {
  using namespace rpcg;
  using namespace rpcg::bench;
  const CommonArgs args = CommonArgs::parse(argc, argv, {});
  print_header("Sec. 4.2 bound check: per-iteration redundancy overhead vs "
               "phi (lambda_max + ceil(n/N) mu)",
               args);
  std::printf("%-4s %4s %14s %14s %8s %12s %12s\n", "ID", "phi", "overhead[s]",
              "bound[s]", "ratio", "extra elems", "extra lat.");

  const CommModel model{CommParams{}};
  for (const long idx : args.matrices) {
    const auto mat = repro::make_matrix(static_cast<int>(idx), args.scale);
    const Partition part = Partition::block_rows(mat.matrix.rows(), args.nodes);
    const DistMatrix dist = DistMatrix::distribute(mat.matrix, part);
    for (int phi = 1; phi <= 8; ++phi) {
      const auto scheme =
          RedundancyScheme::build(dist.scatter_plan(), part, phi,
                                  BackupStrategy::kPaperAlternating);
      const double overhead = scheme.per_iteration_overhead(model);
      const double bound = scheme.paper_upper_bound(model, part);
      std::printf("%-4s %4d %14.3e %14.3e %8.3f %12lld %12d%s\n",
                  mat.id.c_str(), phi, overhead, bound, overhead / bound,
                  static_cast<long long>(scheme.total_extra_elements()),
                  scheme.extra_latency_messages(),
                  overhead <= bound ? "" : "  VIOLATION");
    }
    std::fflush(stdout);
  }
  return 0;
}
