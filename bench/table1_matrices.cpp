// Regenerates Table 1 of the paper: the eight SPD test problems (problem
// type, n, NNZ) — here the paper's SuiteSparse originals side by side with
// the generated analogues actually used in the experiments.
#include <cstdio>

#include "bench_support.hpp"

int main(int argc, char** argv) {
  using namespace rpcg;
  using namespace rpcg::bench;
  const CommonArgs args = CommonArgs::parse(argc, argv, {});
  print_header("Table 1: SPD test matrices (paper original vs generated analogue)",
               args);

  std::printf("%-4s %-14s %-20s %12s %12s | %10s %11s %8s\n", "Id", "Name",
              "Problem type", "paper n", "paper NNZ", "n", "NNZ",
              "nnz/row");
  for (const long idx : args.matrices) {
    const auto m = repro::make_matrix(static_cast<int>(idx), args.scale);
    std::printf("%-4s %-14s %-20s %12lld %12lld | %10lld %11lld %8.1f\n",
                m.id.c_str(), m.paper_name.c_str(), m.problem_type.c_str(),
                static_cast<long long>(m.paper_n),
                static_cast<long long>(m.paper_nnz),
                static_cast<long long>(m.matrix.rows()),
                static_cast<long long>(m.matrix.nnz()),
                static_cast<double>(m.matrix.nnz()) /
                    static_cast<double>(m.matrix.rows()));
  }
  return 0;
}
