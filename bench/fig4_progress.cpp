// Fig. 4 of the paper: matrix M5 analogue, three node failures at the center,
// introduced at 20/50/80 % of the solver's progress. Expected shape: the
// failure iteration has little influence on the total runtime.
#include <cstdio>

#include "bench_support.hpp"

int main(int argc, char** argv) {
  using namespace rpcg;
  using namespace rpcg::bench;
  const CommonArgs args = CommonArgs::parse(argc, argv, {"phi", "matrix"});
  const Options o(argc, argv);
  const int phi = static_cast<int>(o.get_int("phi", 3));
  const int matrix = static_cast<int>(o.get_int("matrix", 5));

  const auto mat = repro::make_matrix(matrix, args.scale);
  repro::ExperimentRunner runner(mat.matrix, args.config());
  char title[128];
  std::snprintf(title, sizeof title,
                "Fig. 4: %s, %d failures at center vs progress at failure",
                mat.id.c_str(), phi);
  print_header(title, args);

  int seed = 400;
  for (const double progress : {0.2, 0.5, 0.8}) {
    std::vector<double> samples;
    for (int r = 0; r < std::max(args.reps, 5); ++r) {
      samples.push_back(runner
                            .run_with_failures(phi, phi,
                                               repro::FailureLocation::kCenter,
                                               progress,
                                               static_cast<std::uint64_t>(seed++))
                            .sim_time);
    }
    char label[64];
    std::snprintf(label, sizeof label, "progress %2.0f%%", 100.0 * progress);
    print_box(label, summarize(samples));
  }
  return 0;
}
