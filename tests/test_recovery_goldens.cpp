// Recovery golden battery: every resilient engine and recovery method, each
// against one simultaneous two-node failure and one during-recovery chain,
// pinned bit for bit. A change to any recovery step — re-fetch, gather,
// reconstruction, relation rebuild, re-arm, or the overlap charge — moves at
// least one of the pinned values:
//   * the total and the recovery-phase simulated time (hexfloat literals);
//   * every RecoveryRecord's sim_seconds, gathered_elements, lost_rows and
//     local_solve_iterations;
//   * the iteration count and the true residual norm;
//   * an FNV-1a digest of the final iterate.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "engine/problem.hpp"
#include "engine/registry.hpp"
#include "sparse/generators.hpp"

namespace rpcg {
namespace {

struct RecordGolden {
  int iteration;
  double sim_seconds;
  Index gathered_elements;
  Index lost_rows;
  int local_solve_iterations;
};

struct Golden {
  double sim_time;
  double recovery_time;
  int iterations;
  double true_residual_norm;
  std::uint64_t x_digest;
  std::vector<RecordGolden> records;
};

struct Case {
  std::string name;
  std::string solver;
  engine::SolverConfig config;
  Golden golden;
};

void PrintTo(const Case& c, std::ostream* os) { *os << c.name; }

/// Nodes {1, 2} fail together at iteration 3; at iteration 7 node 4 fails
/// and node 5 follows while node 4 is being recovered.
FailureSchedule two_node_event_and_chain() {
  FailureSchedule s;
  s.add({3, {1, 2}, false});
  s.add({7, {4}, false});
  s.add({7, {5}, true});
  return s;
}

/// FNV-1a over the bytes of every entry.
std::uint64_t digest(const std::vector<double>& x) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const double v : x) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    for (int b = 0; b < 8; ++b)
      h = (h ^ ((bits >> (8 * b)) & 0xffu)) * 0x100000001b3ull;
  }
  return h;
}

engine::SolverConfig base_config() {
  engine::SolverConfig c;
  c.rtol = 1e-9;
  c.max_iterations = 2000;
  c.phi = 2;
  return c;
}

engine::SolverConfig resilient_pcg(RecoveryMethod method) {
  engine::SolverConfig c = base_config();
  c.recovery = method;
  if (method != RecoveryMethod::kEsr) c.phi = 0;
  c.checkpoint_interval = 5;
  return c;
}

engine::SolverConfig esr(bool exact_local_solve) {
  engine::SolverConfig c = resilient_pcg(RecoveryMethod::kEsr);
  c.esr.exact_local_solve = exact_local_solve;
  return c;
}

engine::SolverConfig pipelined(int depth) {
  engine::SolverConfig c = base_config();
  c.pipeline_depth = depth;
  return c;
}

engine::SolverConfig stationary(StationaryMethod method) {
  engine::SolverConfig c = base_config();
  c.rtol = 1e-6;
  c.stationary_method = method;
  return c;
}

std::vector<Case> cases() {
  // {sim_time, recovery-phase time, iterations, true residual, x digest,
  //  {{iteration, sim_seconds, gathered, lost_rows, local iterations}...}}
  return {
      {"esr_ic0", "resilient-pcg", esr(false),
       {0x1.68d6b870e5bfap-9, 0x1.178ad35b9bd7fp-9, 25, 0x1.5b34359182716p-29,
        0xc9817ffe5859b12ull,
        {{3, 0x1.1686227021b9p-10, 72, 36, 14},
         {7, 0x1.168803796f1d3p-10, 72, 36, 14}}}},
      {"esr_ldlt", "resilient-pcg", esr(true),
       {0x1.5cefeca2db2bp-9, 0x1.0ba4078d91435p-9, 25, 0x1.5b34201cd7fb3p-29,
        0xa2fd5040b867b2b5ull,
        {{3, 0x1.0a9fac8852ad2p-10, 72, 36, 1},
         {7, 0x1.0aa0e1c528ffdp-10, 72, 36, 1}}}},
      {"checkpoint_restart", "resilient-pcg",
       resilient_pcg(RecoveryMethod::kCheckpointRestart),
       {0x1.60ae779464903p-9, 0x1.0987d10ac3293p-9, 30, 0x1.5b341f6a9efdfp-29,
        0x216d4abaecd87479ull,
        {{3, 0x1.0954090e130a9p-10, 0, 36, 0},
         {7, 0x1.0954090e130a8p-10, 0, 36, 0}}}},
      {"twin", "resilient-pcg", resilient_pcg(RecoveryMethod::kTwin),
       {0x1.5790d9ae3bfb2p-9, 0x1.0b232ac4a824cp-9, 25, 0x1.5b341f6a9efdfp-29,
        0x216d4abaecd87479ull,
        {{3, 0x1.0aef62c7f8061p-10, 108, 36, 0},
         {7, 0x1.0aef62c7f8062p-10, 108, 36, 0}}}},
      {"interpolation_restart", "resilient-pcg",
       resilient_pcg(RecoveryMethod::kInterpolationRestart),
       {0x1.7f62dfe9cd1d3p-9, 0x1.1880909a52b84p-9, 36, 0x1.c9147db87d45fp-29,
        0x6d49d0fd41b4f1b6ull,
        {{3, 0x1.15497cf17946cp-10, 0, 36, 14},
         {7, 0x1.154b5dfac6aaep-10, 0, 36, 14}}}},
      {"pipelined_pcg_depth1", "pipelined-resilient-pcg", pipelined(1),
       {0x1.3befb2647299ap-9, 0x1.1b02b755c750dp-9, 25, 0x1.5b34278ce44ccp-29,
        0xfdf4f4ce2e232241ull,
        {{3, 0x1.1a9b2e3b9f09fp-10, 144, 36, 14},
         {7, 0x1.1a9d0f44ec6e3p-10, 144, 36, 14}}}},
      {"pipelined_pcg_depth3", "pipelined-resilient-pcg", pipelined(3),
       {0x1.5a56759e0aef2p-9, 0x1.1cb0e92b2223ap-9, 25, 0x1.5b3c180e06612p-29,
        0xf72834bec418eaa6ull,
        {{3, 0x1.1c4868ad1b344p-10, 216, 36, 14},
         {7, 0x1.1c4a49b668986p-10, 216, 36, 14}}}},
      {"pipelined_cr_depth2", "pipelined-resilient-cr", pipelined(2),
       {0x1.501ea9cdea0f6p-9, 0x1.1cae7eb1757e4p-9, 25, 0x1.4ce73bce26f78p-29,
        0x96d23b662533279aull,
        {{3, 0x1.1c4679e55de31p-10, 180, 36, 14},
         {7, 0x1.1c485aeeab476p-10, 180, 36, 14}}}},
      {"bicgstab", "resilient-bicgstab", base_config(),
       {0x1.79e09186c2d5ap-9, 0x1.18a9fc04a138ep-9, 15, 0x1.4be04b8764941p-28,
        0x8593b581666746c4ull,
        {{3, 0x1.18436a4e579abp-10, 72, 36, 14},
         {7, 0x1.18454b57a4fedp-10, 72, 36, 14}}}},
      {"stationary_jacobi", "stationary", stationary(StationaryMethod::kJacobi),
       {0x1.36a642a7f8e54p-7, 0x1.0ab0ef31e2b74p-9, 407, 0x1.f3279d66f00c8p-18,
        0xc7196ef7f0a85847ull,
        {{3, 0x1.0a7e1e9911413p-10, 36, 36, 0},
         {7, 0x1.0a7e1e9911413p-10, 36, 36, 0}}}},
      {"stationary_ssor", "stationary", stationary(StationaryMethod::kSsor),
       {0x1.76abb239bd546p-8, 0x1.0ab0ef31e2b74p-9, 200, 0x1.de8424d0287bcp-18,
        0x1192af0965caa325ull,
        {{3, 0x1.0a7e1e9911413p-10, 36, 36, 0},
         {7, 0x1.0a7e1e9911413p-10, 36, 36, 0}}}},
  };
}

class RecoveryGoldens : public ::testing::TestWithParam<Case> {};

TEST_P(RecoveryGoldens, ReportIsBitIdentical) {
  const Case& c = GetParam();
  engine::Problem problem = engine::ProblemBuilder()
                                .matrix(poisson2d_5pt(12, 12))
                                .nodes(8)
                                .preconditioner("bjacobi")
                                .build();
  const auto solver =
      engine::SolverRegistry::instance().create(c.solver, c.config);
  DistVector x = problem.make_x();
  const engine::SolveReport r =
      solver->solve(problem, x, two_node_event_and_chain());
  const double recovery_time =
      r.sim_time_phase[static_cast<int>(Phase::kRecovery)];
  const std::uint64_t x_digest = digest(x.gather_global());

  const Golden& g = c.golden;
  EXPECT_EQ(r.sim_time, g.sim_time);
  EXPECT_EQ(recovery_time, g.recovery_time);
  EXPECT_EQ(r.iterations, g.iterations);
  EXPECT_EQ(r.true_residual_norm, g.true_residual_norm);
  EXPECT_EQ(x_digest, g.x_digest);
  ASSERT_EQ(r.recoveries.size(), g.records.size());
  for (std::size_t i = 0; i < g.records.size(); ++i) {
    const RecoveryRecord& rec = r.recoveries[i];
    const RecordGolden& want = g.records[i];
    SCOPED_TRACE("recovery " + std::to_string(i));
    EXPECT_EQ(rec.iteration, want.iteration);
    EXPECT_EQ(rec.stats.sim_seconds, want.sim_seconds);
    EXPECT_EQ(rec.stats.gathered_elements, want.gathered_elements);
    EXPECT_EQ(rec.stats.lost_rows, want.lost_rows);
    EXPECT_EQ(rec.stats.local_solve_iterations, want.local_solve_iterations);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Engines, RecoveryGoldens, ::testing::ValuesIn(cases()),
    [](const ::testing::TestParamInfo<Case>& p) { return p.param.name; });

}  // namespace
}  // namespace rpcg
