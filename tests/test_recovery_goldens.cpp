// Recovery golden battery: every resilient engine and recovery method, each
// under two failure schedules, pinned bit for bit. The first has one
// simultaneous two-node failure and one during-recovery chain; the second
// has failures in back-to-back iterations that read the copies the previous
// recovery re-armed. A change to any recovery step — re-fetch, gather,
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
  Golden golden;        // two_node_event_and_chain()
  Golden back_to_back;  // back_to_back_failures()
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

/// Nodes {1, 2} fail together at iteration 3, node 0 at 4 and node 3 at 5;
/// at 6 node 5 fails and node 4 follows while node 5 is being recovered.
/// With phi = 2 on this layout every lost row of node 0 is served by node 1
/// and every lost row of node 3 by node 2 (BackupStore.
/// BackToBackFailuresReadReArmedCopies pins that), so the failures at 4 and
/// 5 read only copies the recovery at 3 re-armed.
FailureSchedule back_to_back_failures() {
  FailureSchedule s;
  s.add({3, {1, 2}, false});
  s.add({4, {0}, false});
  s.add({5, {3}, false});
  s.add({6, {5}, false});
  s.add({6, {4}, true});
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
  // Per case, the golden under two_node_event_and_chain(), then under
  // back_to_back_failures(), each
  // {sim_time, recovery-phase time, iterations, true residual, x digest,
  //  {{iteration, sim_seconds, gathered, lost_rows, local iterations}...}}
  return {
      {"esr_ic0", "resilient-pcg", esr(false),
       {0x1.68d6b870e5bfap-9, 0x1.178ad35b9bd7fp-9, 25, 0x1.5b34359182716p-29,
        0xc9817ffe5859b12ull,
        {{3, 0x1.1686227021b9p-10, 72, 36, 14},
         {7, 0x1.168803796f1d3p-10, 72, 36, 14}}},
       {0x1.3a63585df2cc2p-8, 0x1.11bd65d34dd84p-8, 25, 0x1.5b34286c0d5fcp-29,
        0xd23d8c3e112c8ad0ull,
        {{3, 0x1.1686227021b9p-10, 72, 36, 14},
         {4, 0x1.0b18abd62eb6bp-10, 36, 18, 10},
         {5, 0x1.0b265c87abb58p-10, 36, 18, 10},
         {6, 0x1.168803796f1d2p-10, 72, 36, 14}}}},
      {"esr_ldlt", "resilient-pcg", esr(true),
       {0x1.5cefeca2db2bp-9, 0x1.0ba4078d91435p-9, 25, 0x1.5b34201cd7fb3p-29,
        0xa2fd5040b867b2b5ull,
        {{3, 0x1.0a9fac8852ad2p-10, 72, 36, 1},
         {7, 0x1.0aa0e1c528ffdp-10, 72, 36, 1}}},
       {0x1.34265cbceda76p-8, 0x1.0b806a3248b39p-8, 25, 0x1.5b341d387148p-29,
        0x937c2803c19ba929ull,
        {{3, 0x1.0a9fac8852ad2p-10, 72, 36, 1},
         {4, 0x1.0a8580622f01fp-10, 36, 18, 1},
         {5, 0x1.0a933113ac00ep-10, 36, 18, 1},
         {6, 0x1.0aa0e1c528ffap-10, 72, 36, 1}}}},
      {"checkpoint_restart", "resilient-pcg",
       resilient_pcg(RecoveryMethod::kCheckpointRestart),
       {0x1.60ae779464903p-9, 0x1.0987d10ac3293p-9, 30, 0x1.5b341f6a9efdfp-29,
        0x216d4abaecd87479ull,
        {{3, 0x1.0954090e130a9p-10, 0, 36, 0},
         {7, 0x1.0954090e130a8p-10, 0, 36, 0}}},
       {0x1.3995e5ea5bfd2p-8, 0x1.096ab46a2f929p-8, 33, 0x1.5b341f6a9efdfp-29,
        0x216d4abaecd87479ull,
        {{3, 0x1.0954090e130a9p-10, 0, 36, 0},
         {4, 0x1.0947268524ed7p-10, 0, 18, 0},
         {5, 0x1.0954090e130a8p-10, 0, 18, 0},
         {6, 0x1.0954090e130a6p-10, 0, 36, 0}}}},
      {"twin", "resilient-pcg", resilient_pcg(RecoveryMethod::kTwin),
       {0x1.5790d9ae3bfb2p-9, 0x1.0b232ac4a824cp-9, 25, 0x1.5b341f6a9efdfp-29,
        0x216d4abaecd87479ull,
        {{3, 0x1.0aef62c7f8061p-10, 108, 36, 0},
         {7, 0x1.0aef62c7f8062p-10, 108, 36, 0}}},
       {0x1.313ce598de796p-8, 0x1.0b060e24148e3p-8, 25, 0x1.5b341f6a9efdfp-29,
        0x216d4abaecd87479ull,
        {{3, 0x1.0aef62c7f8061p-10, 108, 36, 0},
         {4, 0x1.0ae2803f09e91p-10, 54, 18, 0},
         {5, 0x1.0aef62c7f8062p-10, 54, 18, 0},
         {6, 0x1.0aef62c7f8062p-10, 108, 36, 0}}}},
      {"interpolation_restart", "resilient-pcg",
       resilient_pcg(RecoveryMethod::kInterpolationRestart),
       {0x1.7f62dfe9cd1d3p-9, 0x1.1880909a52b84p-9, 36, 0x1.c9147db87d45fp-29,
        0x6d49d0fd41b4f1b6ull,
        {{3, 0x1.15497cf17946cp-10, 0, 36, 14},
         {7, 0x1.154b5dfac6aaep-10, 0, 36, 14}}},
       {0x1.4543a36541c59p-8, 0x1.12cf78694163dp-8, 35, 0x1.c130bfe5540abp-29,
        0xa381e9a7ddb8d5d7ull,
        {{3, 0x1.15497cf17946cp-10, 0, 36, 14},
         {4, 0x1.09e164bb3ed0ap-10, 0, 18, 10},
         {5, 0x1.09ef156cbbcf6p-10, 0, 18, 10},
         {6, 0x1.154b5dfac6aaep-10, 0, 36, 14}}}},
      {"pipelined_pcg_depth1", "pipelined-resilient-pcg", pipelined(1),
       {0x1.3befb2647299ap-9, 0x1.1b02b755c750dp-9, 25, 0x1.5b34278ce44ccp-29,
        0xfdf4f4ce2e232241ull,
        {{3, 0x1.1a9b2e3b9f09fp-10, 144, 36, 14},
         {7, 0x1.1a9d0f44ec6e3p-10, 144, 36, 14}}},
       {0x1.2592bbcdd9b9cp-8, 0x1.151c3e4684155p-8, 25, 0x1.5b34048568175p-29,
        0x5785442d7cba7cf5ull,
        {{3, 0x1.1a9b2e3b9f09fp-10, 144, 36, 14},
         {4, 0x1.0f2eecde825a7p-10, 72, 18, 10},
         {5, 0x1.0f3c9d8fff594p-10, 72, 18, 10},
         {6, 0x1.1a9d0f44ec6e2p-10, 144, 36, 14}}}},
      {"pipelined_pcg_depth2", "pipelined-resilient-pcg", pipelined(2),
       {0x1.4ae6756dd4ea9p-9, 0x1.1b0521cf73f64p-9, 25, 0x1.5b34cb7b8a31bp-29,
        0x26af4f7390a0fd3dull,
        {{3, 0x1.1a9d1d035c5b1p-10, 180, 36, 14},
         {7, 0x1.1a9efe0ca9bf6p-10, 180, 36, 14}}},
       {0x1.2e5b82e99c13fp-8, 0x1.151e6ae73910ap-8, 25, 0x1.5b345a3c99c7ep-29,
        0x51ac2f7b9f45c593ull,
        {{3, 0x1.1a9d1d035c5b1p-10, 180, 36, 14},
         {4, 0x1.0f30dba63fabbp-10, 90, 18, 10},
         {5, 0x1.0f3e8c57bcaa8p-10, 90, 18, 10},
         {6, 0x1.1a9efe0ca9bf2p-10, 180, 36, 14}}}},
      {"pipelined_pcg_depth3", "pipelined-resilient-pcg", pipelined(3),
       {0x1.5a56759e0aef2p-9, 0x1.1cb0e92b2223ap-9, 25, 0x1.5b3c180e06612p-29,
        0xf72834bec418eaa6ull,
        {{3, 0x1.1c4868ad1b344p-10, 216, 36, 14},
         {7, 0x1.1c4a49b668986p-10, 216, 36, 14}}},
       {0x1.37066463a5ee8p-8, 0x1.16c9f469ef93ep-8, 25, 0x1.5b331535e51bap-29,
        0xdb95b35f02436816ull,
        {{3, 0x1.1c4868ad1b344p-10, 216, 36, 14},
         {4, 0x1.10dc274ffe84ap-10, 108, 18, 10},
         {5, 0x1.10e9d8017b838p-10, 108, 18, 10},
         {6, 0x1.1c4a49b668988p-10, 216, 36, 14}}}},
      {"pipelined_cr_depth1", "pipelined-resilient-cr", pipelined(1),
       {0x1.3befb2647299ap-9, 0x1.1b02b755c750dp-9, 25, 0x1.4ce6afa2e6097p-29,
        0x9909d6db301098a7ull,
        {{3, 0x1.1a9b2e3b9f09fp-10, 144, 36, 14},
         {7, 0x1.1a9d0f44ec6e3p-10, 144, 36, 14}}},
       {0x1.2592bbcdd9b9cp-8, 0x1.151c3e4684155p-8, 25, 0x1.4ce6a9887d484p-29,
        0x18b86a750a84ec98ull,
        {{3, 0x1.1a9b2e3b9f09fp-10, 144, 36, 14},
         {4, 0x1.0f2eecde825a7p-10, 72, 18, 10},
         {5, 0x1.0f3c9d8fff594p-10, 72, 18, 10},
         {6, 0x1.1a9d0f44ec6e2p-10, 144, 36, 14}}}},
      {"pipelined_cr_depth2", "pipelined-resilient-cr", pipelined(2),
       {0x1.501ea9cdea0f6p-9, 0x1.1cae7eb1757e4p-9, 25, 0x1.4ce73bce26f78p-29,
        0x96d23b662533279aull,
        {{3, 0x1.1c4679e55de31p-10, 180, 36, 14},
         {7, 0x1.1c485aeeab476p-10, 180, 36, 14}}},
       {0x1.31f330fe696bep-8, 0x1.16c7c7c93a98ap-8, 25, 0x1.4ce601f224e62p-29,
        0xb93b12672441acaeull,
        {{3, 0x1.1c4679e55de31p-10, 180, 36, 14},
         {4, 0x1.10da38884133bp-10, 90, 18, 10},
         {5, 0x1.10e7e939be328p-10, 90, 18, 10},
         {6, 0x1.1c485aeeab472p-10, 180, 36, 14}}}},
      {"bicgstab", "resilient-bicgstab", base_config(),
       {0x1.79e09186c2d5ap-9, 0x1.18a9fc04a138ep-9, 15, 0x1.4be04b8764941p-28,
        0x8593b581666746c4ull,
        {{3, 0x1.18436a4e579abp-10, 72, 36, 14},
         {7, 0x1.18454b57a4fedp-10, 72, 36, 14}}},
       {0x1.43565c7c2e841p-8, 0x1.12bb11bb1db5bp-8, 15, 0x1.4be041ea6e0d3p-28,
        0x61787efe9f638949ull,
        {{3, 0x1.18436a4e579abp-10, 72, 36, 14},
         {4, 0x1.0cc480f04cd0fp-10, 36, 18, 10},
         {5, 0x1.0cd3cdf2e7938p-10, 36, 18, 10},
         {6, 0x1.18454b57a4ff6p-10, 72, 36, 14}}}},
      {"stationary_jacobi", "stationary", stationary(StationaryMethod::kJacobi),
       {0x1.36a642a7f8e54p-7, 0x1.0ab0ef31e2b74p-9, 407, 0x1.f3279d66f00c8p-18,
        0xc7196ef7f0a85847ull,
        {{3, 0x1.0a7e1e9911413p-10, 36, 36, 0},
         {7, 0x1.0a7e1e9911413p-10, 36, 36, 0}}},
       {0x1.79442dfd1f71fp-7, 0x1.0a944e433e74fp-8, 407, 0x1.f3279d66f00c8p-18,
        0xc7196ef7f0a85847ull,
        {{3, 0x1.0a7e1e9911413p-10, 36, 36, 0},
         {4, 0x1.0a713c1023241p-10, 18, 18, 0},
         {5, 0x1.0a7e1e9911412p-10, 18, 18, 0},
         {6, 0x1.0a7e1e9911414p-10, 36, 36, 0}}}},
      {"stationary_ssor", "stationary", stationary(StationaryMethod::kSsor),
       {0x1.76abb239bd546p-8, 0x1.0ab0ef31e2b74p-9, 200, 0x1.de8424d0287bcp-18,
        0x1192af0965caa325ull,
        {{3, 0x1.0a7e1e9911413p-10, 36, 36, 0},
         {7, 0x1.0a7e1e9911413p-10, 36, 36, 0}}},
       {0x1.fbe788e40a6dcp-8, 0x1.0a944e433e74fp-8, 200, 0x1.de8424d0287bcp-18,
        0x1192af0965caa325ull,
        {{3, 0x1.0a7e1e9911413p-10, 36, 36, 0},
         {4, 0x1.0a713c1023241p-10, 18, 18, 0},
         {5, 0x1.0a7e1e9911412p-10, 18, 18, 0},
         {6, 0x1.0a7e1e9911414p-10, 36, 36, 0}}}},
  };
}

/// Runs the case under `schedule` and compares the report with `g`.
void expect_golden(const Case& c, const FailureSchedule& schedule,
                   const Golden& g) {
  engine::Problem problem = engine::ProblemBuilder()
                                .matrix(poisson2d_5pt(12, 12))
                                .nodes(8)
                                .preconditioner("bjacobi")
                                .build();
  const auto solver =
      engine::SolverRegistry::instance().create(c.solver, c.config);
  DistVector x = problem.make_x();
  const engine::SolveReport r = solver->solve(problem, x, schedule);
  const double recovery_time =
      r.sim_time_phase[static_cast<int>(Phase::kRecovery)];
  const std::uint64_t x_digest = digest(x.gather_global());

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

class RecoveryGoldens : public ::testing::TestWithParam<Case> {};

TEST_P(RecoveryGoldens, ReportIsBitIdentical) {
  expect_golden(GetParam(), two_node_event_and_chain(), GetParam().golden);
}

TEST_P(RecoveryGoldens, BackToBackReportIsBitIdentical) {
  expect_golden(GetParam(), back_to_back_failures(),
                GetParam().back_to_back);
}

INSTANTIATE_TEST_SUITE_P(
    Engines, RecoveryGoldens, ::testing::ValuesIn(cases()),
    [](const ::testing::TestParamInfo<Case>& p) { return p.param.name; });

}  // namespace
}  // namespace rpcg
