#include "sim/scatter_plan.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <set>

#include "sim/dist_matrix.hpp"
#include "sparse/coo.hpp"
#include "sparse/generators.hpp"
#include "test_util.hpp"

namespace rpcg {
namespace {

// Brute-force S_ik: the columns of node k's rows that are owned by node i.
std::set<Index> expected_s_ik(const CsrMatrix& a, const Partition& part,
                              NodeId i, NodeId k) {
  std::set<Index> out;
  if (i == k) return out;
  for (Index r = part.begin(k); r < part.end(k); ++r)
    for (const Index c : a.row_cols(r))
      if (c >= part.begin(i) && c < part.end(i)) out.insert(c);
  return out;
}

struct PlanCase {
  const char* name;
  CsrMatrix matrix;
  int nodes;
};

class ScatterPlanCorrectness : public ::testing::TestWithParam<int> {};

TEST_P(ScatterPlanCorrectness, SikMatchesBruteForce) {
  const int nodes = GetParam();
  const CsrMatrix a = circuit_like(12, 12, 0.05, 21);
  const Partition part = Partition::block_rows(a.rows(), nodes);
  const DistMatrix d = DistMatrix::distribute(a, part);
  const ScatterPlan& plan = d.scatter_plan();
  for (NodeId i = 0; i < nodes; ++i) {
    for (NodeId k = 0; k < nodes; ++k) {
      if (i == k) continue;
      const auto expect = expected_s_ik(a, part, i, k);
      const auto got = plan.s_ik(i, k);
      ASSERT_EQ(got.size(), expect.size()) << "i=" << i << " k=" << k;
      std::size_t idx = 0;
      for (const Index s : expect) EXPECT_EQ(got[idx++], s);
    }
  }
}

TEST_P(ScatterPlanCorrectness, MultiplicityMatchesDefinition) {
  const int nodes = GetParam();
  const CsrMatrix a = poisson2d_5pt(10, 10);
  const Partition part = Partition::block_rows(a.rows(), nodes);
  const DistMatrix dist_held = DistMatrix::distribute(a, part);
  const ScatterPlan& plan = dist_held.scatter_plan();
  for (Index s = 0; s < a.rows(); ++s) {
    const NodeId owner = part.owner(s);
    int expect = 0;
    for (NodeId k = 0; k < nodes; ++k)
      if (k != owner && expected_s_ik(a, part, owner, k).count(s) > 0) ++expect;
    EXPECT_EQ(plan.multiplicity(s), expect) << "s=" << s;
  }
}

INSTANTIATE_TEST_SUITE_P(NodeCounts, ScatterPlanCorrectness,
                         ::testing::Values(2, 3, 4, 7, 16));

TEST(ScatterPlan, TridiagOnlySendsBoundary) {
  // A tridiagonal matrix needs exactly one element from each neighbouring
  // block, nothing else.
  const CsrMatrix a = tridiag_spd(40);
  const Partition part = Partition::block_rows(40, 4);
  const DistMatrix dist_held = DistMatrix::distribute(a, part);
  const ScatterPlan& plan = dist_held.scatter_plan();
  for (const auto& m : plan.messages()) {
    EXPECT_EQ(std::abs(m.src - m.dst), 1);  // only adjacent nodes talk
    EXPECT_EQ(m.indices.size(), 1u);        // one boundary element each
  }
  EXPECT_EQ(plan.messages().size(), 6u);  // 3 boundaries x 2 directions
  EXPECT_EQ(plan.halo_size(0), 1);
  EXPECT_EQ(plan.halo_size(1), 2);
}

TEST(ScatterPlan, CommCostMatchesModel) {
  const CsrMatrix a = tridiag_spd(40);
  const Partition part = Partition::block_rows(40, 4);
  const DistMatrix dist_held = DistMatrix::distribute(a, part);
  const ScatterPlan& plan = dist_held.scatter_plan();
  const CommModel model{CommParams{}};
  const auto costs = plan.comm_cost_per_node(model);
  // Interior nodes send two 1-element messages, edge nodes one.
  EXPECT_DOUBLE_EQ(costs[0], model.message_cost(1));
  EXPECT_DOUBLE_EQ(costs[1], 2.0 * model.message_cost(1));
  EXPECT_DOUBLE_EQ(costs[3], model.message_cost(1));
}

TEST(ScatterPlan, ExecuteScatterDeliversValues) {
  const CsrMatrix a = tridiag_spd(12);
  const Partition part = Partition::block_rows(12, 3);
  Cluster cluster(part, CommParams{});
  const DistMatrix d = DistMatrix::distribute(a, part);
  DistVector x(part);
  std::vector<double> g(12);
  for (int i = 0; i < 12; ++i) g[static_cast<std::size_t>(i)] = 10.0 + i;
  x.set_global(g);
  std::vector<std::vector<double>> halos;
  execute_scatter(cluster, d.scatter_plan(), x, halos, Phase::kIteration);
  // Node 1 owns rows 4..7; its operand is those 4 own entries followed by
  // the halo {row 3 (from node 0), row 8 (node 2)}.
  ASSERT_EQ(halos[1].size(), 6u);
  for (int k = 0; k < 4; ++k)
    EXPECT_DOUBLE_EQ(halos[1][static_cast<std::size_t>(k)], 14.0 + k);
  EXPECT_DOUBLE_EQ(halos[1][4], 13.0);
  EXPECT_DOUBLE_EQ(halos[1][5], 18.0);
  EXPECT_GT(cluster.clock().total(), 0.0);  // cost was charged
}

TEST(ScatterPlan, BlockDiagonalMatrixNeedsNoCommunication) {
  // A block-diagonal matrix aligned with the partition: empty plan.
  const Partition part = Partition::block_rows(20, 4);
  TripletBuilder b;
  for (Index i = 0; i < 20; ++i) b.add(i, i, 2.0);
  for (NodeId node = 0; node < 4; ++node)
    for (Index i = part.begin(node); i + 1 < part.end(node); ++i)
      b.add_sym(i, i + 1, -1.0);
  const CsrMatrix a = b.build(20, 20);
  const DistMatrix dist_held = DistMatrix::distribute(a, part);
  const ScatterPlan& plan = dist_held.scatter_plan();
  EXPECT_TRUE(plan.messages().empty());
  for (Index s = 0; s < 20; ++s) EXPECT_EQ(plan.multiplicity(s), 0);
}

}  // namespace
}  // namespace rpcg
