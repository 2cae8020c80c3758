#include "sim/dist_matrix.hpp"

#include <gtest/gtest.h>

#include "sparse/generators.hpp"
#include "test_util.hpp"

namespace rpcg {
namespace {

using testing::random_vector;

struct SpmvCase {
  std::string name;
  CsrMatrix matrix;
};

class DistSpmv : public ::testing::TestWithParam<std::tuple<int, int>> {
 protected:
  static CsrMatrix matrix_for(int which) {
    switch (which) {
      case 0:
        return poisson2d_5pt(11, 9);
      case 1:
        return circuit_like(10, 10, 0.08, 5);
      case 2:
        return elasticity3d(3, 3, 4, Stencil3d::kFacesCorners14, 0.0, 2);
      case 3:
        return random_spd(96, 11, 0.5, 12, 9);
      default:
        // Long-range: no band, so most of every row's columns are halo.
        return random_spd(150, 13, 0.0, 1, 31);
    }
  }
};

TEST_P(DistSpmv, MatchesSequentialSpmv) {
  const auto [which, nodes] = GetParam();
  const CsrMatrix a = matrix_for(which);
  const Partition part = Partition::block_rows(a.rows(), nodes);
  Cluster cluster(part, CommParams{});
  const DistMatrix d = DistMatrix::distribute(a, part);

  const auto xg = random_vector(a.rows(), 77);
  std::vector<double> y_ref(static_cast<std::size_t>(a.rows()));
  a.spmv(xg, y_ref);

  DistVector x(part), y(part);
  x.set_global(xg);
  std::vector<std::vector<double>> halos;
  d.spmv(cluster, x, y, halos, Phase::kIteration);
  // Bit equality, not closeness: every local row sums its nonzeros in the
  // order of the global row, and a faster SpMV must keep that order.
  EXPECT_EQ(y.gather_global(), y_ref);
  EXPECT_GT(cluster.clock().total(), 0.0);
}

// 7 nodes split every matrix into unequal blocks, some of odd length, whose
// last row runs outside the row pairs.
INSTANTIATE_TEST_SUITE_P(
    MatricesAndNodes, DistSpmv,
    ::testing::Combine(::testing::Values(0, 1, 2, 3, 4),
                       ::testing::Values(2, 4, 7, 8, 16)));

TEST(DistMatrix, LocalRowsMatchGlobal) {
  const CsrMatrix a = poisson2d_5pt(6, 6);
  const Partition part = Partition::block_rows(a.rows(), 4);
  const DistMatrix d = DistMatrix::distribute(a, part);
  Index total_nnz = 0;
  for (NodeId i = 0; i < 4; ++i) {
    const CsrMatrix& loc = d.local_rows(i);
    EXPECT_EQ(loc.rows(), part.size(i));
    EXPECT_EQ(loc.cols(), a.cols());
    total_nnz += loc.nnz();
    for (Index r = 0; r < loc.rows(); ++r) {
      const Index gr = part.begin(i) + r;
      ASSERT_EQ(loc.row_cols(r).size(), a.row_cols(gr).size());
      for (std::size_t p = 0; p < loc.row_cols(r).size(); ++p)
        EXPECT_EQ(loc.row_cols(r)[p], a.row_cols(gr)[p]);
    }
  }
  EXPECT_EQ(total_nnz, a.nnz());
}

TEST(DistMatrix, SpmvFlopsPerNode) {
  const CsrMatrix a = poisson2d_5pt(8, 8);
  const Partition part = Partition::block_rows(a.rows(), 4);
  const DistMatrix d = DistMatrix::distribute(a, part);
  const auto flops = d.spmv_flops_per_node();
  double total = 0.0;
  for (const double f : flops) total += f;
  EXPECT_DOUBLE_EQ(total, 2.0 * static_cast<double>(a.nnz()));
}

TEST(DistMatrix, SpmvWithFailedNodeThrows) {
  const CsrMatrix a = poisson2d_5pt(6, 6);
  const Partition part = Partition::block_rows(a.rows(), 3);
  Cluster cluster(part, CommParams{});
  const DistMatrix d = DistMatrix::distribute(a, part);
  DistVector x(part), y(part);
  std::vector<std::vector<double>> halos;
  cluster.fail_node(1);
  EXPECT_THROW(d.spmv(cluster, x, y, halos, Phase::kIteration),
               std::invalid_argument);
}

TEST(DistMatrix, RejectsNonSquareOrMismatched) {
  const CsrMatrix a = poisson2d_5pt(4, 4);
  const Partition part = Partition::block_rows(10, 2);  // wrong size
  EXPECT_THROW((void)DistMatrix::distribute(a, part), std::invalid_argument);
}

}  // namespace
}  // namespace rpcg
