#include "sim/dist_matrix.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "repro/matrices.hpp"
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

TEST(DistMatrix, RemappedColsMatchGlobal) {
  const CsrMatrix a = poisson2d_5pt(6, 6);
  const Partition part = Partition::block_rows(a.rows(), 4);
  const DistMatrix d = DistMatrix::distribute(a, part);
  EXPECT_EQ(&d.global(), &a);
  Index total_nnz = 0;
  for (NodeId i = 0; i < 4; ++i) {
    // Node i's operand columns, back to global: the own block, then the
    // halo in the plan's receive order.
    std::vector<Index> operand;
    for (Index r = part.begin(i); r < part.end(i); ++r) operand.push_back(r);
    for (const int id : d.scatter_plan().recvs_of(i)) {
      const auto& m = d.scatter_plan().messages()[static_cast<std::size_t>(id)];
      operand.insert(operand.end(), m.indices.begin(), m.indices.end());
    }
    const auto cols = d.remapped_cols(i);
    const Index first = a.row_ptr()[static_cast<std::size_t>(part.begin(i))];
    ASSERT_EQ(static_cast<Index>(cols.size()),
              a.row_ptr()[static_cast<std::size_t>(part.end(i))] - first);
    total_nnz += static_cast<Index>(cols.size());
    for (std::size_t p = 0; p < cols.size(); ++p)
      EXPECT_EQ(operand[static_cast<std::size_t>(cols[p])],
                a.col_idx()[static_cast<std::size_t>(first) + p]);
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

// The scatter plan and the operand columns of every rpcg_bench layout, pinned
// by an FNV-1a digest of each message's (src, dst, indices) in id order,
// every node's sends_of and recvs_of, every multiplicity and every node's
// remapped_cols: any change to the message order, the halo layout or the
// remap shows here.
TEST(DistMatrix, WorkloadScatterPlansArePinned) {
  struct Layout {
    int matrix;
    double scale;
    int nodes;
    std::uint64_t digest;
  };
  for (const Layout& l : {Layout{1, 8.0, 64, 0xc9b84575c96ce194ull},
                          Layout{8, 32.0, 64, 0x81dd2e1168095de1ull},
                          Layout{2, 12.0, 64, 0xf65e7c892757b400ull},
                          Layout{1, 16.0, 64, 0x45dd595c5c3104c0ull},
                          Layout{1, 32.0, 32, 0x2ef2241a20b481bcull},
                          Layout{2, 32.0, 32, 0xdd7b9eeb0fb92665ull},
                          Layout{4, 32.0, 32, 0x135ca9ccde95c7c7ull}}) {
    const CsrMatrix a = repro::make_matrix(l.matrix, l.scale).matrix;
    const Partition part = Partition::block_rows(a.rows(), l.nodes);
    const DistMatrix d = DistMatrix::distribute(a, part);
    const ScatterPlan& plan = d.scatter_plan();
    std::uint64_t h = 0xcbf29ce484222325ull;
    const auto mix = [&h](std::int64_t v) {
      const auto bits = static_cast<std::uint64_t>(v);
      for (int b = 0; b < 8; ++b)
        h = (h ^ ((bits >> (8 * b)) & 0xffu)) * 0x100000001b3ull;
    };
    const auto mix_all = [&mix](const auto& values) {
      mix(static_cast<std::int64_t>(values.size()));
      for (const auto v : values) mix(v);
    };
    mix(static_cast<std::int64_t>(plan.messages().size()));
    for (const ScatterMessage& m : plan.messages()) {
      mix(m.src);
      mix(m.dst);
      mix_all(m.indices);
    }
    for (NodeId i = 0; i < l.nodes; ++i) {
      mix_all(plan.sends_of(i));
      mix_all(plan.recvs_of(i));
    }
    for (Index s = 0; s < a.rows(); ++s) mix(plan.multiplicity(s));
    for (NodeId i = 0; i < l.nodes; ++i) mix_all(d.remapped_cols(i));
    EXPECT_EQ(h, l.digest) << "M" << l.matrix << " s" << l.scale << " on "
                           << l.nodes << " nodes: 0x" << std::hex << h;
  }
}

TEST(DistMatrix, RejectsNonSquareOrMismatched) {
  const CsrMatrix a = poisson2d_5pt(4, 4);
  const Partition part = Partition::block_rows(10, 2);  // wrong size
  EXPECT_THROW((void)DistMatrix::distribute(a, part), std::invalid_argument);
}

}  // namespace
}  // namespace rpcg
