#include "sparse/generators.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "repro/matrices.hpp"
#include "sparse/ldlt.hpp"

namespace rpcg {
namespace {

double avg_row_nnz(const CsrMatrix& a) {
  return static_cast<double>(a.nnz()) / static_cast<double>(a.rows());
}

// FNV-1a over the little-endian bytes of a matrix's shape, row pointers,
// columns and value bit patterns, folded into `h`.
void mix_csr(std::uint64_t& h, const CsrMatrix& a) {
  const auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b)
      h = (h ^ ((v >> (8 * b)) & 0xffu)) * 0x100000001b3ull;
  };
  mix(static_cast<std::uint64_t>(a.rows()));
  mix(static_cast<std::uint64_t>(a.cols()));
  for (const Index p : a.row_ptr()) mix(static_cast<std::uint64_t>(p));
  for (const Index c : a.col_idx()) mix(static_cast<std::uint64_t>(c));
  for (const double v : a.values()) mix(std::bit_cast<std::uint64_t>(v));
}

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;

// Every generator must produce a symmetric positive definite matrix — the
// fundamental requirement of the (P)CG method. Positive definiteness is
// verified constructively by a successful LDLᵀ factorization.
void expect_spd(const CsrMatrix& a) {
  EXPECT_TRUE(a.is_symmetric(1e-12));
  EXPECT_TRUE(SparseLdlt::factor(a).has_value());
}

TEST(Generators, Poisson2dBasics) {
  const CsrMatrix a = poisson2d_5pt(9, 7);
  EXPECT_EQ(a.rows(), 63);
  expect_spd(a);
  EXPECT_DOUBLE_EQ(a.value_at(0, 0), 4.0);
  EXPECT_NEAR(avg_row_nnz(a), 5.0, 0.6);  // boundary rows have fewer
}

TEST(Generators, Fem2dP1SevenPointPattern) {
  const CsrMatrix a = fem2d_p1(10, 10);
  expect_spd(a);
  // Interior vertex (5,5) couples to 6 neighbours + itself.
  const Index i = 5 * 10 + 5;
  EXPECT_EQ(static_cast<int>(a.row_cols(i).size()), 7);
  EXPECT_NEAR(avg_row_nnz(a), 7.0, 0.8);
}

TEST(Generators, Poisson3dBasics) {
  const CsrMatrix a = poisson3d_7pt(5, 6, 7);
  EXPECT_EQ(a.rows(), 210);
  expect_spd(a);
  EXPECT_NEAR(avg_row_nnz(a), 7.0, 1.5);  // boundary rows have fewer
}

TEST(Generators, CircuitLikeHasLongRangeEdges) {
  const CsrMatrix a = circuit_like(20, 20, 0.05, 42);
  expect_spd(a);
  // Long-range vias exceed the grid bandwidth of a pure 5-point stencil.
  EXPECT_GT(a.bandwidth(), 20);
  EXPECT_NEAR(avg_row_nnz(a), 5.0, 1.0);
}

TEST(Generators, CircuitDeterministicPerSeed) {
  const CsrMatrix a = circuit_like(15, 15, 0.05, 1);
  const CsrMatrix b = circuit_like(15, 15, 0.05, 1);
  const CsrMatrix c = circuit_like(15, 15, 0.05, 2);
  EXPECT_EQ(a.nnz(), b.nnz());
  EXPECT_DOUBLE_EQ(a.value_at(0, 1), b.value_at(0, 1));
  EXPECT_NE(a.value_at(0, 1), c.value_at(0, 1));
}

TEST(Generators, RandomSpdTargetDegree) {
  const CsrMatrix a = random_spd(800, 16, 0.7, 40, 7);
  expect_spd(a);
  EXPECT_NEAR(avg_row_nnz(a), 16.0, 3.0);
}

TEST(Generators, ElasticityBlockStructure) {
  const CsrMatrix a = elasticity3d(5, 5, 5, Stencil3d::kFacesCorners14, 0.0, 1);
  EXPECT_EQ(a.rows(), 3 * 125);
  expect_spd(a);
  // Interior vertex: 14 neighbours + self, 3x3 dense blocks -> 45 per row.
  const Index center = ((2 * 5 + 2) * 5 + 2);
  EXPECT_EQ(static_cast<int>(a.row_cols(3 * center).size()), 45);
}

TEST(Generators, ElasticityStencilSizes) {
  const Index c = 3 * ((2 * 5 + 2) * 5 + 2);
  EXPECT_EQ(static_cast<int>(
                elasticity3d(5, 5, 5, Stencil3d::kFaces6, 0.0, 1).row_cols(c).size()),
            21);
  EXPECT_EQ(static_cast<int>(elasticity3d(5, 5, 5, Stencil3d::kFacesEdges18, 0.0, 1)
                                 .row_cols(c)
                                 .size()),
            57);
  EXPECT_EQ(static_cast<int>(
                elasticity3d(5, 5, 5, Stencil3d::kFull26, 0.0, 1).row_cols(c).size()),
            81);
}

TEST(Generators, ElasticityDropReducesDensity) {
  const CsrMatrix full = elasticity3d(6, 6, 6, Stencil3d::kFacesEdges18, 0.0, 3);
  const CsrMatrix dropped = elasticity3d(6, 6, 6, Stencil3d::kFacesEdges18, 0.3, 3);
  expect_spd(dropped);
  EXPECT_LT(dropped.nnz(), full.nnz());
  EXPECT_NEAR(static_cast<double>(dropped.nnz()) / static_cast<double>(full.nnz()),
              0.72, 0.12);  // ~30 % of neighbour couplings removed
}

// Every bit of the reproduction matrices at the scales the benchmark and the
// benches use: any change to a generator's pattern, values or summation
// order shows here.
TEST(Generators, ReproMatricesArePinned) {
  struct Pin {
    int matrix;
    double scale;
    std::uint64_t digest;
  };
  for (const Pin& p : {
           Pin{1, 64.0, 0xf5a7c170db17e8ffull},
           Pin{2, 64.0, 0xd75efe7cd5998956ull},
           Pin{3, 64.0, 0x769303db2977c1eaull},
           Pin{4, 64.0, 0xa8f34371ba720d18ull},
           Pin{5, 64.0, 0xabd9fd3abe69240aull},
           Pin{6, 64.0, 0x74b6277765bb5ab9ull},
           Pin{7, 64.0, 0xa0d68f525c2fbb79ull},
           Pin{8, 64.0, 0xcccc8870ed53ce1aull},
           Pin{1, 32.0, 0x16c9e2c64c9868a2ull},
           Pin{2, 32.0, 0x56000f310d2cf0baull},
           Pin{3, 32.0, 0x3317f71e537d20d8ull},
           Pin{4, 32.0, 0xe28ac44323c9a2b3ull},
           Pin{5, 32.0, 0x7ead5e3fc297857cull},
           Pin{6, 32.0, 0xe598d0e071e080bbull},
           Pin{7, 32.0, 0x9c134f134f1ec5c9ull},
           Pin{8, 32.0, 0xdfbbdcd3baf20524ull},
           Pin{1, 8.0, 0xcfd6c0b3855d6ea3ull},
           Pin{2, 12.0, 0x0f662701d20aa2e1ull},
           Pin{1, 16.0, 0xfa17c3c4779445dcull}}) {
    std::uint64_t h = kFnvOffset;
    mix_csr(h, repro::make_matrix(p.matrix, p.scale).matrix);
    EXPECT_EQ(h, p.digest) << "M" << p.matrix << " s" << p.scale << ": 0x"
                           << std::hex << h;
  }
}

// elasticity3d on non-cubic grids for every stencil, at no drop, at M5-M7's
// drop fractions, and at 0.5 and 0.9, where some vertices lose every
// coupling; each with the default shift and with none. One digest per grid
// and stencil covers its twelve matrices.
TEST(Generators, ElasticityIsPinned) {
  struct Pin {
    Index nx, ny, nz;
    Stencil3d set;
    std::uint64_t digest;
  };
  for (const Pin& p : {
           Pin{2, 3, 4, Stencil3d::kFaces6, 0xef8f0020f4d4743aull},
           Pin{2, 3, 4, Stencil3d::kFacesCorners14, 0x49b13d928ace8557ull},
           Pin{2, 3, 4, Stencil3d::kFacesEdges18, 0xfb7ae13dfacdc0a7ull},
           Pin{2, 3, 4, Stencil3d::kFull26, 0x36c6d57c9cc7f4ddull},
           Pin{5, 6, 7, Stencil3d::kFaces6, 0x1ec82927fd99751aull},
           Pin{5, 6, 7, Stencil3d::kFacesCorners14, 0x582d7c2b07c44373ull},
           Pin{5, 6, 7, Stencil3d::kFacesEdges18, 0x2cd66fcb93bbf554ull},
           Pin{5, 6, 7, Stencil3d::kFull26, 0x5b12f2fac6f97afcull}}) {
    std::uint64_t h = kFnvOffset;
    for (const double drop : {0.0, 0.02, 0.08, 0.15, 0.5, 0.9}) {
      mix_csr(h, elasticity3d(p.nx, p.ny, p.nz, p.set, drop, 0xE1));
      mix_csr(h, elasticity3d(p.nx, p.ny, p.nz, p.set, drop, 0xE1, 0.0));
    }
    EXPECT_EQ(h, p.digest) << p.nx << "x" << p.ny << "x" << p.nz << " set "
                           << static_cast<int>(p.set) << ": 0x" << std::hex
                           << h;
  }
}

// fem2d_p1 on grids one vertex wide or tall and on small rectangles, at
// shifts that are tiny, zero of either sign, negative, or large, and at
// 0.125 and 0.25, whose 4 * shift ties the edge weights 0.5 and 1.0. One
// digest per grid covers its eight matrices.
TEST(Generators, Fem2dP1IsPinned) {
  struct Pin {
    Index nx, ny;
    std::uint64_t digest;
  };
  for (const Pin& p : {Pin{1, 1, 0x0d8a200415dc2c6dull},
                       Pin{1, 7, 0x0b42dfa255ae59d7ull},
                       Pin{7, 1, 0x0b42dfa255ae59d7ull},
                       Pin{2, 3, 0x182f15051ffa709dull},
                       Pin{5, 4, 0x0cc5185d94bf3af9ull},
                       Pin{16, 9, 0x83d5e7b3f9e5f889ull}}) {
    std::uint64_t h = kFnvOffset;
    for (const double shift : {1e-4, 0.0, -0.0, 0.125, 0.25, 0.3, -1e-3, 5.0})
      mix_csr(h, fem2d_p1(p.nx, p.ny, shift));
    EXPECT_EQ(h, p.digest) << p.nx << "x" << p.ny << ": 0x" << std::hex << h;
  }
}

TEST(Generators, BandedSpdRespectsBandwidth) {
  const CsrMatrix a = banded_spd(200, 9, 0.5, 5);
  expect_spd(a);
  EXPECT_LE(a.bandwidth(), 9);
  const CsrMatrix dense_band = banded_spd(100, 5, 1.0, 5);
  EXPECT_EQ(dense_band.bandwidth(), 5);
}

TEST(Generators, TridiagSpd) {
  const CsrMatrix a = tridiag_spd(50);
  expect_spd(a);
  EXPECT_EQ(a.bandwidth(), 1);
  EXPECT_EQ(a.nnz(), 50 + 2 * 49);
}

TEST(Generators, InvalidArgumentsThrow) {
  EXPECT_THROW((void)poisson2d_5pt(0, 3), std::invalid_argument);
  EXPECT_THROW((void)random_spd(2, 16, 0.5, 5, 1), std::invalid_argument);
  EXPECT_THROW((void)elasticity3d(4, 4, 4, Stencil3d::kFull26, 1.0, 1),
               std::invalid_argument);
  EXPECT_THROW((void)banded_spd(10, 0, 0.5, 1), std::invalid_argument);
}

}  // namespace
}  // namespace rpcg
