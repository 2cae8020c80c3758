#include "sparse/csr.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sparse/coo.hpp"
#include "sparse/generators.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace rpcg {
namespace {

using testing::max_diff;
using testing::random_vector;

CsrMatrix small_example() {
  // [ 4 -1  0 ]
  // [-1  4 -2 ]
  // [ 0 -2  5 ]
  TripletBuilder b;
  b.add(0, 0, 4.0);
  b.add_sym(0, 1, -1.0);
  b.add(1, 1, 4.0);
  b.add_sym(1, 2, -2.0);
  b.add(2, 2, 5.0);
  return b.build(3, 3);
}

TEST(Csr, ConstructionValidation) {
  // Unsorted columns within a row must be rejected.
  EXPECT_THROW(CsrMatrix(1, 3, {0, 2}, {2, 0}, {1.0, 1.0}), std::invalid_argument);
  // Column out of range.
  EXPECT_THROW(CsrMatrix(1, 2, {0, 1}, {5}, {1.0}), std::invalid_argument);
  // row_ptr size mismatch.
  EXPECT_THROW(CsrMatrix(2, 2, {0, 1}, {0}, {1.0}), std::invalid_argument);
  // Valid case.
  EXPECT_NO_THROW(CsrMatrix(2, 2, {0, 1, 2}, {0, 1}, {1.0, 2.0}));
}

TEST(Csr, Identity) {
  const CsrMatrix i = CsrMatrix::identity(4);
  EXPECT_EQ(i.nnz(), 4);
  EXPECT_DOUBLE_EQ(i.value_at(2, 2), 1.0);
  EXPECT_DOUBLE_EQ(i.value_at(2, 3), 0.0);
}

TEST(Csr, ValueAt) {
  const CsrMatrix a = small_example();
  EXPECT_DOUBLE_EQ(a.value_at(0, 0), 4.0);
  EXPECT_DOUBLE_EQ(a.value_at(1, 2), -2.0);
  EXPECT_DOUBLE_EQ(a.value_at(0, 2), 0.0);
}

TEST(Csr, SpmvMatchesManual) {
  const CsrMatrix a = small_example();
  const std::vector<double> x{1.0, 2.0, 3.0};
  std::vector<double> y(3);
  a.spmv(x, y);
  EXPECT_DOUBLE_EQ(y[0], 4.0 * 1 - 1.0 * 2);
  EXPECT_DOUBLE_EQ(y[1], -1.0 * 1 + 4.0 * 2 - 2.0 * 3);
  EXPECT_DOUBLE_EQ(y[2], -2.0 * 2 + 5.0 * 3);
  std::vector<double> y2 = y;
  a.spmv_add(x, y2);
  for (int i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(y2[static_cast<std::size_t>(i)],
                                               2.0 * y[static_cast<std::size_t>(i)]);
}

TEST(Csr, SpmvSizeMismatchThrows) {
  const CsrMatrix a = small_example();
  std::vector<double> x(2), y(3);
  EXPECT_THROW(a.spmv(x, y), std::invalid_argument);
}

TEST(Csr, SubmatrixSelectsRowsAndCols) {
  const CsrMatrix a = small_example();
  const std::vector<Index> rows{0, 2};
  const std::vector<Index> cols{1, 2};
  const CsrMatrix s = a.submatrix(rows, cols);
  EXPECT_EQ(s.rows(), 2);
  EXPECT_EQ(s.cols(), 2);
  EXPECT_DOUBLE_EQ(s.value_at(0, 0), -1.0);  // A(0,1)
  EXPECT_DOUBLE_EQ(s.value_at(0, 1), 0.0);   // A(0,2)
  EXPECT_DOUBLE_EQ(s.value_at(1, 0), -2.0);  // A(2,1)
  EXPECT_DOUBLE_EQ(s.value_at(1, 1), 5.0);   // A(2,2)
}

// Every bit of submatrices of a random-pattern matrix: contiguous row and
// column ranges, scattered sets, rectangular blocks (rows != cols), blocks
// where some or every row keeps no entry, and empty sets.
TEST(Csr, SubmatrixIsPinned) {
  const CsrMatrix a = random_spd(300, 10, 0.6, 30, 0x5B);
  Rng rng(0x5C);
  const auto range = [](Index lo, Index hi) {
    std::vector<Index> v;
    for (Index i = lo; i < hi; ++i) v.push_back(i);
    return v;
  };
  const auto scattered = [&rng](Index n, double keep) {
    std::vector<Index> v;
    for (Index i = 0; i < n; ++i)
      if (rng.uniform() < keep) v.push_back(i);
    return v;
  };
  const std::vector<Index> odd = scattered(300, 0.5);
  const std::vector<Index> sparse_set = scattered(300, 0.1);
  const std::vector<std::pair<std::vector<Index>, std::vector<Index>>> sets{
      {range(0, 300), range(0, 300)},
      {range(40, 120), range(40, 120)},
      {range(299, 300), range(299, 300)},
      {odd, odd},
      {sparse_set, sparse_set},
      {range(10, 60), range(100, 250)},
      {odd, range(0, 150)},
      {range(0, 20), sparse_set},
      {range(0, 5), range(290, 300)},
      {{}, range(0, 10)},
      {range(0, 10), {}}};

  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b)
      h = (h ^ ((v >> (8 * b)) & 0xffu)) * 0x100000001b3ull;
  };
  bool some_row_empty = false;
  for (const auto& [rows, cols] : sets) {
    const CsrMatrix s = a.submatrix(rows, cols);
    mix(static_cast<std::uint64_t>(s.rows()));
    mix(static_cast<std::uint64_t>(s.cols()));
    for (const Index p : s.row_ptr()) mix(static_cast<std::uint64_t>(p));
    for (const Index c : s.col_idx()) mix(static_cast<std::uint64_t>(c));
    for (const double v : s.values()) mix(std::bit_cast<std::uint64_t>(v));
    for (Index r = 0; r < s.rows(); ++r)
      some_row_empty = some_row_empty || s.row_cols(r).empty();
  }
  EXPECT_TRUE(some_row_empty);
  EXPECT_EQ(h, 0xd2e9cc2f9e7c09e7ull) << "0x" << std::hex << h;
}

// The symmetrized pattern is row i's off-diagonal columns united with the
// rows that list column i, sorted and unique, on a pattern with one-sided
// entries, an empty row and rows with and without a stored diagonal.
TEST(Csr, SymmetricPatternIsAPlusATransposeWithoutDiagonal) {
  Rng rng(0x5D);
  TripletBuilder b;
  for (Index r = 0; r < 60; ++r) {
    if (r == 17) continue;  // an empty row
    if (r % 3 != 0) b.add(r, r, 1.0);
    for (int k = 0; k < 4; ++k) {
      const auto c = static_cast<Index>(rng.uniform_index(60));
      if (c != 17) b.add(r, c, 1.0);
    }
  }
  const CsrMatrix a = b.build(60, 60);
  const SymmetricPattern g = symmetric_pattern(a);
  ASSERT_EQ(g.rows(), 60);
  for (Index i = 0; i < 60; ++i) {
    std::vector<Index> expect;
    for (const Index c : a.row_cols(i))
      if (c != i) expect.push_back(c);
    for (Index r = 0; r < 60; ++r)
      if (r != i && a.value_at(r, i) != 0.0) expect.push_back(r);
    std::sort(expect.begin(), expect.end());
    expect.erase(std::unique(expect.begin(), expect.end()), expect.end());
    const auto got = g.neighbours(i);
    EXPECT_EQ(std::vector<Index>(got.begin(), got.end()), expect) << i;
    EXPECT_EQ(g.diagonal[static_cast<std::size_t>(i)] != 0,
              a.value_at(i, i) != 0.0)
        << i;
  }
  EXPECT_THROW((void)symmetric_pattern(CsrMatrix(2, 3, {0, 0, 0}, {}, {})),
               std::invalid_argument);
}

TEST(Csr, TransposeInvolution) {
  const CsrMatrix a = poisson2d_5pt(7, 5);
  const CsrMatrix att = a.transpose().transpose();
  ASSERT_EQ(att.nnz(), a.nnz());
  const auto x = random_vector(a.cols(), 3);
  std::vector<double> y1(static_cast<std::size_t>(a.rows()));
  std::vector<double> y2(static_cast<std::size_t>(a.rows()));
  a.spmv(x, y1);
  att.spmv(x, y2);
  EXPECT_LT(max_diff(y1, y2), 1e-15);
}

TEST(Csr, SymmetryDetection) {
  EXPECT_TRUE(small_example().is_symmetric());
  TripletBuilder b;
  b.add(0, 0, 1.0);
  b.add(0, 1, 2.0);
  b.add(1, 1, 1.0);
  EXPECT_FALSE(b.build(2, 2).is_symmetric());
}

TEST(Csr, Bandwidth) {
  EXPECT_EQ(small_example().bandwidth(), 1);
  EXPECT_EQ(poisson2d_5pt(6, 6).bandwidth(), 6);
}

TEST(Csr, SymmetricPermutationPreservesSpectrumAction) {
  const CsrMatrix a = poisson2d_5pt(5, 4);
  const Index n = a.rows();
  std::vector<Index> perm(static_cast<std::size_t>(n));
  for (Index i = 0; i < n; ++i) perm[static_cast<std::size_t>(i)] = n - 1 - i;
  const CsrMatrix pap = a.permuted_symmetric(perm);
  // (P A Pᵀ)(P x) = P (A x).
  const auto x = random_vector(n, 5);
  std::vector<double> px(static_cast<std::size_t>(n));
  for (Index i = 0; i < n; ++i)
    px[static_cast<std::size_t>(i)] = x[static_cast<std::size_t>(perm[static_cast<std::size_t>(i)])];
  std::vector<double> ax(static_cast<std::size_t>(n)), papx(static_cast<std::size_t>(n));
  a.spmv(x, ax);
  pap.spmv(px, papx);
  for (Index i = 0; i < n; ++i)
    EXPECT_NEAR(papx[static_cast<std::size_t>(i)],
                ax[static_cast<std::size_t>(perm[static_cast<std::size_t>(i)])], 1e-14);
}

TEST(Csr, PermutationValidation) {
  const CsrMatrix a = poisson2d_5pt(3, 3);
  std::vector<Index> bad(static_cast<std::size_t>(a.rows()), 0);  // not a bijection
  EXPECT_THROW((void)a.permuted_symmetric(bad), std::invalid_argument);
}

}  // namespace
}  // namespace rpcg
