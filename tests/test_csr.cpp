#include "sparse/csr.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "sparse/coo.hpp"
#include "sparse/generators.hpp"
#include "test_util.hpp"

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
