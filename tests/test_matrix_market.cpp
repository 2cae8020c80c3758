#include "sparse/matrix_market.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "sparse/generators.hpp"
#include "test_util.hpp"

namespace rpcg {
namespace {

TEST(MatrixMarket, RoundTripGeneral) {
  const CsrMatrix a = poisson2d_5pt(6, 5);
  std::stringstream ss;
  write_matrix_market(ss, a);
  const CsrMatrix b = read_matrix_market(ss);
  ASSERT_EQ(b.rows(), a.rows());
  ASSERT_EQ(b.nnz(), a.nnz());
  for (Index r = 0; r < a.rows(); ++r)
    for (const Index c : a.row_cols(r))
      EXPECT_DOUBLE_EQ(b.value_at(r, c), a.value_at(r, c));
}

TEST(MatrixMarket, SymmetricExpansion) {
  std::stringstream ss;
  ss << "%%MatrixMarket matrix coordinate real symmetric\n"
     << "% a comment line\n"
     << "3 3 4\n"
     << "1 1 2.0\n"
     << "2 1 -1.0\n"
     << "2 2 2.0\n"
     << "3 3 1.5\n";
  const CsrMatrix a = read_matrix_market(ss);
  EXPECT_EQ(a.nnz(), 5);  // the off-diagonal is mirrored
  EXPECT_DOUBLE_EQ(a.value_at(0, 1), -1.0);
  EXPECT_DOUBLE_EQ(a.value_at(1, 0), -1.0);
  EXPECT_TRUE(a.is_symmetric());
}

TEST(MatrixMarket, RejectsMalformed) {
  std::stringstream no_banner("3 3 0\n");
  EXPECT_THROW((void)read_matrix_market(no_banner), std::invalid_argument);

  std::stringstream bad_field;
  bad_field << "%%MatrixMarket matrix coordinate complex general\n3 3 0\n";
  EXPECT_THROW((void)read_matrix_market(bad_field), std::invalid_argument);

  std::stringstream out_of_range;
  out_of_range << "%%MatrixMarket matrix coordinate real general\n2 2 1\n5 1 1.0\n";
  EXPECT_THROW((void)read_matrix_market(out_of_range), std::invalid_argument);

  std::stringstream truncated;
  truncated << "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n";
  EXPECT_THROW((void)read_matrix_market(truncated), std::invalid_argument);

  std::stringstream no_count;
  no_count << "%%MatrixMarket matrix coordinate real general\n2 2\n1 1 1.0\n";
  EXPECT_THROW((void)read_matrix_market(no_count), std::invalid_argument);

  for (const char* entry : {"1 1\n", "1 1 abc\n"}) {
    std::stringstream no_value;
    no_value << "%%MatrixMarket matrix coordinate real general\n2 2 1\n" << entry;
    EXPECT_THROW((void)read_matrix_market(no_value), std::invalid_argument)
        << entry;
  }

  // Counts far beyond the entries present must not size an allocation
  // (bad_alloc), nor overflow when a symmetric file doubles them.
  std::stringstream huge_count;
  huge_count << "%%MatrixMarket matrix coordinate real general\n"
             << "1 1 1000000000000\n1 1 1.0\n";
  EXPECT_THROW((void)read_matrix_market(huge_count), std::invalid_argument);

  std::stringstream huge_symmetric;
  huge_symmetric << "%%MatrixMarket matrix coordinate real symmetric\n"
                 << "1 1 4611686018427387905\n1 1 1.0\n";
  EXPECT_THROW((void)read_matrix_market(huge_symmetric), std::invalid_argument);

  // Nor may a size line size the row pointers: 10^12 rows that the entries
  // cannot fill would allocate 10^12 of them. A matrix with an empty row or
  // column is singular; the limit is the entry count, twice it when a
  // symmetric file stores each off-diagonal pair once.
  std::stringstream huge_rows;
  huge_rows << "%%MatrixMarket matrix coordinate real general\n"
            << "1000000000000 1 0\n";
  EXPECT_THROW((void)read_matrix_market(huge_rows), std::invalid_argument);

  std::stringstream empty_row;
  empty_row << "%%MatrixMarket matrix coordinate real general\n"
            << "3 3 2\n1 1 1.0\n2 2 1.0\n";
  EXPECT_THROW((void)read_matrix_market(empty_row), std::invalid_argument);

  std::stringstream huge_symmetric_cols;
  huge_symmetric_cols << "%%MatrixMarket matrix coordinate real symmetric\n"
                      << "4 1000000000000 2\n2 1 1.0\n4 3 1.0\n";
  EXPECT_THROW((void)read_matrix_market(huge_symmetric_cols),
               std::invalid_argument);

  // The symmetric limit is exact: two off-diagonal entries fill 4 rows.
  std::stringstream symmetric_full;
  symmetric_full << "%%MatrixMarket matrix coordinate real symmetric\n"
                 << "4 4 2\n2 1 1.0\n4 3 1.0\n";
  EXPECT_EQ(read_matrix_market(symmetric_full).rows(), 4);
  std::stringstream symmetric_empty_row;
  symmetric_empty_row << "%%MatrixMarket matrix coordinate real symmetric\n"
                      << "5 5 2\n2 1 1.0\n4 3 1.0\n";
  EXPECT_THROW((void)read_matrix_market(symmetric_empty_row),
               std::invalid_argument);
}

TEST(MatrixMarket, FileRoundTrip) {
  const CsrMatrix a = tridiag_spd(10);
  const std::string path = ::testing::TempDir() + "/rpcg_mm_test.mtx";
  write_matrix_market_file(path, a);
  const CsrMatrix b = read_matrix_market_file(path);
  EXPECT_EQ(b.nnz(), a.nnz());
  EXPECT_DOUBLE_EQ(b.value_at(4, 5), -1.0);
}

TEST(MatrixMarket, MissingFileThrows) {
  EXPECT_THROW((void)read_matrix_market_file("/nonexistent/x.mtx"),
               std::invalid_argument);
}

}  // namespace
}  // namespace rpcg
