#include "sparse/reorder.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "sparse/coo.hpp"
#include "sparse/generators.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace rpcg {
namespace {

using testing::is_permutation;

TEST(Rcm, ProducesValidPermutation) {
  const CsrMatrix a = poisson2d_5pt(8, 8);
  const auto perm = rcm_ordering(a);
  EXPECT_TRUE(is_permutation(perm, a.rows()));
}

TEST(Rcm, RecoversBandFromShuffledBandedMatrix) {
  // Start from a banded matrix, destroy the band with a random symmetric
  // permutation, and check RCM brings the bandwidth back down.
  const CsrMatrix banded = banded_spd(300, 4, 1.0, 3);
  Rng rng(17);
  std::vector<Index> shuffle(static_cast<std::size_t>(banded.rows()));
  for (Index i = 0; i < banded.rows(); ++i) shuffle[static_cast<std::size_t>(i)] = i;
  for (std::size_t i = shuffle.size() - 1; i > 0; --i)
    std::swap(shuffle[i], shuffle[rng.uniform_index(i + 1)]);
  const CsrMatrix scrambled = banded.permuted_symmetric(shuffle);
  ASSERT_GT(scrambled.bandwidth(), 50);

  const auto perm = rcm_ordering(scrambled);
  const CsrMatrix restored = scrambled.permuted_symmetric(perm);
  EXPECT_LE(restored.bandwidth(), 3 * banded.bandwidth());
}

TEST(Rcm, ReducesPoissonBandwidthVsShuffled) {
  const CsrMatrix a = poisson2d_5pt(12, 12);
  const auto perm = rcm_ordering(a);
  const CsrMatrix reordered = a.permuted_symmetric(perm);
  EXPECT_LE(reordered.bandwidth(), 2 * a.bandwidth());
}

TEST(Rcm, HandlesDisconnectedGraph) {
  // Two disjoint tridiagonal blocks.
  TripletBuilder b;
  for (Index i = 0; i < 5; ++i) b.add(i, i, 2.0);
  for (Index i = 0; i < 4; ++i) b.add_sym(i, i + 1, -1.0);
  for (Index i = 5; i < 10; ++i) b.add(i, i, 2.0);
  for (Index i = 5; i < 9; ++i) b.add_sym(i, i + 1, -1.0);
  const CsrMatrix a = b.build(10, 10);
  const auto perm = rcm_ordering(a);
  EXPECT_TRUE(is_permutation(perm, 10));
}

TEST(Rcm, SingletonAndEmptyRows) {
  TripletBuilder b;
  b.add(0, 0, 1.0);
  b.add(2, 2, 1.0);  // row 1 is empty
  const CsrMatrix a = b.build(3, 3);
  EXPECT_TRUE(is_permutation(rcm_ordering(a), 3));
}

// Two disconnected 4x4 P1 blocks and one explicit zero at (20, 3) without
// its mirror: symmetric values on an unsymmetric pattern. RCM must walk
// A + Aᵀ, so it orders this matrix exactly as the one that stores the
// mirror too, and returns every row once.
TEST(Rcm, SymmetrizesOneSidedEntries) {
  const CsrMatrix block = fem2d_p1(4, 4);
  TripletBuilder one_sided;
  TripletBuilder mirrored;
  for (const Index off : {0, 16}) {
    for (Index r = 0; r < block.rows(); ++r) {
      const auto rc = block.row_cols(r);
      const auto rv = block.row_vals(r);
      for (std::size_t p = 0; p < rc.size(); ++p) {
        one_sided.add(off + r, off + rc[p], rv[p]);
        mirrored.add(off + r, off + rc[p], rv[p]);
      }
    }
  }
  one_sided.add(20, 3, 0.0);
  mirrored.add_sym(20, 3, 0.0);
  const CsrMatrix a = one_sided.build(32, 32);
  ASSERT_TRUE(a.is_symmetric(1e-10));
  const auto r3 = a.row_cols(3);
  const auto r20 = a.row_cols(20);
  ASSERT_TRUE(std::binary_search(r20.begin(), r20.end(), Index{3}));
  ASSERT_FALSE(std::binary_search(r3.begin(), r3.end(), Index{20}));

  const auto perm = rcm_ordering(a);
  EXPECT_TRUE(is_permutation(perm, 32));
  EXPECT_EQ(perm, rcm_ordering(mirrored.build(32, 32)));
  EXPECT_NO_THROW((void)a.permuted_symmetric(perm));
}

}  // namespace
}  // namespace rpcg
