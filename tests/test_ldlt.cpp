#include "sparse/ldlt.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "repro/matrices.hpp"
#include "sim/partition.hpp"
#include "sparse/amd.hpp"
#include "sparse/coo.hpp"
#include "sparse/generators.hpp"
#include "sparse/ldlt_lanes.hpp"
#include "sparse/reorder.hpp"
#include "test_util.hpp"
#include "util/lanes.hpp"

namespace rpcg {
namespace {

using testing::dense_random_spd;
using testing::max_diff;
using testing::random_vector;

void expect_solves(const CsrMatrix& a, double tol) {
  const auto fact = SparseLdlt::factor(a);
  ASSERT_TRUE(fact.has_value());
  const auto x_ref = random_vector(a.rows(), 11);
  std::vector<double> b(static_cast<std::size_t>(a.rows()));
  a.spmv(x_ref, b);
  std::vector<double> x(static_cast<std::size_t>(a.rows()));
  fact->solve(b, x);
  EXPECT_LT(max_diff(x, x_ref), tol);
}

TEST(Ldlt, SolvesDenseRandomSpd) { expect_solves(dense_random_spd(30, 2), 1e-10); }

TEST(Ldlt, SolvesPoisson2d) { expect_solves(poisson2d_5pt(12, 11), 1e-9); }

TEST(Ldlt, SolvesElasticityBlockMatrix) {
  expect_solves(elasticity3d(4, 4, 4, Stencil3d::kFacesCorners14, 0.0, 1), 1e-8);
}

TEST(Ldlt, SolvesCircuitLike) { expect_solves(circuit_like(12, 12, 0.05, 3), 1e-8); }

TEST(Ldlt, RejectsIndefinite) {
  TripletBuilder b;
  b.add(0, 0, 1.0);
  b.add_sym(0, 1, 3.0);
  b.add(1, 1, 1.0);
  EXPECT_FALSE(SparseLdlt::factor(b.build(2, 2)).has_value());
}

TEST(Ldlt, TridiagFactorHasNoFill) {
  const CsrMatrix a = tridiag_spd(100);
  const auto fact = SparseLdlt::factor(a);
  ASSERT_TRUE(fact.has_value());
  EXPECT_EQ(fact->l_nnz(), 99);  // exactly the subdiagonal, no fill-in
  EXPECT_GT(fact->factor_flops(), 0.0);
}

TEST(Ldlt, SolveInPlaceMatchesOutOfPlace) {
  const CsrMatrix a = dense_random_spd(15, 8);
  const auto fact = SparseLdlt::factor(a);
  ASSERT_TRUE(fact.has_value());
  const auto b = random_vector(15, 3);
  std::vector<double> x1(b.size());
  fact->solve(b, x1);
  std::vector<double> x2 = b;
  fact->solve_in_place(x2);
  EXPECT_LT(max_diff(x1, x2), 1e-15);
}

TEST(Ldlt, IdentityIsItsOwnFactor) {
  const auto fact = SparseLdlt::factor(CsrMatrix::identity(7));
  ASSERT_TRUE(fact.has_value());
  EXPECT_EQ(fact->l_nnz(), 0);
  std::vector<double> b{1, 2, 3, 4, 5, 6, 7};
  const auto expect = b;
  fact->solve_in_place(b);
  EXPECT_LT(max_diff(b, expect), 1e-15);
}

// ReorderedLdlt::solve_pair must return exactly what two solve() calls
// return: two simplicial factors of unequal size in both orders (interleaved
// sweeps, one factor permuted and one not) and a pair with a packed factor.
TEST(Ldlt, SolvePairMatchesTwoSolvesBitForBit) {
  const auto grid =
      ReorderedLdlt::factor_with(poisson2d_5pt(9, 7), LdltOrdering::kRcm);
  const auto band = ReorderedLdlt::factor(tridiag_spd(50));
  const auto dense = ReorderedLdlt::factor(dense_random_spd(30, 2));
  ASSERT_TRUE(grid && band && dense);
  ASSERT_TRUE(grid->reordered());
  ASSERT_FALSE(band->reordered());
  ASSERT_FALSE(grid->factorization().supernodal());
  ASSERT_FALSE(band->factorization().supernodal());
  ASSERT_TRUE(dense->factorization().supernodal());
  const std::pair<const ReorderedLdlt*, const ReorderedLdlt*> pairs[] = {
      {&*grid, &*band}, {&*band, &*grid}, {&*grid, &*dense}};
  for (const auto& [f, g] : pairs) {
    const std::vector<double> bf = random_vector(f->dim(), 3);
    const std::vector<double> bg = random_vector(g->dim(), 4);
    std::vector<double> ef(bf.size());
    std::vector<double> eg(bg.size());
    f->solve(bf, ef);
    g->solve(bg, eg);
    std::vector<double> xf(bf.size());
    std::vector<double> xg(bg.size());
    ReorderedLdlt::solve_pair(*f, bf, xf, *g, bg, xg);
    EXPECT_EQ(xf, ef) << f->dim() << " paired with " << g->dim();
    EXPECT_EQ(xg, eg) << f->dim() << " paired with " << g->dim();
  }
}

TEST(LdltSupernodes, DenseFactorIsOneSupernode) {
  const Index n = 20;
  const auto fact = SparseLdlt::factor(dense_random_spd(n, 5));
  ASSERT_TRUE(fact.has_value());
  EXPECT_EQ(fact->num_supernodes(), 1);
  EXPECT_EQ(fact->max_supernode_width(), n);
  EXPECT_TRUE(fact->supernodal());  // one packed block of width n
}

TEST(LdltSupernodes, BandAndIdentityStaySimplicial) {
  // A perfect band's exact supernodes are near-singletons (each column's
  // pattern slides by one row; only the last columns merge as the band runs
  // out of rows), so nothing reaches the packing width and the scalar sweep
  // of the PR 3 code path is kept verbatim.
  const auto band = SparseLdlt::factor(tridiag_spd(50));
  ASSERT_TRUE(band.has_value());
  EXPECT_EQ(band->num_supernodes(), 49);  // the trailing pair merges
  EXPECT_EQ(band->max_supernode_width(), 2);
  EXPECT_FALSE(band->supernodal());

  const auto id = SparseLdlt::factor(CsrMatrix::identity(9));
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(id->num_supernodes(), 9);
  EXPECT_FALSE(id->supernodal());
}

TEST(LdltSupernodes, DetectionCountsAreKernelIndependent) {
  const CsrMatrix a = random_spd(220, 10, 0.5, 40, 0xC4);
  const auto on = SparseLdlt::factor(a, true);
  const auto off = SparseLdlt::factor(a, false);
  ASSERT_TRUE(on.has_value());
  ASSERT_TRUE(off.has_value());
  // The scalar factor skips detection entirely; the supernodal factor's
  // storage never changes the factor itself.
  EXPECT_FALSE(off->supernodal());
  EXPECT_EQ(on->l_nnz(), off->l_nnz());
  EXPECT_EQ(on->solve_flops(), off->solve_flops());
  EXPECT_EQ(on->factor_flops(), off->factor_flops());
}

TEST(LdltSupernodes, SupernodalSolveMatchesSimplicial) {
  // Random SPD matrices with enough fill that wide supernodes get packed;
  // the blocked solve must agree with the scalar sweep to tight tolerance
  // (identical flops, different rounding grouping only).
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const CsrMatrix a = random_spd(260, 12, 0.4, 50, seed);
    const auto on = SparseLdlt::factor(a, true);
    const auto off = SparseLdlt::factor(a, false);
    ASSERT_TRUE(on.has_value());
    ASSERT_TRUE(off.has_value());
    ASSERT_TRUE(on->supernodal()) << "expected packed supernodes, seed "
                                  << seed;
    const auto b = random_vector(a.rows(), seed + 10);
    std::vector<double> x_on(b.size()), x_off(b.size());
    on->solve(b, x_on);
    off->solve(b, x_off);
    EXPECT_LT(max_diff(x_on, x_off), 1e-11) << "seed " << seed;
  }
}

TEST(LdltSupernodes, DenseSupernodalSolveIsExact) {
  const CsrMatrix a = dense_random_spd(40, 7);
  const auto fact = SparseLdlt::factor(a);
  ASSERT_TRUE(fact.has_value());
  ASSERT_TRUE(fact->supernodal());
  const auto x_ref = random_vector(a.rows(), 2);
  std::vector<double> b(x_ref.size());
  a.spmv(x_ref, b);
  std::vector<double> x(b.size());
  fact->solve(b, x);
  EXPECT_LT(max_diff(x, x_ref), 1e-9);
}

// The kernel threshold of SparseLdlt::factor, in flops per stored L entry.
constexpr double kSupernodalFlopsPerEntry = 30.0;

double flops_per_entry(const SparseLdlt& f) {
  return f.factor_flops() / static_cast<double>(f.l_nnz());
}

// The A_{IF,IF} of three failed nodes of a small M2 (random long-range
// pattern) under AMD: a fill-heavy local system like the m2-recover one.
CsrMatrix small_m2_a_ff() {
  const auto m = repro::make_matrix(2, 128.0);
  const Partition part = Partition::block_rows(m.matrix.rows(), 8);
  const std::vector<NodeId> failed{2, 3, 4};
  const auto rows = part.rows_of_set(failed);
  const CsrMatrix a_ff = m.matrix.submatrix(rows, rows);
  return a_ff.permuted_symmetric(amd_ordering(a_ff));
}

TEST(LdltKernels, FactorFlopsHaveTheClosedForm) {
  // Column j of a dense factor has c = n - 1 - j sub-diagonal entries, and
  // the count is sum c^2 + 3c for either kernel.
  const CsrMatrix a = dense_random_spd(80, 4);
  double expect = 0.0;
  for (Index c = 0; c < 80; ++c) expect += static_cast<double>(c * (c + 3));
  const auto on = SparseLdlt::factor(a);
  const auto off = SparseLdlt::factor(a, false);
  ASSERT_TRUE(on.has_value());
  ASSERT_TRUE(off.has_value());
  EXPECT_EQ(on->factor_flops(), expect);
  EXPECT_EQ(off->factor_flops(), expect);
  // A tridiagonal factor: 99 columns with one entry each.
  EXPECT_EQ(SparseLdlt::factor(tridiag_spd(100))->factor_flops(), 99.0 * 4.0);
}

TEST(LdltKernels, SupernodalKernelMatchesReferenceAboveThreshold) {
  const std::vector<std::pair<const char*, CsrMatrix>> inputs = {
      {"dense80", dense_random_spd(80, 3)},
      {"fill-heavy random", random_spd(300, 8, 0.4, 50, 5)},
      {"M2 A_FF", small_m2_a_ff()},
  };
  for (const auto& [name, a] : inputs) {
    const auto on = SparseLdlt::factor(a);
    const auto off = SparseLdlt::factor(a, false);
    ASSERT_TRUE(on.has_value()) << name;
    ASSERT_TRUE(off.has_value()) << name;
    // The input must stay above the threshold, or this test would quietly
    // compare the up-looking kernel with itself.
    EXPECT_GE(flops_per_entry(*on), kSupernodalFlopsPerEntry) << name;
    EXPECT_EQ(on->l_nnz(), off->l_nnz()) << name;
    EXPECT_EQ(on->solve_flops(), off->solve_flops()) << name;
    EXPECT_EQ(on->factor_flops(), off->factor_flops()) << name;

    const auto x_ref = random_vector(a.rows(), 11);
    std::vector<double> b(x_ref.size());
    a.spmv(x_ref, b);
    std::vector<double> x_on(b.size()), x_off(b.size());
    on->solve(b, x_on);
    off->solve(b, x_off);
    EXPECT_LT(max_diff(x_on, x_off), 1e-11) << name;
    EXPECT_LT(max_diff(x_on, x_ref), 1e-11) << name;
    EXPECT_LT(max_diff(x_off, x_ref), 1e-11) << name;
  }
}

TEST(LdltKernels, SupernodalKernelIsDeterministic) {
  const CsrMatrix a = small_m2_a_ff();
  const auto f1 = SparseLdlt::factor(a);
  const auto f2 = SparseLdlt::factor(a);
  ASSERT_TRUE(f1.has_value());
  ASSERT_TRUE(f2.has_value());
  const auto b = random_vector(a.rows(), 4);
  std::vector<double> x1(b.size()), x2(b.size());
  f1->solve(b, x1);
  f2->solve(b, x2);
  EXPECT_EQ(x1, x2);
}

std::vector<double> solve_with(const SparseLdlt& f, const std::vector<double>& b) {
  std::vector<double> x(b.size());
  f.solve(b, x);
  return x;
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

// The supernodal kernel's update tiles run 2, 4 or 8 lanes wide, whichever
// the host has; every width must give the same L, D and solves, bit for
// bit. The inputs reach every tile shape: a dense matrix is one supernode
// (tiles cut by its diagonal, partial row and column tiles at its edge),
// the random one has a supernode wider than a 128-column group, and the M2
// A_FF is the m2-recover kind of factor.
TEST(LdltKernels, EveryLanePathMatchesBitForBit) {
  const std::vector<std::pair<const char*, CsrMatrix>> inputs = {
      {"dense150", dense_random_spd(150, 3)},
      {"fill-heavy random", random_spd(400, 14, 0.2, 40, 9)},
      {"M2 A_FF", small_m2_a_ff()},
  };
  std::vector<SparseLdlt> two;
  for (const auto& [name, a] : inputs) {
    auto f = detail::LdltLanes::factor(a, 2);
    ASSERT_TRUE(f.has_value()) << name;
    EXPECT_GE(flops_per_entry(*f), kSupernodalFlopsPerEntry) << name;
    two.push_back(std::move(*f));
  }
  EXPECT_EQ(two[0].max_supernode_width(), 150);
  EXPECT_GT(two[1].max_supernode_width(), 128);
  // Pins the bits of every width: a digest of the W = 2 solve.
  const std::vector<double> b = random_vector(inputs[2].second.rows(), 4);
  EXPECT_EQ(digest(solve_with(two[2], b)), 0x572792ae2773645eull);

  for (const int lanes : {4, 8}) {
    if (lanes > host_lanes())
      GTEST_SKIP() << "the host lacks " << (lanes == 4 ? "AVX2" : "AVX-512F")
                   << ": only the widths below " << lanes << " ran";
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const auto& [name, a] = inputs[i];
      const auto f = detail::LdltLanes::factor(a, lanes);
      ASSERT_TRUE(f.has_value()) << name;
      const auto l_two = detail::LdltLanes::l_values(two[i]);
      const auto l_wide = detail::LdltLanes::l_values(*f);
      const auto d_two = detail::LdltLanes::d(two[i]);
      const auto d_wide = detail::LdltLanes::d(*f);
      EXPECT_EQ(std::vector<double>(l_wide.begin(), l_wide.end()),
                std::vector<double>(l_two.begin(), l_two.end()))
          << name << " at " << lanes << " lanes";
      EXPECT_EQ(std::vector<double>(d_wide.begin(), d_wide.end()),
                std::vector<double>(d_two.begin(), d_two.end()))
          << name << " at " << lanes << " lanes";
      const auto rhs = random_vector(a.rows(), 7);
      EXPECT_EQ(solve_with(*f, rhs), solve_with(two[i], rhs))
          << name << " at " << lanes << " lanes";
    }
  }
}

TEST(LdltKernels, UnsupportedLaneWidthsAreRefused) {
  const CsrMatrix a = dense_random_spd(20, 1);
  for (const int lanes : {0, 1, 3, 16}) {
    EXPECT_THROW((void)detail::LdltLanes::factor(a, lanes),
                 std::invalid_argument)
        << lanes;
  }
  if (host_lanes() < 8) {
    EXPECT_THROW((void)detail::LdltLanes::factor(a, 8), std::invalid_argument);
  }
}

TEST(LdltKernels, SparseBlockKeepsTheReferencePath) {
  // An RCM-ordered M1 (banded FEM) node block is far below the threshold
  // and packs no panel, so factor(a) must run exactly the reference path:
  // the solves agree bit for bit.
  const auto m = repro::make_matrix(1, 64.0);
  const Partition part = Partition::block_rows(m.matrix.rows(), 64);
  const auto rows = part.rows_of(1);
  const CsrMatrix block = m.matrix.submatrix(rows, rows);
  const CsrMatrix a = block.permuted_symmetric(rcm_ordering(block));
  const auto on = SparseLdlt::factor(a);
  const auto off = SparseLdlt::factor(a, false);
  ASSERT_TRUE(on.has_value());
  ASSERT_TRUE(off.has_value());
  EXPECT_LT(flops_per_entry(*on), kSupernodalFlopsPerEntry);
  EXPECT_FALSE(on->supernodal());
  const auto b = random_vector(a.rows(), 6);
  std::vector<double> x_on(b.size()), x_off(b.size());
  on->solve(b, x_on);
  off->solve(b, x_off);
  EXPECT_EQ(x_on, x_off);
}

TEST(LdltKernels, NonPositivePivotAboveThresholdIsRejectedByBothPaths) {
  // A dense SPD matrix whose last diagonal entry is made negative enough
  // (or NaN) that the last pivot is not positive.
  const CsrMatrix spd = dense_random_spd(60, 9);
  for (const double last : {-1e6, std::numeric_limits<double>::quiet_NaN()}) {
    CsrMatrix a = spd;
    const auto start = a.row_ptr()[59];
    const auto cols = a.row_cols(59);
    const auto diag = std::lower_bound(cols.begin(), cols.end(), Index{59});
    ASSERT_NE(diag, cols.end());
    a.mutable_values()[static_cast<std::size_t>(start + (diag - cols.begin()))] =
        last;
    EXPECT_GE(flops_per_entry(*SparseLdlt::factor(spd)),
              kSupernodalFlopsPerEntry);
    EXPECT_FALSE(SparseLdlt::factor(a).has_value()) << last;
    EXPECT_FALSE(SparseLdlt::factor(a, false).has_value()) << last;
  }
}

}  // namespace
}  // namespace rpcg
