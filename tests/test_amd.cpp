// AMD ordering property tests: valid permutations on every matrix family,
// symmetric-pattern handling (unsymmetric inputs are symmetrized), graphs
// with disconnected components / empty rows, genuine fill reduction on the
// random-pattern matrices RCM cannot help, and the ReorderedLdlt selection
// contract (never sparser-than-chosen, margin-gated switching, correct
// solves under every forced ordering, the same choice as counting every
// candidate's permuted copy in full).
#include "sparse/amd.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "repro/matrices.hpp"
#include "sim/partition.hpp"
#include "sparse/coo.hpp"
#include "sparse/generators.hpp"
#include "sparse/ldlt.hpp"
#include "sparse/ldlt_symbolic.hpp"
#include "sparse/reorder.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace rpcg {
namespace {

using testing::is_permutation;
using testing::max_diff;
using testing::random_vector;

TEST(Amd, ProducesValidPermutationAcrossFamilies) {
  EXPECT_TRUE(is_permutation(amd_ordering(poisson2d_5pt(9, 7)), 63));
  EXPECT_TRUE(is_permutation(amd_ordering(random_spd(150, 8, 0.5, 20, 5)), 150));
  EXPECT_TRUE(is_permutation(amd_ordering(circuit_like(10, 10, 0.05, 7)), 100));
  EXPECT_TRUE(is_permutation(
      amd_ordering(elasticity3d(3, 3, 3, Stencil3d::kFacesCorners14, 0.0, 2)),
      81));
  EXPECT_TRUE(is_permutation(amd_ordering(CsrMatrix::identity(5)), 5));
  EXPECT_TRUE(is_permutation(amd_ordering(CsrMatrix(0, 0, {0}, {}, {})), 0));
}

TEST(Amd, DeterministicAcrossRepeatedCalls) {
  const CsrMatrix a = random_spd(200, 10, 0.4, 30, 11);
  EXPECT_EQ(amd_ordering(a), amd_ordering(a));
}

TEST(Amd, SymmetrizesUnsymmetricPatterns) {
  // Lower-triangular pattern only: AMD must order the symmetrized graph.
  TripletBuilder b;
  for (Index i = 0; i < 8; ++i) b.add(i, i, 4.0);
  for (Index i = 1; i < 8; ++i) b.add(i, i - 1, -1.0);  // one direction only
  b.add(7, 0, -0.5);
  const CsrMatrix a = b.build(8, 8);
  const auto perm = amd_ordering(a);
  EXPECT_TRUE(is_permutation(perm, 8));
}

TEST(Amd, HandlesDisconnectedGraphAndEmptyRows) {
  // Two disjoint tridiagonal blocks and one fully isolated row.
  TripletBuilder b;
  for (Index i = 0; i < 5; ++i) b.add(i, i, 2.0);
  for (Index i = 0; i < 4; ++i) b.add_sym(i, i + 1, -1.0);
  for (Index i = 6; i < 11; ++i) b.add(i, i, 2.0);
  for (Index i = 6; i < 10; ++i) b.add_sym(i, i + 1, -1.0);  // row 5 isolated
  const CsrMatrix a = b.build(11, 11);
  EXPECT_TRUE(is_permutation(amd_ordering(a), 11));
}

TEST(Amd, ReducesFillOnRandomPatternsWhereRcmCannot) {
  // The M2-analogue regime: partially banded random pattern. RCM recovers
  // no band; AMD must beat both natural and RCM by a clear margin.
  const CsrMatrix a = random_spd(400, 12, 0.6, 80, 0xA2);
  const Index natural = SparseLdlt::symbolic_nnz(a);
  const Index rcm =
      SparseLdlt::symbolic_nnz(a.permuted_symmetric(rcm_ordering(a)));
  const Index amd =
      SparseLdlt::symbolic_nnz(a.permuted_symmetric(amd_ordering(a)));
  EXPECT_LT(amd, natural / 2);
  EXPECT_LT(amd, rcm);
}

TEST(Amd, NoFillOnTridiagonal) {
  // A tridiagonal matrix admits a no-fill elimination; minimum degree must
  // find one (any ordering it picks may permute, but fill must stay 0).
  const CsrMatrix a = tridiag_spd(60);
  const Index fill =
      SparseLdlt::symbolic_nnz(a.permuted_symmetric(amd_ordering(a)));
  EXPECT_EQ(fill, 59);  // the subdiagonal itself, nothing more
}

// The node blocks of a workload layout (reproduction matrix `matrix_index`
// at `scale` on 64 nodes), then the A_FF of psi = 1, 3 and 8 contiguous
// failed nodes from node 20 (the m2-recover set on M2 s12).
std::vector<CsrMatrix> layout_blocks(int matrix_index, double scale) {
  const auto m = repro::make_matrix(matrix_index, scale);
  const Partition part = Partition::block_rows(m.matrix.rows(), 64);
  std::vector<CsrMatrix> blocks;
  for (NodeId node = 0; node < 64; ++node) {
    const auto rows = part.rows_of(node);
    blocks.push_back(m.matrix.submatrix(rows, rows));
  }
  for (const NodeId psi : {1, 3, 8}) {
    std::vector<NodeId> failed;
    for (NodeId k = 0; k < psi; ++k) failed.push_back(20 + k);
    const auto rows = part.rows_of_set(failed);
    blocks.push_back(m.matrix.submatrix(rows, rows));
  }
  return blocks;
}

// AMD's permutations of every node block and failed set of the three
// workload layouts, pinned by an FNV-1a digest of each block's size and
// entries: any change to the ordering's tie-breaking shows here.
TEST(Amd, WorkloadBlockPermutationsArePinned) {
  struct Layout {
    int matrix;
    double scale;
    std::uint64_t digest;
  };
  for (const Layout& l : {Layout{1, 8.0, 0xf5d3453d492c1bb5ull},
                          Layout{2, 12.0, 0x705ea39bb712cba1ull},
                          Layout{8, 32.0, 0xa106b8483b82e156ull}}) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    const auto mix = [&h](Index v) {
      const auto bits = static_cast<std::uint64_t>(v);
      for (int b = 0; b < 8; ++b)
        h = (h ^ ((bits >> (8 * b)) & 0xffu)) * 0x100000001b3ull;
    };
    for (const CsrMatrix& a : layout_blocks(l.matrix, l.scale)) {
      const auto perm = amd_ordering(a);
      mix(static_cast<Index>(perm.size()));
      for (const Index v : perm) mix(v);
    }
    EXPECT_EQ(h, l.digest) << "M" << l.matrix << " s" << l.scale << ": 0x"
                           << std::hex << h;
  }
}

// FNV-1a over each permutation's size and entries, in input order.
std::uint64_t perm_digest(const std::vector<std::vector<Index>>& perms) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](Index v) {
    const auto bits = static_cast<std::uint64_t>(v);
    for (int b = 0; b < 8; ++b)
      h = (h ^ ((bits >> (8 * b)) & 0xffu)) * 0x100000001b3ull;
  };
  for (const auto& perm : perms) {
    mix(static_cast<Index>(perm.size()));
    for (const Index v : perm) mix(v);
  }
  return h;
}

// AMD's permutations of inputs the workload pin does not reach: the node
// blocks of M3-M7 at s32 on 64 nodes, the non-contiguous failed set
// {1, 3, 6} of M2 s12, an unsymmetric pattern (a seeded random lower
// triangle plus about half of the upper) and the whole M4 s64 matrix.
TEST(Amd, MorePermutationsArePinned) {
  struct Pin {
    std::string name;
    std::vector<CsrMatrix> inputs;
    std::uint64_t digest;
  };
  std::vector<Pin> pins;
  for (const auto& [matrix, digest] :
       {std::pair{3, 0xf4bc65dbd4123ab2ull}, std::pair{4, 0xef410e6591fd2469ull},
        std::pair{5, 0x5c5158fde9a02521ull}, std::pair{6, 0xe442204d291aed3aull},
        std::pair{7, 0x6e7b3f7da44a33bdull}}) {
    const auto m = repro::make_matrix(matrix, 32.0);
    const Partition part = Partition::block_rows(m.matrix.rows(), 64);
    std::vector<CsrMatrix> blocks;
    for (NodeId node = 0; node < 64; ++node) {
      const auto rows = part.rows_of(node);
      blocks.push_back(m.matrix.submatrix(rows, rows));
    }
    char name[24];
    std::snprintf(name, sizeof name, "M%d s32 blocks", matrix);
    pins.push_back({name, std::move(blocks), digest});
  }
  {
    const auto m = repro::make_matrix(2, 12.0);
    const Partition part = Partition::block_rows(m.matrix.rows(), 64);
    const std::vector<NodeId> failed{1, 3, 6};
    const auto rows = part.rows_of_set(failed);
    pins.push_back({"M2 s12 failed {1, 3, 6}",
                    {m.matrix.submatrix(rows, rows)}, 0x6bd660d3648c1784ull});
  }
  {
    const CsrMatrix sym = random_spd(400, 10, 0.5, 40, 0x5EED);
    Rng rng(0x0DD);
    TripletBuilder b;
    for (Index r = 0; r < sym.rows(); ++r) {
      const auto rc = sym.row_cols(r);
      const auto rv = sym.row_vals(r);
      for (std::size_t p = 0; p < rc.size(); ++p)
        if (rc[p] <= r || rng.uniform() < 0.5) b.add(r, rc[p], rv[p]);
    }
    pins.push_back({"unsymmetric pattern", {b.build(400, 400)}, 0xf7ac4bf245f7a1a2ull});
  }
  pins.push_back({"M4 s64 whole", {repro::make_matrix(4, 64.0).matrix},
                  0x617bb99ca836da65ull});

  for (const Pin& pin : pins) {
    std::vector<std::vector<Index>> perms;
    for (const CsrMatrix& a : pin.inputs) perms.push_back(amd_ordering(a));
    const std::uint64_t h = perm_digest(perms);
    EXPECT_EQ(h, pin.digest) << pin.name << ": 0x" << std::hex << h;
  }
}

// RCM's permutations of every node block and failed set of the three
// workload layouts (the inputs of Amd.WorkloadBlockPermutationsArePinned).
TEST(Rcm, WorkloadBlockPermutationsArePinned) {
  struct Layout {
    int matrix;
    double scale;
    std::uint64_t digest;
  };
  for (const Layout& l : {Layout{1, 8.0, 0x558354be13d1184dull},
                          Layout{2, 12.0, 0xdca26d1412b98715ull},
                          Layout{8, 32.0, 0x6c2f375f70c5abeeull}}) {
    std::vector<std::vector<Index>> perms;
    for (const CsrMatrix& a : layout_blocks(l.matrix, l.scale))
      perms.push_back(rcm_ordering(a));
    const std::uint64_t h = perm_digest(perms);
    EXPECT_EQ(h, l.digest) << "M" << l.matrix << " s" << l.scale << ": 0x"
                           << std::hex << h;
  }
}

TEST(ReorderedLdltSelection, NeverWorseThanNaturalAndReportsChoice) {
  for (const auto& a :
       {poisson2d_5pt(12, 12), random_spd(300, 10, 0.7, 60, 0xB1),
        banded_spd(200, 4, 1.0, 3), circuit_like(14, 14, 0.03, 9)}) {
    const auto fact = ReorderedLdlt::factor(a);
    ASSERT_TRUE(fact.has_value());
    EXPECT_LE(fact->l_nnz(), SparseLdlt::symbolic_nnz(a));
    // The reported ordering is consistent with the stored permutation.
    EXPECT_EQ(fact->reordered(), fact->ordering() != LdltOrdering::kNatural);
  }
}

TEST(ReorderedLdltSelection, PicksAmdOnRandomPatterns) {
  const CsrMatrix a = random_spd(400, 12, 0.6, 80, 0xA2);
  const auto fact = ReorderedLdlt::factor(a);
  ASSERT_TRUE(fact.has_value());
  EXPECT_EQ(fact->ordering(), LdltOrdering::kAmd);
  EXPECT_STREQ(fact->ordering_name(), "amd");
}

TEST(ReorderedLdltSelection, KeepsRcmOnBandedNearTies) {
  // On a banded matrix RCM and AMD land within a whisker of each other;
  // the margin rule must keep the band-friendly RCM (or natural) layout
  // instead of switching for a handful of entries.
  const CsrMatrix a = banded_spd(300, 5, 1.0, 17);
  const auto fact = ReorderedLdlt::factor(a);
  ASSERT_TRUE(fact.has_value());
  EXPECT_NE(fact->ordering(), LdltOrdering::kAmd);
}

TEST(ReorderedLdltSelection, EveryForcedOrderingSolvesCorrectly) {
  const CsrMatrix a = random_spd(180, 9, 0.5, 40, 21);
  const auto x_ref = random_vector(a.rows(), 4);
  std::vector<double> b(static_cast<std::size_t>(a.rows()));
  a.spmv(x_ref, b);
  for (const LdltOrdering o :
       {LdltOrdering::kNatural, LdltOrdering::kRcm, LdltOrdering::kAmd}) {
    for (const bool supernodal : {false, true}) {
      const auto fact = ReorderedLdlt::factor_with(a, o, supernodal);
      ASSERT_TRUE(fact.has_value()) << to_string(o);
      std::vector<double> x(b.size());
      fact->solve(b, x);
      EXPECT_LT(max_diff(x, x_ref), 1e-8)
          << to_string(o) << " supernodal=" << supernodal;
      // The flop accounting depends on the fill only, not on the kernel.
      const auto ref = ReorderedLdlt::factor_with(a, o, false);
      EXPECT_EQ(fact->solve_flops(), ref->solve_flops());
      EXPECT_EQ(fact->factor_flops(), ref->factor_flops());
    }
  }
}

// ReorderedLdlt::factor's rule counted the exhaustive way, from the public
// API only: every candidate's full fill on its permuted copy, natural first,
// then RCM and AMD unless their permutation is the identity, each replacing
// the incumbent only if it beats it by 2%. Returns the ordering and its fill.
std::pair<LdltOrdering, Index> reference_choice(const CsrMatrix& a) {
  LdltOrdering best = LdltOrdering::kNatural;
  Index best_nnz = SparseLdlt::symbolic_nnz(a);
  const std::array<std::pair<LdltOrdering, std::vector<Index>>, 2> candidates{
      {{LdltOrdering::kRcm, rcm_ordering(a)},
       {LdltOrdering::kAmd, amd_ordering(a)}}};
  for (const auto& [ordering, perm] : candidates) {
    bool identity = true;
    for (std::size_t i = 0; i < perm.size(); ++i)
      identity = identity && perm[i] == static_cast<Index>(i);
    if (identity) continue;
    const Index nnz = SparseLdlt::symbolic_nnz(a.permuted_symmetric(perm));
    if (nnz < best_nnz - best_nnz / 50) {
      best = ordering;
      best_nnz = nnz;
    }
  }
  return {best, best_nnz};
}

// The first node block of a reproduction matrix on 64 nodes.
CsrMatrix first_node_block(int matrix_index, double scale) {
  const auto m = repro::make_matrix(matrix_index, scale);
  const Partition part = Partition::block_rows(m.matrix.rows(), 64);
  const auto rows = part.rows_of(0);
  return m.matrix.submatrix(rows, rows);
}

TEST(ReorderedLdltSelection, ChoiceMatchesEveryCandidateCounted) {
  std::vector<std::pair<std::string, CsrMatrix>> inputs;
  for (const Index n : {6, 12, 20}) {
    inputs.emplace_back("poisson2d " + std::to_string(n),
                        poisson2d_5pt(n, n + 3));
    inputs.emplace_back("fem2d " + std::to_string(n), fem2d_p1(n + 2, n));
  }
  for (const std::uint64_t seed : {3u, 17u, 0xA2u}) {
    const std::string s = " seed " + std::to_string(seed);
    inputs.emplace_back("random_spd 150" + s,
                        random_spd(150, 8, 0.5, 20, seed));
    inputs.emplace_back("random_spd 400" + s,
                        random_spd(400, 12, 0.6, 80, seed));
    inputs.emplace_back("banded_spd 200" + s, banded_spd(200, 4, 1.0, seed));
    inputs.emplace_back("banded_spd 300" + s, banded_spd(300, 5, 0.7, seed));
    inputs.emplace_back("circuit_like" + s,
                        circuit_like(14, 14, 0.03, seed));
    inputs.emplace_back(
        "elasticity3d" + s,
        elasticity3d(4, 4, 3, Stencil3d::kFacesCorners14, 0.2, seed));
  }
  inputs.emplace_back("M1 s8 block 0", first_node_block(1, 8.0));
  inputs.emplace_back("M8 s32 block 0", first_node_block(8, 32.0));
  inputs.emplace_back("M2 s12 block 0", first_node_block(2, 12.0));
  {
    const auto m = repro::make_matrix(2, 12.0);
    const Partition part = Partition::block_rows(m.matrix.rows(), 64);
    const std::vector<NodeId> failed{20, 21, 22, 23, 24, 25, 26, 27};
    const auto rows = part.rows_of_set(failed);
    inputs.emplace_back("M2 s12 A_FF 20-27", m.matrix.submatrix(rows, rows));
  }
  TripletBuilder diag;
  for (Index i = 0; i < 9; ++i) diag.add(i, i, 2.0 + static_cast<double>(i));
  inputs.emplace_back("diagonal", diag.build(9, 9));
  inputs.emplace_back("tridiagonal", tridiag_spd(40));
  inputs.emplace_back("1x1", CsrMatrix::identity(1));
  inputs.emplace_back("0x0", CsrMatrix(0, 0, {0}, {}, {}));

  std::array<int, 3> wins{};
  for (const auto& [name, a] : inputs) {
    const auto [ordering, l_nnz] = reference_choice(a);
    const auto fact = ReorderedLdlt::factor(a);
    ASSERT_TRUE(fact.has_value()) << name;
    EXPECT_EQ(fact->ordering(), ordering)
        << name << ": chose " << fact->ordering_name() << ", counting every "
        << "candidate in full chooses " << to_string(ordering);
    EXPECT_EQ(fact->l_nnz(), l_nnz) << name;
    ++wins[static_cast<std::size_t>(ordering)];
  }
  EXPECT_GT(wins[static_cast<std::size_t>(LdltOrdering::kNatural)], 0);
  EXPECT_GT(wins[static_cast<std::size_t>(LdltOrdering::kRcm)], 0);
  EXPECT_GT(wins[static_cast<std::size_t>(LdltOrdering::kAmd)], 0);
}

TEST(SymbolicFill, PermutedAndBoundedCountsMatchTheCopies) {
  for (const auto& a :
       {poisson2d_5pt(15, 11), random_spd(300, 10, 0.7, 60, 0xB1),
        circuit_like(12, 12, 0.05, 4), first_node_block(8, 32.0)}) {
    for (const auto& perm : {rcm_ordering(a), amd_ordering(a)}) {
      const Index full = SparseLdlt::symbolic_nnz(a.permuted_symmetric(perm));
      EXPECT_EQ(SparseLdlt::symbolic_nnz(a, perm, full + 1), full);
      // A count cut short says only that the fill reaches the limit.
      EXPECT_GE(SparseLdlt::symbolic_nnz(a, perm, full), full);
      EXPECT_GE(SparseLdlt::symbolic_nnz(a, perm, full / 2), full / 2);
      EXPECT_LE(SparseLdlt::symbolic_nnz(a, perm, full / 2), full);
    }
    EXPECT_EQ(SparseLdlt::symbolic_nnz(a, {}, a.nnz() * a.rows()),
              SparseLdlt::symbolic_nnz(a));
    EXPECT_EQ(SparseLdlt::symbolic_nnz(a, {}, 0), 0);
  }
}

// The row walk and Gilbert–Ng–Peyton must give the same elimination tree
// and column counts under every candidate ordering: on every node block and
// failed set of the three workload layouts, a random pattern, a forest (two
// components), one row and a diagonal matrix.
TEST(SymbolicFill, WalkAndGnpGiveTheSameTreeAndCounts) {
  std::vector<std::pair<std::string, CsrMatrix>> inputs;
  for (const auto& [matrix, scale] :
       {std::pair{1, 8.0}, std::pair{2, 12.0}, std::pair{8, 32.0}}) {
    const auto blocks = layout_blocks(matrix, scale);
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      char name[32];
      std::snprintf(name, sizeof name, "M%d block %zu", matrix, b);
      inputs.emplace_back(name, blocks[b]);
    }
  }
  inputs.emplace_back("random_spd", random_spd(300, 10, 0.7, 60, 0xB1));
  TripletBuilder forest;
  for (Index i = 0; i < 12; ++i) forest.add(i, i, 4.0);
  for (Index i = 0; i < 5; ++i) forest.add_sym(i, i + 1, -1.0);
  forest.add_sym(0, 4, -0.5);
  for (Index i = 6; i < 11; ++i) forest.add_sym(i, i + 1, -1.0);
  forest.add_sym(7, 11, -0.5);
  inputs.emplace_back("two components", forest.build(12, 12));
  inputs.emplace_back("1x1", CsrMatrix::identity(1));
  TripletBuilder diag;
  for (Index i = 0; i < 9; ++i) diag.add(i, i, 2.0 + static_cast<double>(i));
  inputs.emplace_back("diagonal", diag.build(9, 9));

  std::size_t roots_seen = 0;
  for (const auto& [name, a] : inputs) {
    const std::array<std::pair<const char*, std::vector<Index>>, 3> orders{
        {{"natural", {}}, {"rcm", rcm_ordering(a)}, {"amd", amd_ordering(a)}}};
    for (const auto& [order, perm] : orders) {
      const auto walk = detail::LdltCounts::walk(a, perm);
      const auto gnp = detail::LdltCounts::gnp(a, perm);
      ASSERT_EQ(walk.parent.size(), static_cast<std::size_t>(a.rows()))
          << name << " " << order;
      EXPECT_EQ(gnp.parent, walk.parent) << name << " " << order;
      EXPECT_EQ(gnp.count, walk.count) << name << " " << order;
      EXPECT_EQ(gnp.nnz, walk.nnz) << name << " " << order;
      if (!perm.empty()) {
        // Read through the permutation, as on the permuted copy.
        const auto copy =
            detail::LdltCounts::walk(a.permuted_symmetric(perm), {});
        EXPECT_EQ(walk.parent, copy.parent) << name << " " << order;
        EXPECT_EQ(walk.count, copy.count) << name << " " << order;
      }
      if (name == "two components")
        roots_seen = static_cast<std::size_t>(
            std::count(walk.parent.begin(), walk.parent.end(), Index{-1}));
    }
  }
  EXPECT_EQ(roots_seen, 2u) << "the two-component tree must be a forest";
}

}  // namespace
}  // namespace rpcg
