#include "precond/preconditioner.hpp"

#include <gtest/gtest.h>

#include "precond/block_jacobi.hpp"
#include "precond/ic0_split.hpp"
#include "precond/jacobi.hpp"
#include "precond/ssor.hpp"
#include "sparse/generators.hpp"
#include "sparse/ldlt.hpp"
#include "test_util.hpp"

namespace rpcg {
namespace {

using testing::max_diff;
using testing::random_vector;

struct PrecondEnv {
  CsrMatrix a = circuit_like(8, 8, 0.05, 13);
  Partition part = Partition::block_rows(a.rows(), 4);
  Cluster cluster{part, CommParams{}};
  DistVector r{part}, z{part};

  PrecondEnv() { r.set_global(random_vector(a.rows(), 21)); }
};

// The fundamental ESR identity every preconditioner must satisfy: after
// z = M^{-1} r, feeding the z-block of any node subset into
// esr_recover_residual must reproduce the corresponding r-block exactly
// ([23]: the residual is recoverable through the preconditioner).
void expect_esr_residual_roundtrip(PrecondEnv& s, const Preconditioner& m,
                                   std::vector<NodeId> failed, double tol) {
  m.apply(s.cluster, s.r, s.z, Phase::kIteration);
  const auto rows = s.part.rows_of_set(failed);
  std::vector<double> z_f(rows.size()), r_expected(rows.size());
  for (std::size_t k = 0; k < rows.size(); ++k) {
    z_f[k] = s.z.value(rows[k]);
    r_expected[k] = s.r.value(rows[k]);
  }
  std::vector<double> r_f(rows.size());
  m.esr_recover_residual(s.cluster, rows, z_f, s.r, s.z, r_f);
  EXPECT_LE(max_diff(r_f, r_expected), tol);
}

TEST(Jacobi, ApplyDividesByDiagonal) {
  PrecondEnv s;
  const JacobiPreconditioner m(s.a, s.part);
  m.apply(s.cluster, s.r, s.z, Phase::kIteration);
  for (Index i = 0; i < s.a.rows(); ++i)
    EXPECT_NEAR(s.z.value(i), s.r.value(i) / s.a.value_at(i, i), 1e-14);
}

TEST(Jacobi, EsrResidualRoundtrip) {
  PrecondEnv s;
  const JacobiPreconditioner m(s.a, s.part);
  expect_esr_residual_roundtrip(s, m, {1, 2}, 1e-13);
}

TEST(BlockJacobi, ApplySolvesNodeBlocksExactly) {
  PrecondEnv s;
  const BlockJacobiPreconditioner m(s.a, s.part);
  m.apply(s.cluster, s.r, s.z, Phase::kIteration);
  // Per node: A_{Ii,Ii} z_{Ii} must equal r_{Ii} (exact block solve).
  for (NodeId i = 0; i < s.part.num_nodes(); ++i) {
    const auto rows = s.part.rows_of(i);
    const CsrMatrix block = s.a.submatrix(rows, rows);
    std::vector<double> az(static_cast<std::size_t>(block.rows()));
    block.spmv(s.z.block(i), az);
    const auto rb = s.r.block(i);
    for (std::size_t k = 0; k < az.size(); ++k) EXPECT_NEAR(az[k], rb[k], 1e-10);
  }
}

// apply() solves the node blocks in pairs; every node's z must still be
// exactly its own factor's solve. 7 nodes leave the last block unpaired; the
// banded matrix's 418 rows make nodes 0-4 one row longer than nodes 5-6, so
// pair (4, 5) is unequal. Its blocks are simplicial (interleaved sweeps), the
// random matrix's pack supernode panels (pairs solved one block after the
// other).
TEST(BlockJacobi, ApplyMatchesPerNodeSolvesBitForBit) {
  struct Case {
    const char* name;
    CsrMatrix a;
    bool packed;
  };
  const Case cases[] = {{"banded", fem2d_p1(22, 19), false},
                        {"random", random_spd(700, 12, 0.5, 80, 0xD7), true}};
  for (const Case& c : cases) {
    const Partition part = Partition::block_rows(c.a.rows(), 7);
    Cluster cluster(part, CommParams{});
    const BlockJacobiPreconditioner m(c.a, part);
    EXPECT_EQ(m.supernodal_blocks(), c.packed ? 7 : 0) << c.name;
    DistVector r(part);
    DistVector z(part);
    r.set_global(random_vector(c.a.rows(), 5));
    m.apply(cluster, r, z, Phase::kIteration);
    for (NodeId i = 0; i < part.num_nodes(); ++i) {
      const auto rows = part.rows_of(i);
      const auto f = ReorderedLdlt::factor(c.a.submatrix(rows, rows));
      ASSERT_TRUE(f.has_value());
      std::vector<double> expected(rows.size());
      f->solve(r.block(i), expected);
      const auto got = z.block(i);
      EXPECT_EQ(std::vector<double>(got.begin(), got.end()), expected)
          << c.name << " node " << i;
    }
  }
}

TEST(BlockJacobi, EsrResidualRoundtripSingleAndMulti) {
  {
    PrecondEnv s;
    const BlockJacobiPreconditioner m(s.a, s.part);
    expect_esr_residual_roundtrip(s, m, {2}, 1e-12);
  }
  {
    PrecondEnv s;
    const BlockJacobiPreconditioner m(s.a, s.part);
    expect_esr_residual_roundtrip(s, m, {0, 3}, 1e-12);
  }
}

TEST(Ic0Split, EsrResidualRoundtrip) {
  PrecondEnv s;
  const Ic0SplitPreconditioner m(s.a, s.part);
  EXPECT_EQ(m.kind(), PrecondKind::kSplit);
  expect_esr_residual_roundtrip(s, m, {1, 2}, 1e-12);
}

TEST(Ssor, SolveMultiplyInverse) {
  PrecondEnv s;
  const SsorPreconditioner m(s.a, s.part, 1.3);
  EXPECT_DOUBLE_EQ(m.omega(), 1.3);
  expect_esr_residual_roundtrip(s, m, {0, 1}, 1e-12);
}

TEST(Ssor, OmegaValidation) {
  PrecondEnv s;
  EXPECT_THROW(SsorPreconditioner(s.a, s.part, 0.0), std::invalid_argument);
  EXPECT_THROW(SsorPreconditioner(s.a, s.part, 2.0), std::invalid_argument);
}

TEST(ExplicitP, ApplyIsSpmv) {
  PrecondEnv s;
  // Use an explicitly invertible SPD "inverse": P = tridiagonal SPD.
  const CsrMatrix p = tridiag_spd(s.a.rows(), 3.0, -1.0);
  const ExplicitPreconditioner m(p, s.part);
  m.apply(s.cluster, s.r, s.z, Phase::kIteration);
  std::vector<double> expect(static_cast<std::size_t>(p.rows()));
  p.spmv(s.r.gather_global(), expect);
  EXPECT_LT(max_diff(s.z.gather_global(), expect), 1e-13);
}

TEST(ExplicitP, EsrResidualRoundtripUsesLines5and6) {
  PrecondEnv s;
  // P couples across node boundaries, so the recovery must gather surviving
  // r entries (line 5 of Alg. 2) and solve with P_{If,If} (line 6).
  const CsrMatrix p = tridiag_spd(s.a.rows(), 3.0, -1.0);
  const ExplicitPreconditioner m(p, s.part);
  expect_esr_residual_roundtrip(s, m, {1, 2}, 1e-10);
}

TEST(Identity, RoundtripAndFactory) {
  PrecondEnv s;
  const auto id = make_identity_preconditioner();
  expect_esr_residual_roundtrip(s, *id, {3}, 0.0);
  EXPECT_EQ(id->kind(), PrecondKind::kIdentity);
}

TEST(Factory, MakesAllNamedKinds) {
  PrecondEnv s;
  for (const char* name : {"identity", "jacobi", "bjacobi", "ic0", "ssor"}) {
    const auto m = make_preconditioner(name, s.a, s.part);
    ASSERT_NE(m, nullptr) << name;
    EXPECT_EQ(m->name(), name);
  }
  EXPECT_THROW((void)make_preconditioner("nope", s.a, s.part),
               std::invalid_argument);
}

}  // namespace
}  // namespace rpcg
