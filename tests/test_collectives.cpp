#include "sim/collectives.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "sim/gram_lanes.hpp"
#include "test_util.hpp"
#include "util/lanes.hpp"

namespace rpcg {
namespace {

using testing::random_vector;

struct Fixture {
  Partition part = Partition::block_rows(23, 5);  // uneven blocks on purpose
  Cluster cluster{part, CommParams{}};
  DistVector a{part}, b{part};

  Fixture() {
    a.set_global(random_vector(23, 1));
    b.set_global(random_vector(23, 2));
  }
};

TEST(Collectives, DotMatchesSequential) {
  Fixture f;
  const auto ga = f.a.gather_global();
  const auto gb = f.b.gather_global();
  double expect = 0.0;
  for (std::size_t i = 0; i < ga.size(); ++i) expect += ga[i] * gb[i];
  EXPECT_NEAR(dot(f.cluster, f.a, f.b, Phase::kIteration), expect, 1e-14);
  EXPECT_GT(f.cluster.clock().total(), 0.0);
}

TEST(Collectives, DotPairMatchesTwoDots) {
  Fixture f;
  const double rz = dot(f.cluster, f.a, f.b, Phase::kIteration);
  const double rr = dot(f.cluster, f.a, f.a, Phase::kIteration);
  const DotPair d = dot_pair(f.cluster, f.a, f.b, Phase::kIteration);
  EXPECT_NEAR(d.rz, rz, 1e-14);
  EXPECT_NEAR(d.rr, rr, 1e-14);
}

TEST(Collectives, DotPairBatchesTheReduction) {
  // One batched allreduce of 2 scalars must be cheaper than two allreduces.
  Fixture f1, f2;
  (void)dot_pair(f1.cluster, f1.a, f1.b, Phase::kIteration);
  (void)dot(f2.cluster, f2.a, f2.b, Phase::kIteration);
  (void)dot(f2.cluster, f2.a, f2.a, Phase::kIteration);
  EXPECT_LT(f1.cluster.clock().total(), f2.cluster.clock().total());
}

TEST(Collectives, Axpy) {
  Fixture f;
  const auto ga = f.a.gather_global();
  const auto gb = f.b.gather_global();
  axpy(f.cluster, 2.5, f.a, f.b, Phase::kIteration);
  const auto result = f.b.gather_global();
  for (std::size_t i = 0; i < ga.size(); ++i)
    EXPECT_NEAR(result[i], gb[i] + 2.5 * ga[i], 1e-14);
}

TEST(Collectives, XpbyImplementsSearchDirectionUpdate) {
  Fixture f;
  const auto ga = f.a.gather_global();
  const auto gb = f.b.gather_global();
  xpby(f.cluster, f.a, 0.75, f.b, Phase::kIteration);  // b = a + 0.75 b
  const auto result = f.b.gather_global();
  for (std::size_t i = 0; i < ga.size(); ++i)
    EXPECT_NEAR(result[i], ga[i] + 0.75 * gb[i], 1e-14);
}

TEST(Collectives, Copy) {
  Fixture f;
  copy(f.cluster, f.a, f.b, Phase::kIteration);
  EXPECT_EQ(f.a.gather_global(), f.b.gather_global());
}

TEST(Collectives, AllreduceSumDeterministicOrder) {
  Fixture f;
  const std::vector<double> contrib{0.1, 0.2, 0.3, 0.4, 0.5};
  const double s1 = allreduce_sum(f.cluster, contrib, Phase::kIteration);
  const double s2 = allreduce_sum(f.cluster, contrib, Phase::kIteration);
  EXPECT_DOUBLE_EQ(s1, s2);  // bitwise identical, fixed summation order
  EXPECT_DOUBLE_EQ(s1, 0.1 + 0.2 + 0.3 + 0.4 + 0.5);
}

TEST(Collectives, AllreduceRequiresOneContributionPerNode) {
  Fixture f;
  const std::vector<double> wrong{1.0, 2.0};
  EXPECT_THROW((void)allreduce_sum(f.cluster, wrong, Phase::kIteration),
               std::invalid_argument);
}

TEST(Collectives, OperationsOnLostBlockThrow) {
  Fixture f;
  f.a.invalidate(2);
  EXPECT_THROW((void)dot(f.cluster, f.a, f.b, Phase::kIteration),
               std::logic_error);
  EXPECT_THROW(axpy(f.cluster, 1.0, f.a, f.b, Phase::kIteration),
               std::logic_error);
}

// --- Split-phase (non-blocking) reductions -------------------------------

TEST(SplitPhase, ImmediateWaitMatchesBlockingCall) {
  // post + wait with nothing in between must charge exactly what the
  // blocking call charges and produce the same value — the wrappers and the
  // historical blocking collectives are the same operation.
  Fixture f1, f2;
  const double blocking = dot(f1.cluster, f1.a, f1.b, Phase::kIteration);
  PendingReduction red = idot(f2.cluster, f2.a, f2.b, Phase::kIteration);
  red.wait();
  EXPECT_EQ(red.value(0), blocking);
  EXPECT_EQ(f1.cluster.clock().total(), f2.cluster.clock().total());
}

TEST(SplitPhase, OverlappedComputeReducesExposedTime) {
  // Charging work between post and wait hides reduction latency: the
  // exposed remainder shrinks by exactly the work charged, down to zero.
  Fixture f1, f2;
  const double cost =
      f1.cluster.comm().allreduce_cost(f1.cluster.alive_count(), 1);
  ASSERT_GT(cost, 0.0);

  PendingReduction red1 = idot(f1.cluster, f1.a, f1.b, Phase::kIteration);
  const double t_posted = f1.cluster.clock().total();
  f1.cluster.clock().advance(Phase::kIteration, 0.5 * cost);  // overlap half
  red1.wait();
  EXPECT_DOUBLE_EQ(f1.cluster.clock().total(), t_posted + cost);
  EXPECT_DOUBLE_EQ(f1.cluster.reduction_times().posted_s, cost);
  EXPECT_DOUBLE_EQ(f1.cluster.reduction_times().hidden_s, 0.5 * cost);
  EXPECT_DOUBLE_EQ(f1.cluster.reduction_times().exposed_s, 0.5 * cost);

  PendingReduction red2 = idot(f2.cluster, f2.a, f2.b, Phase::kIteration);
  const double t2 = f2.cluster.clock().total();
  f2.cluster.clock().advance(Phase::kIteration, 3.0 * cost);  // fully hidden
  red2.wait();
  EXPECT_DOUBLE_EQ(f2.cluster.clock().total(), t2 + 3.0 * cost);
  EXPECT_DOUBLE_EQ(f2.cluster.reduction_times().exposed_s, 0.0);
  EXPECT_DOUBLE_EQ(f2.cluster.reduction_times().hidden_s, cost);
}

TEST(SplitPhase, ValuesAreFixedAtPostTime) {
  // Mutating the inputs after the post must not change the reduced values
  // (node-ordered summation happened when the reduction was posted).
  Fixture f;
  const double expect = [&] {
    const auto ga = f.a.gather_global();
    const auto gb = f.b.gather_global();
    double s = 0.0;
    for (std::size_t i = 0; i < ga.size(); ++i) s += ga[i] * gb[i];
    return s;
  }();
  PendingReduction red = idot(f.cluster, f.a, f.b, Phase::kIteration);
  f.a.set_zero();
  red.wait();
  EXPECT_NEAR(red.value(0), expect, 1e-14);
}

TEST(SplitPhase, PipelinedDotsMatchSeparateReductions) {
  Fixture f;
  DistVector w{f.part};
  w.set_global(random_vector(23, 3));
  const double ru = dot(f.cluster, f.a, f.b, Phase::kIteration);
  const double wu = dot(f.cluster, w, f.b, Phase::kIteration);
  const double rr = dot(f.cluster, f.a, f.a, Phase::kIteration);
  PendingReduction red = ipipelined_dots(f.cluster, f.a, f.b, w,
                                         Phase::kIteration);
  red.wait();
  EXPECT_NEAR(red.value(0), ru, 1e-14);
  EXPECT_NEAR(red.value(1), wu, 1e-14);
  EXPECT_NEAR(red.value(2), rr, 1e-14);
}

TEST(SplitPhase, PipelinedGramMatchesOrderedDots) {
  // Each Gram entry sums b_i[k] * b_j[k] from 0.0 with k ascending per node
  // and the nodes in order: the sequence dot() runs, so the two agree bit
  // for bit. The charge is the fused reduction's: nb (nb + 1) flops per
  // element of the largest block, then one nb (nb + 1) / 2-scalar allreduce.
  for (const Partition& part : testing::gram_partitions()) {
    for (const int nb : testing::kGramWidths) {
      const std::vector<DistVector> basis = testing::random_basis(part, nb, 7);
      std::vector<const DistVector*> ptrs;
      for (const DistVector& b : basis) ptrs.push_back(&b);

      Cluster cluster(part, CommParams{});
      PendingReduction red = ipipelined_gram(cluster, ptrs, Phase::kIteration);
      red.wait();
      const int entries = nb * (nb + 1) / 2;
      EXPECT_DOUBLE_EQ(
          cluster.clock().total(),
          cluster.comm().compute_cost(
              static_cast<double>(nb * (nb + 1)) *
              static_cast<double>(part.max_block_size())) +
              cluster.comm().allreduce_cost(cluster.alive_count(), entries))
          << "n " << part.n() << " nb " << nb;

      Cluster dots(part, CommParams{});
      for (int i = 0; i < nb; ++i) {
        for (int j = i; j < nb; ++j) {
          EXPECT_EQ(red.value(gram_index(i, j, nb)),
                    dot(dots, basis[static_cast<std::size_t>(i)],
                        basis[static_cast<std::size_t>(j)], Phase::kIteration))
              << "n " << part.n() << " nb " << nb << " (" << i << ", " << j
              << ")";
        }
      }
    }
  }
}

// The Gram kernel runs 2, 4 or 8 lanes wide, whichever the host has; every
// width must give every entry and the simulated time bit for bit. The
// partitions reach every chunk shape: blocks shorter than one 64-row chunk,
// and block_rows(1031, 2)'s 516 and 515 rows, several chunks with a last
// one of 4 and 3 rows. The basis widths reach every plan shape: an odd nb,
// one row group, several, and zero pad columns.
TEST(SplitPhase, EveryGramLanePathMatchesBitForBit) {
  std::vector<Partition> parts = testing::gram_partitions();
  parts.push_back(Partition::block_rows(1031, 2));
  for (const int lanes : {2, 4, 8}) {
    if (lanes > host_lanes())
      GTEST_SKIP() << "the host lacks " << (lanes == 4 ? "AVX2" : "AVX-512F")
                   << ": only the widths below " << lanes << " ran";
    for (const Partition& part : parts) {
      for (const int nb : testing::kGramWidths) {
        const std::vector<DistVector> basis =
            testing::random_basis(part, nb, 11);
        std::vector<const DistVector*> ptrs;
        for (const DistVector& b : basis) ptrs.push_back(&b);

        Cluster two_lanes(part, CommParams{});
        PendingReduction two =
            detail::GramLanes::post(two_lanes, ptrs, Phase::kIteration, 2);
        two.wait();
        Cluster wide_lanes(part, CommParams{});
        PendingReduction wide = detail::GramLanes::post(
            wide_lanes, ptrs, Phase::kIteration, lanes);
        wide.wait();
        EXPECT_EQ(wide_lanes.clock().total(), two_lanes.clock().total())
            << lanes << " lanes, n " << part.n() << " nb " << nb;

        Cluster dots(part, CommParams{});
        for (int i = 0; i < nb; ++i) {
          for (int j = i; j < nb; ++j) {
            const int e = gram_index(i, j, nb);
            EXPECT_EQ(wide.value(e), two.value(e))
                << lanes << " lanes, n " << part.n() << " nb " << nb << " ("
                << i << ", " << j << ")";
            EXPECT_EQ(wide.value(e),
                      dot(dots, basis[static_cast<std::size_t>(i)],
                          basis[static_cast<std::size_t>(j)],
                          Phase::kIteration))
                << lanes << " lanes, n " << part.n() << " nb " << nb << " ("
                << i << ", " << j << ")";
          }
        }
      }
    }
  }
}

TEST(SplitPhase, UnsupportedGramLaneWidthsAreRefused) {
  const Partition part = Partition::block_rows(23, 5);
  const std::vector<DistVector> basis = testing::random_basis(part, 3, 1);
  std::vector<const DistVector*> ptrs;
  for (const DistVector& b : basis) ptrs.push_back(&b);
  Cluster cluster(part, CommParams{});
  // 2 * host_lanes() is one width above the host's: 4 without AVX2, 8
  // without AVX-512F, 16 otherwise.
  for (const int lanes : {3, 16, 2 * host_lanes()}) {
    EXPECT_THROW(
        {
          PendingReduction red =
              detail::GramLanes::post(cluster, ptrs, Phase::kIteration, lanes);
          red.wait();
        },
        std::invalid_argument)
        << lanes;
  }
  EXPECT_EQ(cluster.reduction_times().count, 0);
}

TEST(SplitPhase, AccountingTracksEveryBlockingReduction) {
  Fixture f;
  (void)dot(f.cluster, f.a, f.b, Phase::kIteration);       // 1 reduction
  (void)dot_pair(f.cluster, f.a, f.b, Phase::kIteration);  // 1 batched
  const ReductionTimes& red = f.cluster.reduction_times();
  EXPECT_EQ(red.count, 2);
  EXPECT_DOUBLE_EQ(red.hidden_s, 0.0);  // blocking = fully exposed
  EXPECT_DOUBLE_EQ(red.exposed_s, red.posted_s);
}

TEST(SplitPhase, PausedClockSkipsAccounting) {
  // Diagnostic reductions under a paused clock (true-residual checks) must
  // not leak into the overlap totals.
  Fixture f;
  {
    ClockPause pause(f.cluster.clock());
    (void)dot(f.cluster, f.a, f.b, Phase::kIteration);
  }
  EXPECT_EQ(f.cluster.reduction_times().count, 0);
  EXPECT_DOUBLE_EQ(f.cluster.reduction_times().posted_s, 0.0);
}

TEST(SplitPhase, DroppedHandleStillCharges) {
  // A posted reduction that goes out of scope unwaited completes in the
  // destructor — the charge cannot be silently lost.
  Fixture f;
  const double before = f.cluster.clock().total();
  { PendingReduction red = idot(f.cluster, f.a, f.b, Phase::kIteration); }
  EXPECT_GT(f.cluster.clock().total(), before);
  EXPECT_EQ(f.cluster.reduction_times().count, 1);
}

}  // namespace
}  // namespace rpcg
