#include "fd/cover.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "algo/discovery.h"
#include "datagen/benchmark_data.h"
#include "relation/encoder.h"
#include "test_util.h"
#include "util/cancellation.h"
#include "util/random.h"

namespace dhyfd {
namespace {

TEST(CoverTest, CanonicalRemovesTransitiveRedundancy) {
  // Left-reduced but redundant: A -> B, B -> C, A -> C. The last FD is
  // implied by transitivity.
  FdSet lr;
  lr.add(Fd(AttributeSet{0}, 1));
  lr.add(Fd(AttributeSet{1}, 2));
  lr.add(Fd(AttributeSet{0}, 2));
  FdSet can = CanonicalCover(lr, 3);
  EXPECT_EQ(can.size(), 2);
  EXPECT_TRUE(CoversEquivalent(lr, can, 3));
  EXPECT_TRUE(IsNonRedundant(can, 3));
  EXPECT_TRUE(HasUniqueLhs(can));
}

TEST(CoverTest, CanonicalMergesEqualLhs) {
  FdSet lr;
  lr.add(Fd(AttributeSet{0}, 1));
  lr.add(Fd(AttributeSet{0}, 2));
  FdSet can = CanonicalCover(lr, 3);
  ASSERT_EQ(can.size(), 1);
  EXPECT_EQ(can.fds[0].rhs, (AttributeSet{1, 2}));
}

TEST(CoverTest, CanonicalOfIrredundantIsIdentity) {
  FdSet lr;
  lr.add(Fd(AttributeSet{0}, 1));
  lr.add(Fd(AttributeSet{2}, 3));
  FdSet can = CanonicalCover(lr, 4);
  EXPECT_EQ(can.size(), 2);
  EXPECT_EQ(can.attribute_occurrences(), 4);
}

TEST(CoverTest, LeftReduce) {
  // AB -> C where already A -> C: LHS shrinks to A.
  FdSet fds;
  fds.add(Fd(AttributeSet{0}, 2));
  fds.add(Fd(AttributeSet{0, 1}, 2));
  FdSet reduced = LeftReduce(fds, 3);
  EXPECT_EQ(reduced.size(), 1);
  EXPECT_EQ(reduced.fds[0].lhs, AttributeSet{0});
  EXPECT_TRUE(IsLeftReduced(reduced, 3));
}

TEST(CoverTest, LeftReduceDropsTrivial) {
  FdSet fds;
  fds.add(Fd(AttributeSet{0, 1}, 1));  // trivial
  FdSet reduced = LeftReduce(fds, 3);
  EXPECT_EQ(reduced.size(), 0);
}

TEST(CoverTest, IsLeftReducedDetectsReducible) {
  FdSet fds;
  fds.add(Fd(AttributeSet{0}, 2));
  fds.add(Fd(AttributeSet{0, 1}, 2));
  EXPECT_FALSE(IsLeftReduced(fds, 3));
}

TEST(CoverTest, IsNonRedundantDetectsRedundant) {
  FdSet fds;
  fds.add(Fd(AttributeSet{0}, 1));
  fds.add(Fd(AttributeSet{1}, 2));
  fds.add(Fd(AttributeSet{0}, 2));
  EXPECT_FALSE(IsNonRedundant(fds, 3));
}

TEST(CoverTest, HasUniqueLhs) {
  FdSet fds;
  fds.add(Fd(AttributeSet{0}, 1));
  fds.add(Fd(AttributeSet{0}, 2));
  EXPECT_FALSE(HasUniqueLhs(fds));
  FdSet merged = fds.with_merged_lhs();
  EXPECT_TRUE(HasUniqueLhs(merged));
}

TEST(CoverTest, ComputeCoverStats) {
  FdSet lr;
  lr.add(Fd(AttributeSet{0}, 1));
  lr.add(Fd(AttributeSet{1}, 2));
  lr.add(Fd(AttributeSet{0}, 2));
  CoverStats stats = ComputeCoverStats(lr, CanonicalCover(lr, 3));
  EXPECT_EQ(stats.left_reduced_count, 3);
  EXPECT_EQ(stats.left_reduced_occurrences, 6);
  EXPECT_EQ(stats.canonical_count, 2);
  EXPECT_EQ(stats.canonical_occurrences, 4);
  EXPECT_NEAR(stats.percent_size, 100.0 * 2 / 3, 1e-9);
}

TEST(CoverTest, EmptyCover) {
  FdSet empty;
  FdSet can = CanonicalCover(empty, 4);
  EXPECT_TRUE(can.empty());
  CoverStats stats = ComputeCoverStats(empty, can);
  EXPECT_EQ(stats.percent_size, 0);
}

TEST(CoverTest, ConstantColumnsFd) {
  // {} -> A plus A -> B collapses: {} -> A makes A -> B equivalent to
  // {} -> B, so a canonical cover can keep {} -> {A, B}.
  FdSet lr;
  lr.add(Fd(AttributeSet{}, 0));
  lr.add(Fd(AttributeSet{}, 1));
  FdSet can = CanonicalCover(lr, 3);
  ASSERT_EQ(can.size(), 1);
  EXPECT_EQ(can.fds[0].lhs, AttributeSet{});
  EXPECT_EQ(can.fds[0].rhs, (AttributeSet{0, 1}));
}

// Property sweep: canonical covers of random FD sets are always equivalent,
// non-redundant, and unique-LHS.
class CanonicalSweep : public ::testing::TestWithParam<int> {};

TEST_P(CanonicalSweep, InvariantsHold) {
  Random rng(GetParam() * 977 + 5);
  int n = 5 + static_cast<int>(rng.next_below(4));
  FdSet fds;
  int count = 3 + static_cast<int>(rng.next_below(15));
  for (int i = 0; i < count; ++i) {
    AttributeSet lhs;
    int lhs_size = static_cast<int>(rng.next_below(3));
    for (int k = 0; k < lhs_size; ++k) lhs.set(static_cast<AttrId>(rng.next_below(n)));
    AttrId rhs = static_cast<AttrId>(rng.next_below(n));
    if (lhs.test(rhs)) continue;
    fds.add(Fd(lhs, rhs));
  }
  FdSet lr = LeftReduce(fds, n);
  EXPECT_TRUE(IsLeftReduced(lr, n));
  EXPECT_TRUE(CoversEquivalent(fds, lr, n));
  FdSet can = CanonicalCover(lr, n);
  EXPECT_TRUE(CoversEquivalent(lr, can, n));
  EXPECT_TRUE(IsNonRedundant(can, n));
  EXPECT_TRUE(HasUniqueLhs(can));
  EXPECT_LE(can.size(), lr.with_singleton_rhs().with_merged_lhs().size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CanonicalSweep, ::testing::Range(0, 20));

/// CanonicalCover's ordered scan run on the naive closure: FD i is dropped
/// when the FDs still kept, other than i itself, imply it.
FdSet ReferenceCanonicalCover(const FdSet& left_reduced) {
  FdSet singles = left_reduced.with_singleton_rhs();
  std::vector<bool> on(singles.fds.size(), true);
  for (size_t i = 0; i < singles.fds.size(); ++i) {
    on[i] = false;
    const Fd& fd = singles.fds[i];
    if (!fd.rhs.is_subset_of(testutil::NaiveClosure(singles, on, fd.lhs))) on[i] = true;
  }
  FdSet kept;
  for (size_t i = 0; i < singles.fds.size(); ++i) {
    if (on[i]) kept.add(singles.fds[i]);
  }
  return kept.with_merged_lhs();
}

TEST(CoverTest, MatchesNaiveReferenceOnRandomRelations) {
  // The relations of RedundancyTest.MatchesBruteForce.
  for (int seed = 1; seed <= 8; ++seed) {
    Relation r = testutil::RandomRelation(seed * 7, 50, 4, 3, seed % 3 == 0 ? 0.15 : 0.0);
    FdSet left_reduced = BruteForceDiscover(r);
    EXPECT_EQ(CanonicalCover(left_reduced, r.num_cols()).fds,
              ReferenceCanonicalCover(left_reduced).fds)
        << "seed=" << seed;
  }
}

TEST(CoverTest, MatchesNaiveReferenceOnAnalogs) {
  for (auto [name, rows] : {std::pair{"bridges", 200}, {"abalone", 200}, {"hepatitis", 155}}) {
    Relation r = EncodeRelation(GenerateBenchmark(name, rows)).relation;
    FdSet left_reduced = MakeDiscovery("dhyfd")->discover(r).fds;
    ASSERT_GT(left_reduced.size(), 0) << name;
    FdSet expected = ReferenceCanonicalCover(left_reduced);
    int64_t implications = -1;
    EXPECT_EQ(CanonicalCover(left_reduced, r.num_cols(), &implications).fds, expected.fds)
        << name;
    EXPECT_EQ(implications, left_reduced.with_singleton_rhs().size()) << name;
  }
}

TEST(CoverTest, PreCancelledTokenStopsCanonicalCover) {
  const testutil::HorseAnalog& horse = testutil::Horse();
  const FdSet& left_reduced = horse.cover;
  const int num_attrs = horse.relation.num_cols();
  ASSERT_GT(left_reduced.size(), 90000);
  CancelToken token;
  token.cancel();
  CancelScope scope(&token);
  int64_t implications = -1;
  auto start = std::chrono::steady_clock::now();
  FdSet canonical = CanonicalCover(left_reduced, num_attrs, &implications);
  double ms = std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                        start).count();
  EXPECT_TRUE(canonical.empty());
  EXPECT_EQ(implications, 0);
  EXPECT_LT(ms, 100.0);
}

TEST(CoverTest, CancelMidScanReturnsEmptyCover) {
  const testutil::HorseAnalog& horse = testutil::Horse();
  const FdSet& left_reduced = horse.cover;
  const int num_attrs = horse.relation.num_cols();
  CancelToken token;
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    token.cancel();
  });
  FdSet canonical;
  int64_t implications = -1;
  {
    CancelScope scope(&token);
    canonical = CanonicalCover(left_reduced, num_attrs, &implications);
  }
  canceller.join();
  // A finished scan would have made one check per FD and kept a cover.
  EXPECT_TRUE(canonical.empty());
  EXPECT_LT(implications, left_reduced.size());
}

}  // namespace
}  // namespace dhyfd
