#include "algo/rowbased.h"

#include <gtest/gtest.h>

#include "fd/cover.h"
#include "test_util.h"
#include "util/cancellation.h"

namespace dhyfd {
namespace {

using testutil::CoverDifference;
using testutil::FromValues;
using testutil::RandomRelation;

class RowBasedTest : public ::testing::TestWithParam<RowBasedVariant> {};

TEST_P(RowBasedTest, MatchesBruteForce) {
  for (int seed = 1; seed <= 10; ++seed) {
    Relation r = RandomRelation(seed * 11, 40, 5, 3);
    DiscoveryResult res = RowBasedTransversal(GetParam()).discover(r);
    FdSet expected = BruteForceDiscover(r);
    EXPECT_EQ(CoverDifference(expected, res.fds, 5), "") << "seed=" << seed;
    EXPECT_EQ(res.fds.size(), expected.size()) << "seed=" << seed;
  }
}

TEST_P(RowBasedTest, OutputLeftReduced) {
  Relation r = RandomRelation(71, 60, 6, 3);
  DiscoveryResult res = RowBasedTransversal(GetParam()).discover(r);
  EXPECT_TRUE(IsLeftReduced(res.fds, 6));
}

TEST_P(RowBasedTest, ConstantKeyDerived) {
  Relation r = FromValues({{7, 0, 0, 10}, {7, 1, 0, 10}, {7, 2, 1, 11}, {7, 3, 2, 12}});
  DiscoveryResult res = RowBasedTransversal(GetParam()).discover(r);
  bool constant = false, derived = false, key = false;
  for (const Fd& fd : res.fds.fds) {
    if (fd == Fd(AttributeSet{}, 0)) constant = true;
    if (fd == Fd(AttributeSet{2}, 3)) derived = true;
    if (fd == Fd(AttributeSet{1}, 2)) key = true;
  }
  EXPECT_TRUE(constant);
  EXPECT_TRUE(derived);
  EXPECT_TRUE(key);
}

TEST_P(RowBasedTest, NoFdWhenPairDiffersOnOneAttr) {
  // Rows differing only on column 1: no FD with RHS 1 can hold.
  Relation r = FromValues({{0, 0}, {0, 1}});
  DiscoveryResult res = RowBasedTransversal(GetParam()).discover(r);
  for (const Fd& fd : res.fds.fds) EXPECT_FALSE(fd.rhs.test(1));
}

TEST_P(RowBasedTest, EmptyAndTinyRelations) {
  DiscoveryResult res0 = RowBasedTransversal(GetParam()).discover(FromValues({}));
  SUCCEED();
  DiscoveryResult res1 = RowBasedTransversal(GetParam()).discover(FromValues({{1, 2}}));
  EXPECT_EQ(res1.fds.size(), 2);
}

TEST_P(RowBasedTest, TimeLimitFlags) {
  Relation r = RandomRelation(5, 2500, 10, 3);
  CancelToken tl(1e-6);
  CancelScope scope(&tl);
  DiscoveryResult res = RowBasedTransversal(GetParam()).discover(r);
  EXPECT_TRUE(res.stats.timed_out);
}

INSTANTIATE_TEST_SUITE_P(Variants, RowBasedTest,
                         ::testing::Values(RowBasedVariant::kFastFds,
                                           RowBasedVariant::kDepMiner),
                         [](const ::testing::TestParamInfo<RowBasedVariant>& info) {
                           return info.param == RowBasedVariant::kFastFds
                                      ? "fastfds"
                                      : "depminer";
                         });

TEST(RowBasedFactoryTest, Names) {
  EXPECT_EQ(MakeDiscovery("fastfds")->name(), "fastfds");
  EXPECT_EQ(MakeDiscovery("depminer")->name(), "depminer");
}

TEST(RowBasedTest, VariantsAgree) {
  for (int seed = 1; seed <= 5; ++seed) {
    Relation r = RandomRelation(seed * 41, 50, 5, 2);
    DiscoveryResult fast = RowBasedTransversal(RowBasedVariant::kFastFds).discover(r);
    DiscoveryResult dep = RowBasedTransversal(RowBasedVariant::kDepMiner).discover(r);
    EXPECT_EQ(fast.fds.size(), dep.fds.size()) << seed;
    EXPECT_EQ(CoverDifference(fast.fds, dep.fds, 5), "") << seed;
  }
}

}  // namespace
}  // namespace dhyfd
