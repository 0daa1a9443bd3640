#include "algo/dfd.h"

#include <gtest/gtest.h>

#include "fd/cover.h"
#include "test_util.h"
#include "util/cancellation.h"

namespace dhyfd {
namespace {

using testutil::CoverDifference;
using testutil::FromValues;
using testutil::RandomRelation;

TEST(DfdTest, MatchesBruteForce) {
  for (int seed = 1; seed <= 10; ++seed) {
    Relation r = RandomRelation(seed * 29, 40, 5, 3);
    DiscoveryResult res = Dfd().discover(r);
    FdSet expected = BruteForceDiscover(r);
    EXPECT_EQ(CoverDifference(expected, res.fds, 5), "") << "seed=" << seed;
    EXPECT_EQ(res.fds.size(), expected.size()) << "seed=" << seed;
  }
}

TEST(DfdTest, OutputLeftReduced) {
  Relation r = RandomRelation(83, 70, 6, 3);
  DiscoveryResult res = Dfd().discover(r);
  EXPECT_TRUE(IsLeftReduced(res.fds, 6));
}

TEST(DfdTest, ConstantColumn) {
  Relation r = FromValues({{5, 0}, {5, 1}});
  DiscoveryResult res = Dfd().discover(r);
  ASSERT_GE(res.fds.size(), 1);
  EXPECT_EQ(res.fds.fds[0], Fd(AttributeSet{}, 0));
}

TEST(DfdTest, NoFdForSingleDifferingColumn) {
  Relation r = FromValues({{0, 0}, {0, 1}});
  DiscoveryResult res = Dfd().discover(r);
  for (const Fd& fd : res.fds.fds) EXPECT_FALSE(fd.rhs.test(1));
}

TEST(DfdTest, CompositeMinimalLhs) {
  Relation r = FromValues({
      {0, 0, 10}, {0, 0, 10}, {0, 1, 11}, {1, 0, 12}, {1, 1, 13}, {1, 1, 13}});
  DiscoveryResult res = Dfd().discover(r);
  bool found = false;
  for (const Fd& fd : res.fds.fds) {
    if (fd == Fd(AttributeSet{0, 1}, 2)) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(DfdTest, EmptyAndTinyRelations) {
  DiscoveryResult res0 = Dfd().discover(FromValues({}));
  SUCCEED();
  DiscoveryResult res1 = Dfd().discover(FromValues({{1, 2}}));
  EXPECT_EQ(res1.fds.size(), 2);
}

TEST(DfdTest, CountsMemoizedPartitionBuilds) {
  Relation r = RandomRelation(91, 100, 6, 3);
  DiscoveryResult res = Dfd().discover(r);
  EXPECT_GT(res.stats.refinements, 0);  // partitions built through the memo
  EXPECT_GT(res.stats.validations, 0);
}

TEST(DfdTest, TimeLimit) {
  Relation r = RandomRelation(5, 2500, 10, 3);
  CancelToken tl(1e-6);
  CancelScope scope(&tl);
  DiscoveryResult res = Dfd().discover(r);
  EXPECT_TRUE(res.stats.timed_out);
}

}  // namespace
}  // namespace dhyfd
