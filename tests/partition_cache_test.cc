#include "partition/partition_memo.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "test_util.h"

namespace dhyfd {
namespace {

using testutil::FromValues;
using testutil::RandomRelation;

TEST(PartitionMemoTest, MatchesDirectBuild) {
  Relation r = RandomRelation(3, 120, 5, 3);
  PartitionMemo memo(r);
  for (AttributeSet x : {AttributeSet{0}, AttributeSet{1, 3}, AttributeSet{0, 2, 4}}) {
    StrippedPartition memoized = memo.get(x);
    StrippedPartition direct = BuildPartition(r, x);
    memoized.normalize();
    direct.normalize();
    EXPECT_EQ(memoized.to_string(), direct.to_string()) << x.to_string();
  }
}

TEST(PartitionMemoTest, PrefixesAreReused) {
  Relation r = RandomRelation(5, 100, 5, 3);
  PartitionMemo memo(r);
  memo.get(AttributeSet{0, 1, 2});
  int64_t built = memo.partitions_built();
  // {0,1} is a prefix of {0,1,2}: already memoized, nothing new to build.
  memo.get(AttributeSet{0, 1});
  EXPECT_EQ(memo.partitions_built(), built);
  // {0,1,3} shares the {0,1} prefix: exactly one new refinement.
  memo.get(AttributeSet{0, 1, 3});
  EXPECT_EQ(memo.partitions_built(), built + 1);
}

TEST(PartitionMemoTest, ImpliesMatchesSatisfies) {
  Relation r = RandomRelation(7, 90, 4, 3);
  PartitionMemo memo(r);
  for (AttrId a = 0; a < 4; ++a) {
    for (AttrId b = 0; b < 4; ++b) {
      if (a == b) continue;
      EXPECT_EQ(memo.implies(AttributeSet::single(b), a),
                r.satisfies(AttributeSet::single(b), a))
          << b << "->" << a;
    }
  }
}

TEST(PartitionMemoTest, EmptyLhsConstantCheck) {
  Relation r = FromValues({{7, 0}, {7, 1}});
  PartitionMemo memo(r);
  EXPECT_TRUE(memo.implies(AttributeSet(), 0));
  EXPECT_FALSE(memo.implies(AttributeSet(), 1));
}

TEST(PartitionMemoTest, EvictionKeepsCorrectness) {
  Relation r = RandomRelation(11, 80, 6, 3);
  PartitionMemo memo(r, /*max_entries=*/2);
  for (int round = 0; round < 3; ++round) {
    const int64_t support = memo.get(AttributeSet{1, 4}).support();
    StrippedPartition direct = BuildPartition(r, AttributeSet{1, 4});
    EXPECT_EQ(support, direct.support());
    memo.get(AttributeSet{0, 2});  // force churn
  }
}

TEST(PartitionMemoTest, TightByteBudgetImpliesMatchesSatisfies) {
  // 400 rows make a partition a few KB, so 16 KB holds fewer than 16
  // entries and the byte budget, not the entry budget, does the evicting.
  Relation r = RandomRelation(13, 400, 6, 3, 0.1);
  // Every 2-attribute LHS against every RHS outside it.
  PartitionMemo memo(r, /*max_entries=*/16, /*max_bytes=*/1 << 14);
  PartitionMemo entries_only(r, /*max_entries=*/16);
  for (AttrId a = 0; a < 6; ++a) {
    for (AttrId b = 0; b < 6; ++b) {
      if (a == b) continue;
      AttributeSet x{a, b};
      for (AttrId rhs = 0; rhs < 6; ++rhs) {
        if (x.test(rhs)) continue;
        EXPECT_EQ(memo.implies(x, rhs), r.satisfies(x, rhs))
            << x.to_string() << "->" << rhs;
        entries_only.implies(x, rhs);
      }
    }
  }
  EXPECT_GT(memo.partitions_built(), entries_only.partitions_built());
}

}  // namespace
}  // namespace dhyfd
