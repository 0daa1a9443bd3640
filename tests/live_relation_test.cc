#include "incr/live_relation.h"

#include <gtest/gtest.h>

#include "relation/csv.h"
#include "test_util.h"

namespace dhyfd {
namespace {

RawTable SmallTable() {
  RawTable t;
  t.header = {"a", "b", "c"};
  t.rows = {
      {"x", "1", "p"},
      {"y", "1", "q"},
      {"x", "2", "p"},
  };
  return t;
}

TEST(LiveRelationTest, GroupsSupportsAndDistinctTrackMutations) {
  LiveRelation rel(SmallTable());
  EXPECT_EQ(rel.live_rows(), 3);
  EXPECT_EQ(rel.live_distinct(0), 2);  // x, y
  EXPECT_EQ(rel.live_distinct(1), 2);  // 1, 2
  EXPECT_EQ(rel.group(0, rel.relation().value(0, 0)).size(), 2u);  // rows 0, 2
  EXPECT_EQ(rel.live_attribute_support(0), 2);  // the {x} group

  RowId t = rel.insert_row({"y", "2", "r"});
  EXPECT_EQ(rel.live_rows(), 4);
  EXPECT_EQ(rel.live_distinct(2), 3);                 // p, q, r
  EXPECT_EQ(rel.live_attribute_support(0), 4);        // {x}, {y} both size 2
  EXPECT_EQ(rel.group(0, rel.relation().value(t, 0)), (std::vector<RowId>{1, 3}));

  rel.erase_row(1);
  EXPECT_EQ(rel.live_rows(), 3);
  EXPECT_FALSE(rel.is_live(1));
  EXPECT_EQ(rel.live_attribute_support(0), 2);  // {y} collapsed to size 1
  rel.erase_row(t);
  EXPECT_EQ(rel.live_distinct(2), 1);  // only p remains live in c
  EXPECT_EQ(rel.live_attribute_partition(0).size(), 1);
}

TEST(LiveRelationTest, ExternalIdsSurviveCompaction) {
  LiveRelation rel(SmallTable());
  RowId t = rel.insert_row({"z", "9", "s"});
  LiveRowId id3 = rel.id_of(t);
  EXPECT_EQ(id3, 3);
  rel.erase_row(0);
  rel.erase_row(2);
  EXPECT_GT(rel.tombstone_fraction(), 0.4);

  rel.compact();
  EXPECT_EQ(rel.storage_rows(), 2);
  EXPECT_EQ(rel.tombstone_fraction(), 0.0);
  // Ids 1 and 3 survive; 0 and 2 are gone.
  EXPECT_EQ(rel.row_of(0), -1);
  EXPECT_EQ(rel.row_of(2), -1);
  ASSERT_GE(rel.row_of(1), 0);
  ASSERT_GE(rel.row_of(id3), 0);
  EXPECT_EQ(rel.decode(rel.row_of(1), 0), "y");
  EXPECT_EQ(rel.decode(rel.row_of(id3), 0), "z");
  // Codes are dense again after compaction.
  for (int c = 0; c < rel.num_cols(); ++c) {
    EXPECT_EQ(rel.relation().domain_size(c), 2);
    EXPECT_EQ(rel.live_distinct(c), 2);
  }
  // The relation stays usable after compaction.
  RowId u = rel.insert_row({"y", "9", "s"});
  EXPECT_EQ(rel.id_of(u), 4);
  EXPECT_EQ(rel.group(0, rel.relation().value(u, 0)).size(), 2u);
}

TEST(LiveRelationTest, SnapshotMatchesBatchEncodingOfLiveRows) {
  LiveRelation rel(SmallTable());
  rel.insert_row({"y", "3", "q"});
  rel.erase_row(0);

  RawTable expected;
  expected.header = {"a", "b", "c"};
  expected.rows = {{"y", "1", "q"}, {"x", "2", "p"}, {"y", "3", "q"}};
  Relation want = EncodeRelation(expected).relation;

  Relation got = rel.snapshot();
  ASSERT_EQ(got.num_rows(), want.num_rows());
  for (RowId i = 0; i < got.num_rows(); ++i) {
    for (int c = 0; c < got.num_cols(); ++c) {
      EXPECT_EQ(got.value(i, c), want.value(i, c));
    }
  }
  for (int c = 0; c < got.num_cols(); ++c) {
    EXPECT_EQ(got.domain_size(c), want.domain_size(c));
  }
}

TEST(LiveRelationTest, SnapshotEqualsCodesAfterCompact) {
  // One re-densify routine serves both: the snapshot of the live rows is
  // the relation compact() leaves, under both null semantics.
  for (NullSemantics sem :
       {NullSemantics::kNullEqualsNull, NullSemantics::kNullNotEqualsNull}) {
    RawTable t = SmallTable();
    t.rows[1][1] = "";
    LiveRelation rel(t, sem);
    rel.insert_row({"z", "", "p"});
    rel.insert_row({"x", "?", "r"});
    rel.insert_row({"w", "3", "r"});
    rel.erase_row(0);
    rel.erase_row(4);
    const Relation snap = rel.snapshot();
    rel.compact();
    const Relation& r = rel.relation();
    ASSERT_EQ(snap.num_rows(), r.num_rows());
    for (int c = 0; c < r.num_cols(); ++c) {
      EXPECT_EQ(snap.column(c), r.column(c));
      EXPECT_EQ(snap.domain_size(c), r.domain_size(c));
      for (RowId i = 0; i < r.num_rows(); ++i) {
        EXPECT_EQ(snap.is_null(i, c), r.is_null(i, c));
      }
    }
    // The null rows survive compaction as nulls; under kNullEqualsNull
    // they still share a code.
    EXPECT_TRUE(r.is_null(0, 1));
    EXPECT_TRUE(r.is_null(2, 1));
    EXPECT_EQ(r.value(0, 1) == r.value(2, 1), sem == NullSemantics::kNullEqualsNull);
  }
}

TEST(LiveRelationTest, RefinerSurvivesDomainGrowth) {
  LiveRelation rel(SmallTable());
  // Use the refiner, then grow a domain past its scratch capacity and use
  // it again; the lazily re-created refiner must see the new codes.
  StrippedPartition pi0 = rel.refiner().refine(rel.live_attribute_partition(0), 1);
  EXPECT_EQ(pi0.size(), 0);  // {x} splits on b into singletons
  for (int i = 0; i < 10; ++i) {
    rel.insert_row({"w", "v" + std::to_string(i), "p"});
  }
  StrippedPartition pi = rel.refiner().refine(rel.live_attribute_partition(2), 0);
  // The live "p" group refines by column a into {0,2} and the ten new "w"s.
  ASSERT_EQ(pi.size(), 2);
  EXPECT_EQ(pi.cluster(0).size() + pi.cluster(1).size(), 12u);
}

TEST(LiveRelationTest, DistinctPairWitnessesRootRefutation) {
  LiveRelation rel(SmallTable());
  auto [u, v] = rel.distinct_pair(1);
  ASSERT_GE(u, 0);
  EXPECT_NE(rel.relation().value(u, 1), rel.relation().value(v, 1));
  rel.erase_row(2);  // b collapses to the single value "1"
  EXPECT_EQ(rel.distinct_pair(1).first, -1);
  EXPECT_EQ(rel.whole_live_cluster().size(), 1);
}

}  // namespace
}  // namespace dhyfd
