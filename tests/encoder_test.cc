#include "relation/encoder.h"

#include <gtest/gtest.h>

#include "util/thread_pool.h"

namespace dhyfd {
namespace {

RawTable SampleTable() {
  RawTable t;
  t.header = {"a", "b"};
  t.rows = {{"x", "1"}, {"y", ""}, {"x", "2"}, {"", ""}};
  return t;
}

TEST(EncoderTest, DensifiesCodesPerColumn) {
  EncodedRelation e = EncodeRelation(SampleTable());
  const Relation& r = e.relation;
  EXPECT_EQ(r.num_rows(), 4);
  EXPECT_EQ(r.num_cols(), 2);
  // Column a: x, y, x, null -> codes 0,1,0,2.
  EXPECT_EQ(r.value(0, 0), r.value(2, 0));
  EXPECT_NE(r.value(0, 0), r.value(1, 0));
  EXPECT_EQ(r.domain_size(0), 3);
}

TEST(EncoderTest, NullEqualsNullSharesCode) {
  EncodedRelation e = EncodeRelation(SampleTable(), NullSemantics::kNullEqualsNull);
  const Relation& r = e.relation;
  // Rows 1 and 3 both null in column b: same code.
  EXPECT_EQ(r.value(1, 1), r.value(3, 1));
  EXPECT_TRUE(r.is_null(1, 1));
  EXPECT_TRUE(r.is_null(3, 1));
  EXPECT_FALSE(r.is_null(0, 1));
}

TEST(EncoderTest, NullNotEqualsNullGivesFreshCodes) {
  EncodedRelation e = EncodeRelation(SampleTable(), NullSemantics::kNullNotEqualsNull);
  const Relation& r = e.relation;
  EXPECT_NE(r.value(1, 1), r.value(3, 1));
  EXPECT_TRUE(r.is_null(1, 1));
  EXPECT_TRUE(r.is_null(3, 1));
}

TEST(EncoderTest, DictionaryDecodes) {
  EncodedRelation e = EncodeRelation(SampleTable());
  EXPECT_EQ(e.decode(0, 0), "x");
  EXPECT_EQ(e.decode(1, 0), "y");
  EXPECT_EQ(e.decode(2, 1), "2");
}

TEST(EncoderTest, QuestionMarkIsNullByDefault) {
  RawTable t;
  t.header = {"a"};
  t.rows = {{"?"}, {"v"}};
  EncodedRelation e = EncodeRelation(t);
  EXPECT_TRUE(e.relation.is_null(0, 0));
  EXPECT_FALSE(e.relation.is_null(1, 0));
}

TEST(EncoderTest, NullStats) {
  EncodedRelation e = EncodeRelation(SampleTable());
  NullStats s = ComputeNullStats(e.relation);
  EXPECT_EQ(s.null_occurrences, 3);
  EXPECT_EQ(s.incomplete_columns, 2);
  EXPECT_EQ(s.incomplete_rows, 2);  // rows 1 and 3
}

TEST(EncoderTest, CompleteTableHasNoNulls) {
  RawTable t;
  t.header = {"a", "b"};
  t.rows = {{"1", "2"}, {"3", "4"}};
  EncodedRelation e = EncodeRelation(t);
  NullStats s = ComputeNullStats(e.relation);
  EXPECT_EQ(s.null_occurrences, 0);
  EXPECT_EQ(s.incomplete_columns, 0);
  EXPECT_FALSE(e.relation.column_has_nulls(0));
}

TEST(EncoderTest, EmptyTable) {
  RawTable t;
  t.header = {"a"};
  EncodedRelation e = EncodeRelation(t);
  EXPECT_EQ(e.relation.num_rows(), 0);
  EXPECT_EQ(e.relation.domain_size(0), 0);
}

TEST(EncoderTest, NullNotEqualsNullGrowsDomain) {
  EncodedRelation eq = EncodeRelation(SampleTable(), NullSemantics::kNullEqualsNull);
  EncodedRelation neq = EncodeRelation(SampleTable(), NullSemantics::kNullNotEqualsNull);
  // Column b has values {1, 2} plus two nulls: 3 codes under =, 4 under !=.
  EXPECT_EQ(eq.relation.domain_size(1), 3);
  EXPECT_EQ(neq.relation.domain_size(1), 4);
}

TEST(EncoderTest, PooledEncodingMatchesSequential) {
  ThreadPool pool(3);
  for (NullSemantics sem :
       {NullSemantics::kNullEqualsNull, NullSemantics::kNullNotEqualsNull}) {
    EncodedRelation want = EncodeRelation(SampleTable(), sem);
    EncodedRelation got = EncodeRelation(SampleTable(), sem, {}, &pool, 3);
    EXPECT_EQ(got.dictionaries, want.dictionaries);
    for (AttrId c = 0; c < 2; ++c) {
      EXPECT_EQ(got.relation.column(c), want.relation.column(c));
      EXPECT_EQ(got.relation.domain_size(c), want.relation.domain_size(c));
      for (RowId r = 0; r < 4; ++r) {
        EXPECT_EQ(got.relation.is_null(r, c), want.relation.is_null(r, c));
      }
    }
  }
}

}  // namespace
}  // namespace dhyfd
