#include "relation/encoder.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "datagen/benchmark_data.h"
#include "util/random.h"
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

constexpr NullSemantics kBothSemantics[] = {NullSemantics::kNullEqualsNull,
                                            NullSemantics::kNullNotEqualsNull};

// Repeats, every default null token, and a key-like column whose short
// (SSO) strings make its dictionary reallocate many times while appending.
RawTable RandomTable(uint64_t seed, int rows) {
  Random rng(seed);
  const std::vector<std::string> nulls = {"", "?", "NULL"};
  auto cell = [&](uint64_t domain) {
    if (rng.next_below(5) == 0) return nulls[rng.next_below(nulls.size())];
    return "v" + std::to_string(rng.next_below(domain));
  };
  RawTable t;
  t.header = {"key", "low", "mid"};
  for (int i = 0; i < rows; ++i) {
    std::string key = "k" + std::to_string(rng.next_below(static_cast<uint64_t>(rows)));
    t.rows.push_back({key, cell(3), cell(20)});
  }
  return t;
}

RawTable RowsOf(const RawTable& t, const std::vector<RowId>& rows) {
  RawTable out;
  out.header = t.header;
  for (RowId r : rows) out.rows.push_back(t.rows[r]);
  return out;
}

// Same codes, null flags, domain sizes and dictionaries. With
// `exact_null_tokens` false, a dictionary entry of a null code need only be
// a null token on both sides (see CompactEqualsBatchEncodingOfKeptRows).
void ExpectSameEncoding(const EncodedRelation& got, const EncodedRelation& want,
                        bool exact_null_tokens = true) {
  const Relation& g = got.relation;
  const Relation& w = want.relation;
  ASSERT_EQ(g.num_rows(), w.num_rows());
  ASSERT_EQ(g.num_cols(), w.num_cols());
  ASSERT_EQ(got.dictionaries.size(), want.dictionaries.size());
  for (AttrId c = 0; c < g.num_cols(); ++c) {
    EXPECT_EQ(g.column(c), w.column(c)) << "column " << c;
    EXPECT_EQ(g.domain_size(c), w.domain_size(c)) << "column " << c;
    std::vector<uint8_t> null_code(got.dictionaries[c].size(), 0);
    for (RowId r = 0; r < g.num_rows(); ++r) {
      EXPECT_EQ(g.is_null(r, c), w.is_null(r, c)) << "row " << r << " column " << c;
      if (g.is_null(r, c)) null_code[g.value(r, c)] = 1;
    }
    ASSERT_EQ(got.dictionaries[c].size(), want.dictionaries[c].size());
    for (size_t v = 0; v < got.dictionaries[c].size(); ++v) {
      if (null_code[v] && !exact_null_tokens) {
        EXPECT_TRUE(IsNullToken(got.dictionaries[c][v], CsvOptions{}));
        EXPECT_TRUE(IsNullToken(want.dictionaries[c][v], CsvOptions{}));
      } else {
        EXPECT_EQ(got.dictionaries[c][v], want.dictionaries[c][v])
            << "column " << c << " code " << v;
      }
    }
  }
}

TEST(EncoderTest, AppendEqualsBatchEncodingOfConcatenation) {
  const RawTable all = RandomTable(11, 300);
  ThreadPool pool(3);
  for (NullSemantics sem : kBothSemantics) {
    const EncodedRelation want = EncodeRelation(all, sem);
    for (int degree : {1, 4}) {
      // Split 0 appends every row to an empty relation.
      for (RowId split : {0, 1, 150, 299}) {
        std::vector<RowId> head;
        for (RowId r = 0; r < split; ++r) head.push_back(r);
        EncodedRelation got = EncodeRelation(RowsOf(all, head), sem, {}, &pool, degree);
        for (RowId r = split; r < all.num_rows(); ++r) {
          EXPECT_EQ(got.append(all.rows[r]), r);
        }
        SCOPED_TRACE("degree " + std::to_string(degree) + " split " + std::to_string(split));
        ExpectSameEncoding(got, want);
      }
    }
  }
}

TEST(EncoderTest, CompactEqualsBatchEncodingOfKeptRows) {
  const RawTable all = RandomTable(12, 300);
  ThreadPool pool(3);
  for (NullSemantics sem : kBothSemantics) {
    for (int degree : {1, 4}) {
      SCOPED_TRACE("degree " + std::to_string(degree));
      std::vector<RowId> head;
      for (RowId r = 0; r < 200; ++r) head.push_back(r);
      EncodedRelation got = EncodeRelation(RowsOf(all, head), sem, {}, &pool, degree);
      for (RowId r = 200; r < 250; ++r) got.append(all.rows[r]);
      // Drop every third row, then keep appending: the code maps are rebuilt
      // from the compacted dictionaries.
      std::vector<RowId> keep;
      for (RowId r = 0; r < 250; ++r) {
        if (r % 3 != 0) keep.push_back(r);
      }
      got.compact(keep);
      // Under kNullEqualsNull a column's one null code keeps the token it
      // was first seen with, which may have been on a dropped row.
      ExpectSameEncoding(got, EncodeRelation(RowsOf(all, keep), sem), false);
      for (RowId r = 250; r < all.num_rows(); ++r) {
        got.append(all.rows[r]);
        keep.push_back(r);
      }
      ExpectSameEncoding(got, EncodeRelation(RowsOf(all, keep), sem), false);
      // Compacting onto every row renumbers nothing.
      std::vector<RowId> every(keep.size());
      for (size_t i = 0; i < every.size(); ++i) every[i] = static_cast<RowId>(i);
      EncodedRelation before = got;
      got.compact(every);
      ExpectSameEncoding(got, before);
    }
  }
}

TEST(EncoderTest, SeparateNullsEqualsNullNotEqualsNullEncoding) {
  ThreadPool pool(3);
  bool any_null = false;
  for (const std::string& name : BenchmarkNames()) {
    const RawTable table = GenerateBenchmark(name, 3000);
    for (int degree : {1, 4}) {
      SCOPED_TRACE(name + " degree " + std::to_string(degree));
      const Relation eq = EncodeRelation(table, NullSemantics::kNullEqualsNull, {},
                                         &pool, degree)
                              .relation;
      const Relation want = EncodeRelation(table, NullSemantics::kNullNotEqualsNull,
                                           {}, &pool, degree)
                                .relation;
      const Relation got = SeparateNulls(eq);
      ASSERT_EQ(got.num_rows(), want.num_rows());
      ASSERT_EQ(got.num_cols(), want.num_cols());
      for (AttrId c = 0; c < want.num_cols(); ++c) {
        EXPECT_EQ(got.column(c), want.column(c)) << "column " << c;
        EXPECT_EQ(got.domain_size(c), want.domain_size(c)) << "column " << c;
        ASSERT_EQ(got.column_has_nulls(c), want.column_has_nulls(c)) << "column " << c;
        any_null = any_null || want.column_has_nulls(c);
        for (RowId r = 0; r < want.num_rows(); ++r) {
          ASSERT_EQ(got.is_null(r, c), want.is_null(r, c)) << "row " << r << " column " << c;
        }
      }
    }
  }
  EXPECT_TRUE(any_null);
}

}  // namespace
}  // namespace dhyfd
