// Properties connecting the two null-marker interpretations (paper §V-B):
// under null != null a null agrees with nothing, so agree sets shrink
// monotonically — which has checkable consequences for discovery, covers,
// and ranking.
#include <gtest/gtest.h>

#include <tuple>

#include "algo/agree_sets.h"
#include "algo/discovery.h"
#include "fd/closure.h"
#include "ranking/redundancy.h"
#include "relation/encoder.h"
#include "test_util.h"
#include "util/random.h"

namespace dhyfd {
namespace {

RawTable RandomNullTable(uint64_t seed, int rows, int cols, double null_rate) {
  Random rng(seed);
  RawTable t;
  for (int c = 0; c < cols; ++c) t.header.push_back("c" + std::to_string(c));
  for (int i = 0; i < rows; ++i) {
    std::vector<std::string> row;
    for (int c = 0; c < cols; ++c) {
      row.push_back(rng.next_bool(null_rate)
                        ? ""
                        : "v" + std::to_string(rng.next_below(4)));
    }
    t.rows.push_back(std::move(row));
  }
  return t;
}

class NullSemanticsSweep : public ::testing::TestWithParam<int> {};

TEST_P(NullSemanticsSweep, AgreeSetsShrinkUnderNotEquals) {
  RawTable t = RandomNullTable(GetParam() * 101 + 7, 40, 4, 0.25);
  Relation eq = EncodeRelation(t, NullSemantics::kNullEqualsNull).relation;
  Relation neq = EncodeRelation(t, NullSemantics::kNullNotEqualsNull).relation;
  // Pairwise: the null != null agree set of any row pair is a subset of the
  // null = null agree set (nulls stop matching, nothing starts matching).
  for (RowId i = 0; i < eq.num_rows(); ++i) {
    for (RowId j = i + 1; j < eq.num_rows(); ++j) {
      EXPECT_TRUE(neq.agree_set(i, j).is_subset_of(eq.agree_set(i, j)))
          << i << "," << j;
    }
  }
}

TEST_P(NullSemanticsSweep, DiscoveryExactUnderBothSemantics) {
  RawTable t = RandomNullTable(GetParam() * 131 + 3, 35, 4, 0.3);
  for (NullSemantics sem :
       {NullSemantics::kNullEqualsNull, NullSemantics::kNullNotEqualsNull}) {
    Relation r = EncodeRelation(t, sem).relation;
    FdSet expected = BruteForceDiscover(r);
    DiscoveryResult res = MakeDiscovery("dhyfd")->discover(r);
    EXPECT_EQ(testutil::CoverDifference(expected, res.fds, 4), "")
        << "sem=" << static_cast<int>(sem);
  }
}

TEST_P(NullSemanticsSweep, NullFreeTablesAreSemanticsInvariant) {
  RawTable t = RandomNullTable(GetParam() * 151 + 11, 30, 4, 0.0);
  Relation eq = EncodeRelation(t, NullSemantics::kNullEqualsNull).relation;
  Relation neq = EncodeRelation(t, NullSemantics::kNullNotEqualsNull).relation;
  FdSet fds_eq = MakeDiscovery("dhyfd")->discover(eq).fds;
  FdSet fds_neq = MakeDiscovery("dhyfd")->discover(neq).fds;
  ASSERT_EQ(fds_eq.size(), fds_neq.size());
  EXPECT_TRUE(CoversEquivalent(fds_eq, fds_neq, 4));
}

TEST_P(NullSemanticsSweep, RedundancyCountOrderings) {
  RawTable t = RandomNullTable(GetParam() * 171 + 13, 40, 4, 0.2);
  Relation r = EncodeRelation(t, NullSemantics::kNullEqualsNull).relation;
  FdSet cover = BruteForceDiscover(r);
  for (const FdRedundancy& red : ComputeCoverRedundancy(r, cover).per_fd) {
    // with_nulls >= excluding_null_rhs >= excluding_null_lhs_rhs >= 0.
    EXPECT_GE(red.with_nulls, red.excluding_null_rhs);
    EXPECT_GE(red.excluding_null_rhs, red.excluding_null_lhs_rhs);
    EXPECT_GE(red.excluding_null_lhs_rhs, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NullSemanticsSweep, ::testing::Range(0, 8));

}  // namespace
}  // namespace dhyfd
