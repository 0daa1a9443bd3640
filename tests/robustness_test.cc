// Failure-injection / adversarial-input tests across the public surface:
// degenerate relations, all-null columns, single-column schemas, huge
// domains, and profiler behavior on them.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "algo/discovery.h"
#include "core/profiler.h"
#include "fd/cover.h"
#include "incr/live_relation.h"
#include "ranking/redundancy.h"
#include "relation/encoder.h"
#include "test_util.h"

namespace dhyfd {
namespace {

RawTable TableOf(std::vector<std::string> header,
                 std::vector<std::vector<std::string>> rows) {
  RawTable t;
  t.header = std::move(header);
  t.rows = std::move(rows);
  return t;
}

TEST(RobustnessTest, AllNullColumn) {
  RawTable t = TableOf({"a", "b"}, {{"", "1"}, {"", "2"}, {"", "3"}});
  for (NullSemantics sem :
       {NullSemantics::kNullEqualsNull, NullSemantics::kNullNotEqualsNull}) {
    EncodedRelation e = EncodeRelation(t, sem);
    for (const std::string& name : AllDiscoveryNames()) {
      DiscoveryResult res = MakeDiscovery(name)->discover(e.relation);
      FdSet expected = BruteForceDiscover(e.relation);
      EXPECT_EQ(res.fds.size(), expected.size())
          << name << " sem=" << static_cast<int>(sem);
    }
  }
  // Under null = null the all-null column is constant: {} -> a must hold.
  EncodedRelation eq = EncodeRelation(t, NullSemantics::kNullEqualsNull);
  DiscoveryResult res = MakeDiscovery("dhyfd")->discover(eq.relation);
  bool constant_a = false;
  for (const Fd& fd : res.fds.fds) {
    if (fd.lhs.empty() && fd.rhs.test(0)) constant_a = true;
  }
  EXPECT_TRUE(constant_a);
}

TEST(RobustnessTest, SingleColumnRelation) {
  Relation r = testutil::FromValues({{0}, {1}, {0}, {2}});
  for (const std::string& name : AllDiscoveryNames()) {
    DiscoveryResult res = MakeDiscovery(name)->discover(r);
    EXPECT_EQ(res.fds.size(), 0) << name;  // non-constant, nothing to find
  }
  Relation constant = testutil::FromValues({{5}, {5}});
  DiscoveryResult res = MakeDiscovery("dhyfd")->discover(constant);
  ASSERT_EQ(res.fds.size(), 1);
  EXPECT_TRUE(res.fds.fds[0].lhs.empty());
}

TEST(RobustnessTest, AllColumnsIdentical) {
  Relation r = testutil::FromValues({{1, 1, 1}, {2, 2, 2}, {3, 3, 3}});
  FdSet expected = BruteForceDiscover(r);  // every column determines others
  for (const std::string& name : AllDiscoveryNames()) {
    DiscoveryResult res = MakeDiscovery(name)->discover(r);
    EXPECT_EQ(testutil::CoverDifference(expected, res.fds, 3), "") << name;
  }
  EXPECT_EQ(expected.size(), 6);  // a->b, a->c, b->a, b->c, c->a, c->b
}

TEST(RobustnessTest, AllRowsIdentical) {
  Relation r = testutil::FromValues({{1, 2}, {1, 2}, {1, 2}});
  DiscoveryResult res = MakeDiscovery("dhyfd")->discover(r);
  EXPECT_EQ(res.fds.size(), 2);  // both columns constant
  // Ranking: every occurrence is redundant under the constants.
  FdSet canonical = CanonicalCover(res.fds, 2);
  DatasetRedundancy d = ComputeCoverRedundancy(r, canonical).dataset;
  EXPECT_EQ(d.red_plus0, 6);
}

TEST(RobustnessTest, WideSchemaManyConstantColumns) {
  std::vector<std::vector<int>> rows(3, std::vector<int>(40, 7));
  rows[1][39] = 8;  // one non-constant column
  Relation r = testutil::FromValues(rows);
  DiscoveryResult res = MakeDiscovery("dhyfd")->discover(r);
  // 39 constants plus {39} is a... no pair of rows agrees on 39 except
  // rows 0 and 2 (both 7): so {} -> c39 fails, and c39's FDs depend on
  // pairs. Just assert exactness.
  FdSet expected = BruteForceDiscover(r.fragment(3, 20));
  DiscoveryResult scoped = MakeDiscovery("dhyfd")->discover(r.fragment(3, 20));
  EXPECT_EQ(scoped.fds.size(), expected.size());
}

TEST(RobustnessTest, ProfilerOnDegenerateInputs) {
  // Header-only table: zero rows.
  RawTable empty = TableOf({"a", "b"}, {});
  ProfileReport rep = Profiler().profile(empty);
  EXPECT_EQ(rep.dataset_redundancy.num_values, 0);
  // One row: everything constant, everything redundant? A single occurrence
  // has no second row to witness redundancy.
  RawTable one = TableOf({"a", "b"}, {{"x", "y"}});
  ProfileReport rep1 = Profiler().profile(one);
  EXPECT_EQ(rep1.discovery.fds.size(), 2);
  EXPECT_EQ(rep1.dataset_redundancy.red_plus0, 0);
}

RawTable WideTable(int cols) {
  RawTable t;
  for (int c = 0; c < cols; ++c) t.header.push_back("c" + std::to_string(c));
  t.rows.assign(2, std::vector<std::string>(cols, "v"));
  return t;
}

TEST(RobustnessTest, TableWidthCheckedAtRelationBoundary) {
  // AttributeSet holds 256 attributes; a wider table must be refused before
  // any attribute set is built from it, not overflow one.
  const int max = AttributeSet::kCapacity;
  EXPECT_EQ(EncodeRelation(WideTable(max)).relation.num_cols(), max);
  EXPECT_EQ(LiveRelation(WideTable(max)).num_cols(), max);
  EXPECT_THROW(EncodeRelation(WideTable(max + 1)), std::invalid_argument);
  EXPECT_THROW(LiveRelation{WideTable(max + 1)}, std::invalid_argument);
  EXPECT_THROW(Profiler().profile(WideTable(300)), std::invalid_argument);
}

TEST(RobustnessTest, HugeDomainColumn) {
  // A key-like column with a huge dense domain exercises the refinement
  // scratch sizing.
  std::vector<std::vector<int>> rows;
  for (int i = 0; i < 500; ++i) rows.push_back({i, i % 3});
  Relation r = testutil::FromValues(rows);
  DiscoveryResult res = MakeDiscovery("dhyfd")->discover(r);
  bool key_fd = false;
  for (const Fd& fd : res.fds.fds) {
    if (fd.lhs == AttributeSet{0} && fd.rhs.test(1)) key_fd = true;
  }
  EXPECT_TRUE(key_fd);
}

TEST(RobustnessTest, CanonicalCoverOfUnsatisfiableInputs) {
  // Cover utilities must not choke on trivial or self-referential FDs.
  FdSet weird;
  weird.add(Fd(AttributeSet{0}, 0));                  // trivial
  weird.add(Fd(AttributeSet{0, 1}, AttributeSet{1}));  // trivial (subset RHS)
  weird.add(Fd(AttributeSet{2}, 3));
  FdSet lr = LeftReduce(weird, 4);
  EXPECT_EQ(lr.size(), 1);  // only the real FD survives
  EXPECT_EQ(lr.fds[0], Fd(AttributeSet{2}, 3));
}

TEST(RobustnessTest, RankingOnCoverWithForeignFds) {
  // Ranking a cover containing an FD that does NOT hold is well-defined
  // under Vincent's definition (counts witnesses of the LHS pattern).
  Relation r = testutil::FromValues({{0, 1}, {0, 2}});
  FdSet cover;
  cover.add(Fd(AttributeSet{0}, 1));  // violated FD
  auto reds = ComputeCoverRedundancy(r, cover).per_fd;
  EXPECT_EQ(reds[0].with_nulls, 2);  // both rows share the LHS value
}

}  // namespace
}  // namespace dhyfd
