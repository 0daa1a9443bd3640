// Unit tests for src/query/: spec validation, the g3-style removal counter,
// and the engine's epsilon / arity / top-k / column-scope behaviour.
#include "query/engine.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string_view>

#include "algo/dhyfd.h"
#include "algo/discovery.h"
#include "algo/tane.h"
#include "obs/obs.h"
#include "obs/obs_schema.gen.h"
#include "partition/partition_ops.h"
#include "query/topk.h"
#include "test_util.h"
#include "util/cancellation.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace dhyfd {
namespace {

using testutil::CoverDifference;
using testutil::FromValues;
using testutil::RandomRelation;

std::string CoverString(FdSet fds) {
  fds.sort();
  std::string out;
  for (const Fd& fd : fds.fds) {
    out += fd.to_string();
    out += "\n";
  }
  return out;
}

/// A relation with planted structure so covers are never empty: col2 is a
/// function of col0 and col3 of {col0, col1}; col1/col4 are noise.
Relation StructuredRelation(uint64_t seed, int rows = 60) {
  Random rng(seed);
  std::vector<std::vector<int>> data;
  data.reserve(rows);
  for (int i = 0; i < rows; ++i) {
    int a = i % 8;
    int b = static_cast<int>(rng.next_below(5));
    int c = (a * 3) % 5;
    int d = (a + b) % 4;
    int e = static_cast<int>(rng.next_below(3));
    data.push_back({a, b, c, d, e});
  }
  return testutil::FromValues(data);
}

bool Contains(const FdSet& fds, const Fd& fd) {
  for (const Fd& f : fds.fds) {
    if (f.lhs == fd.lhs && f.rhs == fd.rhs) return true;
  }
  return false;
}

TEST(DiscoveryQueryTest, DefaultSpecIsValid) {
  EXPECT_EQ(DescribeQueryError(DiscoveryQuery{}, 5), "");
  EXPECT_EQ(DescribeQueryError(DiscoveryQuery{}, 0), "");
}

TEST(DiscoveryQueryTest, RejectsBadEpsilon) {
  DiscoveryQuery q;
  q.epsilon = -0.1;
  EXPECT_NE(DescribeQueryError(q, 3), "");
  q.epsilon = 1.5;
  EXPECT_NE(DescribeQueryError(q, 3), "");
  q.epsilon = std::numeric_limits<double>::quiet_NaN();
  EXPECT_NE(DescribeQueryError(q, 3), "");
  q.epsilon = 1.0;
  EXPECT_EQ(DescribeQueryError(q, 3), "");
}

TEST(DiscoveryQueryTest, RejectsBadArityAndMode) {
  DiscoveryQuery q;
  q.max_lhs = -1;
  EXPECT_NE(DescribeQueryError(q, 3), "");
  q.max_lhs = static_cast<int>(AttributeSet::kCapacity) + 1;
  EXPECT_NE(DescribeQueryError(q, 3), "");
  q.max_lhs = 2;
  q.ranking_mode = static_cast<RedundancyMode>(99);
  EXPECT_NE(DescribeQueryError(q, 3), "");
}

TEST(DiscoveryQueryTest, RejectsBadColumnScope) {
  DiscoveryQuery q;
  q.include_columns = {0, 7};
  EXPECT_NE(DescribeQueryError(q, 3), "");  // 7 exceeds the schema width
  EXPECT_EQ(DescribeQueryError(q, 0), "");  // width unknown: syntax only
  q.include_columns = {0};
  EXPECT_NE(DescribeQueryError(q, 3), "");  // scope must keep >= 2 columns
  q.include_columns = {0, 1, 2};
  q.exclude_columns = {1, 2};
  EXPECT_NE(DescribeQueryError(q, 3), "");  // excludes shrink it below 2
  q.exclude_columns = {2};
  EXPECT_EQ(DescribeQueryError(q, 3), "");
}

TEST(QueryEngineTest, InvalidSpecThrows) {
  Relation r = RandomRelation(1, 20, 3, 2);
  DiscoveryQuery q;
  q.epsilon = 2.0;
  EXPECT_THROW(QueryEngine().execute(r, q), std::invalid_argument);
}

TEST(ApproxErrorTest, RemovalsHandcrafted) {
  // pi_{col0} = {{0,1,2},{3,4}}; col1 groups inside them: {5,5,6} needs one
  // removal, {7,7} none.
  Relation r = FromValues({{0, 5}, {0, 5}, {0, 6}, {1, 7}, {1, 7}, {2, 8}});
  StrippedPartition pi = BuildAttributePartition(r, 0);
  EXPECT_EQ(ApproxFdRemovals(r, pi, 1), 1);
  // Against the whole relation: one 6-row cluster, the largest col1 group
  // has 2 rows, so 4 removals.
  EXPECT_EQ(ApproxFdRemovals(r, StrippedPartition::whole(r.num_rows()), 1), 4);
  // An exact FD needs zero removals.
  EXPECT_EQ(ApproxFdRemovals(r, BuildAttributePartition(r, 1), 0), 0);
}

TEST(ApproxErrorTest, BudgetRounding) {
  EXPECT_EQ(ApproxRemovalBudget(0, 100), 0);
  EXPECT_EQ(ApproxRemovalBudget(0.1, 100), 10);
  EXPECT_EQ(ApproxRemovalBudget(0.05, 39), 1);  // floor(1.95)
  EXPECT_EQ(ApproxRemovalBudget(0.3, 10), 3);   // exact product survives
  EXPECT_EQ(ApproxRemovalBudget(0.5, 0), 0);
}

TEST(QueryEngineTest, EpsilonAdmitsAlmostHoldingFd) {
  // col0 -> col1 fails only on row 2: e = 1/6. It is absent from the exact
  // cover but enters once epsilon reaches the error.
  Relation r = FromValues({{0, 5}, {0, 5}, {0, 6}, {1, 7}, {1, 7}, {2, 8}});
  Fd almost(AttributeSet{0}, 1);

  QueryResult exact = QueryEngine().execute(r, DiscoveryQuery{});
  EXPECT_FALSE(Contains(exact.cover(), almost));

  DiscoveryQuery q;
  q.epsilon = 0.2;
  QueryResult approx = QueryEngine().execute(r, q);
  EXPECT_TRUE(Contains(approx.cover(), almost));
}

TEST(QueryEngineTest, EpsilonAgreesAcrossAlgorithms) {
  // tane(eps) and dhyfd(eps) implement the same approximate semantics, and
  // the query engine routes to dhyfd when k = 0.
  for (int seed : {3, 11, 29}) {
    Relation r = RandomRelation(seed, 60, 4, 3, 0.1);
    for (double eps : {0.05, 0.2}) {
      TaneOptions topt;
      topt.epsilon = eps;
      DhyfdOptions dopt;
      dopt.epsilon = eps;
      FdSet tane_cover = Tane(topt).discover(r).fds;
      FdSet dhyfd_cover = Dhyfd(dopt).discover(r).fds;
      EXPECT_EQ(CoverString(tane_cover), CoverString(dhyfd_cover))
          << "seed=" << seed << " eps=" << eps;

      DiscoveryQuery q;
      q.epsilon = eps;
      FdSet query_cover = QueryEngine().execute(r, q).cover();
      EXPECT_EQ(CoverString(query_cover), CoverString(tane_cover))
          << "seed=" << seed << " eps=" << eps;
    }
  }
}

TEST(QueryEngineTest, MaxLhsIsAnExactFilter) {
  for (int seed : {5, 17}) {
    Relation r = RandomRelation(seed, 50, 5, 2);
    FdSet full = BruteForceDiscover(r);
    for (int bound : {1, 2, 3}) {
      FdSet expected;
      for (const Fd& fd : full.fds) {
        if (fd.lhs.count() <= bound) expected.add(fd);
      }
      DiscoveryQuery q;
      q.max_lhs = bound;
      FdSet got = QueryEngine().execute(r, q).cover();
      EXPECT_EQ(CoverString(got), CoverString(expected))
          << "seed=" << seed << " bound=" << bound;

      // The top-k lattice obeys the same bound.
      q.top_k = static_cast<std::uint32_t>(full.size()) + 1;
      FdSet topk = QueryEngine().execute(r, q).cover();
      EXPECT_EQ(CoverString(topk), CoverString(expected))
          << "topk seed=" << seed << " bound=" << bound;
    }
  }
}

TEST(QueryEngineTest, TopKReturnsBestRankedPrefix) {
  Relation r = StructuredRelation(23);
  QueryResult full = QueryEngine().execute(r, DiscoveryQuery{});
  ASSERT_GE(full.fds.size(), 3u);
  for (std::uint32_t k : {1u, 2u, 3u}) {
    DiscoveryQuery q;
    q.top_k = k;
    QueryResult got = QueryEngine().execute(r, q);
    ASSERT_EQ(got.fds.size(), k);
    for (std::uint32_t i = 0; i < k; ++i) {
      EXPECT_EQ(got.fds[i].fd.to_string(), full.fds[i].fd.to_string())
          << "k=" << k << " i=" << i;
      EXPECT_EQ(got.fds[i].score, full.fds[i].score);
    }
  }
}

TEST(QueryEngineTest, TopKValidationsShrinkWithK) {
  Relation r = StructuredRelation(41, 120);
  std::int64_t prev = std::numeric_limits<std::int64_t>::max();
  for (std::uint32_t k : {64u, 8u, 2u, 1u}) {
    DiscoveryQuery q;
    q.top_k = k;
    QueryResult res = QueryEngine().execute(r, q);
    EXPECT_LE(res.stats.validations, prev) << "k=" << k;
    prev = res.stats.validations;
  }
}

TEST(QueryEngineTest, ColumnScopeProjectsAndMapsBack) {
  Relation r = StructuredRelation(9, 40);
  DiscoveryQuery q;
  q.include_columns = {0, 2, 4};
  QueryResult res = QueryEngine().execute(r, q);
  AttributeSet scope{0, 2, 4};
  ASSERT_FALSE(res.fds.empty());
  for (const RankedFd& f : res.fds) {
    EXPECT_TRUE((f.fd.lhs - scope).empty()) << f.fd.to_string();
    EXPECT_TRUE((f.fd.rhs - scope).empty()) << f.fd.to_string();
  }
  // The scoped cover equals brute force on the projected relation, with ids
  // mapped back through the scope.
  Relation proj = ProjectRelation(r, {0, 2, 4});
  FdSet expected_proj = BruteForceDiscover(proj);
  FdSet expected;
  const std::vector<AttrId> cols = {0, 2, 4};
  for (const Fd& fd : expected_proj.fds) {
    AttributeSet lhs, rhs;
    fd.lhs.for_each([&](AttrId a) { lhs.set(cols[a]); });
    fd.rhs.for_each([&](AttrId a) { rhs.set(cols[a]); });
    expected.add(Fd(lhs, rhs));
  }
  EXPECT_EQ(CoverString(res.cover()), CoverString(expected));

  // Exclude-based scoping reaches the same place.
  DiscoveryQuery q2;
  q2.exclude_columns = {1, 3};
  FdSet got2 = QueryEngine().execute(r, q2).cover();
  EXPECT_EQ(CoverString(got2), CoverString(expected));
}

TEST(QueryEngineTest, RankedOrderIsDeterministic) {
  Relation r = RandomRelation(13, 60, 5, 2);
  QueryResult a = QueryEngine().execute(r, DiscoveryQuery{});
  QueryResult b = QueryEngine().execute(r, DiscoveryQuery{});
  ASSERT_EQ(a.fds.size(), b.fds.size());
  for (size_t i = 0; i < a.fds.size(); ++i) {
    EXPECT_EQ(a.fds[i].fd.to_string(), b.fds[i].fd.to_string());
    EXPECT_EQ(a.fds[i].score, b.fds[i].score);
  }
  for (size_t i = 1; i < a.fds.size(); ++i) {
    EXPECT_FALSE(RankedFdBetter(a.fds[i], a.fds[i - 1])) << i;
  }
}

/// Cancels `token` when discovery emits its last counter, so the first poll
/// that sees the cancel is the full path's rank pass.
class CancelAfterDiscovery : public ObsSink {
 public:
  explicit CancelAfterDiscovery(CancelToken* token) : token_(token) {}
  void add(const char* name, std::int64_t) override {
    if (std::string_view(name) == kObsDiscoverLevels) token_->cancel();
  }

 private:
  CancelToken* token_;
};

TEST(QueryEngineTest, FullPathCancelledDuringRankingReturnsEmptyList) {
  Relation r = StructuredRelation(29);
  ThreadPool pool(4);
  for (int degree : {1, 4}) {
    QueryEngineOptions opts;
    opts.parallelism = degree;
    opts.worker_pool = &pool;
    ASSERT_FALSE(QueryEngine(opts).execute(r, DiscoveryQuery{}).fds.empty());
    CancelToken token;
    CancelAfterDiscovery sink(&token);
    QueryResult result;
    {
      CancelScope cancel_scope(&token);
      ObsScope obs_scope(&sink);
      result = QueryEngine(opts).execute(r, DiscoveryQuery{});
    }
    // Discovery finished uncancelled; the rank pass scored nothing.
    EXPECT_TRUE(token.cancelled()) << "degree " << degree;
    EXPECT_FALSE(result.stats.timed_out) << "degree " << degree;
    EXPECT_GT(result.stats.validations, 0) << "degree " << degree;
    EXPECT_TRUE(result.fds.empty()) << "degree " << degree;
  }
}

}  // namespace
}  // namespace dhyfd
