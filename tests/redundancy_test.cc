#include "ranking/redundancy.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "algo/dhyfd.h"
#include "algo/discovery.h"
#include "datagen/benchmark_data.h"
#include "fd/cover.h"
#include "incr/live_relation.h"
#include "partition/stripped_partition.h"
#include "test_util.h"
#include "util/cancellation.h"
#include "util/thread_pool.h"

namespace dhyfd {
namespace {

using testutil::BruteForceDatasetRedundancy;
using testutil::FromValues;
using testutil::RandomRelation;

TEST(RedundancyTest, ConstantColumnMakesEveryOccurrenceRedundant) {
  // Paper sigma_1 = {} -> state: all 1000 occurrences redundant; here 4.
  Relation r = FromValues({{7, 0}, {7, 1}, {7, 2}, {7, 3}});
  FdSet cover;
  cover.add(Fd(AttributeSet{}, 0));
  auto reds = ComputeCoverRedundancy(r, cover).per_fd;
  ASSERT_EQ(reds.size(), 1u);
  EXPECT_EQ(reds[0].with_nulls, 4);
  EXPECT_EQ(reds[0].excluding_null_rhs, 4);
}

TEST(RedundancyTest, NearKeyLhsGivesFewRedundancies) {
  // Paper sigma_4 = voter_id -> state with one duplicated id: 2 redundant.
  Relation r = FromValues({{131, 0}, {131, 0}, {657, 0}, {725, 0}});
  FdSet cover;
  cover.add(Fd(AttributeSet{0}, 1));
  auto reds = ComputeCoverRedundancy(r, cover).per_fd;
  EXPECT_EQ(reds[0].with_nulls, 2);
}

TEST(RedundancyTest, NullRhsExcluded) {
  // Column 1 determined by column 0; one of the cluster's RHS values null.
  Relation r = FromValues({{0, -1}, {0, -1}, {1, 5}, {1, 5}, {2, 6}});
  FdSet cover;
  cover.add(Fd(AttributeSet{0}, 1));
  auto reds = ComputeCoverRedundancy(r, cover).per_fd;
  EXPECT_EQ(reds[0].with_nulls, 4);
  EXPECT_EQ(reds[0].excluding_null_rhs, 2);
  EXPECT_EQ(reds[0].excluding_null_lhs_rhs, 2);
}

TEST(RedundancyTest, NullLhsExcludedInStrictMode) {
  Relation r = FromValues({{-1, 5}, {-1, 5}, {1, 6}, {1, 6}});
  FdSet cover;
  cover.add(Fd(AttributeSet{0}, 1));
  auto reds = ComputeCoverRedundancy(r, cover).per_fd;
  EXPECT_EQ(reds[0].with_nulls, 4);
  EXPECT_EQ(reds[0].excluding_null_rhs, 4);
  EXPECT_EQ(reds[0].excluding_null_lhs_rhs, 2);
}

TEST(RedundancyTest, MultiRhsSumsPerAttribute) {
  Relation r = FromValues({{0, 1, 2}, {0, 1, 2}});
  FdSet cover;
  cover.add(Fd(AttributeSet{0}, AttributeSet{1, 2}));
  auto reds = ComputeCoverRedundancy(r, cover).per_fd;
  EXPECT_EQ(reds[0].with_nulls, 4);  // 2 tuples x 2 RHS attrs
}

TEST(RedundancyTest, MatchesBruteForce) {
  for (int seed = 1; seed <= 8; ++seed) {
    Relation r = RandomRelation(seed * 7, 50, 4, 3, seed % 3 == 0 ? 0.15 : 0.0);
    FdSet left_reduced = BruteForceDiscover(r);
    // The canonical cover brings multi-attribute RHSs into the cell marking.
    for (const FdSet& cover : {left_reduced, CanonicalCover(left_reduced, r.num_cols())}) {
      CoverRedundancy fast = ComputeCoverRedundancy(r, cover);
      ASSERT_EQ(fast.per_fd.size(), cover.fds.size());
      for (size_t i = 0; i < fast.per_fd.size(); ++i) {
        FdRedundancy slow = BruteForceFdRedundancy(r, cover.fds[i]);
        EXPECT_EQ(fast.per_fd[i].with_nulls, slow.with_nulls)
            << "seed=" << seed << " fd=" << cover.fds[i].to_string();
        EXPECT_EQ(fast.per_fd[i].excluding_null_rhs, slow.excluding_null_rhs);
        EXPECT_EQ(fast.per_fd[i].excluding_null_lhs_rhs, slow.excluding_null_lhs_rhs);
      }
      DatasetRedundancy slow = BruteForceDatasetRedundancy(r, cover);
      EXPECT_EQ(fast.dataset.num_values, slow.num_values) << "seed=" << seed;
      EXPECT_EQ(fast.dataset.red, slow.red) << "seed=" << seed;
      EXPECT_EQ(fast.dataset.red_plus0, slow.red_plus0) << "seed=" << seed;
    }
  }
}

TEST(RedundancyTest, DatasetDedupAcrossFds) {
  // Two FDs marking the same occurrences: dataset counts each cell once.
  Relation r = FromValues({{0, 1, 5}, {0, 1, 5}});
  FdSet cover;
  cover.add(Fd(AttributeSet{0}, 2));
  cover.add(Fd(AttributeSet{1}, 2));
  DatasetRedundancy d = ComputeCoverRedundancy(r, cover).dataset;
  EXPECT_EQ(d.red_plus0, 2);  // two cells in column 2, counted once each
  EXPECT_EQ(d.num_values, 6);
}

TEST(RedundancyTest, DatasetPercentages) {
  Relation r = FromValues({{7, 0}, {7, 1}});
  FdSet cover;
  cover.add(Fd(AttributeSet{}, 0));
  DatasetRedundancy d = ComputeCoverRedundancy(r, cover).dataset;
  EXPECT_EQ(d.red, 2);
  EXPECT_NEAR(d.percent_red(), 50.0, 1e-9);
  EXPECT_NEAR(d.percent_red_plus0(), 50.0, 1e-9);
}

TEST(RedundancyTest, KeysCauseZeroRedundancy) {
  Relation r = FromValues({{0, 5}, {1, 5}, {2, 6}});
  FdSet cover;
  cover.add(Fd(AttributeSet{0}, 1));  // key LHS
  auto reds = ComputeCoverRedundancy(r, cover).per_fd;
  EXPECT_EQ(reds[0].with_nulls, 0);
}

TEST(RedundancyTest, EmptyCoverEmptyCounts) {
  Relation r = FromValues({{0}, {1}});
  FdSet cover;
  CoverRedundancy red = ComputeCoverRedundancy(r, cover);
  EXPECT_TRUE(red.per_fd.empty());
  EXPECT_EQ(red.dataset.red, 0);
  EXPECT_EQ(red.dataset.red_plus0, 0);
}

TEST(RedundancyTest, PrefixSharingMatchesFromScratchPartitions) {
  // Cover order is not lexicographic; it holds an empty LHS, the nested
  // prefixes {0} < {0,1} < {0,1,2}, the siblings {0,1} and {0,2}, and a
  // repeated LHS. Validity does not matter to the counters.
  FdSet cover;
  cover.add(Fd(AttributeSet{0, 2}, 4));
  cover.add(Fd(AttributeSet{0, 1, 2}, AttributeSet{3, 4}));
  cover.add(Fd(AttributeSet{1}, 3));
  cover.add(Fd(AttributeSet{}, 2));
  cover.add(Fd(AttributeSet{0, 1}, 4));
  cover.add(Fd(AttributeSet{0}, AttributeSet{1, 3}));
  cover.add(Fd(AttributeSet{0, 1}, 3));
  for (int seed = 1; seed <= 6; ++seed) {
    Relation r = RandomRelation(seed * 11, 60, 5, 3, seed % 2 == 0 ? 0.1 : 0.0);
    CoverRedundancy fast = ComputeCoverRedundancy(r, cover);
    ASSERT_EQ(fast.per_fd.size(), cover.fds.size());
    for (size_t i = 0; i < cover.fds.size(); ++i) {
      const Fd& fd = cover.fds[i];
      FdRedundancy slow = FdRedundancyFromPartition(r, fd, BuildPartition(r, fd.lhs));
      EXPECT_EQ(fast.per_fd[i].fd, fd) << "seed=" << seed << " #" << i;
      EXPECT_EQ(fast.per_fd[i].with_nulls, slow.with_nulls) << "seed=" << seed << " #" << i;
      EXPECT_EQ(fast.per_fd[i].excluding_null_rhs, slow.excluding_null_rhs)
          << "seed=" << seed << " #" << i;
      EXPECT_EQ(fast.per_fd[i].excluding_null_lhs_rhs, slow.excluding_null_lhs_rhs)
          << "seed=" << seed << " #" << i;
    }
    DatasetRedundancy slow = BruteForceDatasetRedundancy(r, cover);
    EXPECT_EQ(fast.dataset.num_values, slow.num_values) << "seed=" << seed;
    EXPECT_EQ(fast.dataset.red, slow.red) << "seed=" << seed;
    EXPECT_EQ(fast.dataset.red_plus0, slow.red_plus0) << "seed=" << seed;
    // Visited as {}, {0}, {0,1}, {0,1}, {0,1,2}, {0,2}, {1}: one refinement
    // per new trie node, against 11 attributes over all LHSs.
    EXPECT_EQ(fast.refinements, 5) << "seed=" << seed;
  }
}

TEST(RedundancyTest, LiveRowsRootMatchesSnapshotAtAnyDegree) {
  // A tombstoned LiveRelation keeps its dead rows' stale cells in storage;
  // rooted at the live cluster, the pass must count exactly what it counts
  // on the compacted snapshot, at any degree.
  RawTable raw = GenerateBenchmark("ncvoter", 600);
  LiveRelation live(raw, NullSemantics::kNullNotEqualsNull);
  for (RowId row = 0; row < live.storage_rows(); row += 3) live.erase_row(row);
  for (int i = 0; i < 40; ++i) live.insert_row(raw.rows[static_cast<size_t>(i) * 7]);
  ASSERT_GT(live.tombstone_fraction(), 0.2);
  Relation snapshot = live.snapshot();
  FdSet cover =
      CanonicalCover(Dhyfd(DhyfdOptions{}).discover(snapshot).fds, snapshot.num_cols());
  ASSERT_GT(cover.size(), 20);
  CoverRedundancy want = ComputeCoverRedundancy(snapshot, cover);
  ASSERT_GT(want.dataset.red, 0);
  const StrippedPartition root = live.whole_live_cluster();
  ThreadPool pool(4);
  for (int degree : {1, 4}) {
    CoverRedundancy got =
        ComputeCoverRedundancy(live.relation(), cover, &pool, degree, &root);
    ASSERT_EQ(got.per_fd.size(), want.per_fd.size()) << "degree " << degree;
    for (size_t i = 0; i < want.per_fd.size(); ++i) {
      EXPECT_EQ(got.per_fd[i].fd, want.per_fd[i].fd) << "degree " << degree << " #" << i;
      EXPECT_EQ(got.per_fd[i].with_nulls, want.per_fd[i].with_nulls)
          << "degree " << degree << " #" << i;
      EXPECT_EQ(got.per_fd[i].excluding_null_rhs, want.per_fd[i].excluding_null_rhs)
          << "degree " << degree << " #" << i;
      EXPECT_EQ(got.per_fd[i].excluding_null_lhs_rhs, want.per_fd[i].excluding_null_lhs_rhs)
          << "degree " << degree << " #" << i;
    }
    EXPECT_EQ(got.dataset.num_values, want.dataset.num_values) << "degree " << degree;
    EXPECT_EQ(got.dataset.red, want.dataset.red) << "degree " << degree;
    EXPECT_EQ(got.dataset.red_plus0, want.dataset.red_plus0) << "degree " << degree;
  }
}

TEST(RedundancyTest, PreCancelledTokenStopsRankLoop) {
  const testutil::HorseAnalog& horse = testutil::Horse();
  ASSERT_GT(horse.cover.size(), 90000);
  CancelToken token;
  token.cancel();
  CancelScope scope(&token);
  ThreadPool pool(4);
  for (int degree : {1, 4}) {
    auto start = std::chrono::steady_clock::now();
    CoverRedundancy red =
        ComputeCoverRedundancy(horse.relation, horse.cover, &pool, degree);
    double ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start).count();
    EXPECT_TRUE(red.per_fd.empty()) << "degree " << degree;
    EXPECT_EQ(red.refinements, 0) << "degree " << degree;
    EXPECT_EQ(red.dataset.red_plus0, 0) << "degree " << degree;
    EXPECT_LT(ms, 100.0) << "degree " << degree;
  }
}

TEST(RedundancyTest, CancelMidLoopReturnsEmptyResult) {
  using Clock = std::chrono::steady_clock;
  auto ms = [](Clock::duration d) {
    return std::chrono::duration<double, std::milli>(d).count();
  };
  const testutil::HorseAnalog& horse = testutil::Horse();
  ThreadPool pool(4);
  for (int degree : {1, 4}) {
    Clock::time_point start = Clock::now();
    ComputeCoverRedundancy(horse.relation, horse.cover, &pool, degree);
    const double full_ms = ms(Clock::now() - start);

    CancelToken token;
    Clock::time_point cancelled_at;
    std::thread canceller([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      cancelled_at = Clock::now();
      token.cancel();
    });
    CoverRedundancy red;
    {
      // Only the caller is in the scope: the helper shards poll the token
      // the pass captured from it.
      CancelScope scope(&token);
      red = ComputeCoverRedundancy(horse.relation, horse.cover, &pool, degree);
    }
    Clock::time_point returned_at = Clock::now();
    canceller.join();
    // A finished pass would have scored every FD.
    EXPECT_TRUE(red.per_fd.empty()) << "degree " << degree;
    EXPECT_EQ(red.refinements, 0) << "degree " << degree;
    EXPECT_EQ(red.dataset.num_values, 0) << "degree " << degree;
    // Every shard stops within one poll interval; a shard that never polled
    // would run its whole chunk, about a full pass at any degree.
    EXPECT_LT(ms(returned_at - cancelled_at), full_ms / 2) << "degree " << degree;
  }
}

}  // namespace
}  // namespace dhyfd
