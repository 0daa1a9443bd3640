#include "incr/live_profile.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "algo/dhyfd.h"
#include "test_util.h"

namespace dhyfd {
namespace {

using testutil::CoverDifference;

RawTable Table(std::vector<std::string> header,
               std::vector<std::vector<std::string>> rows) {
  RawTable t;
  t.header = std::move(header);
  t.rows = std::move(rows);
  return t;
}

FdSet Discover(const Relation& r) { return Dhyfd().discover(r).fds; }

/// The invariant every test leans on: the maintained cover is equivalent to
/// a from-scratch run on the live rows.
void ExpectFresh(const LiveProfile& p) {
  FdSet want = Discover(p.live_relation().snapshot());
  EXPECT_EQ(CoverDifference(want, p.cover(), p.live_relation().num_cols()), "");
}

bool Contains(const FdSet& cover, const Fd& fd) {
  return std::find(cover.fds.begin(), cover.fds.end(), fd) != cover.fds.end();
}

TEST(LiveProfileTest, InsertRefutesAndSpecializes) {
  // a -> b holds initially; the inserted row breaks it.
  LiveProfile p(Table({"a", "b"}, {{"x", "1"}, {"x", "1"}, {"y", "2"}}));
  ASSERT_TRUE(Contains(p.cover(), Fd(AttributeSet{0}, 1)));

  UpdateBatch batch;
  batch.inserts.push_back({"x", "2"});
  CoverDelta d = p.apply(batch);
  EXPECT_FALSE(Contains(p.cover(), Fd(AttributeSet{0}, 1)));
  EXPECT_TRUE(Contains(d.removed, Fd(AttributeSet{0}, 1)));
  EXPECT_FALSE(d.stats.rebuilt);
  EXPECT_GT(d.stats.pairs_compared, 0);
  ExpectFresh(p);
}

TEST(LiveProfileTest, InsertRefutesRootFd) {
  // b is constant, so {} -> b holds; an insert with a fresh b value refutes
  // it even though the new row shares no value with any live row.
  LiveProfile p(Table({"a", "b"}, {{"x", "1"}, {"y", "1"}}));
  ASSERT_TRUE(Contains(p.cover(), Fd(AttributeSet{}, 1)));

  UpdateBatch batch;
  batch.inserts.push_back({"z", "2"});
  CoverDelta d = p.apply(batch);
  EXPECT_FALSE(Contains(p.cover(), Fd(AttributeSet{}, 1)));
  EXPECT_GT(d.stats.fds_removed, 0);
  ExpectFresh(p);
}

TEST(LiveProfileTest, DeleteRestoresFd) {
  // Rows 0 and 2 violate a -> b; deleting row 2 restores it.
  LiveProfile p(Table({"a", "b"}, {{"x", "1"}, {"y", "2"}, {"x", "2"}}));
  ASSERT_FALSE(Contains(p.cover(), Fd(AttributeSet{0}, 1)));

  UpdateBatch batch;
  batch.deletes.push_back(2);
  CoverDelta d = p.apply(batch);
  EXPECT_TRUE(Contains(p.cover(), Fd(AttributeSet{0}, 1)));
  EXPECT_TRUE(Contains(d.added, Fd(AttributeSet{0}, 1)));
  EXPECT_GT(d.stats.validations, 0);
  ExpectFresh(p);
}

TEST(LiveProfileTest, DeleteRestoresRootFd) {
  LiveProfile p(Table({"a", "b"}, {{"x", "1"}, {"y", "2"}, {"z", "2"}}));
  ASSERT_FALSE(Contains(p.cover(), Fd(AttributeSet{}, 1)));
  UpdateBatch batch;
  batch.deletes.push_back(0);
  p.apply(batch);
  EXPECT_TRUE(Contains(p.cover(), Fd(AttributeSet{}, 1)));
  ExpectFresh(p);
}

TEST(LiveProfileTest, DeleteEnablesIncomparableGeneralization) {
  // The generalization move DynFD-style single-step walks miss: after the
  // delete, d -> a becomes minimal although no pre-delete cover FD X -> a
  // satisfies X superseteq {d}.
  //
  //   a  b  c  d
  //   0  0  0  0
  //   1  0  1  0    <- kill this row
  //   0  1  0  1
  //   1  1  1  2
  LiveProfile p(Table({"a", "b", "c", "d"}, {
                          {"0", "0", "0", "0"},
                          {"1", "0", "1", "0"},
                          {"0", "1", "0", "1"},
                          {"1", "1", "1", "2"},
                      }));
  Fd want(AttributeSet{3}, 0);  // d -> a
  ASSERT_FALSE(Contains(p.cover(), want));

  UpdateBatch batch;
  batch.deletes.push_back(1);
  CoverDelta d = p.apply(batch);
  EXPECT_TRUE(Contains(p.cover(), want));
  EXPECT_TRUE(Contains(d.added, want));
  ExpectFresh(p);
}

TEST(LiveProfileTest, MixedBatchAndSelfInsertedDelete) {
  LiveProfile p(Table({"a", "b"}, {{"x", "1"}, {"y", "2"}}));
  UpdateBatch batch;
  batch.inserts.push_back({"x", "2"});  // id 2: refutes a -> b
  batch.inserts.push_back({"z", "3"});  // id 3
  batch.deletes.push_back(2);           // ... and dies within the same batch
  CoverDelta d = p.apply(batch);
  EXPECT_EQ(d.stats.rows_inserted, 2);
  EXPECT_EQ(d.stats.rows_deleted, 1);
  EXPECT_TRUE(Contains(p.cover(), Fd(AttributeSet{0}, 1)));
  ExpectFresh(p);
}

TEST(LiveProfileTest, UnknownDeletesAreCountedNotFatal) {
  LiveProfile p(Table({"a", "b"}, {{"x", "1"}, {"y", "2"}}));
  UpdateBatch batch;
  batch.deletes = {7, 0, 0};  // unknown, live, already-dead
  CoverDelta d = p.apply(batch);
  EXPECT_EQ(d.stats.rows_deleted, 1);
  EXPECT_EQ(d.stats.unknown_deletes, 2);
  ExpectFresh(p);
}

TEST(LiveProfileTest, RawInsertThenForceRebuild) {
  // The rerun baseline bench_incremental times: rows go straight into the
  // live relation, then force_rebuild() re-discovers and re-ranks.
  LiveProfile p(Table({"a", "b"}, {{"x", "1"}, {"y", "2"}}));
  p.live_relation().insert_row({"x", "2"});
  p.force_rebuild();
  // A rebuild ranks the whole new cover, like every batch.
  EXPECT_EQ(p.ranking().size(), p.cover().size());
  EXPECT_FALSE(Contains(p.cover(), Fd(AttributeSet{0}, 1)));
  EXPECT_EQ(p.rebuild_count(), 1);
  EXPECT_EQ(p.live_relation().tombstone_fraction(), 0.0);
  ExpectFresh(p);
}

TEST(LiveProfileTest, TombstoneChurnTriggersRebuild) {
  std::vector<std::vector<std::string>> rows;
  for (int i = 0; i < 40; ++i) rows.push_back({std::to_string(i), "v"});
  LiveProfileOptions opts;
  opts.max_tombstone_fraction = 0.25;
  opts.rebuild_cost_ratio = 1e9;  // timing trigger out of the way
  LiveProfile p(Table({"a", "b"}, rows), opts);

  UpdateBatch kill;
  for (LiveRowId id = 0; id < 20; ++id) kill.deletes.push_back(id);
  CoverDelta d1 = p.apply(kill);
  EXPECT_FALSE(d1.stats.rebuilt);  // triggers are checked before applying
  UpdateBatch next;
  next.inserts.push_back({"x", "v"});
  CoverDelta d2 = p.apply(next);
  EXPECT_TRUE(d2.stats.rebuilt);
  EXPECT_EQ(d2.stats.rebuild_reason, "tombstones");
  EXPECT_EQ(p.live_relation().tombstone_fraction(), 0.0);
  ExpectFresh(p);
}

TEST(LiveProfileTest, ForceRebuildCompactsAndRediscovers) {
  LiveProfile p(Table({"a", "b"}, {{"x", "1"}, {"y", "2"}, {"x", "2"}}));
  UpdateBatch batch;
  batch.deletes.push_back(2);
  p.apply(batch);
  p.force_rebuild();
  EXPECT_EQ(p.rebuild_count(), 1);
  EXPECT_EQ(p.live_relation().storage_rows(), 2);
  ExpectFresh(p);
}

TEST(LiveProfileTest, RankingMatchesFromScratchCounts) {
  LiveProfile p(Table({"a", "b", "c"}, {
                          {"x", "1", "p"},
                          {"x", "1", "p"},
                          {"y", "2", "p"},
                          {"y", "2", "q"},
                      }));
  UpdateBatch batch;
  batch.inserts.push_back({"x", "1", "q"});
  batch.inserts.push_back({"z", "3", "q"});
  batch.deletes.push_back(3);
  CoverDelta d = p.apply(batch);
  EXPECT_EQ(d.stats.fds_reranked, p.cover().size());

  // The maintained per-FD counts must equal a from-scratch ranking of the
  // same cover over the live rows.
  Relation snap = p.live_relation().snapshot();
  std::vector<FdRedundancy> want = ComputeCoverRedundancy(snap, p.cover()).per_fd;
  const std::vector<FdRedundancy>& got = p.ranking();
  ASSERT_EQ(got.size(), want.size());
  auto find_want = [&](const Fd& fd) -> const FdRedundancy* {
    for (const FdRedundancy& w : want) {
      if (w.fd == fd) return &w;
    }
    return nullptr;
  };
  for (const FdRedundancy& g : got) {
    const FdRedundancy* w = find_want(g.fd);
    ASSERT_NE(w, nullptr) << g.fd.to_string();
    EXPECT_EQ(g.with_nulls, w->with_nulls) << g.fd.to_string();
    EXPECT_EQ(g.excluding_null_rhs, w->excluding_null_rhs) << g.fd.to_string();
    EXPECT_EQ(g.excluding_null_lhs_rhs, w->excluding_null_lhs_rhs)
        << g.fd.to_string();
  }
  // Sorted descending by the configured mode.
  for (size_t i = 1; i < got.size(); ++i) {
    EXPECT_GE(RedundancyCount(got[i - 1], RedundancyMode::kExcludingNullRhs),
              RedundancyCount(got[i], RedundancyMode::kExcludingNullRhs));
  }
}

TEST(LiveProfileTest, DeltaIsExactSetDifference) {
  LiveProfile p(Table({"a", "b", "c"}, {
                          {"x", "1", "p"},
                          {"y", "2", "p"},
                          {"x", "2", "q"},
                      }));
  FdSet before = p.cover();
  UpdateBatch batch;
  batch.inserts.push_back({"y", "1", "q"});
  CoverDelta d = p.apply(batch);
  for (const Fd& fd : d.added.fds) {
    EXPECT_FALSE(Contains(before, fd)) << fd.to_string();
    EXPECT_TRUE(Contains(p.cover(), fd)) << fd.to_string();
  }
  for (const Fd& fd : d.removed.fds) {
    EXPECT_TRUE(Contains(before, fd)) << fd.to_string();
    EXPECT_FALSE(Contains(p.cover(), fd)) << fd.to_string();
  }
  EXPECT_EQ(d.stats.fds_added, d.added.size());
  EXPECT_EQ(d.stats.fds_removed, d.removed.size());
}

TEST(LiveProfileTest, EmptyBatchIsANoOp) {
  LiveProfile p(Table({"a", "b"}, {{"x", "1"}, {"y", "2"}}));
  FdSet before = p.cover();
  CoverDelta d = p.apply(UpdateBatch{});
  EXPECT_TRUE(d.added.empty());
  EXPECT_TRUE(d.removed.empty());
  EXPECT_EQ(CoverDifference(before, p.cover(), 2), "");
}

TEST(LiveProfileTest, WrongWidthRowRejectsWholeBatch) {
  LiveProfile p(Table({"a", "b"}, {{"x", "1"}, {"x", "1"}, {"y", "2"}}));
  FdSet before = p.cover();
  for (const std::vector<std::string>& bad :
       std::vector<std::vector<std::string>>{{"z"}, {"z", "3", "extra"}}) {
    UpdateBatch batch;
    batch.inserts.push_back({"z", "3"});  // well-formed, must not land either
    batch.inserts.push_back(bad);
    batch.deletes.push_back(0);
    EXPECT_THROW(p.apply(batch), std::invalid_argument);
  }
  EXPECT_EQ(p.live_relation().storage_rows(), 3);
  EXPECT_EQ(p.live_relation().live_rows(), 3);
  EXPECT_EQ(p.batches_applied(), 0);
  EXPECT_EQ(CoverDifference(before, p.cover(), 2), "");
}

TEST(LiveProfileTest, DeleteDownToOneRowAndRefill) {
  LiveProfile p(Table({"a", "b"}, {{"x", "1"}, {"y", "2"}}));
  UpdateBatch kill;
  kill.deletes = {0, 1};
  UpdateBatch refill;
  refill.inserts.push_back({"q", "7"});
  p.apply(kill);
  EXPECT_EQ(p.live_relation().live_rows(), 0);
  ExpectFresh(p);
  p.apply(refill);
  EXPECT_EQ(p.live_relation().live_rows(), 1);
  ExpectFresh(p);
}

}  // namespace
}  // namespace dhyfd
