#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "algo/dhyfd.h"
#include "datagen/update_stream.h"
#include "incr/live_profile.h"
#include "ranking/redundancy.h"
#include "test_util.h"

namespace dhyfd {
namespace {

using testutil::CoverDifference;

// The tentpole property: after ANY sequence of insert/delete batches, the
// maintained cover is equivalent (by closure) to a from-scratch DHyFD run on
// the live rows, and its ranking carries the counts a from-scratch rank pass
// finds on them. Checked after EVERY batch, not just at the end, so a
// transiently wrong cover or count cannot hide behind later corrections.

using RankRow = std::tuple<std::string, int64_t, int64_t, int64_t>;

/// (fd, #red+0, #red, #red-0) per FD, sorted, so two rankings of one cover
/// compare as sets whatever their tie order.
std::vector<RankRow> SortedRows(const std::vector<FdRedundancy>& reds) {
  std::vector<RankRow> rows;
  rows.reserve(reds.size());
  for (const FdRedundancy& red : reds) {
    rows.emplace_back(red.fd.to_string(), red.with_nulls, red.excluding_null_rhs,
                      red.excluding_null_lhs_rhs);
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

DatasetSpec MixedSpec(uint64_t seed) {
  DatasetSpec s;
  s.name = "mixed";
  s.seed = seed;
  ColumnSpec key{.name = "k", .kind = ColumnKind::kKey};
  ColumnSpec small{.name = "s", .kind = ColumnKind::kRandom, .domain_size = 3};
  ColumnSpec mid{.name = "m", .kind = ColumnKind::kRandom, .domain_size = 8};
  ColumnSpec derived{.name = "d", .kind = ColumnKind::kDerived, .domain_size = 12};
  derived.parents = {1, 2};
  ColumnSpec constant{.name = "c", .kind = ColumnKind::kConstant};
  s.columns = {key, small, mid, derived, constant};
  s.duplicate_row_rate = 0.1;
  s.near_duplicate_rate = 0.15;
  return s;
}

DatasetSpec NullSpec(uint64_t seed) {
  DatasetSpec s = MixedSpec(seed);
  s.name = "nully";
  s.columns[1].null_rate = 0.2;
  s.columns[3].null_rate = 0.1;
  return s;
}

void RunStream(const UpdateStreamSpec& spec, NullSemantics semantics,
               bool auto_rebuild, const std::string& label) {
  UpdateStream stream = GenerateUpdateStream(spec);
  LiveProfileOptions opts;
  opts.auto_rebuild = auto_rebuild;
  LiveProfile profile(stream.initial, opts, semantics);
  Dhyfd reference;
  int n = 0;
  for (const UpdateBatch& batch : stream.batches) {
    profile.apply(batch);
    Relation snapshot = profile.live_relation().snapshot();
    FdSet want = reference.discover(snapshot).fds;
    std::string diff =
        CoverDifference(want, profile.cover(), profile.live_relation().num_cols());
    ASSERT_EQ(diff, "") << label << ", batch " << n << " (live rows "
                        << profile.live_relation().live_rows() << ")";
    ASSERT_EQ(SortedRows(profile.ranking()),
              SortedRows(ComputeCoverRedundancy(snapshot, profile.cover()).per_fd))
        << label << ", batch " << n;
    ++n;
  }
}

TEST(IncrPropertyTest, CoverMatchesFromScratchOnMixedStream) {
  UpdateStreamSpec spec;
  spec.base = MixedSpec(21);
  spec.initial_rows = 120;
  spec.num_batches = 12;
  spec.batch_size = 24;
  spec.delete_fraction = 0.35;
  spec.seed = 5;
  RunStream(spec, NullSemantics::kNullEqualsNull, /*auto_rebuild=*/false,
            "mixed/pure-incremental");
  RunStream(spec, NullSemantics::kNullEqualsNull, /*auto_rebuild=*/true,
            "mixed/auto-rebuild");
}

TEST(IncrPropertyTest, CoverMatchesUnderBothNullSemantics) {
  UpdateStreamSpec spec;
  spec.base = NullSpec(33);
  spec.initial_rows = 90;
  spec.num_batches = 10;
  spec.batch_size = 20;
  spec.delete_fraction = 0.3;
  spec.seed = 9;
  RunStream(spec, NullSemantics::kNullEqualsNull, false, "null=null");
  RunStream(spec, NullSemantics::kNullNotEqualsNull, false, "null!=null");
}

TEST(IncrPropertyTest, CoverMatchesUnderDeleteHeavyChurn) {
  UpdateStreamSpec spec;
  spec.base = MixedSpec(44);
  spec.initial_rows = 100;
  spec.num_batches = 10;
  spec.batch_size = 30;
  spec.delete_fraction = 0.7;
  spec.delete_skew = 1.5;
  spec.seed = 13;
  RunStream(spec, NullSemantics::kNullEqualsNull, false, "delete-heavy");
}

TEST(IncrPropertyTest, CoverMatchesWhenEverythingDies) {
  // Drain the relation to empty (and below batch granularity) — the cover
  // must collapse to the trivial {} -> A for every attribute.
  DatasetSpec base = MixedSpec(55);
  base.rows = 30;
  UpdateStream stream;
  stream.initial = GenerateRawTable(base);
  for (int start = 0; start < 30; start += 10) {
    UpdateBatch b;
    for (int i = start; i < start + 10; ++i) b.deletes.push_back(i);
    stream.batches.push_back(b);
  }
  LiveProfileOptions opts;
  opts.auto_rebuild = false;
  LiveProfile profile(stream.initial, opts);
  Dhyfd reference;
  for (const UpdateBatch& batch : stream.batches) {
    profile.apply(batch);
    Relation snapshot = profile.live_relation().snapshot();
    FdSet want = reference.discover(snapshot).fds;
    ASSERT_EQ(CoverDifference(want, profile.cover(), 5), "")
        << "live rows " << profile.live_relation().live_rows();
    ASSERT_EQ(SortedRows(profile.ranking()),
              SortedRows(ComputeCoverRedundancy(snapshot, profile.cover()).per_fd))
        << "live rows " << profile.live_relation().live_rows();
  }
  EXPECT_EQ(profile.live_relation().live_rows(), 0);
}

TEST(IncrPropertyTest, SmallRandomRelationsExhaustiveChurn) {
  // Dense tiny tables maximize agree-set collisions per row — the regime
  // where minimality bookkeeping errors actually surface.
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    DatasetSpec s;
    s.name = "tiny";
    s.seed = seed;
    for (int c = 0; c < 4; ++c) {
      s.columns.push_back(ColumnSpec{.name = std::string(1, static_cast<char>('a' + c)),
                                     .kind = ColumnKind::kRandom,
                                     .domain_size = 2 + c});
    }
    UpdateStreamSpec spec;
    spec.base = s;
    spec.initial_rows = 12;
    spec.num_batches = 15;
    spec.batch_size = 4;
    spec.delete_fraction = 0.45;
    spec.seed = seed * 100 + 7;
    RunStream(spec, NullSemantics::kNullEqualsNull, false,
              "tiny seed " + std::to_string(seed));
  }
}

}  // namespace
}  // namespace dhyfd
