#include "algo/sampler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <span>
#include <string>
#include <unordered_set>
#include <utility>

#include "algo/agree_sets.h"
#include "relation/encoder.h"
#include "test_util.h"
#include "util/cancellation.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace dhyfd {
namespace {

using testutil::RandomRelation;

/// Each cluster of pi_a comparison-sorted by attributes a+1, ..., m-1, 0,
/// ..., a-1 and then by row id: the neighborhood order the counting passes
/// must reproduce.
std::vector<StrippedPartition> SortedNeighborhoods(const Relation& r) {
  const int m = r.num_cols();
  std::vector<StrippedPartition> sorted;
  for (AttrId a = 0; a < m; ++a) {
    sorted.push_back(BuildAttributePartition(r, a));
    for (size_t ci = 0; ci < static_cast<size_t>(sorted[a].size()); ++ci) {
      std::span<RowId> cluster = sorted[a].mutable_cluster(ci);
      std::sort(cluster.begin(), cluster.end(), [&](RowId x, RowId y) {
        for (int c = a + 1; c < m; ++c) {
          if (r.value(x, c) != r.value(y, c)) return r.value(x, c) < r.value(y, c);
        }
        for (int c = 0; c < a; ++c) {
          if (r.value(x, c) != r.value(y, c)) return r.value(x, c) < r.value(y, c);
        }
        return x < y;
      });
    }
  }
  return sorted;
}

std::vector<std::vector<RowId>> Clusters(const StrippedPartition& p) {
  std::vector<std::vector<RowId>> out;
  for (ClusterView c : p.clusters()) out.emplace_back(c.begin(), c.end());
  return out;
}

/// Windows 1..max_window, attribute by attribute, cluster by cluster, pair
/// by pair over the given neighborhoods; one dedupe set.
std::pair<std::vector<AttributeSet>, int64_t> ReferenceInitial(
    const Relation& r, const std::vector<StrippedPartition>& sorted, int max_window) {
  std::unordered_set<AttributeSet, AttributeSetHash> seen;
  std::vector<AttributeSet> fresh;
  int64_t pairs = 0;
  for (int w = 1; w <= max_window; ++w) {
    for (const StrippedPartition& p : sorted) {
      for (ClusterView cluster : p.clusters()) {
        for (size_t i = 0; i + w < cluster.size(); ++i) {
          ++pairs;
          AttributeSet ag = r.agree_set(cluster[i], cluster[i + w]);
          if (ag.count() != r.num_cols() && seen.insert(ag).second) fresh.push_back(ag);
        }
      }
    }
  }
  return {fresh, pairs};
}

/// The counting-pass neighborhoods equal the comparison-sorted ones, and
/// initial(3) equals the reference loop over them, at degrees 1, 2 and 4.
void ExpectMatchesSortReference(const Relation& r, const std::string& label) {
  std::vector<StrippedPartition> sorted = SortedNeighborhoods(r);
  auto [want, want_pairs] = ReferenceInitial(r, sorted, 3);
  for (int degree : {1, 2, 4}) {
    ThreadPool pool(degree);
    NeighborhoodSampler sampler(r, &pool, degree);
    for (AttrId a = 0; a < r.num_cols(); ++a) {
      EXPECT_EQ(Clusters(sampler.neighborhood(a)), Clusters(sorted[a]))
          << label << " attribute " << a << " p=" << degree;
    }
    EXPECT_EQ(sampler.initial(3), want) << label << " p=" << degree;
    EXPECT_EQ(sampler.pairs_compared(), want_pairs) << label << " p=" << degree;
  }
}

/// A random string table; null cells are empty strings.
RawTable RandomTable(uint64_t seed, int rows, int cols, int domain, double null_rate) {
  Random rng(seed);
  RawTable t;
  for (int c = 0; c < cols; ++c) t.header.push_back("c" + std::to_string(c));
  for (int i = 0; i < rows; ++i) {
    std::vector<std::string> row;
    for (int c = 0; c < cols; ++c) {
      row.push_back(rng.next_bool(null_rate) ? ""
                                             : "v" + std::to_string(rng.next_below(domain)));
    }
    t.rows.push_back(std::move(row));
  }
  return t;
}

/// 20k rows; column 0 takes two values, so its arena is longer than a
/// sampling shard (16384 positions) and the shard boundary falls inside its
/// second cluster.
Relation TwoValueColumnTable() {
  Random rng(41);
  std::vector<std::vector<int>> rows(20000, std::vector<int>(4));
  for (auto& row : rows) {
    row[0] = static_cast<int>(rng.next_below(2));
    row[1] = static_cast<int>(rng.next_below(6));
    row[2] = static_cast<int>(rng.next_below(40));
    row[3] = static_cast<int>(rng.next_below(3));
  }
  return testutil::FromValues(rows);
}

TEST(SamplerTest, SampledSetsAreGenuineAgreeSets) {
  Relation r = RandomRelation(3, 120, 4, 3);
  NeighborhoodSampler sampler(r);
  std::vector<AttributeSet> all = ComputeAllAgreeSets(r);
  std::vector<AttributeSet> sampled = sampler.initial(3);
  for (const AttributeSet& s : sampled) {
    bool found = false;
    for (const AttributeSet& t : all) {
      if (s == t) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << s.to_string();
  }
}

TEST(SamplerTest, NoDuplicatesAcrossRuns) {
  Relation r = RandomRelation(5, 200, 4, 3);
  NeighborhoodSampler sampler(r);
  std::vector<AttributeSet> w1 = sampler.run(1);
  std::vector<AttributeSet> w2 = sampler.run(2);
  for (const AttributeSet& a : w1) {
    for (const AttributeSet& b : w2) EXPECT_NE(a, b);
  }
}

TEST(SamplerTest, WindowTracksMaximum) {
  Relation r = RandomRelation(7, 50, 3, 2);
  NeighborhoodSampler sampler(r);
  EXPECT_EQ(sampler.window(), 0);
  sampler.run(2);
  EXPECT_EQ(sampler.window(), 2);
  sampler.run(1);
  EXPECT_EQ(sampler.window(), 2);
}

TEST(SamplerTest, EfficiencyDecreasesWithSaturation) {
  Relation r = RandomRelation(11, 300, 3, 2);
  NeighborhoodSampler sampler(r);
  sampler.run(1);
  double e1 = sampler.last_efficiency();
  for (int w = 2; w <= 6; ++w) sampler.run(w);
  double e6 = sampler.last_efficiency();
  EXPECT_LE(e6, e1);
}

TEST(SamplerTest, PairsComparedAccumulates) {
  Relation r = RandomRelation(13, 100, 3, 2);
  NeighborhoodSampler sampler(r);
  sampler.run(1);
  int64_t p1 = sampler.pairs_compared();
  EXPECT_GT(p1, 0);
  sampler.run(2);
  EXPECT_GT(sampler.pairs_compared(), p1);
}

TEST(SamplerTest, HandlesKeyColumns) {
  // All-unique columns have empty partitions: nothing to sample, no crash.
  Relation r = testutil::FromValues({{0, 10}, {1, 11}, {2, 12}});
  NeighborhoodSampler sampler(r);
  EXPECT_TRUE(sampler.initial(3).empty());
}

TEST(SamplerTest, FindsLargeAgreeSetsOnDuplicateHeavyData) {
  // Rows duplicated except the last column: sampler should find the
  // near-full agree set quickly.
  std::vector<std::vector<int>> rows;
  for (int i = 0; i < 20; ++i) rows.push_back({i % 5, i % 5, i});
  Relation r = testutil::FromValues(rows);
  NeighborhoodSampler sampler(r);
  std::vector<AttributeSet> sampled = sampler.initial(1);
  bool found = false;
  for (const AttributeSet& s : sampled) {
    if (s == (AttributeSet{0, 1})) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(SamplerTest, PooledRunsMatchSequential) {
  Relation r = RandomRelation(17, 300, 6, 3, 0.1);
  NeighborhoodSampler sequential(r);
  ThreadPool pool(3);
  NeighborhoodSampler pooled(r, &pool, 3);
  for (int w = 1; w <= 4; ++w) {
    EXPECT_EQ(pooled.run(w), sequential.run(w)) << "window " << w;
    EXPECT_EQ(pooled.pairs_compared(), sequential.pairs_compared()) << "window " << w;
    EXPECT_EQ(pooled.last_efficiency(), sequential.last_efficiency()) << "window " << w;
  }
}

TEST(SamplerTest, FiredTokenBuildsNoShards) {
  Relation r = RandomRelation(13, 100, 3, 2);
  ThreadPool pool(3);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    CancelToken token;
    token.cancel();
    std::optional<NeighborhoodSampler> sampler;
    {
      CancelScope scope(&token);
      sampler.emplace(r, p, 3);
    }
    // Outside the scope nothing stops sampling, so only the missing
    // neighborhoods and shards keep it from comparing pairs.
    for (AttrId a = 0; a < r.num_cols(); ++a) {
      EXPECT_EQ(sampler->neighborhood(a).size(), 0);
    }
    EXPECT_TRUE(sampler->initial(2).empty());
    EXPECT_EQ(sampler->pairs_compared(), 0);
  }
}

TEST(SamplerTest, HandlesEmptyRelation) {
  Relation r = testutil::FromValues({});
  NeighborhoodSampler sampler(r);
  EXPECT_TRUE(sampler.initial(2).empty());
  EXPECT_EQ(sampler.pairs_compared(), 0);
}

TEST(SamplerOracleTest, RandomRelationsWithNullsUnderBothSemantics) {
  for (uint64_t seed : {3, 8, 21}) {
    RawTable table = RandomTable(seed, 300, 5, 4, 0.15);
    for (NullSemantics sem :
         {NullSemantics::kNullEqualsNull, NullSemantics::kNullNotEqualsNull}) {
      Relation r = EncodeRelation(table, sem).relation;
      ExpectMatchesSortReference(
          r, "seed " + std::to_string(seed) +
                 (sem == NullSemantics::kNullEqualsNull ? " null=null" : " null!=null"));
    }
  }
}

TEST(SamplerOracleTest, GapsInTheCodeDomain) {
  // Codes 1, 4, 7, ... out of a domain three times wider than used.
  Relation dense = RandomRelation(5, 200, 4, 5);
  Relation r(Schema::numbered(4), dense.num_rows());
  for (AttrId c = 0; c < 4; ++c) {
    for (RowId t = 0; t < dense.num_rows(); ++t) r.set_value(t, c, 3 * dense.value(t, c) + 1);
    r.set_domain_size(c, 3 * dense.domain_size(c) + 2);
  }
  ExpectMatchesSortReference(r, "gaps");
}

TEST(SamplerOracleTest, OneColumn) {
  ExpectMatchesSortReference(RandomRelation(9, 100, 1, 7), "one column");
}

TEST(SamplerOracleTest, ZeroRowsAndZeroColumns) {
  ExpectMatchesSortReference(Relation(Schema::numbered(3), 0), "zero rows");
  ExpectMatchesSortReference(Relation(Schema::numbered(0), 5), "zero columns");
}

TEST(SamplerOracleTest, AllDuplicateRows) {
  std::vector<std::vector<int>> rows(40, std::vector<int>{2, 7, 1, 9});
  Relation r = testutil::FromValues(rows);
  ExpectMatchesSortReference(r, "all duplicates");
  NeighborhoodSampler sampler(r);
  EXPECT_TRUE(sampler.initial(3).empty());
  EXPECT_EQ(sampler.pairs_compared(), 4 * (39 + 38 + 37));
}

TEST(SamplerOracleTest, ClustersStraddlingShardChunks) {
  ExpectMatchesSortReference(TwoValueColumnTable(), "two-value column");
}

TEST(SamplerOracleTest, InitialEqualsConcatenatedRuns) {
  for (const auto& [label, r] : std::vector<std::pair<std::string, Relation>>{
           {"random with nulls", RandomRelation(19, 400, 6, 3, 0.1)},
           {"two-value column", TwoValueColumnTable()}}) {
    for (int degree : {1, 2, 4}) {
      ThreadPool pool(degree);
      NeighborhoodSampler one_pass(r, &pool, degree);
      NeighborhoodSampler by_window(r, &pool, degree);
      std::vector<AttributeSet> concatenated;
      for (int w = 1; w <= 4; ++w) {
        std::vector<AttributeSet> fresh = by_window.run(w);
        concatenated.insert(concatenated.end(), fresh.begin(), fresh.end());
      }
      EXPECT_EQ(one_pass.initial(4), concatenated) << label << " p=" << degree;
      EXPECT_EQ(one_pass.pairs_compared(), by_window.pairs_compared()) << label;
      EXPECT_EQ(one_pass.last_efficiency(), by_window.last_efficiency()) << label;
      EXPECT_EQ(one_pass.window(), by_window.window()) << label;
      // Later windows see the same seen-set either way.
      EXPECT_EQ(one_pass.run(5), by_window.run(5)) << label << " p=" << degree;
    }
  }
}

}  // namespace
}  // namespace dhyfd
