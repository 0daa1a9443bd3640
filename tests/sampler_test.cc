#include "algo/sampler.h"

#include <gtest/gtest.h>

#include "algo/agree_sets.h"
#include "test_util.h"
#include "util/thread_pool.h"

namespace dhyfd {
namespace {

using testutil::RandomRelation;

std::vector<StrippedPartition> AttrPartitions(const Relation& r) {
  std::vector<StrippedPartition> out;
  for (AttrId a = 0; a < r.num_cols(); ++a) out.push_back(BuildAttributePartition(r, a));
  return out;
}

TEST(SamplerTest, SampledSetsAreGenuineAgreeSets) {
  Relation r = RandomRelation(3, 120, 4, 3);
  auto partitions = AttrPartitions(r);
  NeighborhoodSampler sampler(r, partitions);
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
  auto partitions = AttrPartitions(r);
  NeighborhoodSampler sampler(r, partitions);
  std::vector<AttributeSet> w1 = sampler.run(1);
  std::vector<AttributeSet> w2 = sampler.run(2);
  for (const AttributeSet& a : w1) {
    for (const AttributeSet& b : w2) EXPECT_NE(a, b);
  }
}

TEST(SamplerTest, WindowTracksMaximum) {
  Relation r = RandomRelation(7, 50, 3, 2);
  auto partitions = AttrPartitions(r);
  NeighborhoodSampler sampler(r, partitions);
  EXPECT_EQ(sampler.window(), 0);
  sampler.run(2);
  EXPECT_EQ(sampler.window(), 2);
  sampler.run(1);
  EXPECT_EQ(sampler.window(), 2);
}

TEST(SamplerTest, EfficiencyDecreasesWithSaturation) {
  Relation r = RandomRelation(11, 300, 3, 2);
  auto partitions = AttrPartitions(r);
  NeighborhoodSampler sampler(r, partitions);
  sampler.run(1);
  double e1 = sampler.last_efficiency();
  for (int w = 2; w <= 6; ++w) sampler.run(w);
  double e6 = sampler.last_efficiency();
  EXPECT_LE(e6, e1);
}

TEST(SamplerTest, PairsComparedAccumulates) {
  Relation r = RandomRelation(13, 100, 3, 2);
  auto partitions = AttrPartitions(r);
  NeighborhoodSampler sampler(r, partitions);
  sampler.run(1);
  int64_t p1 = sampler.pairs_compared();
  EXPECT_GT(p1, 0);
  sampler.run(2);
  EXPECT_GT(sampler.pairs_compared(), p1);
}

TEST(SamplerTest, HandlesKeyColumns) {
  // All-unique columns have empty partitions: nothing to sample, no crash.
  Relation r = testutil::FromValues({{0, 10}, {1, 11}, {2, 12}});
  auto partitions = AttrPartitions(r);
  NeighborhoodSampler sampler(r, partitions);
  EXPECT_TRUE(sampler.initial(3).empty());
}

TEST(SamplerTest, FindsLargeAgreeSetsOnDuplicateHeavyData) {
  // Rows duplicated except the last column: sampler should find the
  // near-full agree set quickly.
  std::vector<std::vector<int>> rows;
  for (int i = 0; i < 20; ++i) rows.push_back({i % 5, i % 5, i});
  Relation r = testutil::FromValues(rows);
  auto partitions = AttrPartitions(r);
  NeighborhoodSampler sampler(r, partitions);
  std::vector<AttributeSet> sampled = sampler.initial(1);
  bool found = false;
  for (const AttributeSet& s : sampled) {
    if (s == (AttributeSet{0, 1})) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(SamplerTest, PooledRunsMatchSequential) {
  Relation r = RandomRelation(17, 300, 6, 3, 0.1);
  auto partitions = AttrPartitions(r);
  NeighborhoodSampler sequential(r, partitions);
  ThreadPool pool(3);
  NeighborhoodSampler pooled(r, partitions, &pool, 3);
  for (int w = 1; w <= 4; ++w) {
    EXPECT_EQ(pooled.run(w), sequential.run(w)) << "window " << w;
    EXPECT_EQ(pooled.pairs_compared(), sequential.pairs_compared()) << "window " << w;
    EXPECT_EQ(pooled.last_efficiency(), sequential.last_efficiency()) << "window " << w;
  }
}

TEST(SamplerTest, HandlesEmptyRelation) {
  Relation r = testutil::FromValues({});
  auto partitions = AttrPartitions(r);
  NeighborhoodSampler sampler(r, partitions);
  EXPECT_TRUE(sampler.initial(2).empty());
  EXPECT_EQ(sampler.pairs_compared(), 0);
}

}  // namespace
}  // namespace dhyfd
