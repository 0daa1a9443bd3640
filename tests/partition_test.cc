#include "partition/partition_ops.h"
#include "partition/stripped_partition.h"

#include <gtest/gtest.h>

#include "test_util.h"
#include "util/random.h"

namespace dhyfd {
namespace {

using testutil::FromValues;
using testutil::RandomRelation;

TEST(StrippedPartitionTest, SingleAttribute) {
  Relation r = FromValues({{0}, {0}, {1}, {2}, {2}, {2}});
  StrippedPartition p = BuildAttributePartition(r, 0);
  p.normalize();
  ASSERT_EQ(p.size(), 2);
  EXPECT_EQ(testutil::ClusterRows(p, 0), (std::vector<RowId>{0, 1}));
  EXPECT_EQ(testutil::ClusterRows(p, 1), (std::vector<RowId>{3, 4, 5}));
  EXPECT_EQ(p.support(), 5);
  EXPECT_EQ(p.error(), 3);
}

TEST(StrippedPartitionTest, SingletonsAreStripped) {
  Relation r = FromValues({{0}, {1}, {2}});
  StrippedPartition p = BuildAttributePartition(r, 0);
  EXPECT_TRUE(p.empty());
  EXPECT_EQ(p.error(), 0);  // key
}

TEST(StrippedPartitionTest, EmptyLhsPartition) {
  Relation r = FromValues({{0}, {1}, {2}});
  StrippedPartition p = BuildPartition(r, AttributeSet());
  ASSERT_EQ(p.size(), 1);
  EXPECT_EQ(p.support(), 3);
}

TEST(StrippedPartitionTest, EmptyLhsOnTinyRelation) {
  Relation r1 = FromValues({{0}});
  EXPECT_TRUE(BuildPartition(r1, AttributeSet()).empty());
  Relation r0 = FromValues({});
  EXPECT_TRUE(BuildPartition(r0, AttributeSet()).empty());
}

TEST(StrippedPartitionTest, ErrorOnEmptyRelation) {
  Relation r = FromValues({});
  StrippedPartition p = BuildPartition(r, AttributeSet());
  EXPECT_TRUE(p.empty());
  EXPECT_EQ(p.error(), 0);
  EXPECT_EQ(p.support(), 0);
  EXPECT_EQ(StrippedPartition::whole(0).error(), 0);
}

TEST(StrippedPartitionTest, ErrorOnSingleWholeCluster) {
  // A constant column: one cluster holding every row, e(X) = n - 1.
  Relation r = FromValues({{7}, {7}, {7}, {7}});
  StrippedPartition p = BuildAttributePartition(r, 0);
  ASSERT_EQ(p.size(), 1);
  EXPECT_EQ(p.support(), 4);
  EXPECT_EQ(p.error(), 3);
  EXPECT_EQ(StrippedPartition::whole(4).error(), 3);
}

TEST(StrippedPartitionTest, ErrorOnAllDistinctColumn) {
  // A key column strips to nothing: ||pi|| = |pi| = 0, so e(X) = 0.
  Relation r = FromValues({{0, 5}, {1, 5}, {2, 5}, {3, 5}});
  StrippedPartition p = BuildAttributePartition(r, 0);
  EXPECT_TRUE(p.empty());
  EXPECT_EQ(p.error(), 0);
  EXPECT_EQ(p.support(), 0);
}

TEST(StrippedPartitionTest, MultiAttributePartition) {
  Relation r = FromValues({{0, 0}, {0, 0}, {0, 1}, {1, 0}, {1, 0}});
  StrippedPartition p = BuildPartition(r, AttributeSet{0, 1});
  p.normalize();
  ASSERT_EQ(p.size(), 2);
  EXPECT_EQ(testutil::ClusterRows(p, 0), (std::vector<RowId>{0, 1}));
  EXPECT_EQ(testutil::ClusterRows(p, 1), (std::vector<RowId>{3, 4}));
}

TEST(PartitionRefinerTest, RefineMatchesDirectBuild) {
  Relation r = RandomRelation(7, 200, 4, 5);
  PartitionRefiner refiner(r);
  StrippedPartition p0 = BuildAttributePartition(r, 0);
  StrippedPartition refined = refiner.refine(p0, 2);
  StrippedPartition direct = BuildPartition(r, AttributeSet{0, 2});
  refined.normalize();
  direct.normalize();
  EXPECT_EQ(refined.to_string(), direct.to_string());
}

TEST(PartitionRefinerTest, RefineAllOrderIndependent) {
  Relation r = RandomRelation(11, 150, 5, 4);
  PartitionRefiner refiner(r);
  StrippedPartition a =
      refiner.refine_all(BuildAttributePartition(r, 0), AttributeSet{1, 3});
  StrippedPartition b =
      refiner.refine(refiner.refine(BuildAttributePartition(r, 0), 3), 1);
  a.normalize();
  b.normalize();
  EXPECT_EQ(a.to_string(), b.to_string());
}

TEST(PartitionRefinerTest, RefineClusterAppendsOnlyNonSingletons) {
  Relation r = FromValues({{0, 0}, {0, 1}, {0, 0}, {0, 2}});
  PartitionRefiner refiner(r);
  StrippedPartition out;
  const std::vector<RowId> cluster = {0, 1, 2, 3};
  refiner.refine_cluster(ClusterView(cluster.data(), cluster.size()), 1, out);
  ASSERT_EQ(out.size(), 1);
  EXPECT_EQ(testutil::ClusterRows(out, 0), (std::vector<RowId>{0, 2}));
}

TEST(PartitionRefinerTest, PairThatSplitsIsStripped) {
  Relation r = FromValues({{0, 1}, {0, 2}});
  PartitionRefiner refiner(r);
  StrippedPartition out;
  const std::vector<RowId> pair = {1, 0};
  refiner.refine_cluster(ClusterView(pair.data(), pair.size()), 1, out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(out.size(), 0);
}

TEST(PartitionRefinerTest, PairThatAgreesSurvivesWholeInClusterOrder) {
  Relation r = FromValues({{0, 5}, {1, 6}, {0, 5}});
  PartitionRefiner refiner(r);
  StrippedPartition out;
  const std::vector<RowId> pair = {2, 0};
  refiner.refine_cluster(ClusterView(pair.data(), pair.size()), 1, out);
  ASSERT_EQ(out.size(), 1);
  EXPECT_EQ(testutil::ClusterRows(out, 0), (std::vector<RowId>{2, 0}));
  EXPECT_EQ(out.support(), 2);
}

TEST(PartitionRefinerTest, MixedClusterSizesInOneArena) {
  // Attribute 0 groups rows into a surviving pair {0,1}, a splitting pair
  // {2,3}, a triple {4,5,6} that keeps two rows and a quadruple {7,8,9,10}
  // that splits into two pairs; attribute 1 refines them.
  Relation r = FromValues({{0, 7},
                           {0, 7},
                           {1, 1},
                           {1, 2},
                           {2, 3},
                           {2, 4},
                           {2, 3},
                           {3, 5},
                           {3, 6},
                           {3, 6},
                           {3, 5}});
  PartitionRefiner refiner(r);
  StrippedPartition p = BuildAttributePartition(r, 0);
  ASSERT_EQ(p.size(), 4);
  StrippedPartition refined = refiner.refine(p, 1);
  ASSERT_EQ(refined.size(), 4);
  EXPECT_EQ(testutil::ClusterRows(refined, 0), (std::vector<RowId>{0, 1}));
  EXPECT_EQ(testutil::ClusterRows(refined, 1), (std::vector<RowId>{4, 6}));
  EXPECT_EQ(testutil::ClusterRows(refined, 2), (std::vector<RowId>{7, 10}));
  EXPECT_EQ(testutil::ClusterRows(refined, 3), (std::vector<RowId>{8, 9}));
  EXPECT_EQ(refined.support(), 8);
  StrippedPartition direct = BuildPartition(r, AttributeSet{0, 1});
  refined.normalize();
  direct.normalize();
  EXPECT_EQ(refined.to_string(), direct.to_string());
}

TEST(PartitionRefinerTest, ScratchIsReusableAcrossCalls) {
  Relation r = RandomRelation(13, 100, 3, 6);
  PartitionRefiner refiner(r);
  for (int iter = 0; iter < 3; ++iter) {
    StrippedPartition p = refiner.refine(BuildAttributePartition(r, 0), 1);
    StrippedPartition direct = BuildPartition(r, AttributeSet{0, 1});
    EXPECT_EQ(p.support(), direct.support());
    EXPECT_EQ(p.size(), direct.size());
  }
}

TEST(IntersectPartitionsTest, MatchesRefinement) {
  Relation r = RandomRelation(17, 300, 4, 4);
  StrippedPartition pa = BuildPartition(r, AttributeSet{0, 1});
  StrippedPartition pb = BuildPartition(r, AttributeSet{0, 2});
  StrippedPartition inter = IntersectPartitions(pa, pb, r.num_rows());
  StrippedPartition direct = BuildPartition(r, AttributeSet{0, 1, 2});
  inter.normalize();
  direct.normalize();
  EXPECT_EQ(inter.to_string(), direct.to_string());
}

TEST(IntersectPartitionsTest, DisjointGivesEmpty) {
  Relation r = FromValues({{0, 0}, {0, 1}, {1, 0}, {1, 1}});
  StrippedPartition pa = BuildAttributePartition(r, 0);
  StrippedPartition pb = BuildAttributePartition(r, 1);
  StrippedPartition inter = IntersectPartitions(pa, pb, r.num_rows());
  EXPECT_TRUE(inter.empty());
}

TEST(PartitionImpliesFdTest, DetectsValidity) {
  Relation r = FromValues({{0, 5, 1}, {0, 5, 2}, {1, 6, 1}});
  StrippedPartition p0 = BuildAttributePartition(r, 0);
  EXPECT_TRUE(PartitionImpliesFd(r, p0, 1));   // 0 -> 1
  EXPECT_FALSE(PartitionImpliesFd(r, p0, 2));  // 0 !-> 2
}

TEST(PartitionTest, ErrorIsMonotoneUnderRefinement) {
  Relation r = RandomRelation(23, 400, 5, 3);
  PartitionRefiner refiner(r);
  StrippedPartition p = BuildAttributePartition(r, 0);
  int64_t prev = p.error();
  for (AttrId a = 1; a < 5; ++a) {
    p = refiner.refine(p, a);
    EXPECT_LE(p.error(), prev);
    prev = p.error();
  }
}

TEST(PartitionTest, MemoryBytesGrowsWithClusters) {
  Relation r = RandomRelation(29, 500, 2, 3);
  StrippedPartition p = BuildAttributePartition(r, 0);
  EXPECT_GT(p.memory_bytes(), sizeof(StrippedPartition));
}

// Property sweep: refinement equals ground-truth grouping on many shapes.
class PartitionSweep : public ::testing::TestWithParam<int> {};

TEST_P(PartitionSweep, BuildPartitionMatchesPairwiseDefinition) {
  int seed = GetParam();
  Random rng(seed);
  int rows = 20 + static_cast<int>(rng.next_below(80));
  int cols = 2 + static_cast<int>(rng.next_below(4));
  int domain = 2 + static_cast<int>(rng.next_below(5));
  Relation r = RandomRelation(seed * 31 + 1, rows, cols, domain);
  AttributeSet x;
  for (int c = 0; c < cols; ++c) {
    if (rng.next_bool(0.5)) x.set(c);
  }
  StrippedPartition p = BuildPartition(r, x);
  // Pairwise check: two rows are in the same cluster iff they agree on x.
  std::vector<int> cluster_of(rows, -1);
  for (size_t ci = 0; ci < static_cast<size_t>(p.size()); ++ci) {
    for (RowId row : p.cluster(ci)) cluster_of[row] = static_cast<int>(ci);
  }
  // The cached O(1) support/size must equal the per-cluster sums.
  int64_t support = 0;
  int64_t classes = 0;
  for (ClusterView c : p.clusters()) {
    support += static_cast<int64_t>(c.size());
    ++classes;
  }
  EXPECT_EQ(support, p.support());
  EXPECT_EQ(classes, p.size());
  for (RowId i = 0; i < rows; ++i) {
    for (RowId j = i + 1; j < rows; ++j) {
      bool same = cluster_of[i] >= 0 && cluster_of[i] == cluster_of[j];
      EXPECT_EQ(same, r.agree_on(i, j, x))
          << "rows " << i << "," << j << " x=" << x.to_string();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionSweep, ::testing::Range(0, 12));

}  // namespace
}  // namespace dhyfd
