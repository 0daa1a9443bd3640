#include "algo/ddm.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace dhyfd {
namespace {

using testutil::FromValues;
using testutil::RandomRelation;

TEST(DdmTest, PrecomputesAttributePartitions) {
  Relation r = FromValues({{0, 1}, {0, 1}, {1, 2}});
  Ddm ddm(r);
  EXPECT_EQ(ddm.attribute_partition(0).support(), 2);
  EXPECT_EQ(ddm.attribute_support(0), 2);
  EXPECT_EQ(ddm.attribute_partition(1).support(), 2);
}

TEST(DdmTest, StaticIdsMapToSingletonAttrs) {
  Relation r = FromValues({{0, 1}, {0, 1}});
  Ddm ddm(r);
  EXPECT_EQ(ddm.attrs_for_id(0), AttributeSet{0});
  EXPECT_EQ(ddm.attrs_for_id(1), AttributeSet{1});
  EXPECT_EQ(&ddm.partition_for_id(1), &ddm.attribute_partition(1));
}

TEST(DdmTest, UpdateBuildsDynamicPartitions) {
  Relation r = RandomRelation(3, 60, 4, 3);
  Ddm ddm(r);
  ExtendedFdTree tree(4);
  tree.set_controlled_level(1);
  tree.add_fd(AttributeSet{0, 1}, AttributeSet{2});
  tree.add_fd(AttributeSet{0, 1, 3}, AttributeSet{2});
  std::vector<ExtendedFdTree::NodeId> level2 = tree.level_nodes(2);
  ASSERT_EQ(level2.size(), 1u);  // node 1 under node 0
  tree.set_controlled_level(2);
  ddm.update(level2, tree);
  EXPECT_EQ(ddm.dynamic_entries(), 1);
  // The node's id now references pi_{0,1}.
  const ExtendedFdTree::Node& node = tree.node(level2[0]);
  EXPECT_GE(node.id, r.num_cols());
  EXPECT_EQ(ddm.attrs_for_id(node.id), (AttributeSet{0, 1}));
  StrippedPartition direct = BuildPartition(r, AttributeSet{0, 1});
  StrippedPartition dyn = ddm.partition_for_id(node.id);
  dyn.normalize();
  direct.normalize();
  EXPECT_EQ(dyn.to_string(), direct.to_string());
}

TEST(DdmTest, UpdatePropagatesIdsToDescendants) {
  Relation r = RandomRelation(5, 40, 5, 3);
  Ddm ddm(r);
  ExtendedFdTree tree(5);
  tree.set_controlled_level(1);
  tree.add_fd(AttributeSet{0, 2, 4}, AttributeSet{1});
  std::vector<ExtendedFdTree::NodeId> level2 = tree.level_nodes(2);
  ASSERT_EQ(level2.size(), 1u);
  tree.set_controlled_level(2);
  ddm.update(level2, tree);
  // The depth-3 descendant must carry the same dynamic id.
  std::vector<ExtendedFdTree::NodeId> level3 = tree.level_nodes(3);
  ASSERT_EQ(level3.size(), 1u);
  EXPECT_EQ(tree.node(level3[0]).id, tree.node(level2[0]).id);
}

TEST(DdmTest, UpdateResetsUnrelatedIds) {
  Relation r = RandomRelation(7, 40, 6, 3);
  Ddm ddm(r);
  ExtendedFdTree tree(6);
  tree.set_controlled_level(1);
  tree.add_fd(AttributeSet{0, 1}, AttributeSet{5});
  tree.add_fd(AttributeSet{2, 3}, AttributeSet{5});
  auto level2 = tree.level_nodes(2);
  ASSERT_EQ(level2.size(), 2u);
  tree.set_controlled_level(2);
  // First update with both nodes, then a second update with only one: the
  // other node's id must fall back to its default, not dangle.
  ddm.update(level2, tree);
  std::vector<ExtendedFdTree::NodeId> just_one = {level2[0]};
  ddm.update(just_one, tree);
  EXPECT_EQ(ddm.dynamic_entries(), 1);
  EXPECT_GE(tree.node(level2[0]).id, 6);
  EXPECT_EQ(tree.node(level2[1]).id, tree.node(level2[1]).attr);  // reset to default
}

TEST(DdmTest, SecondUpdateRefinesFromDynamic) {
  Relation r = RandomRelation(11, 80, 5, 2);
  Ddm ddm(r);
  ExtendedFdTree tree(5);
  tree.set_controlled_level(1);
  tree.add_fd(AttributeSet{0, 1, 2}, AttributeSet{4});
  auto level2 = tree.level_nodes(2);
  tree.set_controlled_level(2);
  ddm.update(level2, tree);
  auto level3 = tree.level_nodes(3);
  ASSERT_EQ(level3.size(), 1u);
  tree.set_controlled_level(3);
  ddm.update(level3, tree);
  EXPECT_EQ(ddm.attrs_for_id(tree.node(level3[0]).id), (AttributeSet{0, 1, 2}));
  StrippedPartition dyn = ddm.partition_for_id(tree.node(level3[0]).id);
  StrippedPartition direct = BuildPartition(r, AttributeSet{0, 1, 2});
  dyn.normalize();
  direct.normalize();
  EXPECT_EQ(dyn.to_string(), direct.to_string());
}

TEST(DdmTest, MemoryBytesIncludesDynamic) {
  Relation r = RandomRelation(13, 100, 4, 2);
  Ddm ddm(r);
  size_t before = ddm.memory_bytes();
  ExtendedFdTree tree(4);
  tree.set_controlled_level(1);
  tree.add_fd(AttributeSet{0, 1}, AttributeSet{3});
  auto level2 = tree.level_nodes(2);
  tree.set_controlled_level(2);
  ddm.update(level2, tree);
  EXPECT_GE(ddm.memory_bytes(), before);
}

}  // namespace
}  // namespace dhyfd
