#include "fdtree/extended_fd_tree.h"

#include <gtest/gtest.h>

#include "util/random.h"

namespace dhyfd {
namespace {

/// Sum of |rhs| over every node, by a full walk of the tree.
int64_t WalkedFdCount(const ExtendedFdTree& tree) {
  int64_t total = 0;
  std::vector<const ExtendedFdTree::Node*> stack = {tree.root()};
  while (!stack.empty()) {
    const ExtendedFdTree::Node* node = stack.back();
    stack.pop_back();
    total += node->rhs.count();
    for (const auto& c : node->children) stack.push_back(c.get());
  }
  return total;
}

TEST(ExtendedFdTreeTest, AddFdAndCollect) {
  // Paper Figure 1 (right): A -> B, AB -> CD, CD -> B over R = {A..E}.
  ExtendedFdTree tree(5);
  tree.add_fd(AttributeSet{0}, AttributeSet{1});
  tree.add_fd(AttributeSet{0, 1}, AttributeSet{2, 3});
  tree.add_fd(AttributeSet{2, 3}, AttributeSet{1});
  FdSet fds = tree.collect();
  fds.sort();
  ASSERT_EQ(fds.size(), 4);  // singleton RHSs: A->B, AB->C, AB->D, CD->B
  EXPECT_EQ(tree.total_fd_count(), 4);
}

TEST(ExtendedFdTreeTest, OnlyFdNodesCarryLabels) {
  ExtendedFdTree tree(5);
  tree.add_fd(AttributeSet{0, 1}, AttributeSet{2});
  // Node A (depth 1) is not an FD-node; node B under A is.
  ExtendedFdTree::Node* a = tree.root()->find_child(0);
  ASSERT_NE(a, nullptr);
  EXPECT_FALSE(a->is_fd_node());
  ExtendedFdTree::Node* b = a->find_child(1);
  ASSERT_NE(b, nullptr);
  EXPECT_TRUE(b->is_fd_node());
  EXPECT_EQ(b->rhs, AttributeSet{2});
}

TEST(ExtendedFdTreeTest, DefaultIdsAreAttributes) {
  ExtendedFdTree tree(5);
  tree.set_controlled_level(1);
  tree.add_fd(AttributeSet{0, 2}, AttributeSet{4});
  ExtendedFdTree::Node* a = tree.root()->find_child(0);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->id, 0);
  // Depth 2 > cl = 1: child inherits the parent's id.
  ExtendedFdTree::Node* c = a->find_child(2);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->id, 0);
}

TEST(ExtendedFdTreeTest, IdInheritanceBelowControlledLevel) {
  ExtendedFdTree tree(6);
  tree.set_controlled_level(2);
  tree.add_fd(AttributeSet{0, 2, 4}, AttributeSet{5});
  ExtendedFdTree::Node* a = tree.root()->find_child(0);
  ExtendedFdTree::Node* c = a->find_child(2);
  ExtendedFdTree::Node* e = c->find_child(4);
  // Depths 1 and 2 get default ids; depth 3 > cl inherits from depth 2.
  EXPECT_EQ(a->id, 0);
  EXPECT_EQ(c->id, 2);
  EXPECT_EQ(e->id, 2);
}

TEST(ExtendedFdTreeTest, PathOf) {
  ExtendedFdTree tree(6);
  tree.add_fd(AttributeSet{1, 3, 5}, AttributeSet{0});
  std::vector<ExtendedFdTree::Node*> level3 = tree.level_nodes(3);
  ASSERT_EQ(level3.size(), 1u);
  EXPECT_EQ(tree.path_of(level3[0]), (AttributeSet{1, 3, 5}));
}

TEST(ExtendedFdTreeTest, LevelNodes) {
  ExtendedFdTree tree(6);
  tree.add_fd(AttributeSet{0, 1}, AttributeSet{2});
  tree.add_fd(AttributeSet{0, 3}, AttributeSet{2});
  tree.add_fd(AttributeSet{4}, AttributeSet{5});
  EXPECT_EQ(tree.level_nodes(1).size(), 2u);  // nodes 0 and 4
  EXPECT_EQ(tree.level_nodes(2).size(), 2u);  // nodes 1 and 3 under 0
  EXPECT_EQ(tree.level_nodes(3).size(), 0u);
  EXPECT_EQ(tree.depth(), 2);
}

TEST(ExtendedFdTreeTest, CoveredRhs) {
  ExtendedFdTree tree(6);
  tree.add_fd(AttributeSet{0}, AttributeSet{2});
  tree.add_fd(AttributeSet{1, 3}, AttributeSet{4});
  // For LHS {0,1,3}: RHS 2 covered via {0} -> 2, RHS 4 via {1,3} -> 4.
  AttributeSet covered =
      tree.covered_rhs(AttributeSet{0, 1, 3}, AttributeSet{2, 4, 5});
  EXPECT_EQ(covered, (AttributeSet{2, 4}));
  // For LHS {1}: nothing is covered.
  EXPECT_TRUE(tree.covered_rhs(AttributeSet{1}, AttributeSet{2, 4}).empty());
}

TEST(ExtendedFdTreeTest, CoveredRhsIncludesRoot) {
  ExtendedFdTree tree(4);
  tree.init_root_fd(AttributeSet{3});
  EXPECT_EQ(tree.covered_rhs(AttributeSet{0}, AttributeSet{2, 3}), AttributeSet{3});
}

TEST(ExtendedFdTreeTest, SynergizedInductionFromRoot) {
  // Paper Example 2 setup, starting simpler: tree = {} -> R over 4 attrs,
  // non-FD {0} !-> {1,2,3}: every attr j in {1,2,3} must be re-derivable
  // only through minimal specializations.
  ExtendedFdTree tree(4);
  tree.init_root_fd(AttributeSet::full(4));
  tree.induct(AttributeSet{0}, AttributeSet{1, 2, 3});
  FdSet fds = tree.collect();
  for (const Fd& fd : fds.fds) {
    // No surviving FD may be refuted: LHS subset of {0} and RHS in {1,2,3}.
    bool refuted = fd.lhs.is_subset_of(AttributeSet{0}) &&
                   fd.rhs.intersects(AttributeSet{1, 2, 3});
    EXPECT_FALSE(refuted) << fd.to_string();
  }
  // {} -> 0 must survive (0 was not in the non-FD's RHS).
  EXPECT_EQ(tree.root()->rhs, AttributeSet{0});
}

TEST(ExtendedFdTreeTest, PaperExample2) {
  // FD AC -> E is the only path (A=0, B=1, C=2, D=3, E=4). Applying the
  // non-FD AC !-> BDE must induce ABC -> E and ACD -> E.
  ExtendedFdTree tree(5);
  tree.add_fd(AttributeSet{0, 2}, AttributeSet{4});
  tree.induct(AttributeSet{0, 2}, AttributeSet{1, 3, 4});
  FdSet fds = tree.collect();
  fds.sort();
  ASSERT_EQ(fds.size(), 2);
  EXPECT_EQ(fds.fds[0], Fd(AttributeSet{0, 1, 2}, 4));
  EXPECT_EQ(fds.fds[1], Fd(AttributeSet{0, 2, 3}, 4));
  // Node C (2) under A (0) is no longer an FD-node.
  ExtendedFdTree::Node* a = tree.root()->find_child(0);
  ExtendedFdTree::Node* c = a->find_child(2);
  EXPECT_FALSE(c->is_fd_node());
}

TEST(ExtendedFdTreeTest, PaperExample3) {
  // FDs AC -> E and AC -> BE; non-FD AC !-> BDE. Expected candidates:
  // from AC -> E: ABC -> E, ACD -> E; from AC -> BE additionally
  // ACD -> B(E), ABC -> E, ACE -> B. Minimality must deduplicate.
  ExtendedFdTree tree(6);
  tree.add_fd(AttributeSet{0, 2}, AttributeSet{1, 4});
  tree.induct(AttributeSet{0, 2}, AttributeSet{1, 3, 4});
  FdSet fds = tree.collect();
  // Every resulting FD must be non-refuted and minimal.
  for (const Fd& fd : fds.fds) {
    EXPECT_FALSE(fd.lhs.is_subset_of(AttributeSet{0, 2}));
    EXPECT_FALSE(fd.lhs.intersects(fd.rhs));
  }
  // ACE -> B (LHS {0,2,4}, RHS 1) comes from the removed-attribute case.
  bool has_ace_b = false;
  for (const Fd& fd : fds.fds) {
    if (fd.lhs == (AttributeSet{0, 2, 4}) && fd.rhs.test(1)) has_ace_b = true;
  }
  EXPECT_TRUE(has_ace_b);
}

TEST(ExtendedFdTreeTest, ResetIds) {
  ExtendedFdTree tree(5);
  tree.set_controlled_level(1);
  tree.add_fd(AttributeSet{0, 2, 3}, AttributeSet{4});
  std::vector<ExtendedFdTree::Node*> level3 = tree.level_nodes(3);
  ASSERT_EQ(level3.size(), 1u);
  level3[0]->id = 99;  // simulate a dynamic id
  tree.reset_ids();
  EXPECT_EQ(level3[0]->id, 3);
}

TEST(ExtendedFdTreeTest, NodeCount) {
  ExtendedFdTree tree(5);
  EXPECT_EQ(tree.node_count(), 1u);  // root
  tree.add_fd(AttributeSet{0, 1}, AttributeSet{2});
  EXPECT_EQ(tree.node_count(), 3u);
  tree.add_fd(AttributeSet{0, 3}, AttributeSet{2});
  EXPECT_EQ(tree.node_count(), 4u);
}

TEST(ExtendedFdTreeTest, InductNoMatchingPathsIsNoop) {
  ExtendedFdTree tree(5);
  tree.add_fd(AttributeSet{1, 2}, AttributeSet{3});
  tree.induct(AttributeSet{0}, AttributeSet{3, 4});
  FdSet fds = tree.collect();
  ASSERT_EQ(fds.size(), 1);
  EXPECT_EQ(fds.fds[0], Fd(AttributeSet{1, 2}, 3));
}

TEST(ExtendedFdTreeTest, FdCountMatchesWalkAfterRandomInductions) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Random rng(seed);
    const int m = 4 + static_cast<int>(rng.next_below(5));
    ExtendedFdTree tree(m);
    tree.init_root_fd(AttributeSet::full(m));
    EXPECT_EQ(tree.total_fd_count(), WalkedFdCount(tree));
    for (int step = 0; step < 40; ++step) {
      AttributeSet x;
      for (AttrId a = 0; a < m; ++a) {
        if (rng.next_bool(0.4)) x.set(a);
      }
      if (rng.next_bool(0.2)) {
        // Re-adding labels (some already present) must count each FD once.
        AttributeSet rhs = AttributeSet::full(m) - x;
        rhs.reset(static_cast<AttrId>(rng.next_below(m)));
        tree.add_fd(x, rhs);
      } else {
        tree.induct(x, AttributeSet::full(m) - x);
      }
      ASSERT_EQ(tree.total_fd_count(), WalkedFdCount(tree))
          << "seed " << seed << " step " << step;
    }
    EXPECT_EQ(tree.total_fd_count(), tree.collect().size());
  }
}

TEST(ExtendedFdTreeTest, FdCountTracksRootReinitialisation) {
  ExtendedFdTree tree(5);
  tree.init_root_fd(AttributeSet::full(5));
  EXPECT_EQ(tree.total_fd_count(), 5);
  tree.init_root_fd(AttributeSet{1, 3});
  EXPECT_EQ(tree.total_fd_count(), 2);
  EXPECT_EQ(tree.total_fd_count(), WalkedFdCount(tree));
}

}  // namespace
}  // namespace dhyfd
