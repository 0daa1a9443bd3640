#include "fdtree/extended_fd_tree.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "util/random.h"

namespace dhyfd {
namespace {

using NodeId = ExtendedFdTree::NodeId;
constexpr NodeId kRoot = ExtendedFdTree::kRoot;

/// Every node with its depth and path, by a walk over find_child.
struct WalkedNode {
  NodeId id;
  int depth;
  AttributeSet path;
};

std::vector<WalkedNode> Walk(const ExtendedFdTree& tree) {
  std::vector<WalkedNode> out;
  std::vector<WalkedNode> stack = {{kRoot, 0, {}}};
  while (!stack.empty()) {
    WalkedNode cur = stack.back();
    stack.pop_back();
    out.push_back(cur);
    for (AttrId a = 0; a < tree.num_attrs(); ++a) {
      NodeId c = tree.find_child(cur.id, a);
      if (c == ExtendedFdTree::kNoNode) continue;
      EXPECT_EQ(tree.node(c).attr, a);
      EXPECT_EQ(tree.node(c).parent, cur.id);
      AttributeSet path = cur.path;
      path.set(a);
      stack.push_back({c, cur.depth + 1, path});
    }
  }
  return out;
}

/// Sum of |rhs| over every node, by a full walk of the tree.
int64_t WalkedFdCount(const ExtendedFdTree& tree) {
  int64_t total = 0;
  for (const WalkedNode& w : Walk(tree)) total += tree.node(w.id).rhs.count();
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
  NodeId a = tree.find_child(kRoot, 0);
  ASSERT_NE(a, ExtendedFdTree::kNoNode);
  EXPECT_FALSE(tree.node(a).is_fd_node());
  NodeId b = tree.find_child(a, 1);
  ASSERT_NE(b, ExtendedFdTree::kNoNode);
  EXPECT_TRUE(tree.node(b).is_fd_node());
  EXPECT_EQ(tree.node(b).rhs, AttributeSet{2});
}

TEST(ExtendedFdTreeTest, DefaultIdsAreAttributes) {
  ExtendedFdTree tree(5);
  tree.set_controlled_level(1);
  tree.add_fd(AttributeSet{0, 2}, AttributeSet{4});
  NodeId a = tree.find_child(kRoot, 0);
  ASSERT_NE(a, ExtendedFdTree::kNoNode);
  EXPECT_EQ(tree.node(a).id, 0);
  // Depth 2 > cl = 1: child inherits the parent's id.
  NodeId c = tree.find_child(a, 2);
  ASSERT_NE(c, ExtendedFdTree::kNoNode);
  EXPECT_EQ(tree.node(c).id, 0);
}

TEST(ExtendedFdTreeTest, IdInheritanceBelowControlledLevel) {
  ExtendedFdTree tree(6);
  tree.set_controlled_level(2);
  tree.add_fd(AttributeSet{0, 2, 4}, AttributeSet{5});
  NodeId a = tree.find_child(kRoot, 0);
  NodeId c = tree.find_child(a, 2);
  NodeId e = tree.find_child(c, 4);
  // Depths 1 and 2 get default ids; depth 3 > cl inherits from depth 2.
  EXPECT_EQ(tree.node(a).id, 0);
  EXPECT_EQ(tree.node(c).id, 2);
  EXPECT_EQ(tree.node(e).id, 2);
}

TEST(ExtendedFdTreeTest, PathOf) {
  ExtendedFdTree tree(6);
  tree.add_fd(AttributeSet{1, 3, 5}, AttributeSet{0});
  std::vector<NodeId> level3 = tree.level_nodes(3);
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
  EXPECT_EQ(tree.root_rhs(), AttributeSet{0});
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
  NodeId c = tree.find_child(tree.find_child(kRoot, 0), 2);
  EXPECT_FALSE(tree.node(c).is_fd_node());
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
  std::vector<NodeId> level3 = tree.level_nodes(3);
  ASSERT_EQ(level3.size(), 1u);
  tree.set_id(level3[0], 99);  // simulate a dynamic id
  tree.reset_ids();
  EXPECT_EQ(tree.node(level3[0]).id, 3);
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


/// A tree built the way the discovery algorithms build theirs: {} -> R,
/// then inductions only (some with a partial RHS, as FDEP1 and approximate
/// DHyFD issue them), so it holds minimal FDs.
ExtendedFdTree RandomMinimalTree(int m, uint64_t seed, int steps) {
  Random rng(seed);
  const AttributeSet all = AttributeSet::full(m);
  ExtendedFdTree tree(m);
  tree.init_root_fd(all);
  for (int step = 0; step < steps; ++step) {
    AttributeSet x = AttributeSet::where(m, [&](AttrId) { return rng.next_bool(0.55); });
    AttributeSet y = all - x;
    if (rng.next_bool(0.3)) {
      y = AttributeSet::where(m, [&](AttrId a) { return y.test(a) && rng.next_bool(0.5); });
    }
    tree.induct(x, y);
  }
  return tree;
}

TEST(ExtendedFdTreeTest, AnchoredLookupMatchesTheFullLookupOnMinimalTrees) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const int m = 6 + static_cast<int>(seed % 5);
    const AttributeSet all = AttributeSet::full(m);
    ExtendedFdTree tree = RandomMinimalTree(m, seed, 30);
    const FdSet fds = tree.collect();
    for (const Fd& a : fds.fds) {
      for (const Fd& b : fds.fds) {
        ASSERT_FALSE(a.rhs == b.rhs && a.lhs != b.lhs && a.lhs.is_subset_of(b.lhs))
            << "seed " << seed << ": " << a.to_string() << " generalizes "
            << b.to_string();
      }
    }
    // Induction's question: with X' -> R refuted, which B in R does some
    // other FD cover for the specialization X' + a'? By minimality every
    // such FD contains a', so the anchored walk must find all of them.
    for (const WalkedNode& w : Walk(tree)) {
      const AttributeSet rhs = tree.node(w.id).rhs;
      if (rhs.empty()) continue;
      (all - w.path).for_each([&](AttrId anchor) {
        AttributeSet lhs = w.path;
        lhs.set(anchor);
        AttributeSet expected;
        for (const Fd& fd : fds.fds) {
          if (fd.lhs != w.path && fd.lhs.is_subset_of(lhs)) expected |= fd.rhs & rhs;
        }
        EXPECT_EQ(tree.anchored_covered_rhs(lhs, anchor, rhs), expected)
            << "seed " << seed << " lhs " << lhs.to_string() << " anchor " << anchor;
      });
    }
    // Wherever nothing is covered without the anchor, both lookups agree.
    Random rng(seed * 31);
    for (int probe = 0; probe < 300; ++probe) {
      AttributeSet lhs = AttributeSet::where(m, [&](AttrId) { return rng.next_bool(0.5); });
      if (lhs.empty()) continue;
      AttrId anchor = lhs.first();
      for (uint64_t skip = rng.next_below(lhs.count()); skip > 0; --skip) {
        anchor = lhs.next(anchor);
      }
      AttributeSet without = lhs;
      without.reset(anchor);
      AttributeSet candidates = all - tree.covered_rhs(without, all);
      EXPECT_EQ(tree.anchored_covered_rhs(lhs, anchor, candidates),
                tree.covered_rhs(lhs, candidates))
          << "seed " << seed << " lhs " << lhs.to_string() << " anchor " << anchor;
    }
  }
}

TEST(ExtendedFdTreeTest, LevelNodesMatchAWalkInDescendingPathOrder) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const int m = 8 + static_cast<int>(seed);
    ExtendedFdTree tree = RandomMinimalTree(m, seed + 100, 25);
    std::vector<WalkedNode> walked = Walk(tree);
    EXPECT_EQ(tree.node_count(), walked.size());
    int max_depth = 0;
    for (const WalkedNode& w : walked) max_depth = std::max(max_depth, w.depth);
    EXPECT_EQ(tree.depth(), max_depth);
    for (int level = 0; level <= max_depth + 1; ++level) {
      std::vector<NodeId> expected;
      for (const WalkedNode& w : walked) {
        if (w.depth == level) expected.push_back(w.id);
      }
      std::vector<NodeId> got = tree.level_nodes(level);
      for (size_t i = 1; i < got.size(); ++i) {
        // Descending lexicographic: the first attribute where two paths
        // differ is larger in the earlier one.
        const AttributeSet p = tree.path_of(got[i - 1]);
        const AttributeSet q = tree.path_of(got[i]);
        const AttrId d = ((p - q) | (q - p)).first();
        ASSERT_GE(d, 0);
        EXPECT_TRUE(q.test(d)) << p.to_string() << " before " << q.to_string();
      }
      std::sort(got.begin(), got.end());
      std::sort(expected.begin(), expected.end());
      EXPECT_EQ(got, expected) << "seed " << seed << " level " << level;
    }
  }
}

TEST(ExtendedFdTreeTest, WideFanOutKeepsChildrenFindable) {
  // 200 children under the root, inserted in a scrambled order, move their
  // child block through every power-of-two size and reuse freed blocks.
  const int m = 200;
  ExtendedFdTree tree(m);
  for (int i = 0; i < m; ++i) {
    const AttrId a = (i * 37) % m;
    tree.add_fd(AttributeSet{a}, AttributeSet{(a + 1) % m});
    tree.add_fd(AttributeSet{a, (a + 3) % m}, AttributeSet{(a + 2) % m});
  }
  for (AttrId a = 0; a < m; ++a) {
    NodeId c = tree.find_child(kRoot, a);
    ASSERT_NE(c, ExtendedFdTree::kNoNode);
    EXPECT_EQ(tree.node(c).attr, a);
    EXPECT_EQ(tree.node(c).rhs, AttributeSet{(a + 1) % m});
  }
  EXPECT_EQ(tree.node_count(), Walk(tree).size());
  EXPECT_EQ(tree.total_fd_count(), WalkedFdCount(tree));
  EXPECT_EQ(tree.total_fd_count(), 2 * m);
}

}  // namespace
}  // namespace dhyfd
