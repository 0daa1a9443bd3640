// Deeper induction scenarios on both FD-tree flavors: chains of non-FDs,
// interleavings, and equivalence of classic vs synergized induction
// results. These pin down the invariants DHyFD's main loop relies on.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "algo/agree_sets.h"
#include "fdtree/extended_fd_tree.h"
#include "fdtree/fd_tree.h"
#include "test_util.h"
#include "util/random.h"

namespace dhyfd {
namespace {

// Applies the same random non-FD stream to a classic tree (per-attribute)
// and an extended tree (synergized); both must converge to the same FD set.
TEST(InductionEquivalenceTest, ClassicAndSynergizedConverge) {
  for (int seed = 1; seed <= 12; ++seed) {
    Random rng(seed * 7919);
    const int m = 6;
    const AttributeSet all = AttributeSet::full(m);
    std::vector<AttributeSet> non_fds;
    int count = 3 + static_cast<int>(rng.next_below(12));
    for (int i = 0; i < count; ++i) {
      AttributeSet x;
      for (int a = 0; a < m; ++a) {
        if (rng.next_bool(0.45)) x.set(a);
      }
      if (x.count() < m) non_fds.push_back(x);
    }

    FdTree classic(m);
    for (AttrId a = 0; a < m; ++a) classic.add(AttributeSet(), a);
    ExtendedFdTree extended(m);
    extended.init_root_fd(all);

    for (const AttributeSet& x : non_fds) {
      (all - x).for_each([&](AttrId a) { classic.induct(x, a); });
      extended.induct(x, all - x);
    }

    FdSet from_classic = classic.collect();
    FdSet from_extended = extended.collect();
    from_classic.sort();
    from_extended.sort();
    ASSERT_EQ(from_classic.size(), from_extended.with_singleton_rhs().size())
        << "seed=" << seed;
    FdSet ext_singles = from_extended.with_singleton_rhs();
    ext_singles.sort();
    for (int64_t i = 0; i < from_classic.size(); ++i) {
      EXPECT_EQ(from_classic.fds[i], ext_singles.fds[i]) << "seed=" << seed;
    }
  }
}

// The surviving FDs are exactly those not refuted by any processed non-FD,
// and they are pairwise minimal.
TEST(InductionEquivalenceTest, SurvivorsAreMinimalAndUnrefuted) {
  Random rng(4242);
  const int m = 7;
  const AttributeSet all = AttributeSet::full(m);
  std::vector<AttributeSet> non_fds;
  for (int i = 0; i < 20; ++i) {
    AttributeSet x;
    for (int a = 0; a < m; ++a) {
      if (rng.next_bool(0.5)) x.set(a);
    }
    if (x.count() < m) non_fds.push_back(x);
  }
  ExtendedFdTree tree(m);
  tree.init_root_fd(all);
  for (const AttributeSet& x : non_fds) tree.induct(x, all - x);

  FdSet fds = tree.collect().with_singleton_rhs();
  for (const Fd& fd : fds.fds) {
    for (const AttributeSet& x : non_fds) {
      bool refuted = fd.lhs.is_subset_of(x) && !x.test(fd.rhs.first());
      EXPECT_FALSE(refuted) << fd.to_string() << " vs " << x.to_string();
    }
  }
  // Pairwise minimality for equal RHS.
  for (const Fd& a : fds.fds) {
    for (const Fd& b : fds.fds) {
      if (a.rhs == b.rhs && a.lhs != b.lhs) {
        EXPECT_FALSE(a.lhs.is_subset_of(b.lhs))
            << a.to_string() << " generalizes " << b.to_string();
      }
    }
  }
}

// Order independence: applying the same non-FD set in different orders must
// give the same final tree content.
TEST(InductionEquivalenceTest, OrderIndependentFixpoint) {
  Random rng(777);
  const int m = 6;
  const AttributeSet all = AttributeSet::full(m);
  std::vector<AttributeSet> non_fds;
  for (int i = 0; i < 10; ++i) {
    AttributeSet x;
    for (int a = 0; a < m; ++a) {
      if (rng.next_bool(0.4)) x.set(a);
    }
    if (x.count() < m) non_fds.push_back(x);
  }
  auto run = [&](std::vector<AttributeSet> order) {
    ExtendedFdTree tree(m);
    tree.init_root_fd(all);
    for (const AttributeSet& x : order) tree.induct(x, all - x);
    FdSet fds = tree.collect().with_singleton_rhs();
    fds.sort();
    return fds;
  };
  FdSet forward = run(non_fds);
  std::vector<AttributeSet> reversed(non_fds.rbegin(), non_fds.rend());
  FdSet backward = run(reversed);
  SortBySizeDescending(non_fds);
  FdSet sorted_first = run(non_fds);
  ASSERT_EQ(forward.size(), backward.size());
  ASSERT_EQ(forward.size(), sorted_first.size());
  for (int64_t i = 0; i < forward.size(); ++i) {
    EXPECT_EQ(forward.fds[i], backward.fds[i]);
    EXPECT_EQ(forward.fds[i], sorted_first.fds[i]);
  }
}

// Re-applying a non-FD is a no-op (idempotence).
TEST(InductionEquivalenceTest, Idempotent) {
  const int m = 5;
  const AttributeSet all = AttributeSet::full(m);
  ExtendedFdTree tree(m);
  tree.init_root_fd(all);
  AttributeSet x{0, 2};
  tree.induct(x, all - x);
  FdSet once = tree.collect().with_singleton_rhs();
  once.sort();
  tree.induct(x, all - x);
  FdSet twice = tree.collect().with_singleton_rhs();
  twice.sort();
  ASSERT_EQ(once.size(), twice.size());
  for (int64_t i = 0; i < once.size(); ++i) EXPECT_EQ(once.fds[i], twice.fds[i]);
}

// Node count and FD count stay consistent through heavy churn.
TEST(InductionEquivalenceTest, CountersStayConsistent) {
  Random rng(31337);
  const int m = 8;
  const AttributeSet all = AttributeSet::full(m);
  ExtendedFdTree tree(m);
  tree.init_root_fd(all);
  for (int i = 0; i < 40; ++i) {
    AttributeSet x;
    for (int a = 0; a < m; ++a) {
      if (rng.next_bool(0.5)) x.set(a);
    }
    if (x.count() == m) continue;
    tree.induct(x, all - x);
    EXPECT_EQ(tree.total_fd_count(),
              static_cast<int64_t>(tree.collect().with_singleton_rhs().size()));
    EXPECT_GE(tree.node_count(), 1u);
    EXPECT_LE(tree.depth(), m);
  }
}


struct NonFdStep {
  AttributeSet x;
  AttributeSet y;
};

/// Reference for one RHS attribute b, by exhaustive subset enumeration:
/// every minimal Z (b not in Z) with Z not a subset of x for each non-FD
/// x !-> y with b in y.
std::vector<AttributeSet> MinimalLhssBySubsets(int m, AttrId b,
                                               const std::vector<NonFdStep>& steps) {
  auto valid = [&](const AttributeSet& z) {
    for (const NonFdStep& s : steps) {
      if (s.y.test(b) && z.is_subset_of(s.x)) return false;
    }
    return true;
  };
  std::vector<AttributeSet> out;
  for (uint32_t bits = 0; bits < (1u << m); ++bits) {
    AttributeSet z = AttributeSet::where(m, [&](AttrId a) { return (bits >> a) & 1; });
    if (z.test(b) || !valid(z)) continue;
    bool minimal = true;
    z.for_each([&](AttrId a) {
      AttributeSet smaller = z;
      smaller.reset(a);
      if (valid(smaller)) minimal = false;
    });
    if (minimal) out.push_back(z);
  }
  return out;
}

/// The same reference by branching: Z must hit (R - x) - {b} for every
/// non-FD with b in y. Enumerates every branch, then keeps the minimal sets.
std::vector<AttributeSet> MinimalLhssByHitting(int m, AttrId b,
                                               const std::vector<NonFdStep>& steps) {
  std::vector<AttributeSet> family;
  for (const NonFdStep& s : steps) {
    if (!s.y.test(b)) continue;
    AttributeSet hit = AttributeSet::full(m) - s.x;
    hit.reset(b);
    family.push_back(hit);
  }
  std::vector<AttributeSet> found;
  std::function<void(const AttributeSet&, size_t)> grow = [&](const AttributeSet& z,
                                                               size_t i) {
    while (i < family.size() && z.intersects(family[i])) ++i;
    if (i == family.size()) {
      found.push_back(z);
      return;
    }
    family[i].for_each([&](AttrId a) {
      AttributeSet next = z;
      next.set(a);
      grow(next, i + 1);
    });
  };
  grow(AttributeSet(), 0);
  std::sort(found.begin(), found.end());
  found.erase(std::unique(found.begin(), found.end()), found.end());
  std::vector<AttributeSet> out;
  for (const AttributeSet& z : found) {
    bool minimal = true;
    for (const AttributeSet& other : found) {
      if (other != z && other.is_subset_of(z)) {
        minimal = false;
        break;
      }
    }
    if (minimal) out.push_back(z);
  }
  return out;
}

/// Node count and FD count by a walk over find_child.
void ExpectCountersMatchWalk(const ExtendedFdTree& tree) {
  size_t nodes = 0;
  int64_t fds = 0;
  std::vector<ExtendedFdTree::NodeId> stack = {ExtendedFdTree::kRoot};
  while (!stack.empty()) {
    ExtendedFdTree::NodeId n = stack.back();
    stack.pop_back();
    ++nodes;
    fds += tree.node(n).rhs.count();
    for (AttrId a = 0; a < tree.num_attrs(); ++a) {
      ExtendedFdTree::NodeId c = tree.find_child(n, a);
      if (c != ExtendedFdTree::kNoNode) stack.push_back(c);
    }
  }
  EXPECT_EQ(tree.node_count(), nodes);
  EXPECT_EQ(tree.total_fd_count(), fds);
}

// After a random non-FD sequence the tree holds exactly the minimal FDs no
// processed non-FD refutes, at widths that span one, one and two words of
// the attribute bitsets.
TEST(InductionEquivalenceTest, CollectMatchesBruteForceReference) {
  struct Width {
    int m;
    int non_fds;
    int max_missing;  // 0: each attribute is in x with probability 1/2
  };
  for (const Width& width : {Width{8, 14, 0}, Width{30, 30, 6}, Width{100, 40, 6}}) {
    const int m = width.m;
    const AttributeSet all = AttributeSet::full(m);
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      Random rng(seed * 1009 + static_cast<uint64_t>(m));
      std::vector<NonFdStep> steps;
      for (int i = 0; i < width.non_fds; ++i) {
        AttributeSet x;
        if (width.max_missing == 0) {
          x = AttributeSet::where(m, [&](AttrId) { return rng.next_bool(0.5); });
        } else {
          // Wide schemas: agree sets missing 1-6 attributes keep the
          // minimal covers small enough to enumerate.
          x = all;
          const int64_t missing = rng.next_range(1, width.max_missing);
          for (int64_t k = 0; k < missing; ++k) {
            x.reset(static_cast<AttrId>(rng.next_below(m)));
          }
        }
        AttributeSet y = all - x;
        if (rng.next_bool(0.3)) {
          AttributeSet part =
              AttributeSet::where(m, [&](AttrId a) { return y.test(a) && rng.next_bool(0.5); });
          if (!part.empty()) y = part;
        }
        steps.push_back({x, y});
      }

      ExtendedFdTree tree(m);
      tree.init_root_fd(all);
      for (const NonFdStep& s : steps) tree.induct(s.x, s.y);

      FdSet expected;
      for (AttrId b = 0; b < m; ++b) {
        std::vector<AttributeSet> lhss = MinimalLhssByHitting(m, b, steps);
        if (m <= 8) {
          std::vector<AttributeSet> by_subsets = MinimalLhssBySubsets(m, b, steps);
          std::sort(lhss.begin(), lhss.end());
          std::sort(by_subsets.begin(), by_subsets.end());
          ASSERT_EQ(lhss, by_subsets) << "the two references disagree, rhs " << b;
        }
        for (const AttributeSet& z : lhss) expected.add(Fd(z, b));
      }
      expected.sort();
      FdSet got = tree.collect();
      got.sort();
      ASSERT_EQ(got.size(), expected.size()) << "m " << m << " seed " << seed;
      EXPECT_TRUE(got.fds == expected.fds) << "m " << m << " seed " << seed;
      ExpectCountersMatchWalk(tree);
    }
  }
}

}  // namespace
}  // namespace dhyfd
