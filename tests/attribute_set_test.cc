#include "util/attribute_set.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

namespace dhyfd {
namespace {

TEST(AttributeSetTest, DefaultIsEmpty) {
  AttributeSet s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.first(), -1);
  EXPECT_EQ(s.last(), -1);
}

TEST(AttributeSetTest, SetTestReset) {
  AttributeSet s;
  s.set(0);
  s.set(63);
  s.set(64);
  s.set(255);
  EXPECT_TRUE(s.test(0));
  EXPECT_TRUE(s.test(63));
  EXPECT_TRUE(s.test(64));
  EXPECT_TRUE(s.test(255));
  EXPECT_FALSE(s.test(1));
  EXPECT_EQ(s.count(), 4);
  s.reset(63);
  EXPECT_FALSE(s.test(63));
  EXPECT_EQ(s.count(), 3);
}

TEST(AttributeSetTest, InitializerList) {
  AttributeSet s{1, 3, 5};
  EXPECT_EQ(s.count(), 3);
  EXPECT_TRUE(s.test(1));
  EXPECT_TRUE(s.test(3));
  EXPECT_TRUE(s.test(5));
}

TEST(AttributeSetTest, FullCrossesWordBoundaries) {
  for (int n : {0, 1, 5, 63, 64, 65, 127, 128, 200, 256}) {
    AttributeSet s = AttributeSet::full(n);
    EXPECT_EQ(s.count(), n) << "n=" << n;
    if (n > 0) {
      EXPECT_TRUE(s.test(n - 1));
      EXPECT_EQ(s.first(), 0);
      EXPECT_EQ(s.last(), n - 1);
    }
    if (n < 256) {
      EXPECT_FALSE(s.test(n));
    }
  }
}

TEST(AttributeSetTest, WhereMatchesSetLoopAcrossWordBoundaries) {
  for (int n : {0, 1, 5, 63, 64, 65, 127, 128, 200, 256}) {
    for (int stride : {1, 2, 3, 7}) {
      auto pred = [&](AttrId a) { return a % stride == 0; };
      AttributeSet want;
      for (AttrId a = 0; a < n; ++a) {
        if (pred(a)) want.set(a);
      }
      EXPECT_EQ(AttributeSet::where(n, pred), want) << "n=" << n << " stride=" << stride;
    }
  }
}

TEST(AttributeSetTest, FirstLastNext) {
  AttributeSet s{5, 70, 200};
  EXPECT_EQ(s.first(), 5);
  EXPECT_EQ(s.last(), 200);
  EXPECT_EQ(s.next(4), 5);
  EXPECT_EQ(s.next(5), 70);
  EXPECT_EQ(s.next(70), 200);
  EXPECT_EQ(s.next(200), -1);
  EXPECT_EQ(s.next(255), -1);
}

TEST(AttributeSetTest, SubsetAndIntersects) {
  AttributeSet a{1, 2}, b{1, 2, 3}, c{4};
  EXPECT_TRUE(a.is_subset_of(b));
  EXPECT_FALSE(b.is_subset_of(a));
  EXPECT_TRUE(a.is_subset_of(a));
  EXPECT_TRUE(AttributeSet().is_subset_of(a));
  EXPECT_TRUE(a.intersects(b));
  EXPECT_FALSE(a.intersects(c));
}

TEST(AttributeSetTest, SetAlgebra) {
  AttributeSet a{1, 2, 70}, b{2, 3};
  EXPECT_EQ((a | b), (AttributeSet{1, 2, 3, 70}));
  EXPECT_EQ((a & b), AttributeSet{2});
  EXPECT_EQ((a - b), (AttributeSet{1, 70}));
  AttributeSet c = a;
  c |= b;
  EXPECT_EQ(c, (a | b));
  c = a;
  c &= b;
  EXPECT_EQ(c, (a & b));
  c = a;
  c -= b;
  EXPECT_EQ(c, (a - b));
}

TEST(AttributeSetTest, Complement) {
  AttributeSet a{0, 2};
  AttributeSet comp = a.complement(4);
  EXPECT_EQ(comp, (AttributeSet{1, 3}));
}

TEST(AttributeSetTest, ForEachAscending) {
  AttributeSet s{200, 3, 64, 1};
  std::vector<AttrId> seen;
  s.for_each([&](AttrId a) { seen.push_back(a); });
  EXPECT_EQ(seen, (std::vector<AttrId>{1, 3, 64, 200}));
}

TEST(AttributeSetTest, OrderingIsTotal) {
  std::set<AttributeSet> ordered;
  ordered.insert(AttributeSet{1});
  ordered.insert(AttributeSet{2});
  ordered.insert(AttributeSet{1, 2});
  ordered.insert(AttributeSet{});
  EXPECT_EQ(ordered.size(), 4u);
  EXPECT_FALSE(AttributeSet{1} < AttributeSet{1});
}

TEST(AttributeSetTest, HashDistinguishesSmallSets) {
  AttributeSetHash h;
  EXPECT_NE(h(AttributeSet{1}), h(AttributeSet{2}));
  EXPECT_EQ(h(AttributeSet{1, 5}), h(AttributeSet{5, 1}));
}

TEST(AttributeSetTest, ToString) {
  EXPECT_EQ((AttributeSet{0, 3}).to_string(), "{0,3}");
  EXPECT_EQ(AttributeSet().to_string(), "{}");
}

TEST(AttributeSetTest, SingleFactory) {
  AttributeSet s = AttributeSet::single(77);
  EXPECT_EQ(s.count(), 1);
  EXPECT_TRUE(s.test(77));
}

}  // namespace
}  // namespace dhyfd
