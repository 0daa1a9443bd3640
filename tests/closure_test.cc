#include "fd/closure.h"

#include <gtest/gtest.h>

#include <vector>

#include "test_util.h"
#include "util/random.h"

namespace dhyfd {
namespace {

FdSet TextbookFds() {
  // A -> B, B -> C, CD -> E.
  FdSet fds;
  fds.add(Fd(AttributeSet{0}, 1));
  fds.add(Fd(AttributeSet{1}, 2));
  fds.add(Fd(AttributeSet{2, 3}, 4));
  return fds;
}

TEST(ClosureTest, TransitiveChain) {
  ClosureEngine e(TextbookFds(), 5);
  EXPECT_EQ(e.closure(AttributeSet{0}), (AttributeSet{0, 1, 2}));
  EXPECT_EQ(e.closure(AttributeSet{0, 3}), (AttributeSet{0, 1, 2, 3, 4}));
  EXPECT_EQ(e.closure(AttributeSet{3}), AttributeSet{3});
}

TEST(ClosureTest, EmptyLhsFdsFireUnconditionally) {
  FdSet fds;
  fds.add(Fd(AttributeSet{}, 0));    // constant column
  fds.add(Fd(AttributeSet{0}, 1));
  ClosureEngine e(fds, 3);
  EXPECT_EQ(e.closure(AttributeSet{}), (AttributeSet{0, 1}));
  EXPECT_EQ(e.closure(AttributeSet{2}), (AttributeSet{0, 1, 2}));
}

TEST(ClosureTest, Implies) {
  ClosureEngine e(TextbookFds(), 5);
  EXPECT_TRUE(e.implies(AttributeSet{0}, AttributeSet{2}));
  EXPECT_TRUE(e.implies(AttributeSet{0, 3}, AttributeSet{4}));
  EXPECT_FALSE(e.implies(AttributeSet{1}, AttributeSet{0}));
  // Reflexivity.
  EXPECT_TRUE(e.implies(AttributeSet{3}, AttributeSet{3}));
}

TEST(ClosureTest, SkipFdDisablesIt) {
  ClosureEngine e(TextbookFds(), 5);
  // Disabling B -> C (index 1) breaks the chain from A.
  e.disable(1);
  EXPECT_FALSE(e.enabled(1));
  EXPECT_EQ(e.closure(AttributeSet{0}), (AttributeSet{0, 1}));
}

TEST(ClosureTest, AliveMaskFiltersFds) {
  ClosureEngine e(TextbookFds(), 5);
  e.disable(1);
  EXPECT_EQ(e.closure(AttributeSet{0}), (AttributeSet{0, 1}));
  e.enable(1);
  EXPECT_TRUE(e.enabled(1));
  EXPECT_EQ(e.closure(AttributeSet{0}), (AttributeSet{0, 1, 2}));
}

TEST(ClosureTest, MultiAttributeRhs) {
  FdSet fds;
  fds.add(Fd(AttributeSet{0}, AttributeSet{1, 2, 3}));
  ClosureEngine e(fds, 4);
  EXPECT_EQ(e.closure(AttributeSet{0}), AttributeSet::full(4));
}

TEST(ClosureTest, OneShotHelpers) {
  FdSet fds = TextbookFds();
  EXPECT_EQ(Closure(fds, AttributeSet{0}, 5), (AttributeSet{0, 1, 2}));
  EXPECT_TRUE(Implies(fds, Fd(AttributeSet{0}, 2), 5));
  EXPECT_FALSE(Implies(fds, Fd(AttributeSet{4}, 0), 5));
}

TEST(ClosureTest, CoversEquivalent) {
  FdSet a = TextbookFds();
  // Equivalent cover: adds the implied A -> C explicitly.
  FdSet b = TextbookFds();
  b.add(Fd(AttributeSet{0}, 2));
  EXPECT_TRUE(CoversEquivalent(a, b, 5));
  // Dropping B -> C changes the implied set.
  FdSet c;
  c.add(Fd(AttributeSet{0}, 1));
  c.add(Fd(AttributeSet{2, 3}, 4));
  EXPECT_FALSE(CoversEquivalent(a, c, 5));
}

TEST(ClosureTest, RepeatedCallsShareEngineState) {
  ClosureEngine e(TextbookFds(), 5);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(e.closure(AttributeSet{0}), (AttributeSet{0, 1, 2}));
    EXPECT_EQ(e.closure(AttributeSet{3}), AttributeSet{3});
  }
}

TEST(ClosureTest, EmptyFdSet) {
  FdSet fds;
  ClosureEngine e(fds, 4);
  EXPECT_EQ(e.closure(AttributeSet{1, 2}), (AttributeSet{1, 2}));
}

// Property sweep against a naive fixpoint that shares no code with the
// engine: FD counts straddle the 64-FD word boundaries, schemas straddle the
// 64-attribute word boundaries, and random disable masks exercise the
// enabled-mask tail bits.

/// A random attribute, biased towards the first few so FDs chain.
AttrId RandomAttr(Random& rng, int num_attrs) {
  int hot = num_attrs < 8 ? num_attrs : 8;
  return static_cast<AttrId>(rng.next_bool(0.7) ? rng.next_below(hot)
                                                : rng.next_below(num_attrs));
}

AttributeSet RandomSet(Random& rng, int num_attrs, int max_size) {
  AttributeSet s;
  int size = static_cast<int>(rng.next_below(max_size + 1));
  for (int k = 0; k < size; ++k) s.set(RandomAttr(rng, num_attrs));
  return s;
}

/// Random FDs with empty LHSs (about 1 in 10) and multi-attribute RHSs.
FdSet RandomFds(Random& rng, int num_fds, int num_attrs) {
  FdSet fds;
  for (int i = 0; i < num_fds; ++i) {
    AttributeSet lhs = rng.next_bool(0.1) ? AttributeSet() : RandomSet(rng, num_attrs, 3);
    AttributeSet rhs = RandomSet(rng, num_attrs, 2);
    rhs.set(static_cast<AttrId>(rng.next_below(num_attrs)));
    fds.add(Fd(lhs, rhs));
  }
  return fds;
}

struct SweepCase {
  int num_fds;
  int num_attrs;
};

class ClosureSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(ClosureSweep, MatchesNaiveFixpoint) {
  const auto [num_fds, num_attrs] = GetParam();
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Random rng(seed * 7919 + num_fds * 31 + num_attrs);
    FdSet fds = RandomFds(rng, num_fds, num_attrs);
    ClosureEngine engine(fds, num_attrs);
    ASSERT_EQ(engine.num_fds(), num_fds);
    std::vector<bool> on(num_fds, true);
    for (int round = 0; round < 4; ++round) {
      if (round > 0) {
        // A fresh random mask each round, applied through enable/disable.
        for (int i = 0; i < num_fds; ++i) {
          on[i] = rng.next_bool(0.7);
          if (on[i]) {
            engine.enable(i);
          } else {
            engine.disable(i);
          }
        }
      }
      for (int q = 0; q < 16; ++q) {
        AttributeSet x = RandomSet(rng, num_attrs, 3);
        AttributeSet expected = testutil::NaiveClosure(fds, on, x);
        EXPECT_EQ(engine.closure(x), expected)
            << "seed=" << seed << " round=" << round << " x=" << x.to_string();
        AttributeSet rhs = RandomSet(rng, num_attrs, 2);
        EXPECT_EQ(engine.implies(x, rhs), rhs.is_subset_of(expected))
            << "seed=" << seed << " round=" << round << " x=" << x.to_string()
            << " rhs=" << rhs.to_string();
      }
    }
  }
}

std::vector<SweepCase> SweepCases() {
  std::vector<SweepCase> cases;
  for (int num_fds : {0, 1, 63, 64, 65, 129}) {
    for (int num_attrs : {3, 64, 65, 256}) cases.push_back({num_fds, num_attrs});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(WordBoundaries, ClosureSweep, ::testing::ValuesIn(SweepCases()),
                         [](const ::testing::TestParamInfo<SweepCase>& info) {
                           return std::to_string(info.param.num_fds) + "fds_" +
                                  std::to_string(info.param.num_attrs) + "attrs";
                         });

}  // namespace
}  // namespace dhyfd
