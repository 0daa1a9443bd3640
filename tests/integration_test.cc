// End-to-end integration tests over the synthetic benchmark analogs:
// cross-algorithm agreement, cover invariants, and the full profiler
// pipeline on down-scaled versions of the paper's data sets.
#include <gtest/gtest.h>

#include "algo/discovery.h"
#include "core/profiler.h"
#include "datagen/benchmark_data.h"
#include "fd/cover.h"
#include "ranking/redundancy.h"
#include "relation/encoder.h"
#include "test_util.h"

namespace dhyfd {
namespace {

Relation SmallAnalog(const std::string& name, int rows) {
  return EncodeRelation(GenerateBenchmark(name, rows)).relation;
}

class AnalogAgreement : public ::testing::TestWithParam<std::string> {};

TEST_P(AnalogAgreement, AllAlgorithmsProduceTheSameCover) {
  // Narrow analogs at tiny row counts: every algorithm must agree exactly.
  Relation r = SmallAnalog(GetParam(), 120);
  DiscoveryResult reference = MakeDiscovery("fdep2")->discover(r);
  for (const std::string& algo : AllDiscoveryNames()) {
    if (algo == "fdep2") continue;
    DiscoveryResult res = MakeDiscovery(algo)->discover(r);
    EXPECT_EQ(res.fds.size(), reference.fds.size()) << algo;
    EXPECT_EQ(testutil::CoverDifference(reference.fds, res.fds, r.num_cols()), "")
        << algo;
  }
}

INSTANTIATE_TEST_SUITE_P(Analogs, AnalogAgreement,
                         ::testing::Values("iris", "balance", "chess", "abalone",
                                           "nursery", "breast", "bridges", "echo",
                                           "adult", "ncvoter", "lineitem", "pdbx",
                                           "weather"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

TEST(IntegrationTest, EveryDiscoveredFdHoldsOnNcvoterAnalog) {
  Relation r = SmallAnalog("ncvoter", 300);
  DiscoveryResult res = MakeDiscovery("dhyfd")->discover(r);
  for (const Fd& fd : res.fds.fds) {
    ASSERT_TRUE(r.satisfies(fd.lhs, fd.rhs.first())) << fd.to_string(r.schema());
  }
}

TEST(IntegrationTest, CanonicalCoverInvariantsOnAnalogs) {
  for (const char* name : {"ncvoter", "bridges", "echo", "abalone", "breast"}) {
    Relation r = SmallAnalog(name, 200);
    DiscoveryResult res = MakeDiscovery("dhyfd")->discover(r);
    FdSet can = CanonicalCover(res.fds, r.num_cols());
    EXPECT_TRUE(CoversEquivalent(res.fds, can, r.num_cols())) << name;
    EXPECT_TRUE(IsNonRedundant(can, r.num_cols())) << name;
    EXPECT_TRUE(HasUniqueLhs(can)) << name;
    EXPECT_LE(can.size(), res.fds.size()) << name;
  }
}

TEST(IntegrationTest, CanonicalCoverShrinksNcvoterLikeThePaper) {
  // Paper Table III: ncvoter's canonical cover is ~24% of the left-reduced
  // one. The analog must show a clearly sub-60% reduction too.
  Relation r = SmallAnalog("ncvoter", 1000);
  DiscoveryResult res = MakeDiscovery("dhyfd")->discover(r);
  CoverStats stats =
      ComputeCoverStats(res.fds, CanonicalCover(res.fds, r.num_cols()));
  EXPECT_GT(stats.left_reduced_count, 100);
  EXPECT_LT(stats.percent_size, 60.0);
}

TEST(IntegrationTest, ConstantStateColumnRanksTop) {
  // Paper sigma_1: {} -> state causes one redundant value per row.
  Relation r = SmallAnalog("ncvoter", 500);
  ProfileOptions opt;
  ProfileReport report = Profiler(opt).profile(r);
  AttrId state = report.schema.index_of("state");
  ASSERT_GE(state, 0);
  bool found = false;
  for (size_t i = 0; i < 3 && i < report.ranking.size(); ++i) {
    const FdRedundancy& red = report.ranking[i];
    if (red.fd.lhs.empty() && red.fd.rhs.test(state)) {
      EXPECT_EQ(red.with_nulls, 500);
      found = true;
    }
  }
  EXPECT_TRUE(found) << "{} -> state must be among the top-ranked FDs";
}

TEST(IntegrationTest, NullSemanticsChangesNcvoterCovers) {
  RawTable t = GenerateBenchmark("ncvoter", 400);
  Relation eq = EncodeRelation(t, NullSemantics::kNullEqualsNull).relation;
  Relation neq = EncodeRelation(t, NullSemantics::kNullNotEqualsNull).relation;
  DiscoveryResult res_eq = MakeDiscovery("dhyfd")->discover(eq);
  DiscoveryResult res_neq = MakeDiscovery("dhyfd")->discover(neq);
  // ncvoter has heavily-null name_suffix/name_prefix columns; the two
  // semantics cannot produce identical covers.
  EXPECT_NE(res_eq.fds.size(), res_neq.fds.size());
}

TEST(IntegrationTest, FragmentScalingIsMonotoneInWork) {
  Relation full = SmallAnalog("weather", 2000);
  DiscoveryResult small = MakeDiscovery("dhyfd")->discover(full.fragment(500, 18));
  DiscoveryResult large = MakeDiscovery("dhyfd")->discover(full);
  EXPECT_GE(large.stats.pairs_compared, small.stats.pairs_compared);
}

TEST(IntegrationTest, RedundancyPercentagesAreSane) {
  for (const char* name : {"ncvoter", "bridges", "hepatitis"}) {
    Relation r = SmallAnalog(name, 150);
    DiscoveryResult res = MakeDiscovery("dhyfd")->discover(r);
    FdSet can = CanonicalCover(res.fds, r.num_cols());
    DatasetRedundancy d = ComputeCoverRedundancy(r, can).dataset;
    EXPECT_GE(d.red_plus0, d.red) << name;
    EXPECT_LE(d.red_plus0, d.num_values) << name;
    EXPECT_GE(d.percent_red(), 0.0) << name;
    EXPECT_LE(d.percent_red_plus0(), 100.0) << name;
  }
}

TEST(IntegrationTest, TimeLimitedRunsReportPartialOutput) {
  Relation r = SmallAnalog("horse", 368);
  DiscoveryResult res = MakeDiscovery("dhyfd", 0.05)->discover(r);
  // horse takes seconds; 50 ms must time out, and whatever FDs were
  // validated are returned rather than discarded.
  EXPECT_TRUE(res.stats.timed_out);
}

}  // namespace
}  // namespace dhyfd
