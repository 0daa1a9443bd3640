#include "core/profiler.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "datagen/benchmark_data.h"
#include "obs/obs.h"
#include "obs/obs_schema.gen.h"
#include "test_util.h"
#include "util/cancellation.h"

namespace dhyfd {
namespace {

RawTable SmallTable() {
  RawTable t;
  t.header = {"state", "zip", "city", "id"};
  for (int i = 0; i < 30; ++i) {
    t.rows.push_back({"nc", "z" + std::to_string(i % 4),
                      "c" + std::to_string(i % 4), std::to_string(i)});
  }
  return t;
}

TEST(ProfilerTest, FullPipeline) {
  ProfileReport report = Profiler().profile(SmallTable());
  EXPECT_EQ(report.schema.size(), 4);
  EXPECT_GT(report.discovery.fds.size(), 0);
  EXPECT_GT(report.canonical.size(), 0);
  EXPECT_LE(report.canonical.size(), report.discovery.fds.size());
  EXPECT_EQ(report.ranking.size(), static_cast<size_t>(report.canonical.size()));
  EXPECT_GT(report.dataset_redundancy.red_plus0, 0);
}

TEST(ProfilerTest, FindsPlantedStructure) {
  ProfileReport report = Profiler().profile(SmallTable());
  AttrId state = report.schema.index_of("state");
  bool constant_state = false, zip_city = false;
  for (const Fd& fd : report.discovery.fds.fds) {
    if (fd.lhs.empty() && fd.rhs.test(state)) constant_state = true;
    if (fd.lhs == AttributeSet::single(report.schema.index_of("zip")) &&
        fd.rhs.test(report.schema.index_of("city"))) {
      zip_city = true;
    }
  }
  EXPECT_TRUE(constant_state);
  EXPECT_TRUE(zip_city);
}

TEST(ProfilerTest, AlgorithmsInterchangeable) {
  RawTable t = SmallTable();
  ProfileOptions base;
  base.canonicalize_and_rank = false;
  ProfileReport ref = Profiler(base).profile(t);
  for (const std::string& name : AllDiscoveryNames()) {
    ProfileOptions opt = base;
    opt.algorithm = name;
    ProfileReport rep = Profiler(opt).profile(t);
    EXPECT_EQ(rep.discovery.fds.size(), ref.discovery.fds.size()) << name;
  }
}

TEST(ProfilerTest, DisablingStagesSkipsWork) {
  ProfileOptions opt;
  opt.canonicalize_and_rank = false;
  ProfileReport rep = Profiler(opt).profile(SmallTable());
  EXPECT_TRUE(rep.canonical.empty());
  EXPECT_TRUE(rep.ranking.empty());
}

TEST(ProfilerTest, StagesMatchDirectLayerCalls) {
  // Each stage runs once on the previous stage's output, so the report must
  // equal the layers' own entry points applied in sequence.
  for (const char* name : {"bridges", "abalone"}) {
    RawTable t = GenerateBenchmark(name, 200);
    ProfileReport rep = Profiler().profile(t);
    Relation r = EncodeRelation(t).relation;
    FdSet canonical = CanonicalCover(rep.discovery.fds, r.num_cols());
    EXPECT_EQ(rep.canonical.fds, canonical.fds) << name;
    std::vector<FdRedundancy> ranked = RankFds(r, canonical);
    ASSERT_EQ(rep.ranking.size(), ranked.size()) << name;
    for (size_t i = 0; i < ranked.size(); ++i) {
      EXPECT_EQ(rep.ranking[i].fd, ranked[i].fd) << name << " #" << i;
      EXPECT_EQ(rep.ranking[i].with_nulls, ranked[i].with_nulls) << name;
      EXPECT_EQ(rep.ranking[i].excluding_null_rhs, ranked[i].excluding_null_rhs)
          << name;
      EXPECT_EQ(rep.ranking[i].excluding_null_lhs_rhs,
                ranked[i].excluding_null_lhs_rhs)
          << name;
    }
  }
}

TEST(ProfilerTest, NullSemanticsOption) {
  RawTable t;
  t.header = {"a", "b"};
  t.rows = {{"", "x"}, {"", "x"}, {"1", "y"}};
  ProfileOptions eq;
  ProfileOptions neq;
  neq.semantics = NullSemantics::kNullNotEqualsNull;
  ProfileReport rep_eq = Profiler(eq).profile(t);
  ProfileReport rep_neq = Profiler(neq).profile(t);
  // Under null != null, column a becomes unique, so a -> b holds there and
  // its LHS can shrink the cover differently; both must stay self-valid.
  EXPECT_GT(rep_eq.discovery.fds.size(), 0);
  EXPECT_GT(rep_neq.discovery.fds.size(), 0);
}

TEST(ProfilerTest, SummaryMentionsKeyFigures) {
  ProfileReport rep = Profiler().profile(SmallTable());
  std::string s = rep.summary();
  EXPECT_NE(s.find("left-reduced cover"), std::string::npos);
  EXPECT_NE(s.find("canonical cover"), std::string::npos);
  EXPECT_NE(s.find("redundancy"), std::string::npos);
}

TEST(ProfilerTest, WorksOnGeneratedBenchmark) {
  RawTable t = GenerateBenchmark("bridges", 108);
  ProfileReport rep = Profiler().profile(t);
  EXPECT_GT(rep.discovery.fds.size(), 0);
  EXPECT_LE(rep.canonical.size(), rep.discovery.fds.size());
}

/// Keeps every delta per counter name, so a test can see how often a
/// counter was emitted as well as its total.
class RecordingSink : public ObsSink {
 public:
  void add(const char* name, std::int64_t delta) override {
    deltas[name].push_back(delta);
  }
  std::map<std::string, std::vector<std::int64_t>> deltas;
};

TEST(ProfilerTest, StageCountersShowPrefixReuse) {
  RecordingSink sink;
  ProfileReport rep;
  {
    ObsScope scope(&sink);
    rep = Profiler().profile(GenerateBenchmark("diabetic", 1000));
  }
  // Each stage emits its counter once, not per loop iteration.
  ASSERT_EQ(sink.deltas[kObsProfileCanonicalImplications].size(), 1u);
  ASSERT_EQ(sink.deltas[kObsProfileRankRefinements].size(), 1u);
  // One implication check per singleton-RHS FD of the discovered cover.
  EXPECT_EQ(sink.deltas[kObsProfileCanonicalImplications][0],
            rep.discovery.fds.with_singleton_rhs().size());
  // Building every LHS partition from scratch costs one refinement per LHS
  // attribute; refining from shared prefixes must cost fewer.
  int64_t lhs_attributes = 0;
  for (const Fd& fd : rep.canonical.fds) lhs_attributes += fd.lhs.count();
  int64_t refinements = sink.deltas[kObsProfileRankRefinements][0];
  EXPECT_GT(refinements, 0);
  EXPECT_LT(refinements, lhs_attributes);
}

TEST(ProfilerTest, CancelledStageLeavesNoPartialResult) {
  // The hook fires right after the named stage; a token cancelled there, or
  // whose expiry passes there, is seen by the profiler's next poll, so the
  // report must come back with no cover, ranking or dataset counts at all.
  for (bool expire : {false, true}) {
    for (ProfileStage stage : {ProfileStage::kDiscover, ProfileStage::kCanonical,
                               ProfileStage::kRank}) {
      const std::string label =
          std::string(ProfileStageName(stage)) + (expire ? " expiry" : " cancel");
      CancelToken token;
      ProfileOptions opt;
      opt.stage_hook = [&](ProfileStage done, double) {
        if (done != stage) return;
        if (expire) {
          token.expire_after(1e-9);
        } else {
          token.cancel();
        }
      };
      ProfileReport rep;
      {
        CancelScope scope(&token);
        rep = Profiler(opt).profile(GenerateBenchmark("bridges", 108));
      }
      EXPECT_EQ(token.reason(), expire ? CancelToken::Reason::kExpired
                                       : CancelToken::Reason::kCancelled)
          << label;
      EXPECT_TRUE(rep.cancelled) << label;
      EXPECT_FALSE(rep.discovery.stats.timed_out) << label;
      EXPECT_GT(rep.discovery.fds.size(), 0) << label;
      EXPECT_TRUE(rep.canonical.empty()) << label;
      EXPECT_TRUE(rep.ranking.empty()) << label;
      EXPECT_EQ(rep.dataset_redundancy.num_values, 0) << label;
      EXPECT_EQ(rep.dataset_redundancy.red_plus0, 0) << label;
    }
  }
}

}  // namespace
}  // namespace dhyfd
