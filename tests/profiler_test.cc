#include "core/profiler.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "datagen/benchmark_data.h"
#include "obs/obs.h"
#include "obs/obs_schema.gen.h"
#include "query/engine.h"
#include "test_util.h"
#include "util/cancellation.h"
#include "util/thread_pool.h"

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
  ProfileReport ref = Profiler().profile(t);
  for (const std::string& name : AllDiscoveryNames()) {
    ProfileOptions opt;
    opt.algorithm = name;
    ProfileReport rep = Profiler(opt).profile(t);
    EXPECT_EQ(rep.discovery.fds.size(), ref.discovery.fds.size()) << name;
  }
}

TEST(ProfilerTest, QueryRunsAsTheDiscoveryStage) {
  // With a query set, the engine is the discovery stage: the report carries
  // exactly the engine's ranked answer, at any degree, plus that answer as
  // the discovered cover, and the canonical and rank stages never run.
  DiscoveryQuery top4;
  top4.top_k = 4;
  DiscoveryQuery bounded;
  bounded.epsilon = 0.05;
  bounded.max_lhs = 2;
  ThreadPool pool(4);
  for (const char* name : {"abalone", "ncvoter"}) {
    const Relation r = EncodeRelation(GenerateBenchmark(name, 1000)).relation;
    for (const DiscoveryQuery& query : {top4, bounded}) {
      for (int degree : {1, 4}) {
        const std::string label = std::string(name) + " top_k " +
                                  std::to_string(query.top_k) + " degree " +
                                  std::to_string(degree);
        ProfileOptions opt;
        opt.query = query;
        opt.parallelism = degree;
        opt.worker_pool = degree > 1 ? &pool : nullptr;
        std::vector<ProfileStage> stages;
        opt.stage_hook = [&stages](ProfileStage stage, double) {
          stages.push_back(stage);
        };
        const ProfileReport rep = Profiler(opt).profile(r);
        const QueryResult want =
            QueryEngine({degree, opt.worker_pool}).execute(r, query);

        ASSERT_TRUE(rep.query.has_value()) << label;
        ASSERT_EQ(rep.query->fds.size(), want.fds.size()) << label;
        for (size_t i = 0; i < want.fds.size(); ++i) {
          EXPECT_EQ(rep.query->fds[i].fd, want.fds[i].fd) << label << " #" << i;
          EXPECT_EQ(rep.query->fds[i].score, want.fds[i].score) << label;
        }
        EXPECT_EQ(rep.discovery.fds.fds, want.cover().fds) << label;
        EXPECT_EQ(rep.discovery.stats.validations, want.stats.validations)
            << label;
        EXPECT_TRUE(rep.canonical.empty()) << label;
        EXPECT_TRUE(rep.ranking.empty()) << label;
        EXPECT_EQ(rep.dataset_redundancy.num_values, 0) << label;
        EXPECT_FALSE(rep.cancelled) << label;
        EXPECT_EQ(stages, std::vector<ProfileStage>{ProfileStage::kDiscover})
            << label;

        // A token fired before the run stops the engine at its first poll:
        // the answer is empty, never partial.
        CancelToken token;
        token.cancel();
        ProfileReport stopped;
        {
          CancelScope scope(&token);
          stopped = Profiler(opt).profile(r);
        }
        EXPECT_TRUE(stopped.cancelled) << label;
        ASSERT_TRUE(stopped.query.has_value()) << label;
        EXPECT_TRUE(stopped.query->fds.empty()) << label;
        EXPECT_TRUE(stopped.discovery.fds.empty()) << label;
      }
    }
  }
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
