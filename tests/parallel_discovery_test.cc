// Parallel-equals-sequential equivalence: sharded DHyFD/HyFD runs must
// return bit-identical covers (same FDs, same order) to their sequential
// counterparts at every degree, across the same randomized sweep the
// cross-algorithm property tests use — including the approximate (epsilon >
// 0), arity-bounded, and query-engine paths. The per-column encoder, the
// sharded rank pass, the sampler and the whole Profiler pipeline get the
// same treatment. This binary runs under the TSan CI leg, so the
// determinism claims are checked race-free, not just equal.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <tuple>
#include <unordered_set>
#include <utility>
#include <vector>

#include "algo/dhyfd.h"
#include "algo/hyfd.h"
#include "algo/sampler.h"
#include "core/profiler.h"
#include "datagen/benchmark_data.h"
#include "fd/cover.h"
#include "query/engine.h"
#include "ranking/redundancy.h"
#include "relation/encoder.h"
#include "test_util.h"
#include "util/thread_pool.h"

namespace dhyfd {
namespace {

using testutil::BruteForceDatasetRedundancy;
using testutil::CoverDifference;
using testutil::RandomRelation;

struct SweepCase {
  int seed;
  int rows;
  int cols;
  int domain;
  double null_rate;
};

std::vector<SweepCase> SweepCases() {
  return {
      {1, 10, 3, 2, 0.0},   {2, 30, 4, 3, 0.0},   {3, 50, 5, 2, 0.0},
      {4, 80, 4, 5, 0.0},   {5, 25, 6, 2, 0.0},   {6, 120, 3, 8, 0.0},
      {7, 40, 5, 3, 0.2},   {8, 60, 4, 4, 0.1},   {9, 35, 7, 2, 0.0},
      {10, 200, 4, 10, 0.0}, {11, 15, 5, 2, 0.5},  {12, 70, 5, 4, 0.05},
  };
}

/// Bit-identical: same FDs in the same positions, not just the same set.
void ExpectIdenticalCovers(const FdSet& sequential, const FdSet& parallel,
                           const std::string& label) {
  ASSERT_EQ(sequential.fds.size(), parallel.fds.size()) << label;
  for (std::size_t i = 0; i < sequential.fds.size(); ++i) {
    EXPECT_TRUE(sequential.fds[i] == parallel.fds[i])
        << label << " diverges at index " << i << ": sequential "
        << sequential.fds[i].to_string() << " vs parallel "
        << parallel.fds[i].to_string();
  }
}

class ParallelEquivalenceSweep
    : public ::testing::TestWithParam<std::tuple<int, SweepCase>> {};

TEST_P(ParallelEquivalenceSweep, DhyfdParallelEqualsSequential) {
  const auto& [degree, c] = GetParam();
  Relation r = RandomRelation(c.seed, c.rows, c.cols, c.domain, c.null_rate);
  DiscoveryResult sequential = Dhyfd(DhyfdOptions{}).discover(r);

  ThreadPool pool(degree);
  DhyfdOptions opt;
  opt.parallelism = degree;
  opt.worker_pool = &pool;
  DiscoveryResult parallel = Dhyfd(opt).discover(r);

  ExpectIdenticalCovers(sequential.fds, parallel.fds,
                        "dhyfd p=" + std::to_string(degree) + " seed=" +
                            std::to_string(c.seed));
  // The same candidates are validated in both runs, so the counters agree
  // too — parallelism changes who does the work, never how much.
  EXPECT_EQ(sequential.stats.validations, parallel.stats.validations);
  EXPECT_EQ(sequential.stats.invalidated, parallel.stats.invalidated);
}

TEST_P(ParallelEquivalenceSweep, HyfdParallelEqualsSequential) {
  const auto& [degree, c] = GetParam();
  Relation r = RandomRelation(c.seed, c.rows, c.cols, c.domain, c.null_rate);
  DiscoveryResult sequential = Hyfd(HyfdOptions{}).discover(r);

  ThreadPool pool(degree);
  HyfdOptions opt;
  opt.parallelism = degree;
  opt.worker_pool = &pool;
  DiscoveryResult parallel = Hyfd(opt).discover(r);

  ExpectIdenticalCovers(sequential.fds, parallel.fds,
                        "hyfd p=" + std::to_string(degree) + " seed=" +
                            std::to_string(c.seed));
  EXPECT_EQ(sequential.stats.validations, parallel.stats.validations);
}

TEST_P(ParallelEquivalenceSweep, ApproximateAndBoundedPathsMatch) {
  const auto& [degree, c] = GetParam();
  Relation r = RandomRelation(c.seed, c.rows, c.cols, c.domain, c.null_rate);
  ThreadPool pool(degree);
  // epsilon > 0 skips sampling and specializes refuted candidates directly;
  // max_lhs truncates the level loop — both reshape the candidate stream,
  // so each must stay shard-order invariant on its own.
  for (double epsilon : {0.0, 0.1}) {
    for (int max_lhs : {0, 2}) {
      DhyfdOptions seq;
      seq.epsilon = epsilon;
      seq.max_lhs = max_lhs;
      DhyfdOptions par = seq;
      par.parallelism = degree;
      par.worker_pool = &pool;
      DiscoveryResult a = Dhyfd(seq).discover(r);
      DiscoveryResult b = Dhyfd(par).discover(r);
      ExpectIdenticalCovers(
          a.fds, b.fds,
          "dhyfd eps=" + std::to_string(epsilon) + " max_lhs=" +
              std::to_string(max_lhs) + " p=" + std::to_string(degree));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Degrees, ParallelEquivalenceSweep,
    ::testing::Combine(::testing::Values(2, 4),
                       ::testing::ValuesIn(SweepCases())),
    [](const ::testing::TestParamInfo<std::tuple<int, SweepCase>>& info) {
      return "p" + std::to_string(std::get<0>(info.param)) + "_s" +
             std::to_string(std::get<1>(info.param).seed);
    });

TEST(ParallelQueryTest, RankedAnswerIdenticalAtAnyDegree) {
  Relation r = RandomRelation(42, 120, 5, 4, 0.1);
  QueryResult sequential = QueryEngine().execute(r, DiscoveryQuery{});

  ThreadPool pool(4);
  QueryEngineOptions opt;
  opt.parallelism = 4;
  opt.worker_pool = &pool;
  QueryResult parallel = QueryEngine(opt).execute(r, DiscoveryQuery{});

  ASSERT_EQ(sequential.fds.size(), parallel.fds.size());
  for (std::size_t i = 0; i < sequential.fds.size(); ++i) {
    EXPECT_TRUE(sequential.fds[i].fd == parallel.fds[i].fd) << i;
    EXPECT_EQ(sequential.fds[i].score, parallel.fds[i].score) << i;
  }
}

TEST(ParallelQueryTest, EpsilonQueryIdenticalAtAnyDegree) {
  Relation r = RandomRelation(7, 80, 5, 3, 0.0);
  DiscoveryQuery q;
  q.epsilon = 0.05;
  q.max_lhs = 3;
  QueryResult sequential = QueryEngine().execute(r, q);

  ThreadPool pool(3);
  QueryEngineOptions opt;
  opt.parallelism = 3;
  opt.worker_pool = &pool;
  QueryResult parallel = QueryEngine(opt).execute(r, q);

  ASSERT_EQ(sequential.fds.size(), parallel.fds.size());
  for (std::size_t i = 0; i < sequential.fds.size(); ++i) {
    EXPECT_TRUE(sequential.fds[i].fd == parallel.fds[i].fd) << i;
  }
}

TEST(ParallelQueryTest, TopKPathIgnoresParallelismButStillMatches) {
  // The top-k lattice walk is sequential by design; setting a degree must
  // neither change its answer nor touch the pool.
  Relation r = RandomRelation(9, 60, 5, 3, 0.0);
  DiscoveryQuery q;
  q.top_k = 3;
  QueryResult sequential = QueryEngine().execute(r, q);

  ThreadPool pool(4);
  QueryEngineOptions opt;
  opt.parallelism = 4;
  opt.worker_pool = &pool;
  QueryResult parallel = QueryEngine(opt).execute(r, q);

  ASSERT_EQ(sequential.fds.size(), parallel.fds.size());
  for (std::size_t i = 0; i < sequential.fds.size(); ++i) {
    EXPECT_TRUE(sequential.fds[i].fd == parallel.fds[i].fd) << i;
  }
  EXPECT_EQ(pool.tasks_executed(), 0);
}

// ------------------------------------------------ per-column encoding

/// Codes, null flags, domain sizes and dictionaries, column by column.
void ExpectIdenticalEncodings(const EncodedRelation& a, const EncodedRelation& b,
                              const std::string& label) {
  const Relation& x = a.relation;
  const Relation& y = b.relation;
  ASSERT_EQ(x.num_rows(), y.num_rows()) << label;
  ASSERT_EQ(x.num_cols(), y.num_cols()) << label;
  EXPECT_EQ(a.dictionaries, b.dictionaries) << label;
  for (AttrId c = 0; c < x.num_cols(); ++c) {
    EXPECT_EQ(x.column(c), y.column(c)) << label << " column " << c;
    EXPECT_EQ(x.domain_size(c), y.domain_size(c)) << label << " column " << c;
    EXPECT_EQ(x.column_has_nulls(c), y.column_has_nulls(c)) << label << " column " << c;
    for (RowId t = 0; t < x.num_rows(); ++t) {
      ASSERT_EQ(x.is_null(t, c), y.is_null(t, c)) << label << " cell " << t << "," << c;
    }
  }
}

std::vector<std::pair<std::string, RawTable>> EncoderTables() {
  std::vector<std::pair<std::string, RawTable>> tables;
  tables.emplace_back("ncvoter", GenerateBenchmark("ncvoter", 3000));
  tables.emplace_back("adult", GenerateBenchmark("adult", 2000));
  tables.emplace_back("one_column", RawTable{{"a"}, {{"x"}, {""}, {"x"}, {"y"}, {"?"}}});
  tables.emplace_back("zero_rows", RawTable{{"a", "b", "c"}, {}});
  // Three columns, so degree 7 runs more shards than there are columns.
  tables.emplace_back("all_null_column",
                      RawTable{{"a", "b", "c"},
                               {{"1", "", "p"}, {"2", "NULL", "q"}, {"1", "?", "p"},
                                {"3", "", "q"}}});
  return tables;
}

TEST(ParallelEncodeTest, EncodingIdenticalAtAnyDegree) {
  for (const auto& [name, table] : EncoderTables()) {
    for (NullSemantics sem :
         {NullSemantics::kNullEqualsNull, NullSemantics::kNullNotEqualsNull}) {
      EncodedRelation sequential = EncodeRelation(table, sem);
      for (int degree : {1, 2, 4, 7}) {
        ThreadPool pool(degree);
        EncodedRelation parallel = EncodeRelation(table, sem, {}, &pool, degree);
        ExpectIdenticalEncodings(sequential, parallel,
                                 name + " sem=" + std::to_string(static_cast<int>(sem)) +
                                     " p=" + std::to_string(degree));
      }
    }
  }
}

TEST(ParallelEncodeTest, AllNullColumnKeepsItsNullFlags) {
  RawTable table = EncoderTables().back().second;
  ThreadPool pool(4);
  EncodedRelation e = EncodeRelation(table, NullSemantics::kNullNotEqualsNull, {}, &pool, 4);
  EXPECT_TRUE(e.relation.column_has_nulls(1));
  EXPECT_EQ(e.relation.domain_size(1), table.num_rows());
  EXPECT_FALSE(e.relation.column_has_nulls(0));
}

// ------------------------------------------------------ sharded rank pass

void ExpectIdenticalRedundancy(const CoverRedundancy& a, const CoverRedundancy& b,
                               const std::string& label) {
  ASSERT_EQ(a.per_fd.size(), b.per_fd.size()) << label;
  for (std::size_t i = 0; i < a.per_fd.size(); ++i) {
    EXPECT_EQ(a.per_fd[i].fd, b.per_fd[i].fd) << label << " #" << i;
    EXPECT_EQ(a.per_fd[i].with_nulls, b.per_fd[i].with_nulls) << label << " #" << i;
    EXPECT_EQ(a.per_fd[i].excluding_null_rhs, b.per_fd[i].excluding_null_rhs)
        << label << " #" << i;
    EXPECT_EQ(a.per_fd[i].excluding_null_lhs_rhs, b.per_fd[i].excluding_null_lhs_rhs)
        << label << " #" << i;
  }
  EXPECT_EQ(a.dataset.num_values, b.dataset.num_values) << label;
  EXPECT_EQ(a.dataset.red, b.dataset.red) << label;
  EXPECT_EQ(a.dataset.red_plus0, b.dataset.red_plus0) << label;
}

TEST(ParallelRankTest, RedundancyIdenticalAtAnyDegree) {
  // Small covers too: an empty one, one smaller than every degree above 1,
  // and one holding an empty-LHS FD.
  FdSet tiny;
  tiny.add(Fd(AttributeSet{}, 2));
  tiny.add(Fd(AttributeSet{0, 1}, 3));
  for (int seed = 1; seed <= 4; ++seed) {
    Relation r = RandomRelation(seed * 7, 80, 5, 3, seed % 2 == 0 ? 0.1 : 0.0);
    FdSet canonical = CanonicalCover(Dhyfd(DhyfdOptions{}).discover(r).fds, r.num_cols());
    for (const FdSet& cover : {FdSet(), tiny, canonical}) {
      CoverRedundancy sequential = ComputeCoverRedundancy(r, cover);
      DatasetRedundancy oracle = BruteForceDatasetRedundancy(r, cover);
      EXPECT_EQ(sequential.dataset.red, oracle.red) << "seed " << seed;
      EXPECT_EQ(sequential.dataset.red_plus0, oracle.red_plus0) << "seed " << seed;
      for (int degree : {1, 2, 4, 7}) {
        ThreadPool pool(degree);
        CoverRedundancy parallel = ComputeCoverRedundancy(r, cover, &pool, degree);
        ExpectIdenticalRedundancy(sequential, parallel,
                                  "seed=" + std::to_string(seed) + " |cover|=" +
                                      std::to_string(cover.size()) + " p=" +
                                      std::to_string(degree));
      }
    }
  }
}

TEST(ParallelRankTest, AnalogCoverIdenticalAtAnyDegree) {
  // Hundreds of FDs whose RHSs overlap, so shards race to mark the same
  // cells; the brute-force oracle is too slow here, the sequential pass is
  // the reference.
  Relation r = EncodeRelation(GenerateBenchmark("ncvoter", 2000),
                              NullSemantics::kNullNotEqualsNull).relation;
  FdSet cover = CanonicalCover(Dhyfd(DhyfdOptions{}).discover(r).fds, r.num_cols());
  ASSERT_GT(cover.size(), 100);
  CoverRedundancy sequential = ComputeCoverRedundancy(r, cover);
  for (int degree : {2, 4, 7}) {
    ThreadPool pool(degree);
    CoverRedundancy parallel = ComputeCoverRedundancy(r, cover, &pool, degree);
    ExpectIdenticalRedundancy(sequential, parallel, "ncvoter p=" + std::to_string(degree));
    // Each later shard refines its first LHS from scratch.
    EXPECT_GE(parallel.refinements, sequential.refinements);
  }
}

// ---------------------------------------------------------------- sampler

/// The sampler as it read the relation column by column: the neighborhood
/// sort compares Relation::value in rotated attribute order and each pair's
/// agree set comes from Relation::agree_set, deduplicated in one pass.
std::pair<std::vector<AttributeSet>, int64_t> ColumnMajorInitial(const Relation& r,
                                                                 int max_window) {
  const int m = r.num_cols();
  std::vector<StrippedPartition> sorted;
  for (AttrId a = 0; a < m; ++a) {
    sorted.push_back(BuildAttributePartition(r, a));
    for (std::size_t ci = 0; ci < static_cast<std::size_t>(sorted[a].size()); ++ci) {
      std::span<RowId> cluster = sorted[a].mutable_cluster(ci);
      std::sort(cluster.begin(), cluster.end(), [&](RowId x, RowId y) {
        for (int off = 1; off < m; ++off) {
          AttrId c = (a + off) % m;
          if (r.value(x, c) != r.value(y, c)) return r.value(x, c) < r.value(y, c);
        }
        return x < y;
      });
    }
  }
  std::unordered_set<AttributeSet, AttributeSetHash> seen;
  std::vector<AttributeSet> fresh;
  int64_t pairs = 0;
  for (int w = 1; w <= max_window; ++w) {
    for (AttrId a = 0; a < m; ++a) {
      for (ClusterView cluster : sorted[a].clusters()) {
        for (std::size_t i = 0; i + w < cluster.size(); ++i) {
          ++pairs;
          AttributeSet ag = r.agree_set(cluster[i], cluster[i + w]);
          if (ag.count() != m && seen.insert(ag).second) fresh.push_back(ag);
        }
      }
    }
  }
  return {fresh, pairs};
}

TEST(ParallelSamplerTest, InitialSamplingIdenticalAtAnyDegree) {
  for (const auto& [name, rows] :
       std::vector<std::pair<std::string, int>>{{"ncvoter", 4000}, {"diabetic", 1500}}) {
    Relation r = EncodeRelation(GenerateBenchmark(name, rows)).relation;
    auto [want, want_pairs] = ColumnMajorInitial(r, 3);
    ASSERT_FALSE(want.empty()) << name;
    for (int degree : {1, 4}) {
      ThreadPool pool(degree);
      NeighborhoodSampler sampler(r, &pool, degree);
      EXPECT_EQ(sampler.initial(3), want) << name << " p=" << degree;
      EXPECT_EQ(sampler.pairs_compared(), want_pairs) << name << " p=" << degree;
    }
  }
}

// ----------------------------------------------------- whole pipeline

TEST(ParallelProfileTest, ReportIdenticalAtAnyDegree) {
  for (const auto& [name, sem] : std::vector<std::pair<std::string, NullSemantics>>{
           {"ncvoter", NullSemantics::kNullEqualsNull},
           {"adult", NullSemantics::kNullNotEqualsNull}}) {
    RawTable table = GenerateBenchmark(name, 20000);
    ProfileOptions options;
    options.semantics = sem;
    ProfileReport sequential = Profiler(options).profile(table);
    ThreadPool pool(4);
    options.parallelism = 4;
    options.worker_pool = &pool;
    ProfileReport parallel = Profiler(options).profile(table);

    ExpectIdenticalCovers(sequential.discovery.fds, parallel.discovery.fds, name);
    ExpectIdenticalCovers(sequential.canonical, parallel.canonical, name + " canonical");
    CoverRedundancy a{sequential.ranking, sequential.dataset_redundancy, 0};
    CoverRedundancy b{parallel.ranking, parallel.dataset_redundancy, 0};
    ExpectIdenticalRedundancy(a, b, name + " ranking");
    EXPECT_EQ(sequential.null_stats.null_occurrences, parallel.null_stats.null_occurrences);
    EXPECT_EQ(sequential.discovery.stats.pairs_compared,
              parallel.discovery.stats.pairs_compared) << name;
    EXPECT_EQ(sequential.discovery.stats.validations, parallel.discovery.stats.validations)
        << name;
  }
}

}  // namespace
}  // namespace dhyfd
