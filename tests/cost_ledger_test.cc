// CostLedgerScope: the thread-local delta scope that classifies algorithm
// counters into a per-request CostLedger while forwarding every add() to the
// previously installed sink. The forwarding contract is what keeps the
// MetricsRegistry/trace fan-out unchanged when the server wraps a request.
#include "obs/cost_ledger.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/profiler.h"
#include "datagen/benchmark_data.h"
#include "obs/obs.h"
#include "obs/obs_schema.gen.h"
#include "util/thread_pool.h"

namespace dhyfd {
namespace {

/// Records every add() it sees, for asserting the forwarding contract.
class RecordingSink : public ObsSink {
 public:
  void add(const char* name, std::int64_t delta) override {
    seen.emplace_back(name, delta);
  }
  /// Sum of every delta recorded under `name`, and how many adds carried it.
  std::pair<std::int64_t, int> total(const std::string& name) const {
    std::pair<std::int64_t, int> out{0, 0};
    for (const auto& [n, d] : seen) {
      if (n == name) {
        out.first += d;
        ++out.second;
      }
    }
    return out;
  }
  std::vector<std::pair<std::string, std::int64_t>> seen;
};

TEST(CostLedgerTest, AddAndZero) {
  CostLedger a;
  EXPECT_TRUE(a.zero());
  CostLedger b;
  b.validations = 3;
  b.bytes_streamed = 100;
  a.add(b);
  a.add(b);
  EXPECT_FALSE(a.zero());
  EXPECT_EQ(a.validations, 6);
  EXPECT_EQ(a.bytes_streamed, 200);
  EXPECT_EQ(a.partitions_built, 0);
}

TEST(CostLedgerScopeTest, ClassifiesKnownCountersIgnoresOthers) {
  CostLedger cost;
  {
    CostLedgerScope scope(&cost);
    ObsAdd("discover.validator.calls", 5);
    ObsAdd("query.validations", 2);
    ObsAdd("incr.validations", 1);
    ObsAdd("partition.intersections", 7);
    ObsAdd("partition.ddm_dynamic_builds", 3);
    ObsAdd("partition.cache_hits", 11);
    ObsAdd("partition.prefix_cache_hits", 4);
    ObsAdd("partition.cache_misses", 6);
    ObsAdd("discover.sampling.runs", 99);  // unlisted: forwarded, unclassified
  }
  EXPECT_EQ(cost.validations, 8);
  EXPECT_EQ(cost.partitions_built, 10);
  EXPECT_EQ(cost.cache_hits, 15);
  EXPECT_EQ(cost.cache_misses, 6);
  EXPECT_EQ(cost.bytes_streamed, 0);  // transport-owned, never from counters
}

TEST(CostLedgerScopeTest, ForwardsEveryAddToPreviousSinkUnchanged) {
  RecordingSink registry;
  ObsScope outer(&registry);
  CostLedger cost;
  {
    CostLedgerScope scope(&cost);
    ObsAdd("discover.validator.calls", 5);
    ObsAdd("some.other.counter", 9);
  }
  ASSERT_EQ(registry.seen.size(), 2u);
  EXPECT_EQ(registry.seen[0].first, "discover.validator.calls");
  EXPECT_EQ(registry.seen[0].second, 5);
  EXPECT_EQ(registry.seen[1].first, "some.other.counter");
  EXPECT_EQ(registry.seen[1].second, 9);
}

TEST(CostLedgerScopeTest, RestoresPreviousSinkOnDestruction) {
  RecordingSink registry;
  ObsScope outer(&registry);
  ASSERT_EQ(CurrentObsSink(), &registry);
  {
    CostLedger cost;
    CostLedgerScope scope(&cost);
    EXPECT_EQ(CurrentObsSink(), &scope);
  }
  EXPECT_EQ(CurrentObsSink(), &registry);
}

TEST(CostLedgerScopeTest, NestedScopesBothSeeClassifiedDeltas) {
  // The inner scope classifies first-hand; the outer sees the same deltas
  // through forwarding, so a connection-level ledger wrapping a per-request
  // one stays consistent without double bookkeeping in the callers.
  CostLedger outer_cost;
  CostLedger inner_cost;
  {
    CostLedgerScope outer(&outer_cost);
    {
      CostLedgerScope inner(&inner_cost);
      ObsAdd("partition.intersections", 4);
    }
    ObsAdd("partition.intersections", 1);  // after inner unwinds: outer only
  }
  EXPECT_EQ(inner_cost.partitions_built, 4);
  EXPECT_EQ(outer_cost.partitions_built, 5);
}

TEST(CostLedgerScopeTest, ChargesThreadCpuTime) {
  CostLedger cost;
  {
    CostLedgerScope scope(&cost);
    // Burn enough CPU that CLOCK_THREAD_CPUTIME_ID must move.
    std::uint64_t acc = 0;
    for (int i = 0; i < 2'000'000; ++i) acc += static_cast<std::uint64_t>(i);
    volatile std::uint64_t sink = acc;
    (void)sink;
  }
  EXPECT_GT(cost.cpu_ns, 0);
}

TEST(CostLedgerScopeTest, ChargeCpuFalseSkipsTheClockButStillClassifies) {
  CostLedger cost;
  {
    CostLedgerScope scope(&cost, /*charge_cpu=*/false);
    std::uint64_t acc = 0;
    for (int i = 0; i < 2'000'000; ++i) acc += static_cast<std::uint64_t>(i);
    volatile std::uint64_t sink = acc;
    (void)sink;
    ObsAdd("query.validations", 3);
  }
  EXPECT_EQ(cost.cpu_ns, 0);
  EXPECT_EQ(cost.validations, 3);
}

TEST(CostLedgerScopeTest, WorksWithNoPreviousSink) {
  ASSERT_EQ(CurrentObsSink(), nullptr);
  CostLedger cost;
  {
    CostLedgerScope scope(&cost);
    ObsAdd("incr.validations", 2);
  }
  EXPECT_EQ(cost.validations, 2);
  EXPECT_EQ(CurrentObsSink(), nullptr);
}

TEST(CostLedgerScopeTest, RankRefinementsCountAsPartitionsBuilt) {
  CostLedger cost;
  {
    CostLedgerScope scope(&cost);
    ObsAdd(kObsProfileRankRefinements, 12);
    ObsAdd(kObsPartitionIntersections, 1);
  }
  EXPECT_EQ(cost.partitions_built, 13);
}

TEST(CostLedgerScopeTest, HelperShardDeltasAreChargedOnce) {
  ThreadPool pool(4);
  CostLedger cost;
  {
    CostLedgerScope scope(&cost, /*charge_cpu=*/false);
    pool.run_shards(4, 64, [](std::size_t) { ObsAdd(kObsPartitionIntersections, 1); });
  }
  EXPECT_EQ(cost.partitions_built, 64);
}

TEST(CostLedgerScopeTest, PooledProfileChargesTheSameWorkAsSequential) {
  // Counters that do not depend on the degree must reach the ledger and the
  // forwarded sink exactly as often from a pooled profile as from a
  // sequential one: helper deltas are replayed once on the caller.
  RawTable table = GenerateBenchmark("ncvoter", 3000);
  ThreadPool pool(4);
  auto run = [&](int degree, RecordingSink* sink) {
    ProfileOptions options;
    options.parallelism = degree;
    options.worker_pool = degree > 1 ? &pool : nullptr;
    ObsScope outer(sink);
    CostLedger cost;
    {
      CostLedgerScope scope(&cost, /*charge_cpu=*/false);
      Profiler(options).profile(table);
    }
    return cost;
  };
  RecordingSink seq_sink, par_sink;
  CostLedger seq = run(1, &seq_sink);
  CostLedger par = run(4, &par_sink);
  EXPECT_GT(seq.validations, 0);
  EXPECT_EQ(par.validations, seq.validations);
  for (const char* name : {kObsDiscoverValidatorCalls, kObsDiscoverSamplerPairs}) {
    EXPECT_EQ(par_sink.total(name).first, seq_sink.total(name).first) << name;
  }
  // The rank stage reports once per profile; a later shard's first LHS is
  // refined from scratch, so the pooled pass may refine a little more.
  auto [seq_refinements, seq_adds] = seq_sink.total(kObsProfileRankRefinements);
  auto [par_refinements, par_adds] = par_sink.total(kObsProfileRankRefinements);
  EXPECT_EQ(seq_adds, 1);
  EXPECT_EQ(par_adds, 1);
  EXPECT_GT(seq_refinements, 0);
  EXPECT_GE(par_refinements, seq_refinements);
  EXPECT_GE(par.partitions_built, par_refinements);
}

}  // namespace
}  // namespace dhyfd
