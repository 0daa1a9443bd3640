#include "layers.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <string>

#include "algo/discovery.h"
#include "fd/cover.h"
#include "obs/obs.h"
#include "obs/obs_schema.gen.h"
#include "obs/trace.h"
#include "oracle.h"
#include "ranking/ranking.h"
#include "relation/encoder.h"
#include "util/timer.h"

namespace perfbench {

using dhyfd::TraceEvent;

namespace {

/// Totals every counter the pipeline emits on the calling thread; pool
/// helpers replay their counts onto the caller (ThreadPool::run_shards).
class CountingSink : public dhyfd::ObsSink {
 public:
  void add(const char* name, std::int64_t delta) override {
    counts_[name] += delta;
  }
  double get(const char* name) const {
    auto it = counts_.find(name);
    return it == counts_.end() ? 0 : static_cast<double>(it->second);
  }

 private:
  std::map<std::string, std::int64_t> counts_;
};

bool IsShard(const char* name) {
  return std::strcmp(name, dhyfd::kObsDiscoverShard) == 0 ||
         std::strcmp(name, dhyfd::kObsPoolShard) == 0;
}

/// Self seconds per span name: a span's duration minus its directly nested
/// child spans on the same thread. Shard spans count as work of the phase
/// that fans them out, so they are not subtracted from their parent.
std::map<std::string, double> SelfSeconds(std::vector<TraceEvent> spans) {
  std::sort(spans.begin(), spans.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
              return a.dur_us > b.dur_us;
            });
  struct Open {
    const TraceEvent* span;
    std::int64_t child_us;
  };
  std::map<std::string, double> self;
  std::vector<Open> stack;
  auto close = [&self](const Open& open) {
    self[open.span->name] +=
        static_cast<double>(open.span->dur_us - open.child_us) / 1e6;
  };
  for (const TraceEvent& span : spans) {
    while (!stack.empty() &&
           (stack.back().span->tid != span.tid ||
            span.ts_us >= stack.back().span->ts_us + stack.back().span->dur_us)) {
      close(stack.back());
      stack.pop_back();
    }
    if (!stack.empty() && !IsShard(span.name)) stack.back().child_us += span.dur_us;
    stack.push_back({&span, 0});
  }
  for (const Open& open : stack) close(open);
  return self;
}

/// Median over validation levels of (slowest / median) discover.shard
/// duration; 1 when no level fanned out to two or more shards.
double ShardSkew(const std::vector<TraceEvent>& spans) {
  std::vector<double> ratios;
  for (const TraceEvent& level : spans) {
    if (std::strcmp(level.name, dhyfd::kObsDiscoverValidation) != 0) continue;
    std::vector<double> shards;
    for (const TraceEvent& s : spans) {
      if (std::strcmp(s.name, dhyfd::kObsDiscoverShard) == 0 &&
          s.ts_us >= level.ts_us && s.ts_us <= level.ts_us + level.dur_us) {
        shards.push_back(static_cast<double>(s.dur_us));
      }
    }
    double median = Quantile(shards, 0.5);
    if (shards.size() >= 2 && median > 0) {
      ratios.push_back(*std::max_element(shards.begin(), shards.end()) / median);
    }
  }
  return ratios.empty() ? 1.0 : Quantile(ratios, 0.5);
}

bool SameRanking(const std::vector<dhyfd::FdRedundancy>& a,
                 const std::vector<dhyfd::FdRedundancy>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!(a[i].fd == b[i].fd) || a[i].with_nulls != b[i].with_nulls ||
        a[i].excluding_null_rhs != b[i].excluding_null_rhs ||
        a[i].excluding_null_lhs_rhs != b[i].excluding_null_lhs_rhs) {
      return false;
    }
  }
  return true;
}

}  // namespace

ProbeOutcome ProbePipelineLayers(const dhyfd::RawTable& table,
                                 const dhyfd::ProfileOptions& options,
                                 double seconds, int min_calls,
                                 RunResult* out) {
  dhyfd::ProfileOptions probe_options = options;
  double stage[4] = {0, 0, 0, 0};
  probe_options.stage_hook = [&stage](dhyfd::ProfileStage s, double elapsed) {
    stage[static_cast<int>(s)] = elapsed;
  };
  dhyfd::Profiler profiler(probe_options);
  ProbeOutcome outcome;
  std::vector<std::uint64_t>& digests = outcome.digests;
  dhyfd::ProfileReport& last = outcome.report;

  // 1-2. Untraced and traced calls alternate, so that a drift in machine
  // speed reaches both halves of the trace-overhead ratio alike. Untraced
  // calls give the stage times; traced ones the spans and counters.
  std::vector<double> untraced, traced, stages[4];
  CountingSink sink;
  dhyfd::Tracer& tracer = dhyfd::Tracer::Global();
  const double start = NowSeconds();
  while (static_cast<int>(traced.size()) < min_calls ||
         NowSeconds() - start < seconds) {
    dhyfd::Timer timer;
    last = profiler.profile(table);
    untraced.push_back(timer.seconds());
    for (int s = 0; s < 4; ++s) stages[s].push_back(stage[s]);
    digests.push_back(ProfileDigest(last));

    tracer.start();
    {
      dhyfd::ObsScope scope(&sink);
      timer.reset();
      dhyfd::ProfileReport report = profiler.profile(table);
      traced.push_back(timer.seconds());
      digests.push_back(ProfileDigest(report));
    }
    tracer.stop();
  }
  std::vector<TraceEvent> spans;
  for (const TraceEvent& e : tracer.drain()) {
    if (e.phase == 'X' && e.name != nullptr) spans.push_back(e);
  }
  std::map<std::string, double> self = SelfSeconds(spans);
  const double calls = static_cast<double>(traced.size());
  auto per_call_self = [&](const char* name) {
    auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second / calls;
  };

  // 3. Direct calls into each layer's public entry point, median of three.
  auto median_seconds = [](auto&& call) {
    std::vector<double> samples;
    for (int i = 0; i < 3; ++i) {
      dhyfd::Timer timer;
      call();
      samples.push_back(timer.seconds());
    }
    return Quantile(samples, 0.5);
  };
  dhyfd::EncodedRelation encoded;
  const double encode_s = median_seconds(
      [&] { encoded = dhyfd::EncodeRelation(table, options.semantics); });
  const dhyfd::Relation& relation = encoded.relation;
  dhyfd::DiscoveryResult discovery;
  const double discover_s = median_seconds([&] {
    discovery = dhyfd::MakeDiscovery(options.algorithm, 0, options.parallelism,
                                     options.worker_pool)
                    ->discover(relation);
  });
  dhyfd::FdSet canonical;
  const double canonical_s = median_seconds([&] {
    canonical = dhyfd::CanonicalCover(discovery.fds, relation.num_cols());
  });
  std::vector<dhyfd::FdRedundancy> ranking;
  const double rank_s = median_seconds([&] {
    ranking = dhyfd::RankFds(relation, canonical, options.ranking_mode);
  });

  if (discovery.fds.fds != last.discovery.fds.fds ||
      canonical.fds != last.canonical.fds || !SameRanking(ranking, last.ranking)) {
    out->fail("direct layer calls disagree with Profiler::profile");
  }
  for (std::uint64_t d : digests) {
    if (d != digests.front()) {
      out->fail("profile digest differs between calls (untraced vs traced)");
      break;
    }
  }

  const char* names[4] = {"core.encode_stage_s", "core.discover_stage_s",
                          "core.canonical_stage_s", "core.rank_stage_s"};
  for (int s = 0; s < 4; ++s) out->set(names[s], Quantile(stages[s], 0.5), "s");
  out->set("relation.encode_s", encode_s, "s");

  const dhyfd::DiscoveryStats& stats = discovery.stats;
  out->set("algo.discover_s", discover_s, "s");
  out->set("algo.sampling_s", per_call_self(dhyfd::kObsDiscoverSampling), "s");
  out->set("algo.validation_s", per_call_self(dhyfd::kObsDiscoverValidation), "s");
  out->set("algo.ddm_update_s", per_call_self(dhyfd::kObsDiscoverDdmUpdate), "s");
  out->set("algo.validations", static_cast<double>(stats.validations), "count");
  out->set("algo.valid_share",
           stats.validations > 0
               ? 1.0 - static_cast<double>(stats.invalidated) /
                           static_cast<double>(stats.validations)
               : 0.0,
           "share");
  out->set("algo.pairs_compared", static_cast<double>(stats.pairs_compared), "count");
  out->set("algo.refinements", static_cast<double>(stats.refinements), "count");
  out->set("algo.shard_skew", ShardSkew(spans), "ratio");

  out->set("fdtree.induction_s", per_call_self(dhyfd::kObsDiscoverInduction), "s");
  out->set("fdtree.inductions", sink.get(dhyfd::kObsDiscoverInductions) / calls,
           "count");

  const double hits = sink.get(dhyfd::kObsPartitionCacheHits);
  const double lookups = hits + sink.get(dhyfd::kObsPartitionCacheMisses);
  out->set("partition.cache_hit_share", lookups > 0 ? hits / lookups : 0.0, "share");
  out->set("partition.cache_evictions",
           sink.get(dhyfd::kObsPartitionCacheEvictions) / calls, "count");
  out->set("partition.intersections",
           sink.get(dhyfd::kObsPartitionIntersections) / calls, "count");
  out->set("partition.single_cluster_refinements",
           sink.get(dhyfd::kObsPartitionSingleClusterRefinements) / calls, "count");

  out->set("fd.canonical_s", canonical_s, "s");
  out->set("fd.lr_fds", static_cast<double>(discovery.fds.size()), "count");
  out->set("fd.canonical_fds", static_cast<double>(canonical.size()), "count");
  out->set("ranking.rank_s", rank_s, "s");
  out->set("ranking.fds_ranked", static_cast<double>(ranking.size()), "count");

  out->set("obs.trace_overhead",
           Quantile(traced, 0.5) / Quantile(untraced, 0.5) - 1.0, "ratio");
  out->samples["core.stage"] = static_cast<std::int64_t>(untraced.size());
  out->samples["obs.traced_calls"] = static_cast<std::int64_t>(traced.size());
  return outcome;
}

void SetServeLayersUnused(RunResult* out) {
  for (const char* name : {"incr.apply_p50_ms", "incr.apply_p90_ms",
                           "service.job_queue_ms", "service.job_run_ms",
                           "service.update_run_ms", "net.read_server_ms",
                           "net.read_gap_ms", "net.queue_ms",
                           "client.read_p50_ms", "client.read_p90_ms",
                           "client.read_p99_ms", "client.write_p50_ms",
                           "client.write_p90_ms", "client.job_p50_ms",
                           "client.job_p90_ms"}) {
    out->set(name, 0, "ms");
  }
  for (const char* name : {"incr.validations", "incr.pairs_compared",
                           "incr.fds_reranked"}) {
    out->set(name, 0, "count");
  }
  out->set("incr.rebuild_share", 0, "share");
  out->set("client.read_rps", 0, "1/s");
  out->set("net.bytes_per_read", 0, "bytes");
}

}  // namespace perfbench
