#include "core/profiler.h"

#include <sstream>
#include <utility>

#include "obs/obs.h"
#include "obs/obs_schema.gen.h"
#include "obs/trace.h"
#include "query/engine.h"
#include "util/cancellation.h"
#include "util/timer.h"

namespace dhyfd {

const char* ProfileStageName(ProfileStage stage) {
  switch (stage) {
    case ProfileStage::kEncode: return "encode";
    case ProfileStage::kDiscover: return "discover";
    case ProfileStage::kCanonical: return "canonical";
    case ProfileStage::kRank: return "rank";
  }
  return "?";
}

ProfileReport Profiler::profile(const RawTable& table) const {
  Timer timer;
  EncodedRelation encoded;
  {
    TraceSpan span(kObsProfileEncode);
    encoded = EncodeRelation(table, options_.semantics, {}, options_.worker_pool,
                             options_.parallelism);
  }
  double encode_seconds = timer.seconds();
  if (options_.stage_hook) {
    options_.stage_hook(ProfileStage::kEncode, encode_seconds);
  }
  ProfileReport report = profile(encoded.relation);
  report.timings.encode_seconds = encode_seconds;
  return report;
}

ProfileReport Profiler::profile(const Relation& relation) const {
  ProfileReport report;
  report.schema = relation.schema();
  report.null_stats = ComputeNullStats(relation);

  Timer timer;
  if (options_.query) {
    TraceSpan span(kObsProfileDiscover);
    report.query = QueryEngine({options_.parallelism, options_.worker_pool})
                       .execute(relation, *options_.query);
    // The answer also fills the generic discovery fields, so cover
    // consumers read a query run like any other.
    report.discovery.fds = report.query->cover();
    DiscoveryStats& stats = report.discovery.stats;
    stats.seconds = report.query->stats.seconds;
    stats.validations = report.query->stats.validations;
    stats.levels = report.query->stats.levels;
    stats.timed_out = report.query->stats.timed_out;
  } else {
    std::unique_ptr<FdDiscovery> algo =
        MakeDiscovery(options_.algorithm, options_.parallelism,
                      options_.worker_pool);
    TraceSpan span(kObsProfileDiscover);
    report.discovery = algo->discover(relation);
  }
  report.timings.discover_seconds = timer.seconds();
  ObsAdd(kObsDiscoverFds, report.discovery.fds.size());
  if (options_.stage_hook) {
    options_.stage_hook(ProfileStage::kDiscover, report.timings.discover_seconds);
  }

  // The stop signal (cancel or expiry) is polled between stages as well as
  // inside them, so a stopped job never pays for covers and ranking.
  if (CancelScope::CurrentCancelled()) {
    report.cancelled = true;
    return report;
  }
  // A query's answer is already ranked; the canonical cover and the full
  // rank pass add nothing to it.
  if (options_.query) return report;
  {
    timer.reset();
    TraceSpan span(kObsProfileCanonical);
    int64_t implications = 0;
    report.canonical =
        CanonicalCover(report.discovery.fds, relation.num_cols(), &implications);
    ObsAdd(kObsProfileCanonicalImplications, implications);
    report.timings.canonical_seconds = timer.seconds();
    if (options_.stage_hook) {
      options_.stage_hook(ProfileStage::kCanonical,
                          report.timings.canonical_seconds);
    }
  }
  // A cancelled stage returns nothing, so the later stages are skipped and
  // the report never carries a partial cover or ranking.
  if (CancelScope::CurrentCancelled()) {
    report.canonical = FdSet();
    report.cancelled = true;
    return report;
  }

  {
    timer.reset();
    TraceSpan span(kObsProfileRank);
    CoverRedundancy redundancy = ComputeCoverRedundancy(
        relation, report.canonical, options_.worker_pool, options_.parallelism);
    ObsAdd(kObsProfileRankRefinements, redundancy.refinements);
    report.ranking = SortByRedundancy(std::move(redundancy.per_fd), options_.ranking_mode);
    report.dataset_redundancy = redundancy.dataset;
    report.timings.ranking_seconds = timer.seconds();
    if (options_.stage_hook) {
      options_.stage_hook(ProfileStage::kRank, report.timings.ranking_seconds);
    }
  }
  if (CancelScope::CurrentCancelled()) {
    report.canonical = FdSet();
    report.ranking.clear();
    report.dataset_redundancy = DatasetRedundancy();
    report.cancelled = true;
  }
  return report;
}

std::string ProfileReport::summary() const {
  std::ostringstream out;
  out << "schema: " << schema.size() << " columns\n";
  out << "nulls: " << null_stats.null_occurrences << " occurrences in "
      << null_stats.incomplete_columns << " columns ("
      << null_stats.incomplete_rows << " incomplete rows)\n";
  out << "left-reduced cover: |L-r|=" << discovery.fds.size()
      << "  ||L-r||=" << discovery.fds.attribute_occurrences() << "  ("
      << discovery.stats.seconds << " s, " << discovery.stats.memory_mb
      << " MB)\n";
  if (!canonical.empty()) {
    CoverStats stats = ComputeCoverStats(discovery.fds, canonical);
    out << "canonical cover:    |Can|=" << stats.canonical_count
        << "  ||Can||=" << stats.canonical_occurrences << "  ("
        << timings.canonical_seconds << " s, " << stats.percent_size
        << "% of |L-r|)\n";
  }
  if (!ranking.empty()) {
    out << "redundancy: #red=" << dataset_redundancy.red << " ("
        << dataset_redundancy.percent_red() << "%)  #red+0="
        << dataset_redundancy.red_plus0 << " ("
        << dataset_redundancy.percent_red_plus0() << "%) of "
        << dataset_redundancy.num_values << " values\n";
  }
  out << "stage timings: encode=" << timings.encode_seconds
      << " s  discover=" << timings.discover_seconds
      << " s  canonical=" << timings.canonical_seconds
      << " s  rank=" << timings.ranking_seconds
      << " s  total=" << timings.total_seconds() << " s\n";
  if (cancelled) out << "run cancelled before completion\n";
  return out.str();
}

}  // namespace dhyfd
