#ifndef DHYFD_CORE_PROFILER_H_
#define DHYFD_CORE_PROFILER_H_

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "algo/discovery.h"
#include "fd/cover.h"
#include "query/query.h"
#include "ranking/ranking.h"
#include "relation/encoder.h"

namespace dhyfd {

/// The pipeline stages a ProfileReport times individually; passed to
/// ProfileOptions::stage_hook as each stage completes.
enum class ProfileStage { kEncode, kDiscover, kCanonical, kRank };

const char* ProfileStageName(ProfileStage stage);

/// Options for the one-call profiling pipeline.
struct ProfileOptions {
  /// One of AllDiscoveryNames(); DHyFD by default. Ignored with a query.
  std::string algorithm = "dhyfd";
  NullSemantics semantics = NullSemantics::kNullEqualsNull;
  RedundancyMode ranking_mode = RedundancyMode::kExcludingNullRhs;
  /// Threads used inside the encode, discovery and rank stages, including
  /// the calling thread (<= 1 = sequential). Effective only with worker_pool
  /// set. Encoding shards by column, discovery by attribute and candidate,
  /// ranking by runs of the lexicographic LHS order; parallel runs return
  /// bit-identical reports to sequential ones.
  int parallelism = 1;
  /// Worker pool the stage shards fan out over (not owned; may be
  /// shared with other jobs). The JobScheduler sets this for service jobs;
  /// library callers may pass their own pool.
  ThreadPool* worker_pool = nullptr;
  /// A rank-driven query (query/engine.h) to answer instead of the full
  /// pipeline. When set, the discovery stage runs QueryEngine with this
  /// parallelism and pool, the report's `query` holds its ranked answer and
  /// `discovery` its cover, and the canonical and rank stages are skipped.
  std::optional<DiscoveryQuery> query;
  /// Called on the profiling thread as each stage finishes; the service
  /// layer uses this to feed per-stage latency histograms.
  std::function<void(ProfileStage, double seconds)> stage_hook;
};

/// Wall-clock seconds spent in each pipeline stage. encode_seconds is only
/// nonzero for the RawTable overload (an already-encoded Relation skips it).
struct StageTimings {
  double encode_seconds = 0;
  double discover_seconds = 0;
  double canonical_seconds = 0;
  double ranking_seconds = 0;
  double total_seconds() const {
    return encode_seconds + discover_seconds + canonical_seconds +
           ranking_seconds;
  }
};

/// Everything the paper derives from one data set.
struct ProfileReport {
  Schema schema;
  NullStats null_stats;
  /// discovery.fds is the discovered left-reduced cover, or a query's
  /// answer as a plain cover in rank order.
  DiscoveryResult discovery;
  /// The ranked answer, set exactly when ProfileOptions::query was. A
  /// stopped query answers no FDs, never a partial list.
  std::optional<QueryResult> query;
  /// Empty for a query run.
  FdSet canonical;
  /// Canonical-cover FDs ranked by descending redundancy.
  std::vector<FdRedundancy> ranking;
  DatasetRedundancy dataset_redundancy;
  StageTimings timings;
  /// True if the caller's CancelScope token fired mid-pipeline, by cancel or
  /// by expiry (CancelToken::reason() tells which). Every stage polls it; a
  /// stopped stage returns nothing and later stages are skipped, so a
  /// cancelled report's canonical, ranking and dataset_redundancy are
  /// always empty. discovery holds the partial cover, with
  /// discovery.stats.timed_out set if discovery itself was stopped.
  bool cancelled = false;

  /// Multi-line human-readable summary.
  std::string summary() const;
};

/// The library's quickstart entry point: discover -> cover -> rank, or
/// query -> ranked answer when ProfileOptions::query is set. A run is
/// bounded by the caller's CancelScope token (util/cancellation.h).
class Profiler {
 public:
  explicit Profiler(ProfileOptions options = {}) : options_(options) {}

  /// Profiles a raw CSV table (encodes it first under options.semantics).
  ProfileReport profile(const RawTable& table) const;

  /// Profiles an already-encoded relation.
  ProfileReport profile(const Relation& relation) const;

 private:
  ProfileOptions options_;
};

}  // namespace dhyfd

#endif  // DHYFD_CORE_PROFILER_H_
