#ifndef DHYFD_CORE_PROFILER_H_
#define DHYFD_CORE_PROFILER_H_

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "algo/discovery.h"
#include "fd/cover.h"
#include "ranking/ranking.h"
#include "relation/encoder.h"

namespace dhyfd {

/// The pipeline stages a ProfileReport times individually; passed to
/// ProfileOptions::stage_hook as each stage completes.
enum class ProfileStage { kEncode, kDiscover, kCanonical, kRank };

const char* ProfileStageName(ProfileStage stage);

/// Options for the one-call profiling pipeline.
struct ProfileOptions {
  /// One of AllDiscoveryNames(); DHyFD by default.
  std::string algorithm = "dhyfd";
  NullSemantics semantics = NullSemantics::kNullEqualsNull;
  /// Compute the canonical cover of the discovered one (Section V-D) and
  /// rank it by data redundancy (Section VI); false stops after discovery.
  bool canonicalize_and_rank = true;
  RedundancyMode ranking_mode = RedundancyMode::kExcludingNullRhs;
  /// Cooperative deadline for the discovery stage in seconds (0 = none),
  /// wired into util/deadline.h exactly like the paper's TL budget.
  double time_limit_seconds = 0;
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
  /// When set, replaces the discovery stage wholesale: the hook receives
  /// the relation plus these options (after the service layer's
  /// parallelism/worker_pool adjustments) and must return the cover and
  /// stats the rest of the pipeline consumes. This is how upper layers
  /// inject richer discovery without core depending on them — the query
  /// layer's BindQueryToProfile (src/query/profile_query.h) installs an
  /// override that runs the rank-driven engine and parks the full
  /// QueryResult in a side slot. `algorithm` is ignored while set.
  std::function<DiscoveryResult(const Relation&, const ProfileOptions&)>
      discovery_override;
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
  /// discovery.fds is the discovered left-reduced cover.
  DiscoveryResult discovery;
  FdSet canonical;
  /// Canonical-cover FDs ranked by descending redundancy.
  std::vector<FdRedundancy> ranking;
  DatasetRedundancy dataset_redundancy;
  StageTimings timings;
  /// True if a CancelScope token fired mid-pipeline; later stages were
  /// skipped and discovery.stats.timed_out may be set. A cancelled report's
  /// canonical, ranking and dataset_redundancy are always empty.
  bool cancelled = false;

  /// Multi-line human-readable summary.
  std::string summary() const;
};

/// The library's quickstart entry point: discover -> cover -> rank.
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
