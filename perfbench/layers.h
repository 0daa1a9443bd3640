#ifndef DHYFD_PERFBENCH_LAYERS_H_
#define DHYFD_PERFBENCH_LAYERS_H_

#include <cstdint>
#include <vector>

#include "bench.h"
#include "core/profiler.h"

namespace perfbench {

/// Measures the library pipeline's layers on one table, from outside. For
/// `seconds` (and at least `min_calls` pairs) it alternates
///  1. an untraced `Profiler::profile` call, timing each stage through
///     ProfileOptions::stage_hook, and
///  2. the same call with the global tracer on and a counting ObsSink
///     installed, for the discover.* span self times and the algo, fdtree
///     and partition counters;
/// then makes
///  3. three direct calls into each layer's entry point (EncodeRelation,
///     MakeDiscovery(...)->discover, CanonicalCover, RankFds), timed as
///     their median.
/// Sets the core, relation, algo, fdtree, partition, fd, ranking and obs
/// metrics; reports a digest mismatch between any two calls, or between a
/// profile and the direct calls, as a failure.
struct ProbeOutcome {
  /// One report digest per profile call.
  std::vector<std::uint64_t> digests;
  /// The last untraced report, for the caller's own oracles.
  dhyfd::ProfileReport report;
};
ProbeOutcome ProbePipelineLayers(const dhyfd::RawTable& table,
                                 const dhyfd::ProfileOptions& options,
                                 double seconds, int min_calls,
                                 RunResult* out);

/// The per-layer metrics only a served workload exercises (incr, service,
/// net, client), set to 0 on workloads that never reach those layers.
void SetServeLayersUnused(RunResult* out);

}  // namespace perfbench

#endif  // DHYFD_PERFBENCH_LAYERS_H_
