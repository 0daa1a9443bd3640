// GENERATED by tools/analyze/analyze.py --fix; DO NOT EDIT.
//
// Canonical observability schema: one constant per registered
// counter/gauge/histogram/span name. Call sites reference these
// constants instead of string literals, so a typo'd name is a
// compile error instead of a silently forked metric series.
//
// Source of truth: tools/analyze/obs_schema.json.
// Regenerate:      python3 tools/analyze/analyze.py --fix
// Verified by:     tools/analyze/analyze.py (schema pass) in ci.sh
#ifndef DHYFD_OBS_OBS_SCHEMA_GEN_H_
#define DHYFD_OBS_OBS_SCHEMA_GEN_H_

#include <cstddef>
#include <string_view>

namespace dhyfd {

// --- dataset ---------------------------------------------------------------
inline constexpr char kObsDatasetCacheHits[] =
    "dataset.cache_hits";  // counter
inline constexpr char kObsDatasetCacheMisses[] =
    "dataset.cache_misses";  // counter
inline constexpr char kObsDatasetEncodeSeconds[] =
    "dataset.encode_seconds";  // histogram

// --- discover --------------------------------------------------------------
inline constexpr char kObsDiscoverDdmUpdate[] =
    "discover.ddm_update";  // span
inline constexpr char kObsDiscoverFds[] =
    "discover.fds";  // counter
inline constexpr char kObsDiscoverFdtreeFds[] =
    "discover.fdtree.fds";  // counter
inline constexpr char kObsDiscoverInduction[] =
    "discover.induction";  // span
inline constexpr char kObsDiscoverInductions[] =
    "discover.inductions";  // counter
inline constexpr char kObsDiscoverLatticeLevelEntries[] =
    "discover.lattice_level_entries";  // counter
inline constexpr char kObsDiscoverLevels[] =
    "discover.levels";  // counter
inline constexpr char kObsDiscoverSamplerNewAgreeSets[] =
    "discover.sampler.new_agree_sets";  // counter
inline constexpr char kObsDiscoverSamplerPairs[] =
    "discover.sampler.pairs";  // counter
inline constexpr char kObsDiscoverSamplerRounds[] =
    "discover.sampler.rounds";  // counter
inline constexpr char kObsDiscoverSampling[] =
    "discover.sampling";  // span
inline constexpr char kObsDiscoverShard[] =
    "discover.shard";  // span
inline constexpr char kObsDiscoverValidation[] =
    "discover.validation";  // span
inline constexpr char kObsDiscoverValidatorCalls[] =
    "discover.validator.calls";  // counter
inline constexpr char kObsDiscoverValidatorPairs[] =
    "discover.validator.pairs";  // counter
inline constexpr char kObsDiscoverValidatorRefutedFds[] =
    "discover.validator.refuted_fds";  // counter

// --- incr ------------------------------------------------------------------
inline constexpr char kObsIncrAgreeSets[] =
    "incr.agree_sets";  // counter
inline constexpr char kObsIncrBatch[] =
    "incr.batch";  // span
inline constexpr char kObsIncrBatchSeconds[] =
    "incr.batch_seconds";  // histogram
inline constexpr char kObsIncrBatches[] =
    "incr.batches";  // counter
inline constexpr char kObsIncrDatasets[] =
    "incr.datasets";  // gauge
inline constexpr char kObsIncrDeletes[] =
    "incr.deletes";  // span
inline constexpr char kObsIncrFdsAdded[] =
    "incr.fds_added";  // counter
inline constexpr char kObsIncrFdsRemoved[] =
    "incr.fds_removed";  // counter
inline constexpr char kObsIncrFdsReranked[] =
    "incr.fds_reranked";  // counter
inline constexpr char kObsIncrInserts[] =
    "incr.inserts";  // span
inline constexpr char kObsIncrJobsFailed[] =
    "incr.jobs_failed";  // counter
inline constexpr char kObsIncrJobsQueued[] =
    "incr.jobs_queued";  // gauge
inline constexpr char kObsIncrPairsCompared[] =
    "incr.pairs_compared";  // counter
inline constexpr char kObsIncrQueueWait[] =
    "incr.queue_wait";  // span
inline constexpr char kObsIncrRebuild[] =
    "incr.rebuild";  // span
inline constexpr char kObsIncrRebuildFallbacks[] =
    "incr.rebuild_fallbacks";  // counter
inline constexpr char kObsIncrRebuilds[] =
    "incr.rebuilds";  // counter
inline constexpr char kObsIncrRerank[] =
    "incr.rerank";  // span
inline constexpr char kObsIncrRowsDeleted[] =
    "incr.rows_deleted";  // counter
inline constexpr char kObsIncrRowsInserted[] =
    "incr.rows_inserted";  // counter
inline constexpr char kObsIncrValidations[] =
    "incr.validations";  // counter

// --- jobs ------------------------------------------------------------------
inline constexpr char kObsJobsCancelled[] =
    "jobs.cancelled";  // counter
inline constexpr char kObsJobsCompleted[] =
    "jobs.completed";  // counter
inline constexpr char kObsJobsDeadlineExpired[] =
    "jobs.deadline_expired";  // counter
inline constexpr char kObsJobsFailed[] =
    "jobs.failed";  // counter
inline constexpr char kObsJobsQueueSeconds[] =
    "jobs.queue_seconds";  // histogram
inline constexpr char kObsJobsQueued[] =
    "jobs.queued";  // gauge
inline constexpr char kObsJobsRejected[] =
    "jobs.rejected";  // counter
inline constexpr char kObsJobsRunSeconds[] =
    "jobs.run_seconds";  // histogram
inline constexpr char kObsJobsRunning[] =
    "jobs.running";  // gauge
inline constexpr char kObsJobsSubmitted[] =
    "jobs.submitted";  // counter

// --- net -------------------------------------------------------------------
inline constexpr char kObsNetBusyRejects[] =
    "net.busy_rejects";  // counter
inline constexpr char kObsNetBytesRx[] =
    "net.bytes_rx";  // counter
inline constexpr char kObsNetBytesTx[] =
    "net.bytes_tx";  // counter
inline constexpr char kObsNetClientCall[] =
    "net.client.call";  // span
inline constexpr char kObsNetConnections[] =
    "net.connections";  // gauge
inline constexpr char kObsNetConnsAccepted[] =
    "net.conns_accepted";  // counter
inline constexpr char kObsNetConnsClosed[] =
    "net.conns_closed";  // counter
inline constexpr char kObsNetConnsRejected[] =
    "net.conns_rejected";  // counter
inline constexpr char kObsNetDispatch[] =
    "net.dispatch";  // span
inline constexpr char kObsNetFramesRx[] =
    "net.frames_rx";  // counter
inline constexpr char kObsNetFramesTx[] =
    "net.frames_tx";  // counter
inline constexpr char kObsNetHeartbeats[] =
    "net.heartbeats";  // counter
inline constexpr char kObsNetHttpBadRequests[] =
    "net.http.bad_requests";  // counter
inline constexpr char kObsNetHttpConnections[] =
    "net.http.connections";  // gauge
inline constexpr char kObsNetHttpConnsAccepted[] =
    "net.http.conns_accepted";  // counter
inline constexpr char kObsNetHttpConnsRejected[] =
    "net.http.conns_rejected";  // counter
inline constexpr char kObsNetHttpRequests[] =
    "net.http.requests";  // counter
inline constexpr char kObsNetIdleDisconnects[] =
    "net.idle_disconnects";  // counter
inline constexpr char kObsNetInflightRejects[] =
    "net.inflight_rejects";  // counter
inline constexpr char kObsNetOpsRun[] =
    "net.ops.run";  // span
inline constexpr char kObsNetProtocolErrors[] =
    "net.protocol_errors";  // counter
inline constexpr char kObsNetQueueWait[] =
    "net.queue_wait";  // span
inline constexpr char kObsNetQuotaRejects[] =
    "net.quota_rejects";  // counter
inline constexpr char kObsNetRequestSeconds[] =
    "net.request_seconds";  // histogram
inline constexpr char kObsNetRequests[] =
    "net.requests";  // counter
inline constexpr char kObsNetRpc[] =
    "net.rpc";  // span
inline constexpr char kObsNetRpcBytesStreamed[] =
    "net.rpc.bytes_streamed";  // counter
inline constexpr char kObsNetRpcCpuNs[] =
    "net.rpc.cpu_ns";  // counter
inline constexpr char kObsNetRpcPartitionsBuilt[] =
    "net.rpc.partitions_built";  // counter
inline constexpr char kObsNetRpcQueueSeconds[] =
    "net.rpc.queue_seconds";  // histogram
inline constexpr char kObsNetRpcRequests[] =
    "net.rpc.requests";  // counter
inline constexpr char kObsNetRpcRunSeconds[] =
    "net.rpc.run_seconds";  // histogram
inline constexpr char kObsNetRpcValidations[] =
    "net.rpc.validations";  // counter
inline constexpr char kObsNetSlowConsumerDisconnects[] =
    "net.slow_consumer_disconnects";  // counter
inline constexpr char kObsNetStreamBuffered[] =
    "net.stream_buffered";  // counter
inline constexpr char kObsNetStreamDelta[] =
    "net.stream_delta";  // span
inline constexpr char kObsNetStreamEvents[] =
    "net.stream_events";  // counter
inline constexpr char kObsNetSubscriptions[] =
    "net.subscriptions";  // gauge

// --- partition -------------------------------------------------------------
inline constexpr char kObsPartitionArenaGrowths[] =
    "partition.arena_growths";  // counter
inline constexpr char kObsPartitionArenaReuses[] =
    "partition.arena_reuses";  // counter
inline constexpr char kObsPartitionCacheEvictions[] =
    "partition.cache_evictions";  // counter
inline constexpr char kObsPartitionCacheHits[] =
    "partition.cache_hits";  // counter
inline constexpr char kObsPartitionCacheMisses[] =
    "partition.cache_misses";  // counter
inline constexpr char kObsPartitionDdmDynamicBuilds[] =
    "partition.ddm_dynamic_builds";  // counter
inline constexpr char kObsPartitionDdmRefinements[] =
    "partition.ddm_refinements";  // counter
inline constexpr char kObsPartitionIntersections[] =
    "partition.intersections";  // counter
inline constexpr char kObsPartitionPrefixCacheHits[] =
    "partition.prefix_cache_hits";  // counter
inline constexpr char kObsPartitionSingleClusterRefinements[] =
    "partition.single_cluster_refinements";  // counter

// --- pool ------------------------------------------------------------------
inline constexpr char kObsPoolShard[] =
    "pool.shard";  // span
inline constexpr char kObsPoolShardCpuNs[] =
    "pool.shard_cpu_ns";  // counter

// --- process ---------------------------------------------------------------
inline constexpr char kObsProcessOpenFds[] =
    "process.open_fds";  // gauge
inline constexpr char kObsProcessPeakRssBytes[] =
    "process.peak_rss_bytes";  // gauge
inline constexpr char kObsProcessRssBytes[] =
    "process.rss_bytes";  // gauge

// --- profile ---------------------------------------------------------------
inline constexpr char kObsProfileCanonical[] =
    "profile.canonical";  // span
inline constexpr char kObsProfileCanonicalImplications[] =
    "profile.canonical.implications";  // counter
inline constexpr char kObsProfileDiscover[] =
    "profile.discover";  // span
inline constexpr char kObsProfileEncode[] =
    "profile.encode";  // span
inline constexpr char kObsProfileRank[] =
    "profile.rank";  // span
inline constexpr char kObsProfileRankRefinements[] =
    "profile.rank.refinements";  // counter

// --- query -----------------------------------------------------------------
inline constexpr char kObsQueryEarlyTerminations[] =
    "query.early_terminations";  // counter
inline constexpr char kObsQueryExecute[] =
    "query.execute";  // span
inline constexpr char kObsQueryExecutes[] =
    "query.executes";  // counter
inline constexpr char kObsQueryLatticeLevel[] =
    "query.lattice_level";  // span
inline constexpr char kObsQueryProject[] =
    "query.project";  // span
inline constexpr char kObsQueryPrunedArity[] =
    "query.pruned_arity";  // counter
inline constexpr char kObsQueryPrunedBound[] =
    "query.pruned_bound";  // counter
inline constexpr char kObsQueryPrunedEpsilon[] =
    "query.pruned_epsilon";  // counter
inline constexpr char kObsQueryTimeouts[] =
    "query.timeouts";  // counter
inline constexpr char kObsQueryValidations[] =
    "query.validations";  // counter

// --- svc -------------------------------------------------------------------
inline constexpr char kObsSvcJobCancelled[] =
    "svc.job.cancelled";  // span
inline constexpr char kObsSvcJobRun[] =
    "svc.job.run";  // span
inline constexpr char kObsSvcQueueWait[] =
    "svc.queue_wait";  // span

/// Every exact schema name, sorted (spans included); the Prometheus
/// golden test asserts exposition names are a subset of this table
/// plus the patterns below.
inline constexpr std::string_view kObsSchemaNames[] = {
    "dataset.cache_hits",
    "dataset.cache_misses",
    "dataset.encode_seconds",
    "discover.ddm_update",
    "discover.fds",
    "discover.fdtree.fds",
    "discover.induction",
    "discover.inductions",
    "discover.lattice_level_entries",
    "discover.levels",
    "discover.sampler.new_agree_sets",
    "discover.sampler.pairs",
    "discover.sampler.rounds",
    "discover.sampling",
    "discover.shard",
    "discover.validation",
    "discover.validator.calls",
    "discover.validator.pairs",
    "discover.validator.refuted_fds",
    "incr.agree_sets",
    "incr.batch",
    "incr.batch_seconds",
    "incr.batches",
    "incr.datasets",
    "incr.deletes",
    "incr.fds_added",
    "incr.fds_removed",
    "incr.fds_reranked",
    "incr.inserts",
    "incr.jobs_failed",
    "incr.jobs_queued",
    "incr.pairs_compared",
    "incr.queue_wait",
    "incr.rebuild",
    "incr.rebuild_fallbacks",
    "incr.rebuilds",
    "incr.rerank",
    "incr.rows_deleted",
    "incr.rows_inserted",
    "incr.validations",
    "jobs.cancelled",
    "jobs.completed",
    "jobs.deadline_expired",
    "jobs.failed",
    "jobs.queue_seconds",
    "jobs.queued",
    "jobs.rejected",
    "jobs.run_seconds",
    "jobs.running",
    "jobs.submitted",
    "net.busy_rejects",
    "net.bytes_rx",
    "net.bytes_tx",
    "net.client.call",
    "net.connections",
    "net.conns_accepted",
    "net.conns_closed",
    "net.conns_rejected",
    "net.dispatch",
    "net.frames_rx",
    "net.frames_tx",
    "net.heartbeats",
    "net.http.bad_requests",
    "net.http.connections",
    "net.http.conns_accepted",
    "net.http.conns_rejected",
    "net.http.requests",
    "net.idle_disconnects",
    "net.inflight_rejects",
    "net.ops.run",
    "net.protocol_errors",
    "net.queue_wait",
    "net.quota_rejects",
    "net.request_seconds",
    "net.requests",
    "net.rpc",
    "net.rpc.bytes_streamed",
    "net.rpc.cpu_ns",
    "net.rpc.partitions_built",
    "net.rpc.queue_seconds",
    "net.rpc.requests",
    "net.rpc.run_seconds",
    "net.rpc.validations",
    "net.slow_consumer_disconnects",
    "net.stream_buffered",
    "net.stream_delta",
    "net.stream_events",
    "net.subscriptions",
    "partition.arena_growths",
    "partition.arena_reuses",
    "partition.cache_evictions",
    "partition.cache_hits",
    "partition.cache_misses",
    "partition.ddm_dynamic_builds",
    "partition.ddm_refinements",
    "partition.intersections",
    "partition.prefix_cache_hits",
    "partition.single_cluster_refinements",
    "pool.shard",
    "pool.shard_cpu_ns",
    "process.open_fds",
    "process.peak_rss_bytes",
    "process.rss_bytes",
    "profile.canonical",
    "profile.canonical.implications",
    "profile.discover",
    "profile.encode",
    "profile.rank",
    "profile.rank.refinements",
    "query.early_terminations",
    "query.execute",
    "query.executes",
    "query.lattice_level",
    "query.project",
    "query.pruned_arity",
    "query.pruned_bound",
    "query.pruned_epsilon",
    "query.timeouts",
    "query.validations",
    "svc.job.cancelled",
    "svc.job.run",
    "svc.queue_wait",
};

/// Dynamic name families composed at runtime; '*' matches within one
/// dotted segment.
inline constexpr std::string_view kObsSchemaPatterns[] = {
    "net.rpc.*.*_seconds",  // histogram, witness "net.rpc."
    "stage.*_seconds",  // histogram, witness "stage."
};

inline constexpr std::size_t kObsSchemaNameCount =
    sizeof(kObsSchemaNames) / sizeof(kObsSchemaNames[0]);

/// Wildcard match where '*' never crosses a '.' (segment-scoped).
inline bool ObsWildcardMatch(std::string_view pat,
                             std::string_view name) {
  std::size_t p = 0, n = 0;
  std::size_t star_p = std::string_view::npos, star_n = 0;
  while (n < name.size()) {
    if (p < pat.size() && pat[p] != '*' && pat[p] == name[n]) {
      ++p;
      ++n;
    } else if (p < pat.size() && pat[p] == '*') {
      star_p = p++;
      star_n = n;
    } else if (star_p != std::string_view::npos &&
               name[star_n] != '.') {
      p = star_p + 1;
      n = ++star_n;
    } else {
      return false;
    }
  }
  while (p < pat.size() && pat[p] == '*') ++p;
  return p == pat.size();
}

/// True iff `name` is an exact schema name or matches a pattern.
inline bool ObsSchemaMatches(std::string_view name) {
  std::size_t lo = 0, hi = kObsSchemaNameCount;
  while (lo < hi) {  // kObsSchemaNames is sorted: binary search
    std::size_t mid = lo + (hi - lo) / 2;
    if (kObsSchemaNames[mid] == name) return true;
    if (kObsSchemaNames[mid] < name) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  for (std::string_view pat : kObsSchemaPatterns) {
    if (ObsWildcardMatch(pat, name)) return true;
  }
  return false;
}

}  // namespace dhyfd

#endif  // DHYFD_OBS_OBS_SCHEMA_GEN_H_
