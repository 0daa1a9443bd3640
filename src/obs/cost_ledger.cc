#include "obs/cost_ledger.h"

#include <ctime>
#include <cstring>

#include "obs/obs_schema.gen.h"

namespace dhyfd {

namespace {

/// Classification table: which existing counter names feed which ledger
/// field. Names arrive as string literals, so the per-add cost is a few
/// short strcmp()s — small next to the registry lookup the forwarded sink
/// already pays. Unlisted counters are forwarded but not classified.
enum class LedgerField {
  kNone, kValidations, kPartitionsBuilt, kHits, kMisses, kCpu
};

LedgerField Classify(const char* name) {
  if (std::strcmp(name, kObsDiscoverValidatorCalls) == 0 ||
      std::strcmp(name, kObsQueryValidations) == 0 ||
      std::strcmp(name, kObsIncrValidations) == 0) {
    return LedgerField::kValidations;
  }
  // CPU burned by pool helpers running another job's shards; the helper
  // measures its own thread clock and ThreadPool::run_shards replays the
  // delta on the requesting thread, so it lands in that job's ledger (the
  // scope's own CLOCK_THREAD_CPUTIME_ID window cannot see foreign threads).
  if (std::strcmp(name, kObsPoolShardCpuNs) == 0) {
    return LedgerField::kCpu;
  }
  // The rank stage's LHS partitions count like discovery's: one per
  // attribute refinement, emitted once per stage by the profiler.
  if (std::strcmp(name, kObsPartitionIntersections) == 0 ||
      std::strcmp(name, kObsPartitionDdmDynamicBuilds) == 0 ||
      std::strcmp(name, kObsProfileRankRefinements) == 0) {
    return LedgerField::kPartitionsBuilt;
  }
  if (std::strcmp(name, kObsPartitionCacheHits) == 0 ||
      std::strcmp(name, kObsPartitionPrefixCacheHits) == 0) {
    return LedgerField::kHits;
  }
  if (std::strcmp(name, kObsPartitionCacheMisses) == 0) {
    return LedgerField::kMisses;
  }
  return LedgerField::kNone;
}

}  // namespace

std::int64_t CurrentThreadCpuNs() {
  struct timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return std::int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
}

CostLedgerScope::CostLedgerScope(CostLedger* out, bool charge_cpu)
    : out_(out),
      prev_(CurrentObsSink()),
      cpu_start_ns_(charge_cpu ? CurrentThreadCpuNs() : -1) {
  obs_internal::tls_sink = this;
}

CostLedgerScope::~CostLedgerScope() {
  obs_internal::tls_sink = prev_;
  if (cpu_start_ns_ >= 0) {
    out_->cpu_ns += CurrentThreadCpuNs() - cpu_start_ns_;
  }
}

void CostLedgerScope::add(const char* name, std::int64_t delta) {
  switch (Classify(name)) {
    case LedgerField::kValidations: out_->validations += delta; break;
    case LedgerField::kPartitionsBuilt: out_->partitions_built += delta; break;
    case LedgerField::kHits: out_->cache_hits += delta; break;
    case LedgerField::kMisses: out_->cache_misses += delta; break;
    case LedgerField::kCpu: out_->cpu_ns += delta; break;
    case LedgerField::kNone: break;
  }
  if (prev_ != nullptr) prev_->add(name, delta);
}

}  // namespace dhyfd
