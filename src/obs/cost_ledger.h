#ifndef DHYFD_OBS_COST_LEDGER_H_
#define DHYFD_OBS_COST_LEDGER_H_

#include <cstdint>

#include "obs/obs.h"

namespace dhyfd {

/// Per-request resource accounting, accumulated from the algorithm-level
/// counters the discovery/partition/query layers already emit. The ledger is
/// what the server hands back to clients in the kCostTrailer, aggregates per
/// connection/tenant, and ranks the slow-request log by — one request's cost
/// in a handful of numbers rather than a counter dump.
struct CostLedger {
  std::int64_t cpu_ns = 0;            // CLOCK_THREAD_CPUTIME_ID delta
  std::int64_t validations = 0;       // discover/query/incr FD validations
  std::int64_t partitions_built = 0;  // intersections, dynamic DDM builds,
                                      // rank-stage LHS refinements
  std::int64_t cache_hits = 0;        // partition cache + prefix cache hits
  std::int64_t cache_misses = 0;
  std::int64_t bytes_streamed = 0;    // filled by the transport, not the scope

  void add(const CostLedger& o) {
    cpu_ns += o.cpu_ns;
    validations += o.validations;
    partitions_built += o.partitions_built;
    cache_hits += o.cache_hits;
    cache_misses += o.cache_misses;
    bytes_streamed += o.bytes_streamed;
  }

  bool zero() const {
    return cpu_ns == 0 && validations == 0 && partitions_built == 0 &&
           cache_hits == 0 && cache_misses == 0 && bytes_streamed == 0;
  }
};

/// Thread-local delta scope: installs itself as the calling thread's ObsSink
/// for its lifetime, classifies every counter it sees into `out`, and
/// forwards each add() unchanged to the previously installed sink — so the
/// MetricsRegistry/trace fan-out (TelemetrySink) keeps seeing exactly what
/// it saw before. On destruction it also charges the elapsed thread CPU time
/// to out->cpu_ns. Scopes nest like ObsScope; the innermost wins the
/// classification, outer scopes still see the forwarded deltas.
///
/// `charge_cpu = false` skips the CPU charge: the counter classification is
/// a few strcmp()s, but the thread-CPU clock is a real syscall on both ends
/// of the scope — too hot for per-request use on fast paths unless the
/// caller opted into attribution (e.g. a traced RPC). Long-running work
/// (discovery jobs, update batches) should keep the default.
class CostLedgerScope : public ObsSink {
 public:
  explicit CostLedgerScope(CostLedger* out, bool charge_cpu = true);
  ~CostLedgerScope() override;

  CostLedgerScope(const CostLedgerScope&) = delete;
  CostLedgerScope& operator=(const CostLedgerScope&) = delete;

  void add(const char* name, std::int64_t delta) override;

 private:
  CostLedger* out_;
  ObsSink* prev_;
  std::int64_t cpu_start_ns_;
};

/// Nanoseconds of CPU time the calling thread has consumed
/// (CLOCK_THREAD_CPUTIME_ID); 0 if the clock is unavailable.
std::int64_t CurrentThreadCpuNs();

}  // namespace dhyfd

#endif  // DHYFD_OBS_COST_LEDGER_H_
