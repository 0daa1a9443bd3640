#ifndef DHYFD_ALGO_DISCOVERY_H_
#define DHYFD_ALGO_DISCOVERY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fd/fd_set.h"
#include "relation/relation.h"

namespace dhyfd {

class ThreadPool;

/// Run statistics shared by every discovery algorithm; these back the
/// paper's Table II (time, memory) and the scalability figures.
struct DiscoveryStats {
  double seconds = 0;
  double memory_mb = 0;            // peak RSS delta during the run
  int64_t validations = 0;         // candidate FDs checked against the data
  int64_t invalidated = 0;         // candidates found invalid
  int64_t sampled_non_fds = 0;     // non-FDs from sampling / agree sets
  int64_t pairs_compared = 0;      // tuple pairs inspected
  int64_t refinements = 0;         // stripped-partition cluster refinements
  int ddm_updates = 0;             // DDM rebuilds (DHyFD only)
  int levels = 0;                  // validation levels processed
  /// True if the caller's CancelScope token (util/cancellation.h) had fired,
  /// by cancel or by expiry, when the run returned; fds is then partial
  /// (the paper reports such runs as "TL").
  bool timed_out = false;
};

struct DiscoveryResult {
  /// A left-reduced cover of the FDs satisfied by the input, with singleton
  /// RHSs, in deterministic sorted order.
  FdSet fds;
  DiscoveryStats stats;
};

/// Common interface for all six discovery algorithms, so benches and tests
/// can sweep over them uniformly.
class FdDiscovery {
 public:
  virtual ~FdDiscovery() = default;
  virtual std::string name() const = 0;
  virtual DiscoveryResult discover(const Relation& r) = 0;
};

/// Names accepted by MakeDiscovery: "tane", "fdep", "fdep1", "fdep2",
/// "hyfd", "dhyfd", plus the extra row-based baselines "fastfds" and
/// "depminer". parallelism > 1 with a worker_pool shards the hybrid
/// algorithms (hyfd, dhyfd) over the pool; other algorithms ignore it.
/// Parallel runs return bit-identical covers to sequential ones. A run is
/// bounded by the caller's CancelScope token, e.g.
///   CancelToken tl(seconds);
///   CancelScope scope(&tl);
std::unique_ptr<FdDiscovery> MakeDiscovery(const std::string& name,
                                           int parallelism = 1,
                                           ThreadPool* worker_pool = nullptr);

/// The former four-argument form, whose second argument was a time budget.
/// Kept only because the perfbench harness still calls it with 0; any other
/// value throws std::invalid_argument (bind an expiring CancelToken
/// instead).
std::unique_ptr<FdDiscovery> MakeDiscovery(const std::string& name,
                                           double zero_budget, int parallelism,
                                           ThreadPool* worker_pool);

/// All six algorithm names in the paper's Table II order.
const std::vector<std::string>& AllDiscoveryNames();

/// Brute-force reference: computes the left-reduced cover by enumerating
/// agree sets of all tuple pairs and minimizing. Exponential in columns;
/// only for cross-checking on small inputs in tests.
FdSet BruteForceDiscover(const Relation& r);

}  // namespace dhyfd

#endif  // DHYFD_ALGO_DISCOVERY_H_
