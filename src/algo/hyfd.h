#ifndef DHYFD_ALGO_HYFD_H_
#define DHYFD_ALGO_HYFD_H_

#include "algo/discovery.h"

namespace dhyfd {

class ThreadPool;

struct HyfdOptions {
  /// Sampling runs stop once (new non-FDs / comparisons) drops below this.
  double sampling_efficiency_threshold = 0.01;
  /// After a validation level invalidates more than this fraction of its
  /// candidates, HyFD switches back to the sampling phase.
  double validation_switch_threshold = 0.2;
  /// Cap on sampling window growth per sampling phase.
  int max_windows_per_phase = 4;
  /// Threads used within this run, including the calling thread (<= 1 =
  /// sequential). Effective only with a worker_pool; the cover is
  /// bit-identical to the sequential one at any degree.
  int parallelism = 1;
  /// Pool to fan validation/sampling shards out over (not owned).
  ThreadPool* worker_pool = nullptr;
};

/// HyFD (Papenbrock & Naumann 2016): the sampling-focused hybrid baseline.
///
/// Alternates a sorted-neighborhood sampling phase (harvesting non-FDs,
/// inducted into an FD-tree) with a validation phase that checks the tree's
/// candidates level by level against single-attribute stripped partitions.
/// Unlike DHyFD it never reuses refined partitions across levels, so LHS
/// values are recomputed redundantly — the inefficiency the paper's DDM
/// removes. As in the paper's experiments, this implementation uses
/// synergized induction on extended FD-trees ("our implementation of HyFD
/// uses synergized induction and performs better than the best known
/// bounds").
class Hyfd : public FdDiscovery {
 public:
  explicit Hyfd(HyfdOptions options = {}) : options_(options) {}
  std::string name() const override { return "hyfd"; }
  DiscoveryResult discover(const Relation& r) override;

 private:
  HyfdOptions options_;
};

}  // namespace dhyfd

#endif  // DHYFD_ALGO_HYFD_H_
