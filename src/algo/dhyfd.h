#ifndef DHYFD_ALGO_DHYFD_H_
#define DHYFD_ALGO_DHYFD_H_

#include "algo/discovery.h"

namespace dhyfd {

class ThreadPool;

struct DhyfdOptions {
  /// The efficiency-inefficiency ratio above which the DDM refreshes its
  /// dynamic partitions (paper Section IV-G; Figure 6 tunes this — 3.0 is
  /// the value the paper settles on).
  double ratio_threshold = 3.0;
  /// Neighborhood windows for the one-off initial sampling (paper line 5 of
  /// Algorithm 6: sampling is performed only once).
  int initial_sampling_windows = 3;
  /// If false, the DDM never refreshes: every validation starts from a
  /// single-attribute partition. For the E12 ablation bench.
  bool enable_ddm = true;
  /// Error threshold for approximate FDs: a candidate X -> A holds when its
  /// g3 removal count stays within floor(epsilon * |r|). With epsilon > 0
  /// the sampling phase is skipped — a single violating pair refutes only
  /// exact FDs — and failed candidates are specialized directly; soundness
  /// of the tree traversal follows from the measure's anti-monotonicity.
  /// 0 runs the exact hybrid path unchanged.
  double epsilon = 0;
  /// Precise LHS arity bound (0 = unbounded): the level loop stops after
  /// validating LHSs of max_lhs attributes and deeper speculative FDs are
  /// dropped from the collected cover.
  int max_lhs = 0;
  /// Cooperative deadline in seconds (0 = none).
  double time_limit_seconds = 0;
  /// Threads used within this run, including the calling thread (<= 1 =
  /// sequential). Effective only with a worker_pool; the cover is
  /// bit-identical to the sequential one at any degree (see DESIGN.md,
  /// "Parallel pipeline").
  int parallelism = 1;
  /// Pool to fan validation/sampling/DDM shards out over. Not owned; may be
  /// shared with other jobs (shards are claimed help-first, so a busy pool
  /// degrades to sequential instead of deadlocking).
  ThreadPool* worker_pool = nullptr;
};

/// DHyFD (paper Algorithm 6): the dynamic hybrid FD-discovery algorithm.
///
/// Column-based traversal of an extended FD-tree, with a dynamic data
/// manager that refines stripped partitions to the current controlled level
/// whenever the efficiency-inefficiency ratio says many FDs are likely
/// valid. Validation (Algorithm 4) extracts non-FDs as it works; synergized
/// induction (Algorithm 2) applies them to the tree.
class Dhyfd : public FdDiscovery {
 public:
  explicit Dhyfd(DhyfdOptions options = {}) : options_(options) {}
  std::string name() const override { return "dhyfd"; }
  DiscoveryResult discover(const Relation& r) override;

 private:
  DhyfdOptions options_;
};

}  // namespace dhyfd

#endif  // DHYFD_ALGO_DHYFD_H_
