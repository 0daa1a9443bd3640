#ifndef DHYFD_INCR_LIVE_PROFILE_H_
#define DHYFD_INCR_LIVE_PROFILE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "algo/dhyfd.h"
#include "fd/fd_set.h"
#include "fdtree/extended_fd_tree.h"
#include "incr/live_relation.h"
#include "ranking/ranking.h"

namespace dhyfd {

struct LiveProfileOptions {
  /// Discovery options for the initial run and churn-triggered rebuilds.
  DhyfdOptions discovery;
  /// DDM-style efficiency heuristic: once the incremental maintenance time
  /// accumulated since the last full run exceeds this multiple of that run's
  /// cost, the next batch compacts and re-discovers from scratch instead.
  double rebuild_cost_ratio = 3.0;
  /// A tombstone share above this also triggers compaction + rebuild.
  double max_tombstone_fraction = 0.5;
  /// Disable both triggers (force_rebuild() still works); the equivalence
  /// property tests run pure-incremental with this off.
  bool auto_rebuild = true;
};

/// Work accounting for one applied batch; feeds the service's per-batch
/// metrics and the bench's incremental-vs-full comparison.
struct BatchStats {
  int64_t rows_inserted = 0;
  int64_t rows_deleted = 0;
  /// Delete ids that were unknown or already dead (skipped, not an error).
  int64_t unknown_deletes = 0;
  int64_t pairs_compared = 0;   // new-vs-live and deleted-vs-live agree scans
  int64_t agree_sets = 0;       // distinct violated/destroyed agree sets
  int64_t validations = 0;      // generalization checks against the data
  int64_t fds_added = 0;
  int64_t fds_removed = 0;
  int64_t fds_reranked = 0;     // FDs ranked this batch (the whole cover)
  bool rebuilt = false;         // batch fell back to a full DHyFD re-run
  std::string rebuild_reason;   // "", "cost-ratio", "tombstones"
  double seconds = 0;
};

/// What one batch did to the maintained cover: the FDs that entered and
/// left the left-reduced cover (singleton RHSs, sorted).
struct CoverDelta {
  FdSet added;
  FdSet removed;
  BatchStats stats;
};

/// Maintains the left-reduced FD cover of a LiveRelation across update
/// batches without re-running discovery (EAIFD's problem setting on top of
/// the paper's DHyFD machinery):
///
///  * Inserts: each new tuple's agree sets against the live tuples sharing
///    at least one value (found via the live value groups) are the only new
///    violations; they are inducted into the extended FD-tree
///    (Algorithm 2), which specializes refuted FDs minimally. Tuples
///    sharing no value refute only the root FDs {} -> A, handled by the
///    per-column live distinct counts.
///  * Deletes: only FDs all of whose violating pairs died can newly hold.
///    Every destroyed pair's agree set Z bounds the candidates (new valid
///    X -> A needs X subseteq Z, A notin Z); the per-attribute-maximal
///    destroyed sets seed a top-down minimization that validates candidate
///    generalizations against the live data (validator + live partitions)
///    and inserts every newly minimal FD, pruning superseded ones.
///  * Fallback: a DDM-style efficiency ratio compares accumulated
///    incremental cost against the last full run and falls back to
///    compact() + Dhyfd::discover when churn makes incremental maintenance
///    the slower strategy.
///
/// Invariant (the property the tests enforce): after every batch, cover()
/// equals the left-reduced cover a from-scratch DHyFD run finds on
/// live_relation().snapshot(), and ranking() holds the counts a rank pass of
/// that cover finds there.
class LiveProfile {
 public:
  explicit LiveProfile(const RawTable& initial, LiveProfileOptions options = {},
                       NullSemantics semantics = NullSemantics::kNullEqualsNull);

  const LiveRelation& live_relation() const { return rel_; }
  LiveRelation& live_relation() { return rel_; }

  /// The maintained left-reduced cover (singleton RHSs, sorted).
  const FdSet& cover() const { return cover_; }

  /// Cover FDs with redundancy counts (Section VI) over the live rows,
  /// sorted descending with null-RHS redundancy excluded; ties keep cover
  /// order. Every batch re-ranks the whole cover in one prefix-shared pass.
  const std::vector<FdRedundancy>& ranking() const { return ranking_; }

  CoverDelta apply(const UpdateBatch& batch);

  /// Compacts and re-runs discovery now, regardless of the heuristics.
  void force_rebuild();

  int64_t batches_applied() const { return batches_applied_; }
  int64_t rebuild_count() const { return rebuild_count_; }
  double last_full_seconds() const { return last_full_seconds_; }
  /// Incremental maintenance time accumulated since the last full run.
  double incremental_seconds() const { return incremental_seconds_; }

 private:
  void full_discover(BatchStats* stats);
  void rebuild_tree_from_cover();
  void refresh_cover();

  /// True if lhs -> a holds on the live rows; consults the tree first (an
  /// existing generalization proves validity without touching data), then
  /// validates from a live partition. Results are memoized in `cache`.
  bool holds_on_live(const AttributeSet& lhs, AttrId a,
                     std::unordered_map<AttributeSet, bool, AttributeSetHash>* cache,
                     BatchStats* stats);

  /// Emits every minimal valid X subseteq z with X -> a into `out` (depth-
  /// first descent; `visited` dedupes lattice nodes across seeds).
  void minimal_valid_subsets(
      const AttributeSet& z, AttrId a,
      std::unordered_map<AttributeSet, bool, AttributeSetHash>* cache,
      std::unordered_set<AttributeSet, AttributeSetHash>* visited,
      std::vector<AttributeSet>* out, BatchStats* stats);

  /// Ranks the whole cover over the live rows (ComputeCoverRedundancy
  /// rooted at the live cluster, so tombstones are never counted).
  void rerank();

  LiveProfileOptions options_;
  LiveRelation rel_;
  std::unique_ptr<ExtendedFdTree> tree_;
  FdSet cover_;

  std::vector<FdRedundancy> ranking_;

  // Partner-scan dedupe scratch: one stamp slot per internal row.
  std::vector<uint32_t> partner_stamp_;
  uint32_t partner_epoch_ = 0;

  int64_t batches_applied_ = 0;
  int64_t rebuild_count_ = 0;
  double last_full_seconds_ = 0;
  double incremental_seconds_ = 0;
};

}  // namespace dhyfd

#endif  // DHYFD_INCR_LIVE_PROFILE_H_
