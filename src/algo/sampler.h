#ifndef DHYFD_ALGO_SAMPLER_H_
#define DHYFD_ALGO_SAMPLER_H_

#include <unordered_set>
#include <vector>

#include "partition/stripped_partition.h"
#include "relation/relation.h"

namespace dhyfd {

class ThreadPool;

/// Sorted-neighborhood pair selection sampling (Hernandez & Stolfo; used by
/// HyFD and, once at start-up, by DHyFD).
///
/// For every attribute, the rows of each cluster of pi_A are sorted
/// lexicographically by the remaining attributes (the "sorted
/// neighborhood"); likely-similar tuples then sit next to each other.
/// Comparing rows at neighbor distance w harvests large agree sets — the
/// most specific non-FDs — cheaply.
///
/// With a pool and parallelism > 1, the per-attribute work — neighborhood
/// sorting in the constructor, agree-set induction in run() — runs one
/// attribute per pool shard. Each shard fills its attribute's bucket with the agree
/// sets that are neither in `seen_` (read-only while shards run) nor earlier
/// in the same bucket; the calling thread then replays the buckets in
/// attribute order into `seen_`, so the returned fresh agree sets are the
/// exact sequence the sequential loop produces.
///
/// Both the neighborhood sort and the agree-set loop compare whole rows, so
/// the sampler keeps a row-major copy of the codes and reads each row
/// contiguously.
class NeighborhoodSampler {
 public:
  /// `attr_partitions` must contain one partition per attribute and outlive
  /// the sampler. `pool` (not owned, may be null) enables sharded sampling
  /// with up to `parallelism` threads including the caller.
  NeighborhoodSampler(const Relation& r,
                      const std::vector<StrippedPartition>& attr_partitions,
                      ThreadPool* pool = nullptr, int parallelism = 1);

  /// Compares rows at distance `window` within every sorted cluster and
  /// returns the agree sets not seen before (across all calls).
  std::vector<AttributeSet> run(int window);

  /// Runs windows 1..max_window: the one-off initial sampling of DHyFD.
  std::vector<AttributeSet> initial(int max_window);

  int64_t pairs_compared() const { return pairs_compared_; }

  /// New non-FDs per comparison in the most recent run(); HyFD's sampling
  /// phase stops when this drops below its efficiency threshold.
  double last_efficiency() const { return last_efficiency_; }

  /// Largest window run so far; HyFD resumes from window() + 1.
  int window() const { return window_; }

 private:
  /// Appends to `out` the (non-trivial) agree sets of attribute a's clusters
  /// at `window` that are not in `seen_`, each at its first occurrence in
  /// cluster-then-pair order; returns the number of pairs compared.
  int64_t collect_attribute(AttrId a, int window, std::vector<AttributeSet>& out) const;

  const ValueId* row(RowId t) const {
    return rows_.data() + static_cast<size_t>(t) * num_cols_;
  }

  int num_cols_;
  ThreadPool* pool_;
  int parallelism_;
  // The relation's codes, row-major: row t is rows_[t * num_cols_, ...).
  std::vector<ValueId> rows_;
  // Per attribute: a CSR copy of that attribute's partition with rows in
  // sorted-neighborhood order (reordered in place via mutable_cluster).
  std::vector<StrippedPartition> sorted_;
  std::unordered_set<AttributeSet, AttributeSetHash> seen_;
  int64_t pairs_compared_ = 0;
  double last_efficiency_ = 0;
  int window_ = 0;
};

}  // namespace dhyfd

#endif  // DHYFD_ALGO_SAMPLER_H_
