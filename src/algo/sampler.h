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
/// For every attribute a, the rows of each cluster of pi_a are ordered
/// lexicographically by the remaining attributes a+1, ..., m-1, 0, ..., a-1
/// and then by row id (the "sorted neighborhood"); likely-similar tuples
/// then sit next to each other. Comparing rows at neighbor distance w
/// harvests large agree sets — the most specific non-FDs — cheaply.
///
/// The neighborhoods come from stable counting passes, not comparison
/// sorts. Let O_s be the rows ordered by the codes of s, s+1, ..., s-1 and
/// then by row id. A stable pass of O_{s+1} by column s yields O_s, so m
/// passes from the identity order yield O_0 and m-1 more yield O_{m-1}, ...,
/// O_1. Attribute a's clusters, in neighborhood order, are the runs of equal
/// a-codes of length >= 2 in O_a, in ascending code order.
///
/// Sampling shards are (attribute, fixed chunk of arena positions); a pair
/// belongs to the chunk of its first row. Each shard keeps one bucket per
/// window holding the agree sets that are neither in `seen_` (read-only
/// while shards run) nor earlier in the same bucket. The calling thread
/// replays the buckets window-major, then in shard order, into `seen_`, so
/// the returned fresh agree sets are the exact sequence a sequential
/// window-by-window, attribute-by-attribute loop produces, at any degree.
///
/// The agree-set loop compares whole rows, so the sampler keeps a row-major
/// copy of the codes and reads each row contiguously.
class NeighborhoodSampler {
 public:
  /// `pool` (not owned, may be null) enables sharded construction and
  /// sampling with up to `parallelism` threads including the caller. The
  /// caller's CancelScope token is polled before each of the 2m-1 counting
  /// passes; once it fires, construction stops with no sampling shards, so
  /// run() and initial() compare nothing.
  explicit NeighborhoodSampler(const Relation& r, ThreadPool* pool = nullptr,
                               int parallelism = 1);

  /// Compares rows at distance `window` within every sorted cluster and
  /// returns the agree sets not seen before (across all calls). Once the
  /// caller's CancelScope token fires, shards not yet started compare
  /// nothing, so a stopped run gets a partial sample.
  std::vector<AttributeSet> run(int window);

  /// Runs windows 1..max_window in one pass over the clusters: the one-off
  /// initial sampling of DHyFD. Returns what run(1), ..., run(max_window)
  /// would have returned, concatenated, and leaves the same state behind.
  std::vector<AttributeSet> initial(int max_window);

  /// Attribute a's clusters with rows in sorted-neighborhood order.
  const StrippedPartition& neighborhood(AttrId a) const { return sorted_[a]; }

  int64_t pairs_compared() const { return pairs_compared_; }

  /// New non-FDs per comparison in the most recent window; HyFD's sampling
  /// phase stops when this drops below its efficiency threshold.
  double last_efficiency() const { return last_efficiency_; }

  /// Largest window run so far; HyFD resumes from window() + 1.
  int window() const { return window_; }

 private:
  /// Compares every pair at distance first_window..last_window once and
  /// replays the fresh agree sets window by window.
  std::vector<AttributeSet> sample(int first_window, int last_window);

  /// One sampling shard: attribute `attr`'s arena positions [begin, end),
  /// the first of which lies in cluster `first_cluster`.
  struct Shard {
    AttrId attr;
    size_t first_cluster;
    size_t begin;
    size_t end;
  };

  const ValueId* row(RowId t) const {
    return rows_.data() + static_cast<size_t>(t) * num_cols_;
  }

  /// Requests row t's cache lines ahead of use: neighboring rows sit at
  /// random places in rows_, so the loop would otherwise stall on each.
  void prefetch_row(RowId t) const {
    const char* begin = reinterpret_cast<const char*>(row(t));
    const char* end = begin + static_cast<size_t>(num_cols_) * sizeof(ValueId);
    for (const char* line = begin; line < end; line += 64) __builtin_prefetch(line);
    __builtin_prefetch(end - 1);
  }

  int num_cols_;
  ThreadPool* pool_;
  int parallelism_;
  // The relation's codes, row-major: row t is rows_[t * num_cols_, ...).
  std::vector<ValueId> rows_;
  // Per attribute: that attribute's clusters, rows in neighborhood order.
  std::vector<StrippedPartition> sorted_;
  std::vector<Shard> shards_;
  std::unordered_set<AttributeSet, AttributeSetHash> seen_;
  int64_t pairs_compared_ = 0;
  double last_efficiency_ = 0;
  int window_ = 0;
};

}  // namespace dhyfd

#endif  // DHYFD_ALGO_SAMPLER_H_
