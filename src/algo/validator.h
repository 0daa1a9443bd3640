#ifndef DHYFD_ALGO_VALIDATOR_H_
#define DHYFD_ALGO_VALIDATOR_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "partition/partition_ops.h"
#include "relation/relation.h"
#include "util/attribute_set.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace dhyfd {

/// Result of validating one candidate FD X -> Y (paper Algorithm 4).
struct ValidationOutcome {
  /// RHS attributes that survived: X -> valid_rhs holds on r.
  AttributeSet valid_rhs;
  /// Agree sets Z of witnessing violation pairs; each implies the non-FD
  /// Z !-> R - Z. At most |Y| entries: a pair is recorded only when it
  /// knocks out at least one still-valid RHS attribute.
  std::vector<AttributeSet> violations;
  int64_t pairs_checked = 0;
  int64_t refinements = 0;
};

/// Validates X -> Y from a stripped partition pi_{X'} with X' subseteq X.
///
/// Refines one equivalence class at a time by the attributes X - X'
/// (Algorithm 5 via `refiner`) so an invalid FD aborts early without paying
/// for the full pi_X. This combination of validation with non-FD extraction
/// is the DDM's validation primitive.
ValidationOutcome ValidateWithPartition(const Relation& r, const AttributeSet& lhs,
                                        const AttributeSet& rhs,
                                        const StrippedPartition& base,
                                        const AttributeSet& base_attrs,
                                        PartitionRefiner& refiner);

/// Approximate form: X -> A survives while its g3 removal count (minimum
/// tuples to delete so the FD holds exactly) stays <= budget; budget == 0
/// accepts exactly the FDs the exact validator accepts.
///
/// Unlike the exact form this records no violation agree sets — one
/// violating pair refutes an exact FD but says nothing about an approximate
/// one, so callers must refute failed candidates wholesale (induct the
/// failed LHS against rhs - valid_rhs) rather than from sampled pairs.
ValidationOutcome ValidateApproxWithPartition(const Relation& r,
                                              const AttributeSet& lhs,
                                              const AttributeSet& rhs,
                                              const StrippedPartition& base,
                                              const AttributeSet& base_attrs,
                                              PartitionRefiner& refiner,
                                              int64_t budget);

/// One contiguous slice of a validation level's results, accumulated in
/// candidate order by whichever shard processed it.
struct LevelValidationResult {
  /// Violation agree sets, in the order the candidates produced them.
  std::vector<AttributeSet> violations;
  /// Approximate mode: (lhs, refuted rhs) per failed candidate, in order.
  std::vector<std::pair<AttributeSet, AttributeSet>> refuted_fds;
  int64_t validations = 0;
  int64_t pairs_checked = 0;
  int64_t refinements = 0;
  int64_t invalidated = 0;

  /// Appends `o` after this slice (vectors concatenate, counters sum).
  void append(LevelValidationResult&& o);
};

/// Mutex-guarded merge point for sharded level validation: each shard adds
/// its slice under its shard index, in whatever order shards finish, and
/// take_merged() concatenates the slices by index — reproducing exactly the
/// sequence a sequential candidate loop would have built. Combined with the
/// total order SortBySizeDescending imposes before induction, this is what
/// makes the parallel cover bit-identical to the sequential one.
class ParFdStorageBuilder {
 public:
  explicit ParFdStorageBuilder(std::size_t shards);

  ParFdStorageBuilder(const ParFdStorageBuilder&) = delete;
  ParFdStorageBuilder& operator=(const ParFdStorageBuilder&) = delete;

  void add(std::size_t shard, LevelValidationResult result)
      DHYFD_EXCLUDES(mu_);

  /// All slices concatenated in shard order. Call once, after every shard
  /// has added (run_shards' join is the barrier).
  LevelValidationResult take_merged() DHYFD_EXCLUDES(mu_);

 private:
  Mutex mu_;
  std::vector<LevelValidationResult> per_shard_ DHYFD_GUARDED_BY(mu_);
};

}  // namespace dhyfd

#endif  // DHYFD_ALGO_VALIDATOR_H_
