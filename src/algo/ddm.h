#ifndef DHYFD_ALGO_DDM_H_
#define DHYFD_ALGO_DDM_H_

#include <cstdint>
#include <vector>

#include "fdtree/extended_fd_tree.h"
#include "partition/partition_ops.h"
#include "partition/stripped_partition.h"
#include "relation/relation.h"

namespace dhyfd {

class ThreadPool;

/// The paper's dynamic data manager (Section IV-E).
///
/// Holds (a) the pre-computed stripped partition of every single attribute
/// and (b) an array of dynamic stripped partitions keyed by the extended
/// FD-tree's node ids. A node id i < |R| denotes pi_{A_i}; an id i >= |R|
/// denotes the dynamic entry i - |R|, whose attribute set is guaranteed (by
/// Algorithm 1's id discipline) to be a subset of the node's path.
class Ddm {
 public:
  explicit Ddm(const Relation& r);

  const Relation& relation() const { return rel_; }
  PartitionRefiner& refiner() { return refiner_; }

  const StrippedPartition& attribute_partition(AttrId a) const {
    return static_partitions_[a];
  }

  /// ||pi_A||; Algorithm 6 line 16 picks the path attribute minimizing this.
  int64_t attribute_support(AttrId a) const { return attribute_supports_[a]; }

  /// The partition a node id refers to, plus its attribute set.
  const StrippedPartition& partition_for_id(int id) const;
  AttributeSet attrs_for_id(int id) const;

  /// Algorithm 3: rebuilds the dynamic array from the reusable nodes at the
  /// new controlled level. Each node's current partition is refined by the
  /// attributes its path adds, the node's id is re-pointed at the new entry,
  /// and the id is copied to all descendants. Returns the number of cluster
  /// refinements performed.
  ///
  /// With a pool and parallelism > 1 the per-node refinements are sharded
  /// over the pool: ids are pre-assigned by node index (so the rebuilt array
  /// is identical to the sequential one), each shard re-points only its own
  /// level nodes and leases its own refiner, and the copy of the ids to the
  /// descendants is one sequential arena scan afterwards.
  int64_t update(const std::vector<ExtendedFdTree::NodeId>& level_nodes,
                 ExtendedFdTree& tree, ThreadPool* pool = nullptr,
                 int parallelism = 1);

  size_t memory_bytes() const;
  int dynamic_entries() const { return static_cast<int>(dynamic_.size()); }

 private:
  struct Entry {
    StrippedPartition partition;
    AttributeSet attrs;
  };

  const Relation& rel_;
  PartitionRefiner refiner_;
  std::vector<StrippedPartition> static_partitions_;
  std::vector<int64_t> attribute_supports_;
  std::vector<Entry> dynamic_;
};

}  // namespace dhyfd

#endif  // DHYFD_ALGO_DDM_H_
