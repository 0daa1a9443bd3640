#include "algo/ddm.h"

#include <algorithm>

#include "obs/obs.h"
#include "obs/obs_schema.gen.h"
#include "util/cancellation.h"
#include "util/mutex.h"
#include "util/thread_pool.h"

namespace dhyfd {

Ddm::Ddm(const Relation& r) : rel_(r), refiner_(r) {
  const int m = r.num_cols();
  static_partitions_.reserve(m);
  attribute_supports_.reserve(m);
  for (AttrId a = 0; a < m; ++a) {
    if (CancelScope::CurrentCancelled()) return;
    static_partitions_.push_back(BuildAttributePartition(r, a));
    attribute_supports_.push_back(static_partitions_.back().support());
  }
}

const StrippedPartition& Ddm::partition_for_id(int id) const {
  if (id < rel_.num_cols()) return static_partitions_[id];
  return dynamic_[id - rel_.num_cols()].partition;
}

AttributeSet Ddm::attrs_for_id(int id) const {
  if (id < rel_.num_cols()) return AttributeSet::single(id);
  return dynamic_[id - rel_.num_cols()].attrs;
}

int64_t Ddm::update(const std::vector<ExtendedFdTree::NodeId>& level_nodes,
                    ExtendedFdTree& tree, ThreadPool* pool, int parallelism) {
  const int m = rel_.num_cols();
  std::vector<Entry> fresh(level_nodes.size());
  int64_t refinements = 0;

  // Capture the nodes' current partition references before wiping ids:
  // Algorithm 3 starts each refinement from the node's previous partition.
  std::vector<int> old_ids;
  old_ids.reserve(level_nodes.size());
  for (ExtendedFdTree::NodeId n : level_nodes) old_ids.push_back(tree.node(n).id);

  // Reset every id to its default so no node anywhere in the tree keeps a
  // reference into the dynamic array we are about to replace.
  tree.reset_ids();

  // Per-node rebuild. Entry ids are pre-assigned by node index (new_id =
  // m + idx), so the rebuilt array does not depend on completion order; each
  // shard re-points only its own nodes.
  auto rebuild_node = [&](size_t idx, PartitionRefiner& refiner,
                          int64_t& shard_refinements) {
    const ExtendedFdTree::NodeId n = level_nodes[idx];
    const AttrId attr = tree.node(n).attr;
    AttributeSet path = tree.path_of(n);
    // Algorithm 3 steps 7-9: start from the node's current partition — the
    // dynamic entry its id pointed to, or its own attribute's partition.
    const StrippedPartition* start;
    AttributeSet start_attrs;
    if (old_ids[idx] >= m) {
      const Entry& e = dynamic_[old_ids[idx] - m];
      start = &e.partition;
      start_attrs = e.attrs;
    } else {
      start = &static_partitions_[attr];
      start_attrs = AttributeSet::single(attr);
    }
    Entry& entry = fresh[idx];
    entry.attrs = path;
    entry.partition = *start;
    AttributeSet todo = path - start_attrs;
    todo.for_each([&](AttrId b) {
      shard_refinements += entry.partition.size();
      refiner.refine_inplace(entry.partition, b);
    });
    tree.set_id(n, m + static_cast<int>(idx));
  };

  if (pool != nullptr && parallelism > 1 && level_nodes.size() > 1) {
    std::size_t shards = std::min(level_nodes.size(),
                                  static_cast<std::size_t>(parallelism));
    std::vector<int64_t> shard_refinements(shards, 0);
    Mutex totals_mu;
    pool->parallel_for(
        level_nodes.size(), parallelism,
        [&](size_t shard, size_t begin, size_t end) {
          PartitionRefiner refiner(rel_);
          int64_t local = 0;
          for (size_t idx = begin; idx < end; ++idx) {
            rebuild_node(idx, refiner, local);
          }
          MutexLock lock(&totals_mu);
          shard_refinements[shard] = local;
        },
        kObsDiscoverShard);
    for (int64_t r : shard_refinements) refinements += r;
  } else {
    for (size_t idx = 0; idx < level_nodes.size(); ++idx) {
      rebuild_node(idx, refiner_, refinements);
    }
  }

  // Step 13-15: every descendant takes its level node's id, keeping ids
  // consistent (descendant paths are supersets of the node's path).
  tree.propagate_dynamic_ids(m);
  dynamic_ = std::move(fresh);
  ObsAdd(kObsPartitionDdmDynamicBuilds, static_cast<int64_t>(dynamic_.size()));
  ObsAdd(kObsPartitionDdmRefinements, refinements);
  return refinements;
}

size_t Ddm::memory_bytes() const {
  size_t bytes = 0;
  for (const StrippedPartition& p : static_partitions_) bytes += p.memory_bytes();
  for (const Entry& e : dynamic_) bytes += e.partition.memory_bytes();
  return bytes;
}

}  // namespace dhyfd
