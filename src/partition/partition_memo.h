#ifndef DHYFD_PARTITION_PARTITION_MEMO_H_
#define DHYFD_PARTITION_PARTITION_MEMO_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <unordered_map>

#include "partition/partition_ops.h"

namespace dhyfd {

/// Single-threaded memo of stripped partitions for DFD's lattice probes.
/// pi_X is refined along X's sorted-prefix chain from the longest memoized
/// prefix, memoizing every prefix it builds. Entries are evicted least
/// recently used past an entry budget and a byte budget over their CSR
/// arena footprint.
class PartitionMemo {
 public:
  explicit PartitionMemo(const Relation& r, size_t max_entries = 8192,
                         size_t max_bytes = size_t{256} << 20);

  /// pi_X for a non-empty X. The reference stays valid until the next
  /// get(): eviction never drops the most recently used entry.
  const StrippedPartition& get(const AttributeSet& x);

  /// True if X -> a holds.
  bool implies(const AttributeSet& x, AttrId a);

  int64_t partitions_built() const { return built_; }

 private:
  struct Entry {
    StrippedPartition partition;
    std::list<AttributeSet>::iterator lru_it;
  };

  /// The resident entry for x, moved to the LRU front, or null.
  Entry* touch(const AttributeSet& x);

  const Relation& rel_;
  PartitionRefiner refiner_;
  const size_t max_entries_;
  const size_t max_bytes_;
  std::unordered_map<AttributeSet, Entry, AttributeSetHash> map_;
  std::list<AttributeSet> lru_;  // front = most recently used
  size_t bytes_ = 0;
  int64_t built_ = 0;
};

}  // namespace dhyfd

#endif  // DHYFD_PARTITION_PARTITION_MEMO_H_
