#include "partition/partition_memo.h"

#include <cassert>
#include <utility>

#include "obs/obs.h"
#include "obs/obs_schema.gen.h"

namespace dhyfd {

PartitionMemo::PartitionMemo(const Relation& r, size_t max_entries,
                             size_t max_bytes)
    : rel_(r), refiner_(r), max_entries_(max_entries), max_bytes_(max_bytes) {}

PartitionMemo::Entry* PartitionMemo::touch(const AttributeSet& x) {
  auto it = map_.find(x);
  if (it == map_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  return &it->second;
}

const StrippedPartition& PartitionMemo::get(const AttributeSet& x) {
  assert(!x.empty());
  if (Entry* hit = touch(x)) {
    ObsAdd(kObsPartitionCacheHits);
    return hit->partition;
  }
  ObsAdd(kObsPartitionCacheMisses);

  // An insert below may evict the previous prefix, but only after `next`
  // has been refined from it.
  AttributeSet prefix;
  const StrippedPartition* current = nullptr;
  x.for_each([&](AttrId a) {
    prefix.set(a);
    if (Entry* hit = touch(prefix)) {
      if (prefix != x) ObsAdd(kObsPartitionPrefixCacheHits);
      current = &hit->partition;
      return;
    }
    StrippedPartition next = current == nullptr
                                 ? BuildAttributePartition(rel_, a)
                                 : refiner_.refine(*current, a);
    ++built_;
    bytes_ += next.memory_bytes();
    lru_.push_front(prefix);
    current = &map_.emplace(prefix, Entry{std::move(next), lru_.begin()})
                   .first->second.partition;
    while (lru_.size() > 1 &&
           (map_.size() > max_entries_ || bytes_ > max_bytes_)) {
      auto victim = map_.find(lru_.back());
      bytes_ -= victim->second.partition.memory_bytes();
      map_.erase(victim);
      lru_.pop_back();
      ObsAdd(kObsPartitionCacheEvictions);
    }
  });
  return *current;
}

bool PartitionMemo::implies(const AttributeSet& x, AttrId a) {
  if (x.empty()) {
    // {} -> a holds iff column a is constant.
    const std::vector<ValueId>& col = rel_.column(a);
    for (RowId i = 1; i < rel_.num_rows(); ++i) {
      if (col[i] != col[0]) return false;
    }
    return true;
  }
  return PartitionImpliesFd(rel_, get(x), a);
}

}  // namespace dhyfd
