#include "partition/partition_ops.h"

#include <algorithm>

#include "obs/obs.h"
#include "obs/obs_schema.gen.h"

namespace dhyfd {

namespace {
// Marks a scratch cursor whose value-class was stripped (size < 2).
constexpr uint32_t kStripped = UINT32_MAX;
}  // namespace

PartitionRefiner::PartitionRefiner(const Relation& r)
    : rel_(r),
      counts_(static_cast<size_t>(std::max<ValueId>(r.max_domain_size(), 1)), 0) {}

void PartitionRefiner::refine_cluster(ClusterView cluster, AttrId a,
                                      StrippedPartition& out) {
  const std::vector<ValueId>& col = rel_.column(a);
  // Most refined classes are pairs, and a pair survives whole (both rows
  // share the A-value) or not at all: no counters needed.
  if (cluster.size() == 2) {
    if (col[cluster[0]] == col[cluster[1]]) out.add_cluster(cluster);
    return;
  }
  // Algorithm 5, flattened: count each A-value's occurrences in the class,
  // lay the surviving sub-classes out contiguously in the output arena,
  // then place each row at its sub-class cursor. Two passes, no per-class
  // vectors; only touched counters are reset afterwards.
  for (RowId row : cluster) {
    ValueId v = col[row];
    if (counts_[v] == 0) touched_.push_back(v);
    ++counts_[v];
  }
  uint32_t cursor = static_cast<uint32_t>(out.rows_.size());
  size_t kept = 0;
  for (ValueId v : touched_) {
    if (counts_[v] >= 2) kept += counts_[v];
  }
  if (kept > 0) {
    out.rows_.resize(out.rows_.size() + kept);
    if (out.offsets_.empty()) out.offsets_.push_back(0);
    for (ValueId v : touched_) {
      if (counts_[v] >= 2) {
        uint32_t begin = cursor;
        cursor += counts_[v];
        counts_[v] = begin;
        out.offsets_.push_back(cursor);
      } else {
        counts_[v] = kStripped;
      }
    }
    for (RowId row : cluster) {
      uint32_t& cur = counts_[col[row]];
      if (cur != kStripped) out.rows_[cur++] = row;
    }
  }
  for (ValueId v : touched_) counts_[v] = 0;
  touched_.clear();
}

void PartitionRefiner::refine_into(const StrippedPartition& p, AttrId a,
                                   StrippedPartition& out) {
  size_t cap_before = out.rows_.capacity();
  out.clear();
  out.reserve(static_cast<size_t>(p.support()), static_cast<size_t>(p.size()));
  const size_t n = static_cast<size_t>(p.size());
  for (size_t i = 0; i < n; ++i) refine_cluster(p.cluster(i), a, out);
  if (out.rows_.capacity() == cap_before) {
    ObsAdd(kObsPartitionArenaReuses);
  } else {
    ObsAdd(kObsPartitionArenaGrowths);
  }
}

void PartitionRefiner::refine_inplace(StrippedPartition& p, AttrId a) {
  refine_into(p, a, buffer_);
  p.swap(buffer_);
}

StrippedPartition PartitionRefiner::refine(const StrippedPartition& p, AttrId a) {
  StrippedPartition out;
  refine_into(p, a, out);
  return out;
}

StrippedPartition PartitionRefiner::refine_all(const StrippedPartition& p,
                                               const AttributeSet& attrs) {
  StrippedPartition cur = p;
  attrs.for_each([&](AttrId a) { refine_inplace(cur, a); });
  return cur;
}

PartitionIntersector::PartitionIntersector(RowId num_rows)
    : probe_(static_cast<size_t>(std::max<RowId>(num_rows, 0)), 0),
      stamp_(static_cast<size_t>(std::max<RowId>(num_rows, 0)), 0) {}

void PartitionIntersector::intersect(const StrippedPartition& a,
                                     const StrippedPartition& b,
                                     StrippedPartition& out) {
  ObsAdd(kObsPartitionIntersections);
  size_t cap_before = out.rows_.capacity();
  out.clear();
  if (++epoch_ == 0) {
    // Stamp wrap-around: invalidate everything once per 2^32 calls.
    std::fill(stamp_.begin(), stamp_.end(), 0);
    epoch_ = 1;
  }
  // Standard TANE product: probe rows of b's classes against a's class ids.
  // Rows outside a's classes are singletons in pi_a and stay stripped.
  const size_t na = static_cast<size_t>(a.size());
  if (counts_.size() < na) counts_.resize(na, 0);
  for (size_t i = 0; i < na; ++i) {
    for (RowId row : a.cluster(i)) {
      probe_[row] = static_cast<uint32_t>(i);
      stamp_[row] = epoch_;
    }
  }
  const size_t nb = static_cast<size_t>(b.size());
  for (size_t j = 0; j < nb; ++j) {
    ClusterView cluster = b.cluster(j);
    // Same two-pass counting split as the refiner, keyed by a-class id.
    for (RowId row : cluster) {
      if (stamp_[row] != epoch_) continue;
      uint32_t g = probe_[row];
      if (counts_[g] == 0) touched_.push_back(g);
      ++counts_[g];
    }
    uint32_t cursor = static_cast<uint32_t>(out.rows_.size());
    size_t kept = 0;
    for (uint32_t g : touched_) {
      if (counts_[g] >= 2) kept += counts_[g];
    }
    if (kept > 0) {
      out.rows_.resize(out.rows_.size() + kept);
      if (out.offsets_.empty()) out.offsets_.push_back(0);
      for (uint32_t g : touched_) {
        if (counts_[g] >= 2) {
          uint32_t begin = cursor;
          cursor += counts_[g];
          counts_[g] = begin;
          out.offsets_.push_back(cursor);
        } else {
          counts_[g] = kStripped;
        }
      }
      for (RowId row : cluster) {
        if (stamp_[row] != epoch_) continue;
        uint32_t& cur = counts_[probe_[row]];
        if (cur != kStripped) out.rows_[cur++] = row;
      }
    }
    for (uint32_t g : touched_) counts_[g] = 0;
    touched_.clear();
  }
  if (out.rows_.capacity() == cap_before) {
    ObsAdd(kObsPartitionArenaReuses);
  } else {
    ObsAdd(kObsPartitionArenaGrowths);
  }
}

StrippedPartition IntersectPartitions(const StrippedPartition& a,
                                      const StrippedPartition& b, RowId num_rows) {
  PartitionIntersector intersector(num_rows);
  StrippedPartition out;
  intersector.intersect(a, b, out);
  return out;
}

ApproxErrorCalculator::ApproxErrorCalculator(const Relation& r)
    : rel_(r),
      counts_(static_cast<size_t>(std::max<ValueId>(r.max_domain_size(), 1)), 0) {}

int64_t ApproxErrorCalculator::removals(const StrippedPartition& lhs_partition,
                                        AttrId rhs) {
  const std::vector<ValueId>& col = rel_.column(rhs);
  int64_t total = 0;
  for (ClusterView cluster : lhs_partition.clusters()) {
    uint32_t max_group = 0;
    for (RowId row : cluster) {
      ValueId v = col[row];
      if (counts_[v] == 0) touched_.push_back(v);
      if (++counts_[v] > max_group) max_group = counts_[v];
    }
    total += static_cast<int64_t>(cluster.size()) - max_group;
    for (ValueId v : touched_) counts_[v] = 0;
    touched_.clear();
  }
  return total;
}

int64_t ApproxFdRemovals(const Relation& r, const StrippedPartition& lhs_partition,
                         AttrId rhs) {
  ApproxErrorCalculator calc(r);
  return calc.removals(lhs_partition, rhs);
}

int64_t ApproxRemovalBudget(double epsilon, RowId num_rows) {
  if (epsilon <= 0 || num_rows <= 0) return 0;
  return static_cast<int64_t>(epsilon * static_cast<double>(num_rows) + 1e-9);
}

bool PartitionImpliesFd(const Relation& r, const StrippedPartition& lhs_partition,
                        AttrId rhs) {
  const std::vector<ValueId>& col = r.column(rhs);
  for (ClusterView cluster : lhs_partition.clusters()) {
    ValueId v = col[cluster.front()];
    for (size_t i = 1; i < cluster.size(); ++i) {
      if (col[cluster[i]] != v) return false;
    }
  }
  return true;
}

}  // namespace dhyfd
