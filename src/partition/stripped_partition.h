#ifndef DHYFD_PARTITION_STRIPPED_PARTITION_H_
#define DHYFD_PARTITION_STRIPPED_PARTITION_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "relation/relation.h"

namespace dhyfd {

/// A view over one equivalence class: the row ids of the class, in the
/// order the builder emitted them (ascending for attribute partitions).
using ClusterView = std::span<const RowId>;

/// A stripped partition pi_X(r): the X-equivalence classes of r with at
/// least two tuples (singleton classes are "stripped"; paper Section III).
///
/// Flat CSR layout: all cluster rows live in one contiguous `rows` arena;
/// cluster i is rows[offsets[i], offsets[i+1]). Compared to the former
/// vector-of-vectors this is one allocation instead of one per class, the
/// refinement/intersection kernels stream through it linearly, and
/// `support()`/`size()`/`error()` are O(1) reads of the array bounds.
class StrippedPartition {
 public:
  StrippedPartition() = default;

  /// |pi_X|: the number of equivalence classes (cardinality). O(1).
  int64_t size() const {
    return offsets_.empty() ? 0 : static_cast<int64_t>(offsets_.size()) - 1;
  }

  /// ||pi_X||: the total number of tuples across classes (support). O(1):
  /// every arena row belongs to exactly one class.
  int64_t support() const { return static_cast<int64_t>(rows_.size()); }

  /// TANE's error measure e(X) = ||pi_X|| - |pi_X|. X is a superkey iff 0.
  int64_t error() const { return support() - size(); }

  bool empty() const { return rows_.empty(); }

  /// The i-th equivalence class.
  ClusterView cluster(size_t i) const {
    return ClusterView(rows_.data() + offsets_[i], offsets_[i + 1] - offsets_[i]);
  }

  /// Mutable view of the i-th class; used for in-place row reordering
  /// (normalize, and the tests' comparison-sorted neighborhoods).
  std::span<RowId> mutable_cluster(size_t i) {
    return std::span<RowId>(rows_.data() + offsets_[i], offsets_[i + 1] - offsets_[i]);
  }

  /// Every clustered row in one flat span. Consumers that only need "rows
  /// with an LHS witness" (redundancy counting) can skip the class bounds.
  ClusterView row_arena() const { return ClusterView(rows_.data(), rows_.size()); }

  /// Iteration over classes as ClusterViews: `for (ClusterView c : p.clusters())`.
  class ClusterIterator {
   public:
    using value_type = ClusterView;
    using difference_type = std::ptrdiff_t;

    ClusterIterator(const StrippedPartition* p, size_t i) : p_(p), i_(i) {}
    ClusterView operator*() const { return p_->cluster(i_); }
    ClusterIterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator!=(const ClusterIterator& o) const { return i_ != o.i_; }
    bool operator==(const ClusterIterator& o) const { return i_ == o.i_; }

   private:
    const StrippedPartition* p_;
    size_t i_;
  };
  struct ClusterRange {
    const StrippedPartition* p;
    ClusterIterator begin() const { return ClusterIterator(p, 0); }
    ClusterIterator end() const {
      return ClusterIterator(p, static_cast<size_t>(p->size()));
    }
  };
  ClusterRange clusters() const { return ClusterRange{this}; }

  /// Drops all classes but keeps the arena capacity: the double-buffer
  /// refiner and the intersector reuse cleared partitions as output arenas.
  void clear() {
    rows_.clear();
    offsets_.clear();
  }

  void reserve(size_t rows, size_t num_clusters) {
    rows_.reserve(rows);
    offsets_.reserve(num_clusters + 1);
  }

  /// Appends one class (copying its rows into the arena). The caller must
  /// only pass classes with >= 2 rows — singletons are stripped by contract.
  void add_cluster(ClusterView cluster_rows) {
    if (offsets_.empty()) offsets_.push_back(0);
    rows_.insert(rows_.end(), cluster_rows.begin(), cluster_rows.end());
    offsets_.push_back(static_cast<uint32_t>(rows_.size()));
  }

  /// Streaming build: push rows, then seal them into a class. rollback
  /// drops the pending rows instead (how builders strip singletons).
  void append_row(RowId row) { rows_.push_back(row); }
  size_t pending_rows() const {
    return rows_.size() - (offsets_.empty() ? 0 : offsets_.back());
  }
  void commit_cluster() {
    if (offsets_.empty()) offsets_.push_back(0);
    offsets_.push_back(static_cast<uint32_t>(rows_.size()));
  }
  void rollback_cluster() {
    rows_.resize(offsets_.empty() ? 0 : offsets_.back());
  }

  /// pi_{} for a relation of `num_rows` rows: one class holding every tuple
  /// (no class at all if |r| < 2, since singletons are stripped).
  static StrippedPartition whole(RowId num_rows);

  /// True arena footprint in bytes; feeds the memory accounting that backs
  /// the paper's Table II / Figure 7 measurements. Exact for the CSR layout:
  /// the arena and offset capacities are the only heap blocks.
  size_t memory_bytes() const {
    return sizeof(StrippedPartition) + rows_.capacity() * sizeof(RowId) +
           offsets_.capacity() * sizeof(uint32_t);
  }

  /// Canonical form: sorts rows within clusters and clusters by first row.
  /// Only used by tests to compare partitions for equality.
  void normalize();

  std::string to_string() const;

  void swap(StrippedPartition& o) {
    rows_.swap(o.rows_);
    offsets_.swap(o.offsets_);
  }

 private:
  friend class PartitionRefiner;
  friend class PartitionIntersector;
  friend StrippedPartition BuildAttributePartition(const Relation& r, AttrId attr);

  /// Concatenated class rows (the arena).
  std::vector<RowId> rows_;
  /// Class boundaries: size() + 1 entries when non-empty, offsets_[0] == 0.
  std::vector<uint32_t> offsets_;
};

/// Builds pi_A(r) for a single attribute.
StrippedPartition BuildAttributePartition(const Relation& r, AttrId attr);

/// Builds pi_X(r) for an attribute set by iterated refinement. Convenience
/// for tests, ranking, and cover checking; the discovery algorithms use
/// PartitionRefiner / intersection directly.
StrippedPartition BuildPartition(const Relation& r, const AttributeSet& x);

}  // namespace dhyfd

#endif  // DHYFD_PARTITION_STRIPPED_PARTITION_H_
