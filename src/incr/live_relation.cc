#include "incr/live_relation.h"

#include <algorithm>
#include <numeric>

namespace dhyfd {

namespace {
const std::vector<RowId> kEmptyGroup;
}  // namespace

LiveRelation::LiveRelation(const RawTable& initial, NullSemantics semantics,
                           CsvOptions options)
    : encoder_(EncodeRelation(initial, semantics, options)),
      ids_(static_cast<size_t>(encoder_.relation.num_rows())) {
  std::iota(ids_.begin(), ids_.end(), LiveRowId{0});
  next_id_ = static_cast<LiveRowId>(ids_.size());
  reindex();
}

void LiveRelation::reindex() {
  const Relation& r = relation();
  live_.assign(ids_.size(), 1);
  live_rows_ = r.num_rows();
  row_of_.clear();
  row_of_.reserve(ids_.size());
  for (RowId row = 0; row < r.num_rows(); ++row) row_of_.emplace(ids_[row], row);
  groups_.assign(r.num_cols(), {});
  supports_.assign(r.num_cols(), 0);
  distinct_.assign(r.num_cols(), 0);
  for (int c = 0; c < r.num_cols(); ++c) {
    groups_[c].resize(static_cast<size_t>(r.domain_size(c)));
  }
  // Rows are ascending, so per-group push_back keeps groups sorted.
  for (RowId row = 0; row < r.num_rows(); ++row) register_row(row);
  refiner_.reset();
  refiner_domain_ = 0;
}

RowId LiveRelation::row_of(LiveRowId id) const {
  auto it = row_of_.find(id);
  if (it == row_of_.end()) return -1;
  return is_live(it->second) ? it->second : -1;
}

void LiveRelation::register_row(RowId row) {
  const Relation& r = relation();
  for (int c = 0; c < r.num_cols(); ++c) {
    if (static_cast<size_t>(r.domain_size(c)) > groups_[c].size()) {
      groups_[c].resize(static_cast<size_t>(r.domain_size(c)));
    }
    std::vector<RowId>& g = groups_[c][r.value(row, c)];
    g.push_back(row);
    if (g.size() == 1) {
      ++distinct_[c];
    } else {
      // A group entering size 2 starts counting both members as support.
      supports_[c] += g.size() == 2 ? 2 : 1;
    }
  }
}

RowId LiveRelation::insert_row(const std::vector<std::string>& cells) {
  RowId row = encoder_.append(cells);
  live_.push_back(1);
  ids_.push_back(next_id_);
  row_of_.emplace(next_id_, row);
  ++next_id_;
  ++live_rows_;
  register_row(row);
  return row;
}

void LiveRelation::erase_row(RowId row) {
  if (!is_live(row)) return;
  const Relation& r = relation();
  for (int c = 0; c < r.num_cols(); ++c) {
    std::vector<RowId>& g = groups_[c][r.value(row, c)];
    g.erase(std::find(g.begin(), g.end(), row));
    if (g.empty()) {
      --distinct_[c];
    } else {
      supports_[c] -= g.size() == 1 ? 2 : 1;
    }
  }
  live_[row] = 0;
  row_of_.erase(ids_[row]);
  --live_rows_;
}

const std::vector<RowId>& LiveRelation::group(AttrId a, ValueId v) const {
  if (static_cast<size_t>(v) >= groups_[a].size()) return kEmptyGroup;
  return groups_[a][v];
}

StrippedPartition LiveRelation::live_attribute_partition(AttrId a) const {
  StrippedPartition pi;
  size_t rows = 0, classes = 0;
  for (const auto& g : groups_[a]) {
    if (g.size() >= 2) {
      rows += g.size();
      ++classes;
    }
  }
  pi.reserve(rows, classes);
  for (const auto& g : groups_[a]) {
    if (g.size() >= 2) pi.add_cluster(ClusterView(g.data(), g.size()));
  }
  return pi;
}

std::pair<RowId, RowId> LiveRelation::distinct_pair(AttrId a) const {
  RowId first = -1;
  for (const auto& g : groups_[a]) {
    if (g.empty()) continue;
    if (first < 0) {
      first = g.front();
    } else {
      return {first, g.front()};
    }
  }
  return {-1, -1};
}

StrippedPartition LiveRelation::whole_live_cluster() const {
  StrippedPartition pi;
  if (live_rows_ < 2) return pi;
  pi.reserve(static_cast<size_t>(live_rows_), 1);
  for (RowId row = 0; row < storage_rows(); ++row) {
    if (is_live(row)) pi.append_row(row);
  }
  pi.commit_cluster();
  return pi;
}

std::vector<RowId> LiveRelation::live_row_list() const {
  std::vector<RowId> rows;
  rows.reserve(live_rows_);
  for (RowId row = 0; row < storage_rows(); ++row) {
    if (is_live(row)) rows.push_back(row);
  }
  return rows;
}

Relation LiveRelation::snapshot() const {
  return RedensifyRows(relation(), live_row_list());
}

void LiveRelation::compact() {
  const std::vector<RowId> keep = live_row_list();
  std::vector<LiveRowId> ids;
  ids.reserve(keep.size());
  for (RowId row : keep) ids.push_back(ids_[row]);
  encoder_.compact(keep);
  ids_ = std::move(ids);
  reindex();
}

PartitionRefiner& LiveRelation::refiner() {
  ValueId domain = relation().max_domain_size();
  if (!refiner_ || domain > refiner_domain_) {
    refiner_ = std::make_unique<PartitionRefiner>(relation());
    refiner_domain_ = domain;
  }
  return *refiner_;
}

size_t LiveRelation::memory_bytes() const {
  size_t bytes = 0;
  const Relation& r = relation();
  bytes += static_cast<size_t>(r.num_rows()) * r.num_cols() * sizeof(ValueId);
  for (const auto& col : groups_) {
    bytes += col.size() * sizeof(std::vector<RowId>);
    for (const auto& g : col) bytes += g.capacity() * sizeof(RowId);
  }
  bytes += live_.size() * sizeof(uint8_t) + ids_.size() * sizeof(LiveRowId);
  bytes += row_of_.size() * (sizeof(LiveRowId) + sizeof(RowId) + 2 * sizeof(void*));
  return bytes;
}

}  // namespace dhyfd
