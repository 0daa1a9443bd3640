#include "relation/relation.h"

#include <algorithm>
#include <unordered_map>

namespace dhyfd {

Relation::Relation(Schema schema, RowId num_rows)
    : schema_(std::move(schema)),
      num_rows_(num_rows),
      columns_(schema_.size(), std::vector<ValueId>(num_rows, 0)),
      null_rows_(schema_.size()),
      domain_sizes_(schema_.size(), 0) {}

RowId Relation::append_row(const std::vector<ValueId>& values) {
  RowId id = num_rows_++;
  for (int c = 0; c < num_cols(); ++c) {
    columns_[c].push_back(values[c]);
    // Columns already tracking nulls grow one non-null flag; columns without
    // nulls stay empty (set_null sizes them lazily to num_rows_).
    if (!null_rows_[c].empty()) null_rows_[c].push_back(0);
  }
  return id;
}

ValueId Relation::max_domain_size() const {
  ValueId m = 0;
  for (ValueId d : domain_sizes_) m = std::max(m, d);
  return m;
}

bool Relation::agree_on(RowId s, RowId t, const AttributeSet& x) const {
  bool ok = true;
  x.for_each([&](AttrId a) {
    if (ok && columns_[a][s] != columns_[a][t]) ok = false;
  });
  return ok;
}

AttributeSet Relation::agree_set(RowId s, RowId t) const {
  return AttributeSet::where(num_cols(),
                             [&](AttrId a) { return columns_[a][s] == columns_[a][t]; });
}

bool Relation::satisfies(const AttributeSet& lhs, AttrId rhs) const {
  // Group rows by their LHS projection via sorting row ids.
  std::vector<RowId> rows(num_rows_);
  for (RowId i = 0; i < num_rows_; ++i) rows[i] = i;
  std::vector<AttrId> lhs_attrs;
  lhs.for_each([&](AttrId a) { lhs_attrs.push_back(a); });
  std::sort(rows.begin(), rows.end(), [&](RowId a, RowId b) {
    for (AttrId c : lhs_attrs) {
      if (columns_[c][a] != columns_[c][b]) return columns_[c][a] < columns_[c][b];
    }
    return false;
  });
  for (RowId i = 1; i < num_rows_; ++i) {
    if (agree_on(rows[i - 1], rows[i], lhs) &&
        columns_[rhs][rows[i - 1]] != columns_[rhs][rows[i]]) {
      return false;
    }
  }
  return true;
}

Relation Relation::fragment(RowId rows, int cols) const {
  rows = std::min(rows, num_rows_);
  cols = std::min(cols, num_cols());
  std::vector<std::string> names(schema_.names().begin(),
                                 schema_.names().begin() + cols);
  Relation out(Schema(std::move(names)), rows);
  for (int c = 0; c < cols; ++c) {
    // Re-densify codes for the fragment so refinement scratch arrays stay
    // sized to the fragment's active domain.
    std::unordered_map<ValueId, ValueId> remap;
    remap.reserve(rows);
    for (RowId r = 0; r < rows; ++r) {
      ValueId old = columns_[c][r];
      auto [it, inserted] = remap.emplace(old, static_cast<ValueId>(remap.size()));
      out.columns_[c][r] = it->second;
      (void)inserted;
      if (is_null(r, c)) out.set_null(r, c);
    }
    out.domain_sizes_[c] = static_cast<ValueId>(remap.size());
  }
  return out;
}

}  // namespace dhyfd
