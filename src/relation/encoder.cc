#include "relation/encoder.h"

#include <string_view>
#include <unordered_map>
#include <utility>

#include "util/thread_pool.h"

namespace dhyfd {

namespace {

// The one per-cell DIIS decision, shared by EncodeRelation and append(): it
// writes cell (row, col)'s code and null flag into `rel`. A non-null cell
// gets its value's code from `codes`. A null gets the column's shared
// `null_code` under kNullEqualsNull (assigned at the first null), or a
// fresh code under kNullNotEqualsNull so it agrees with no other row. A new
// code is the next one at the top of `dict`.
template <typename CodeMap>
void EncodeCell(const std::string& cell, RowId row, AttrId col, NullSemantics semantics,
                const CsvOptions& options, CodeMap& codes, ValueId& null_code,
                std::vector<std::string>& dict, Relation& rel) {
  const auto next = static_cast<ValueId>(dict.size());
  if (!IsNullToken(cell, options)) {
    auto [it, inserted] = codes.try_emplace(cell, next);
    if (inserted) dict.push_back(cell);
    rel.set_value(row, col, it->second);
    return;
  }
  rel.set_null(row, col);
  if (semantics == NullSemantics::kNullNotEqualsNull) {
    dict.emplace_back();
    rel.set_value(row, col, next);
    return;
  }
  if (null_code < 0) {
    null_code = next;
    dict.push_back(cell);
  }
  rel.set_value(row, col, null_code);
}

}  // namespace

EncodedRelation EncodeRelation(const RawTable& table, NullSemantics semantics,
                               const CsvOptions& options, ThreadPool* pool,
                               int parallelism) {
  const int cols = table.num_cols();
  const RowId rows = table.num_rows();
  EncodedRelation out;
  out.relation = Relation(Schema(table.header), rows);
  out.dictionaries.resize(cols);
  out.semantics_ = semantics;
  out.options_ = options;

  auto encode_column = [&](AttrId c) {
    // Keyed by views of the table's cells, which outlive the map, and
    // filled by try_emplace, so a repeated cell allocates and copies
    // nothing.
    std::unordered_map<std::string_view, ValueId> codes;
    codes.reserve(rows);
    // Built locally and moved in at the end: the dictionaries' vector
    // headers share cache lines across shards.
    std::vector<std::string> dict;
    ValueId null_code = -1;
    for (RowId r = 0; r < rows; ++r) {
      EncodeCell(table.rows[r][c], r, c, semantics, options, codes, null_code, dict,
                 out.relation);
    }
    out.relation.set_domain_size(c, static_cast<ValueId>(dict.size()));
    out.dictionaries[c] = std::move(dict);
  };
  if (pool != nullptr && parallelism > 1 && cols > 1) {
    pool->run_shards(parallelism, static_cast<size_t>(cols),
                     [&](size_t c) { encode_column(static_cast<AttrId>(c)); });
  } else {
    for (AttrId c = 0; c < cols; ++c) encode_column(c);
  }
  return out;
}

void EncodedRelation::index_codes() {
  const int m = relation.num_cols();
  append_codes_.assign(m, {});
  for (AttrId c = 0; c < m; ++c) {
    AppendCodes& col = append_codes_[c];
    col.codes.reserve(dictionaries[c].size());
    // Hash each code's string once.
    std::vector<uint8_t> seen(dictionaries[c].size(), 0);
    for (RowId r = 0; r < relation.num_rows(); ++r) {
      const ValueId v = relation.value(r, c);
      if (seen[v]) continue;
      seen[v] = 1;
      if (!relation.is_null(r, c)) {
        col.codes.emplace(dictionaries[c][v], v);
      } else if (semantics_ == NullSemantics::kNullEqualsNull) {
        col.null_code = v;
      }
    }
  }
}

RowId EncodedRelation::append(const std::vector<std::string>& cells) {
  const int m = relation.num_cols();
  if (append_codes_.size() != static_cast<size_t>(m)) index_codes();
  const RowId row = relation.append_row(std::vector<ValueId>(m, 0));
  for (AttrId c = 0; c < m; ++c) {
    EncodeCell(cells[c], row, c, semantics_, options_, append_codes_[c].codes,
               append_codes_[c].null_code, dictionaries[c], relation);
    relation.set_domain_size(c, static_cast<ValueId>(dictionaries[c].size()));
  }
  return row;
}

void EncodedRelation::compact(const std::vector<RowId>& keep) {
  relation = RedensifyRows(relation, keep, &dictionaries);
  // A relation that is appended to gets its maps back as part of the
  // compaction, not on the next append.
  if (!append_codes_.empty()) index_codes();
}

Relation RedensifyRows(const Relation& r, const std::vector<RowId>& keep,
                       std::vector<std::vector<std::string>>* dictionaries) {
  Relation out(r.schema(), static_cast<RowId>(keep.size()));
  std::vector<ValueId> remap;
  for (AttrId c = 0; c < r.num_cols(); ++c) {
    remap.assign(static_cast<size_t>(r.domain_size(c)), -1);
    std::vector<std::string> dict;
    ValueId next = 0;
    for (size_t i = 0; i < keep.size(); ++i) {
      const RowId row = static_cast<RowId>(i);
      const ValueId old_code = r.value(keep[i], c);
      ValueId& code = remap[old_code];
      if (code < 0) {
        code = next++;
        // Each old code is moved from once: later rows hit the remap.
        if (dictionaries != nullptr) dict.push_back(std::move((*dictionaries)[c][old_code]));
      }
      out.set_value(row, c, code);
      if (r.is_null(keep[i], c)) out.set_null(row, c);
    }
    out.set_domain_size(c, next);
    if (dictionaries != nullptr) (*dictionaries)[c] = std::move(dict);
  }
  return out;
}

Relation SeparateNulls(const Relation& r) {
  Relation out = r;
  std::vector<ValueId> remap;
  for (AttrId c = 0; c < r.num_cols(); ++c) {
    if (!r.column_has_nulls(c)) continue;
    remap.assign(static_cast<size_t>(r.domain_size(c)), -1);
    ValueId next = 0;
    for (RowId row = 0; row < r.num_rows(); ++row) {
      if (r.is_null(row, c)) {
        out.set_value(row, c, next++);
        continue;
      }
      ValueId& code = remap[r.value(row, c)];
      if (code < 0) code = next++;
      out.set_value(row, c, code);
    }
    out.set_domain_size(c, next);
  }
  return out;
}

NullStats ComputeNullStats(const Relation& r) {
  NullStats stats;
  std::vector<uint8_t> row_incomplete(r.num_rows(), 0);
  for (int c = 0; c < r.num_cols(); ++c) {
    if (!r.column_has_nulls(c)) continue;
    bool col_has = false;
    for (RowId i = 0; i < r.num_rows(); ++i) {
      if (r.is_null(i, c)) {
        ++stats.null_occurrences;
        row_incomplete[i] = 1;
        col_has = true;
      }
    }
    if (col_has) ++stats.incomplete_columns;
  }
  for (uint8_t f : row_incomplete) stats.incomplete_rows += f;
  return stats;
}

}  // namespace dhyfd
