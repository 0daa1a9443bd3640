#include "relation/encoder.h"

#include <string_view>
#include <unordered_map>
#include <utility>

#include "util/thread_pool.h"

namespace dhyfd {

EncodedRelation EncodeRelation(const RawTable& table, NullSemantics semantics,
                               const CsvOptions& options, ThreadPool* pool,
                               int parallelism) {
  const int cols = table.num_cols();
  const RowId rows = table.num_rows();
  EncodedRelation out{Relation(Schema(table.header), rows), {}};
  out.dictionaries.resize(cols);

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
      const std::string& cell = table.rows[r][c];
      if (IsNullToken(cell, options)) {
        out.relation.set_null(r, c);
        if (semantics == NullSemantics::kNullNotEqualsNull) {
          // Fresh code per null occurrence: never agrees with any row.
          ValueId code = static_cast<ValueId>(dict.size());
          dict.push_back("");
          out.relation.set_value(r, c, code);
        } else {
          if (null_code < 0) {
            null_code = static_cast<ValueId>(dict.size());
            dict.push_back(cell);
          }
          out.relation.set_value(r, c, null_code);
        }
        continue;
      }
      auto [it, inserted] = codes.try_emplace(cell, static_cast<ValueId>(dict.size()));
      if (inserted) dict.push_back(cell);
      out.relation.set_value(r, c, it->second);
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

DeltaEncoder::DeltaEncoder(const RawTable& table, NullSemantics semantics,
                           const CsvOptions& options)
    : rel_(Schema(table.header), 0),
      semantics_(semantics),
      options_(options),
      dictionaries_(table.num_cols()),
      code_of_(table.num_cols()),
      null_code_(table.num_cols(), -1) {
  for (const auto& row : table.rows) append(row);
}

ValueId DeltaEncoder::encode_cell(AttrId col, const std::string& cell,
                                  bool* is_null) {
  std::vector<std::string>& dict = dictionaries_[col];
  if (IsNullToken(cell, options_)) {
    *is_null = true;
    if (semantics_ == NullSemantics::kNullNotEqualsNull) {
      // Fresh code per null occurrence: never agrees with any row.
      ValueId code = static_cast<ValueId>(dict.size());
      dict.emplace_back();
      return code;
    }
    if (null_code_[col] < 0) {
      null_code_[col] = static_cast<ValueId>(dict.size());
      dict.push_back(cell);
    }
    return null_code_[col];
  }
  *is_null = false;
  auto [it, inserted] = code_of_[col].try_emplace(cell, static_cast<ValueId>(dict.size()));
  if (inserted) dict.push_back(cell);
  return it->second;
}

RowId DeltaEncoder::append(const std::vector<std::string>& cells) {
  const int m = rel_.num_cols();
  std::vector<ValueId> codes(m);
  std::vector<uint8_t> nulls(m, 0);
  for (int c = 0; c < m; ++c) {
    bool is_null = false;
    codes[c] = encode_cell(c, cells[c], &is_null);
    nulls[c] = is_null;
    if (static_cast<ValueId>(dictionaries_[c].size()) > rel_.domain_size(c)) {
      rel_.set_domain_size(c, static_cast<ValueId>(dictionaries_[c].size()));
    }
  }
  RowId row = rel_.append_row(codes);
  for (int c = 0; c < m; ++c) {
    if (nulls[c]) rel_.set_null(row, c);
  }
  return row;
}

void DeltaEncoder::compact(const std::vector<RowId>& keep) {
  const int m = rel_.num_cols();
  Relation fresh(rel_.schema(), static_cast<RowId>(keep.size()));
  for (int c = 0; c < m; ++c) {
    std::vector<std::string> dict;
    std::unordered_map<std::string, ValueId> codes;
    std::unordered_map<ValueId, ValueId> remap;
    ValueId null_code = -1;
    remap.reserve(keep.size());
    for (size_t i = 0; i < keep.size(); ++i) {
      RowId old_row = keep[i];
      ValueId old_code = rel_.value(old_row, c);
      auto [it, inserted] = remap.emplace(old_code, static_cast<ValueId>(dict.size()));
      if (inserted) {
        dict.push_back(dictionaries_[c][old_code]);
        if (rel_.is_null(old_row, c)) {
          if (semantics_ == NullSemantics::kNullEqualsNull) null_code = it->second;
        } else {
          codes.emplace(dict.back(), it->second);
        }
      }
      fresh.set_value(static_cast<RowId>(i), c, it->second);
      if (rel_.is_null(old_row, c)) fresh.set_null(static_cast<RowId>(i), c);
    }
    fresh.set_domain_size(c, static_cast<ValueId>(dict.size()));
    dictionaries_[c] = std::move(dict);
    code_of_[c] = std::move(codes);
    null_code_[c] = null_code;
  }
  rel_ = std::move(fresh);
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
