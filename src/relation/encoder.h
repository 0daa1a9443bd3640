#ifndef DHYFD_RELATION_ENCODER_H_
#define DHYFD_RELATION_ENCODER_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "relation/csv.h"
#include "relation/relation.h"

namespace dhyfd {

class ThreadPool;

/// Result of DIIS encoding: the encoded relation plus, per column, the
/// dictionary mapping ValueId back to the original string (null codes map to
/// an empty string under kNullNotEqualsNull; under kNullEqualsNull the single
/// null code maps to the first null token seen).
struct EncodedRelation {
  Relation relation;
  std::vector<std::vector<std::string>> dictionaries;

  /// Original string for a cell; convenience for reports and examples.
  const std::string& decode(RowId row, AttrId col) const {
    return dictionaries[col][relation.value(row, col)];
  }
};

/// Encodes a raw string table with the paper's domain independent indexing
/// scheme (DIIS): per column, a bijection from the active domain onto dense
/// integer codes 0..|adom|-1.
///
/// Null handling follows `semantics`:
///  * kNullEqualsNull: all null markers in a column share one code.
///  * kNullNotEqualsNull: every null occurrence gets a fresh code, so it
///    agrees with no other row. The null flag is preserved either way.
///
/// Columns are independent, so with a `pool` (not owned, may be null) they
/// are encoded one column per shard on up to `parallelism` threads including
/// the caller. Each shard writes only its own column's codes, null flags,
/// domain size and dictionary, so the result is the same at any degree.
EncodedRelation EncodeRelation(const RawTable& table,
                               NullSemantics semantics = NullSemantics::kNullEqualsNull,
                               const CsvOptions& options = {},
                               ThreadPool* pool = nullptr, int parallelism = 1);

/// Stateful DIIS encoder for live relations: encodes an initial table like
/// EncodeRelation, then re-encodes only the cells of appended rows. Existing
/// codes are stable across appends; unseen values extend the per-column
/// dictionary (the active domain grows at the top, staying dense).
///
/// compact() re-densifies codes onto a surviving subset of rows — the hook
/// LiveRelation uses when churn-triggered rebuilds drop tombstoned rows, so
/// dictionaries and refinement scratch arrays do not grow without bound.
class DeltaEncoder {
 public:
  explicit DeltaEncoder(const RawTable& table,
                        NullSemantics semantics = NullSemantics::kNullEqualsNull,
                        const CsvOptions& options = {});

  Relation& relation() { return rel_; }
  const Relation& relation() const { return rel_; }
  NullSemantics semantics() const { return semantics_; }
  const std::vector<std::vector<std::string>>& dictionaries() const {
    return dictionaries_;
  }

  /// Encodes and appends one raw row (cells.size() must match the schema).
  /// Only the new cells are touched; returns the new row id.
  RowId append(const std::vector<std::string>& cells);

  /// Rebuilds the relation from the given rows (ascending, deduplicated),
  /// re-densifying every column's codes to the values those rows actually
  /// use. Row `keep[i]` of the old relation becomes row i of the new one.
  void compact(const std::vector<RowId>& keep);

  /// Original string for a cell; null cells decode to their dictionary
  /// entry, like EncodedRelation::decode.
  const std::string& decode(RowId row, AttrId col) const {
    return dictionaries_[col][rel_.value(row, col)];
  }

 private:
  ValueId encode_cell(AttrId col, const std::string& cell, bool* is_null);

  Relation rel_;
  NullSemantics semantics_;
  CsvOptions options_;
  std::vector<std::vector<std::string>> dictionaries_;
  // Per column: string -> code for non-null values, plus the shared null
  // code under kNullEqualsNull (-1 until the first null is seen).
  std::vector<std::unordered_map<std::string, ValueId>> code_of_;
  std::vector<ValueId> null_code_;
};

/// Statistics about missing values (the #IR / #IC / #null columns reported
/// alongside the paper's data sets).
struct NullStats {
  int64_t incomplete_rows = 0;
  int incomplete_columns = 0;
  int64_t null_occurrences = 0;
};

NullStats ComputeNullStats(const Relation& r);

}  // namespace dhyfd

#endif  // DHYFD_RELATION_ENCODER_H_
