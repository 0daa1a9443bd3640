#ifndef DHYFD_RELATION_ENCODER_H_
#define DHYFD_RELATION_ENCODER_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "relation/csv.h"
#include "relation/relation.h"

namespace dhyfd {

class ThreadPool;

/// A DIIS-encoded relation plus, per column, the dictionary mapping each
/// ValueId back to the original string (null codes map to an empty string
/// under kNullNotEqualsNull; under kNullEqualsNull the single null code maps
/// to the first null token seen).
///
/// EncodeRelation builds one from a whole table. append() and compact() then
/// keep it encoded as rows come and go, which is how LiveRelation stores its
/// rows: existing codes are stable across appends, and an unseen value gets
/// the next code at the top of its column's domain, keeping codes dense.
struct EncodedRelation {
  Relation relation;
  std::vector<std::vector<std::string>> dictionaries;

  /// Original string for a cell; convenience for reports and examples.
  const std::string& decode(RowId row, AttrId col) const {
    return dictionaries[col][relation.value(row, col)];
  }

  NullSemantics semantics() const { return semantics_; }

  /// Encodes and appends one raw row (cells.size() must match the schema)
  /// and returns its row id. Only the new cells are encoded. The first
  /// append builds per-column value-to-code maps from the dictionaries, so
  /// a relation that is only batch-encoded never holds them.
  RowId append(const std::vector<std::string>& cells);

  /// Keeps only rows `keep` (ascending, deduplicated) through
  /// RedensifyRows: row keep[i] becomes row i, and every column's codes and
  /// dictionary shrink to the values those rows use.
  void compact(const std::vector<RowId>& keep);

 private:
  friend EncodedRelation EncodeRelation(const RawTable& table, NullSemantics semantics,
                                        const CsvOptions& options, ThreadPool* pool,
                                        int parallelism);

  // One column's value-to-code map for append(), plus its shared null code
  // under kNullEqualsNull (-1 until a null is seen). Keyed by owned strings:
  // views into `dictionaries` would dangle once a dictionary grows and moves
  // its short strings.
  struct AppendCodes {
    std::unordered_map<std::string, ValueId> codes;
    ValueId null_code = -1;
  };

  // Builds append_codes_ from the stored codes and dictionaries.
  void index_codes();

  NullSemantics semantics_ = NullSemantics::kNullEqualsNull;
  CsvOptions options_;
  // One per column once append() has run; compact() rebuilds them.
  std::vector<AppendCodes> append_codes_;
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

/// Copies rows `keep` (ascending, deduplicated) of `r`: row keep[i] becomes
/// row i, null flags come along, and each column's codes are renumbered
/// densely in the order the kept rows first use them. When `dictionaries`
/// is given, each column's dictionary is rewritten to the new codes. It
/// serves EncodedRelation::compact and LiveRelation::snapshot alike.
Relation RedensifyRows(const Relation& r, const std::vector<RowId>& keep,
                       std::vector<std::vector<std::string>>* dictionaries = nullptr);

/// The kNullNotEqualsNull codes of a relation encoded under
/// kNullEqualsNull: per column, in row order, each null cell takes the next
/// code and each non-null code is renumbered in first-use order. Null flags
/// are kept. The result equals EncodeRelation(table, kNullNotEqualsNull)'s
/// relation, so one stored encoding serves both semantics; a column without
/// nulls is copied as is.
Relation SeparateNulls(const Relation& r);

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
