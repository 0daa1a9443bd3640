#ifndef DHYFD_INCR_LIVE_RELATION_H_
#define DHYFD_INCR_LIVE_RELATION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "incr/update_batch.h"
#include "partition/partition_ops.h"
#include "partition/stripped_partition.h"
#include "relation/csv.h"
#include "relation/encoder.h"
#include "relation/relation.h"

namespace dhyfd {

/// A mutable, DIIS-encoded relation that accepts tuple inserts and deletes.
///
/// Storage model: the initial table is batch-encoded by EncodeRelation, and
/// inserts append to that EncodedRelation (only the new cells are encoded;
/// dictionaries grow at the top). Deletes tombstone their row — the slot
/// keeps its stale values but the row leaves every maintained index, so
/// discovery primitives that only walk cluster row-lists (the validator, the
/// refiner, agree-set scans) never observe it. compact() drops tombstones,
/// renumbers internal rows, and re-densifies codes through the encoder's
/// compact(); snapshot() re-densifies a copy of the live rows with the same
/// routine. External LiveRowIds are stable throughout.
///
/// Maintained per attribute, incrementally on every insert/delete:
///  * value groups: for each code, the ascending list of live rows holding
///    it — the unstripped pi_A plus a partner index for agree-set scans;
///  * live support ||pi_A|| and the live distinct-value count.
///
/// NOT thread-safe; the service layer serializes batches per live dataset.
class LiveRelation {
 public:
  explicit LiveRelation(const RawTable& initial,
                        NullSemantics semantics = NullSemantics::kNullEqualsNull,
                        CsvOptions options = {});

  /// The backing storage, tombstones included. Only pass it to primitives
  /// that restrict themselves to caller-supplied row lists; whole-relation
  /// scans (BuildPartition, satisfies, ...) would see dead rows — use
  /// snapshot() for those.
  const Relation& relation() const { return encoder_.relation; }
  const Schema& schema() const { return relation().schema(); }
  int num_cols() const { return relation().num_cols(); }
  NullSemantics semantics() const { return encoder_.semantics(); }

  RowId live_rows() const { return live_rows_; }
  RowId storage_rows() const { return relation().num_rows(); }
  bool is_live(RowId row) const { return live_[row] != 0; }
  double tombstone_fraction() const {
    return storage_rows() == 0
               ? 0.0
               : 1.0 - static_cast<double>(live_rows_) /
                           static_cast<double>(storage_rows());
  }

  /// The external id the next inserted row will receive.
  LiveRowId next_row_id() const { return next_id_; }
  /// External id of an internal row (dead rows keep their last id).
  LiveRowId id_of(RowId row) const { return ids_[row]; }
  /// Internal row for an external id, or -1 if unknown or deleted.
  RowId row_of(LiveRowId id) const;

  /// Encodes and appends one raw row; registers it in all live indexes.
  /// Returns the internal row id (== storage_rows()-1 until compaction).
  RowId insert_row(const std::vector<std::string>& cells);

  /// Tombstones an internal row and removes it from the live indexes.
  void erase_row(RowId row);

  /// Live rows holding `v` in column `a`, ascending (possibly empty).
  const std::vector<RowId>& group(AttrId a, ValueId v) const;

  /// The live stripped partition pi_A: the value groups of size >= 2.
  StrippedPartition live_attribute_partition(AttrId a) const;
  /// ||pi_A|| over live rows only.
  int64_t live_attribute_support(AttrId a) const { return supports_[a]; }
  /// Number of distinct codes among live rows of the column.
  int64_t live_distinct(AttrId a) const { return distinct_[a]; }
  /// Representatives of the first two distinct live values of the column,
  /// or {-1, -1} if the column has fewer than two. A witness pair for the
  /// refutation of {} -> a.
  std::pair<RowId, RowId> distinct_pair(AttrId a) const;

  /// The trivial partition {live rows} (one cluster; empty if < 2 live).
  StrippedPartition whole_live_cluster() const;

  /// A self-contained copy of the live rows (ascending internal order) with
  /// densely re-encoded codes — what a from-scratch discovery run sees.
  Relation snapshot() const;

  /// Drops tombstones: internal rows are renumbered (live order preserved),
  /// codes re-densified, groups rebuilt. External ids are unaffected.
  void compact();

  /// A refiner sized to the current max domain; invalidated (lazily
  /// re-created) when inserts grow a domain past its scratch capacity.
  PartitionRefiner& refiner();

  /// Original string of a cell (dead rows decode their stale values).
  const std::string& decode(RowId row, AttrId col) const {
    return encoder_.decode(row, col);
  }

  size_t memory_bytes() const;

 private:
  void register_row(RowId row);
  /// Marks every stored row live under ids_ and rebuilds all indexes.
  void reindex();
  /// Internal ids of the live rows, ascending.
  std::vector<RowId> live_row_list() const;

  EncodedRelation encoder_;
  // Per column, per code: ascending live rows with that code. Not partition
  // data (those are CSR StrippedPartitions); this is the mutable insert/
  // delete index, where per-group splice cost dominates and a flat arena
  // would force whole-column rewrites per batch.
  std::vector<std::vector<std::vector<RowId>>> groups_;  // analyze-allow: nested-rowid
  std::vector<int64_t> supports_;
  std::vector<int64_t> distinct_;
  std::vector<uint8_t> live_;
  std::vector<LiveRowId> ids_;
  std::unordered_map<LiveRowId, RowId> row_of_;
  RowId live_rows_ = 0;
  LiveRowId next_id_ = 0;
  std::unique_ptr<PartitionRefiner> refiner_;
  ValueId refiner_domain_ = 0;
};

}  // namespace dhyfd

#endif  // DHYFD_INCR_LIVE_RELATION_H_
