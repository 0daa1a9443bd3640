#include "ranking/redundancy.h"

#include "partition/stripped_partition.h"

namespace dhyfd {

namespace {

bool AnyLhsNull(const Relation& r, RowId row, const AttributeSet& lhs) {
  bool any = false;
  lhs.for_each([&](AttrId a) {
    if (!any && r.is_null(row, a)) any = true;
  });
  return any;
}

}  // namespace

FdRedundancy FdRedundancyFromPartition(const Relation& r, const Fd& fd,
                                       const StrippedPartition& pi_lhs) {
  FdRedundancy red;
  red.fd = fd;
  // The redundant rows are exactly the arena rows — the class bounds are
  // irrelevant here, so scan the CSR arena flat.
  for (RowId row : pi_lhs.row_arena()) {
    bool lhs_null = AnyLhsNull(r, row, fd.lhs);
    fd.rhs.for_each([&](AttrId a) {
      ++red.with_nulls;
      if (!r.is_null(row, a)) {
        ++red.excluding_null_rhs;
        if (!lhs_null) ++red.excluding_null_lhs_rhs;
      }
    });
  }
  return red;
}

CoverRedundancy ComputeCoverRedundancy(const Relation& r, const FdSet& cover) {
  CoverRedundancy out;
  out.per_fd.reserve(cover.fds.size());
  DatasetRedundancy& dataset = out.dataset;
  dataset.num_values = r.num_values();
  const int m = r.num_cols();
  std::vector<uint8_t> marked(static_cast<size_t>(r.num_rows()) * m, 0);
  for (const Fd& fd : cover.fds) {
    StrippedPartition pi = BuildPartition(r, fd.lhs);
    out.per_fd.push_back(FdRedundancyFromPartition(r, fd, pi));
    // A cell is counted when first marked, however many FDs make it redundant.
    for (RowId row : pi.row_arena()) {
      fd.rhs.for_each([&](AttrId a) {
        uint8_t& cell = marked[static_cast<size_t>(row) * m + a];
        if (cell) return;
        cell = 1;
        ++dataset.red_plus0;
        if (!r.is_null(row, a)) ++dataset.red;
      });
    }
  }
  return out;
}

FdRedundancy BruteForceFdRedundancy(const Relation& r, const Fd& fd) {
  FdRedundancy red;
  red.fd = fd;
  for (RowId t = 0; t < r.num_rows(); ++t) {
    bool has_witness = false;
    for (RowId s = 0; s < r.num_rows() && !has_witness; ++s) {
      if (s != t && r.agree_on(s, t, fd.lhs)) has_witness = true;
    }
    if (!has_witness) continue;
    bool lhs_null = AnyLhsNull(r, t, fd.lhs);
    fd.rhs.for_each([&](AttrId a) {
      ++red.with_nulls;
      if (!r.is_null(t, a)) {
        ++red.excluding_null_rhs;
        if (!lhs_null) ++red.excluding_null_lhs_rhs;
      }
    });
  }
  return red;
}

}  // namespace dhyfd
