#include "ranking/redundancy.h"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <span>

#include "partition/partition_ops.h"
#include "partition/stripped_partition.h"
#include "util/cancellation.h"
#include "util/thread_pool.h"

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

CoverRedundancy ComputeCoverRedundancy(const Relation& r, const FdSet& cover,
                                       ThreadPool* pool, int parallelism,
                                       const StrippedPartition* rows) {
  // Helper threads do not inherit the caller's CancelScope, so every shard
  // polls the caller's token directly.
  const CancelToken* token = CancelScope::Current();
  auto cancelled = [token] { return token != nullptr && token->cancelled(); };
  // An already-cancelled run skips the set-up too (the LHS sort).
  if (cancelled()) return CoverRedundancy();
  const size_t n = cover.fds.size();
  // Each LHS as an ascending attribute list, flattened: lhs i is
  // attrs[begin[i], begin[i + 1]).
  std::vector<AttrId> attrs;
  std::vector<size_t> begin{0};
  begin.reserve(n + 1);
  for (const Fd& fd : cover.fds) {
    fd.lhs.for_each([&](AttrId a) { attrs.push_back(a); });
    begin.push_back(attrs.size());
  }
  auto lhs = [&](size_t i) {
    return std::span<const AttrId>(attrs.data() + begin[i], begin[i + 1] - begin[i]);
  };
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    std::span<const AttrId> x = lhs(a), y = lhs(b);
    return std::lexicographical_compare(x.begin(), x.end(), y.begin(), y.end());
  });

  CoverRedundancy out;
  out.per_fd.resize(n);
  const int m = r.num_cols();
  std::vector<uint8_t> marked(static_cast<size_t>(r.num_rows()) * m, 0);
  const StrippedPartition all_rows =
      rows != nullptr ? StrippedPartition() : StrippedPartition::whole(r.num_rows());
  const StrippedPartition& root = rows != nullptr ? *rows : all_rows;
  std::atomic<bool> stopped{false};
  std::atomic<int64_t> refinements{0}, red{0}, red_plus0{0};
  // One shard is a contiguous run of the lexicographic order with its own
  // refiner and prefix stack; its first LHS is refined from scratch.
  auto rank_range = [&](size_t, size_t first, size_t last) {
    PartitionRefiner refiner(r);
    // prefix[d] is pi over the first d + 1 attributes of `path`, the LHS the
    // stack was last built for.
    std::vector<StrippedPartition> prefix;
    std::span<const AttrId> path;
    int64_t local_refinements = 0, local_red = 0, local_red_plus0 = 0;
    for (size_t k = first; k < last; ++k) {
      if ((k - first) % kCancelPollInterval == 0 && cancelled()) {
        stopped.store(true, std::memory_order_relaxed);
        return;
      }
      const size_t i = order[k];
      const Fd& fd = cover.fds[i];
      std::span<const AttrId> x = lhs(i);
      const size_t shared =
          std::mismatch(x.begin(), x.end(), path.begin(), path.end()).first - x.begin();
      if (prefix.size() < x.size()) prefix.resize(x.size());
      for (size_t d = shared; d < x.size(); ++d) {
        refiner.refine_into(d == 0 ? root : prefix[d - 1], x[d], prefix[d]);
        ++local_refinements;
      }
      path = x;
      const StrippedPartition& pi = x.empty() ? root : prefix[x.size() - 1];
      out.per_fd[i] = FdRedundancyFromPartition(r, fd, pi);
      // A cell is counted by the one shard that flips it from 0 to 1,
      // however many FDs make it redundant, so the counts depend neither on
      // the visit order nor on the shard count.
      for (RowId row : pi.row_arena()) {
        fd.rhs.for_each([&](AttrId a) {
          std::atomic_ref<uint8_t> cell(marked[static_cast<size_t>(row) * m + a]);
          if (cell.load(std::memory_order_relaxed) != 0 ||
              cell.exchange(1, std::memory_order_relaxed) != 0) {
            return;
          }
          ++local_red_plus0;
          if (!r.is_null(row, a)) ++local_red;
        });
      }
    }
    refinements += local_refinements;
    red += local_red;
    red_plus0 += local_red_plus0;
  };
  if (pool != nullptr && parallelism > 1) {
    pool->parallel_for(n, parallelism, rank_range);
  } else {
    rank_range(0, 0, n);
  }
  if (stopped.load()) return CoverRedundancy();
  out.dataset.num_values = rows != nullptr ? root.support() * m : r.num_values();
  out.dataset.red = red.load();
  out.dataset.red_plus0 = red_plus0.load();
  out.refinements = refinements.load();
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
