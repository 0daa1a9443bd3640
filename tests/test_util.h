#ifndef DHYFD_TESTS_TEST_UTIL_H_
#define DHYFD_TESTS_TEST_UTIL_H_

#include <initializer_list>
#include <string>
#include <vector>

#include "algo/discovery.h"
#include "datagen/benchmark_data.h"
#include "fd/closure.h"
#include "fd/fd_set.h"
#include "partition/stripped_partition.h"
#include "ranking/redundancy.h"
#include "relation/encoder.h"
#include "relation/relation.h"
#include "util/random.h"

namespace dhyfd {
namespace testutil {

/// Copies one CSR cluster out into a vector for gtest comparisons.
inline std::vector<RowId> ClusterRows(const StrippedPartition& p, size_t i) {
  ClusterView c = p.cluster(i);
  return std::vector<RowId>(c.begin(), c.end());
}

/// Builds a relation directly from integer cell values (row-major). Values
/// are re-encoded densely per column; negative values become null markers.
inline Relation FromValues(const std::vector<std::vector<int>>& rows) {
  int cols = rows.empty() ? 0 : static_cast<int>(rows[0].size());
  Relation r(Schema::numbered(cols), static_cast<RowId>(rows.size()));
  for (int c = 0; c < cols; ++c) {
    std::vector<int> remap;  // value -> dense code, linear scan (tiny data)
    std::vector<int> raw;
    for (size_t i = 0; i < rows.size(); ++i) {
      int v = rows[i][c];
      if (v < 0) {
        // Null under null = null semantics: all nulls share one value; the
        // caller controls matching by using the same negative number.
        r.set_null(static_cast<RowId>(i), c);
      }
      int code = -1;
      for (size_t k = 0; k < raw.size(); ++k) {
        if (raw[k] == v) {
          code = static_cast<int>(k);
          break;
        }
      }
      if (code < 0) {
        code = static_cast<int>(raw.size());
        raw.push_back(v);
      }
      r.set_value(static_cast<RowId>(i), c, code);
    }
    r.set_domain_size(c, static_cast<ValueId>(raw.size()));
  }
  return r;
}

/// A deterministic random relation for property tests.
inline Relation RandomRelation(uint64_t seed, int rows, int cols, int domain,
                               double null_rate = 0) {
  Random rng(seed);
  std::vector<std::vector<int>> data(rows, std::vector<int>(cols));
  for (int i = 0; i < rows; ++i) {
    for (int c = 0; c < cols; ++c) {
      if (null_rate > 0 && rng.next_bool(null_rate)) {
        data[i][c] = -1;
      } else {
        data[i][c] = static_cast<int>(rng.next_below(domain));
      }
    }
  }
  return FromValues(data);
}

/// True if fd holds on r by brute force (checks all row pairs).
inline bool HoldsBruteForce(const Relation& r, const Fd& fd) {
  for (RowId i = 0; i < r.num_rows(); ++i) {
    for (RowId j = i + 1; j < r.num_rows(); ++j) {
      if (!r.agree_on(i, j, fd.lhs)) continue;
      bool rhs_ok = true;
      fd.rhs.for_each([&](AttrId a) {
        if (r.value(i, a) != r.value(j, a)) rhs_ok = false;
      });
      if (!rhs_ok) return false;
    }
  }
  return true;
}

/// O(rows^2) reference for the dataset counts that shares no code with the
/// partition pass: cell t(A) is redundant when some cover FD X -> Y with A
/// in Y has a witness tuple agreeing with t on X.
inline DatasetRedundancy BruteForceDatasetRedundancy(const Relation& r, const FdSet& cover) {
  DatasetRedundancy d;
  d.num_values = static_cast<int64_t>(r.num_rows()) * r.num_cols();
  for (RowId t = 0; t < r.num_rows(); ++t) {
    for (AttrId a = 0; a < r.num_cols(); ++a) {
      bool redundant = false;
      for (const Fd& fd : cover.fds) {
        if (!fd.rhs.test(a)) continue;
        for (RowId s = 0; s < r.num_rows() && !redundant; ++s) {
          redundant = s != t && r.agree_on(s, t, fd.lhs);
        }
        if (redundant) break;
      }
      if (!redundant) continue;
      ++d.red_plus0;
      if (!r.is_null(t, a)) ++d.red;
    }
  }
  return d;
}

/// Naive fixpoint closure: applies every FD with on[i] set whose LHS lies
/// inside the running closure until nothing changes. Shares no code with
/// ClosureEngine, which the closure and cover tests compare against it.
inline AttributeSet NaiveClosure(const FdSet& fds, const std::vector<bool>& on,
                                 AttributeSet x) {
  for (bool grew = true; grew;) {
    grew = false;
    for (size_t i = 0; i < fds.fds.size(); ++i) {
      const Fd& fd = fds.fds[i];
      if (on[i] && fd.lhs.is_subset_of(x) && !fd.rhs.is_subset_of(x)) {
        x |= fd.rhs;
        grew = true;
      }
    }
  }
  return x;
}

/// The horse analog at 200 rows and its ~97k-FD left-reduced cover, built
/// once per test binary. Its canonical cover and rank pass take about a
/// second each in an optimized build, long enough for the cancellation
/// tests to interrupt them.
struct HorseAnalog {
  Relation relation = EncodeRelation(GenerateBenchmark("horse", 200)).relation;
  FdSet cover = MakeDiscovery("dhyfd")->discover(relation).fds;
};

inline const HorseAnalog& Horse() {
  static const HorseAnalog horse;
  return horse;
}

/// Gtest-friendly description of a cover difference, or "" if equivalent.
inline std::string CoverDifference(const FdSet& expected, const FdSet& actual,
                                   int num_attrs) {
  ClosureEngine ee(expected, num_attrs), ea(actual, num_attrs);
  for (const Fd& fd : expected.fds) {
    if (!ea.implies(fd.lhs, fd.rhs)) {
      return "missing (not implied by actual): " + fd.to_string();
    }
  }
  for (const Fd& fd : actual.fds) {
    if (!ee.implies(fd.lhs, fd.rhs)) {
      return "extra (not implied by expected): " + fd.to_string();
    }
  }
  return "";
}

}  // namespace testutil
}  // namespace dhyfd

#endif  // DHYFD_TESTS_TEST_UTIL_H_
