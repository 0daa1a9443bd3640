#ifndef DHYFD_FD_FD_SET_H_
#define DHYFD_FD_FD_SET_H_

#include <cstdint>
#include <vector>

#include "fd/fd.h"

namespace dhyfd {

/// A set of FDs with the paper's two size measures.
struct FdSet {
  std::vector<Fd> fds;

  /// |Sigma|: number of FDs.
  int64_t size() const { return static_cast<int64_t>(fds.size()); }

  /// ||Sigma||: total attribute occurrences across all FDs.
  int64_t attribute_occurrences() const {
    int64_t n = 0;
    for (const Fd& fd : fds) n += fd.attribute_occurrences();
    return n;
  }

  bool empty() const { return fds.empty(); }
  void add(Fd fd) { fds.push_back(fd); }

  /// Splits multi-attribute RHSs into one FD per RHS attribute.
  FdSet with_singleton_rhs() const;

  /// Merges FDs with identical LHSs into one FD with a set RHS.
  FdSet with_merged_lhs() const;

  /// Sorts by (LHS size, LHS bits, RHS bits); gives deterministic output
  /// order for tests and reports.
  void sort();

  /// The FDs of this set missing from `other`; both must be sort()ed.
  FdSet minus(const FdSet& other) const;
};

}  // namespace dhyfd

#endif  // DHYFD_FD_FD_SET_H_
