#ifndef DHYFD_FD_COVER_H_
#define DHYFD_FD_COVER_H_

#include "fd/closure.h"
#include "fd/fd_set.h"

namespace dhyfd {

/// Cover manipulation (paper Section V-D, Table III).
///
/// Discovery algorithms emit left-reduced covers with singleton RHSs; the
/// canonical cover is the left-reduced, non-redundant cover with unique
/// LHSs obtained by dropping implied FDs and merging equal LHSs (Maier).

/// Computes a canonical cover from a left-reduced cover. The input may have
/// set-valued RHSs; it is split to singleton RHSs first. The result has one
/// FD per remaining LHS with a set RHS.
///
/// Polls the thread's CancelScope every kCancelPollInterval FDs; a
/// cancelled run returns an empty cover, never a partial one. If
/// `implications` is non-null it receives the number of implication checks
/// made.
FdSet CanonicalCover(const FdSet& left_reduced, int num_attrs,
                     int64_t* implications = nullptr);

/// Left-reduces an arbitrary FD set: minimizes every LHS w.r.t. the whole
/// set, deduplicates, and returns singleton-RHS FDs. Used by tests and by
/// the data generator to normalize planted FD sets.
FdSet LeftReduce(const FdSet& fds, int num_attrs);

/// True if no FD's LHS can lose an attribute without losing implication.
bool IsLeftReduced(const FdSet& fds, int num_attrs);

/// True if no FD is implied by the others.
bool IsNonRedundant(const FdSet& fds, int num_attrs);

/// True if all LHSs are distinct.
bool HasUniqueLhs(const FdSet& fds);

/// Size/percentage rows of the paper's Table III.
struct CoverStats {
  int64_t left_reduced_count = 0;        // |L-r|
  int64_t left_reduced_occurrences = 0;  // ||L-r||
  int64_t canonical_count = 0;           // |Can|
  int64_t canonical_occurrences = 0;     // ||Can||
  double percent_size = 0;               // %S = 100*|Can|/|L-r|
  double percent_card = 0;               // %C = 100*||Can||/||L-r||
};

/// Counts a left-reduced cover and its already computed canonical cover.
CoverStats ComputeCoverStats(const FdSet& left_reduced, const FdSet& canonical);

}  // namespace dhyfd

#endif  // DHYFD_FD_COVER_H_
