#ifndef DHYFD_ALGO_FDEP_H_
#define DHYFD_ALGO_FDEP_H_

#include "algo/discovery.h"

namespace dhyfd {

/// The three row-based variants evaluated in the paper (Section V-B):
enum class FdepVariant {
  /// FDEP: Flach & Savnik's original — classic FD-tree with propagated RHS
  /// labels and per-RHS-attribute induction.
  kClassic,
  /// FDEP1: non-redundant cover of non-FDs (maximal agree sets only), then
  /// synergized induction on an extended FD-tree.
  kNonRedundant,
  /// FDEP2: all non-FDs sorted descending by LHS size, synergized induction
  /// on an extended FD-tree. The paper's recommended variant.
  kSorted,
};

/// Row-based FD discovery from the complete agree-set cover of all tuple
/// pairs. Exact but O(rows^2); the paper's row-scalability baseline.
class Fdep : public FdDiscovery {
 public:
  explicit Fdep(FdepVariant variant = FdepVariant::kSorted) : variant_(variant) {}
  std::string name() const override;
  DiscoveryResult discover(const Relation& r) override;

 private:
  FdepVariant variant_;
};

}  // namespace dhyfd

#endif  // DHYFD_ALGO_FDEP_H_
