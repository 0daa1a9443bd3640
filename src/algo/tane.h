#ifndef DHYFD_ALGO_TANE_H_
#define DHYFD_ALGO_TANE_H_

#include "algo/discovery.h"

namespace dhyfd {

struct TaneOptions {
  /// Hard cap on lattice level (LHS size); 0 means no cap. The paper's TANE
  /// baseline runs uncapped; benches may cap to emulate its time limit.
  /// Coarse: stops before generating level max_level+1, so FDs whose LHS
  /// has exactly max_level attributes are not validated.
  int max_level = 0;
  /// Precise LHS arity bound (0 = unbounded): every FD with at most max_lhs
  /// LHS attributes is validated and emitted, nothing larger is explored.
  /// Unlike max_level this runs one extra validation level, so the output
  /// is exactly the full cover filtered to |LHS| <= max_lhs.
  int max_lhs = 0;
  /// Error threshold for approximate FDs: a candidate X -> A holds when
  /// e(X -> A) = removals / |r| <= epsilon (g3 measure; see
  /// ApproxErrorCalculator). 0 runs the exact error-comparison test.
  double epsilon = 0;
};

/// TANE (Huhtala et al. 1999): the column-based baseline. Traverses the
/// attribute lattice level by level, validating candidates via stripped-
/// partition errors and pruning with RHS-candidate sets C+ and superkeys.
class Tane : public FdDiscovery {
 public:
  explicit Tane(TaneOptions options = {}) : options_(options) {}
  std::string name() const override { return "tane"; }
  DiscoveryResult discover(const Relation& r) override;

 private:
  TaneOptions options_;
};

}  // namespace dhyfd

#endif  // DHYFD_ALGO_TANE_H_
