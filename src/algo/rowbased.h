#ifndef DHYFD_ALGO_ROWBASED_H_
#define DHYFD_ALGO_ROWBASED_H_

#include "algo/discovery.h"

namespace dhyfd {

/// The transversal-based row algorithms the paper cites as related work:
enum class RowBasedVariant {
  /// FastFDs (Wyss, Giannella & Robertson 2001): per RHS attribute, the
  /// minimal LHSs are the minimal hitting sets of the difference sets
  /// (complements of agree sets) containing that attribute.
  kFastFds,
  /// Dep-Miner (Lopes, Petit & Lakhal 2000): same reduction, but first
  /// shrinks each attribute's family to the complements of its maximal
  /// agree sets before computing transversals.
  kDepMiner,
};

/// Exact row-based discovery via hypergraph transversals. O(rows^2) for the
/// agree sets plus an output-sensitive (worst-case exponential) transversal
/// enumeration; the extra baselines for `bench_extra_rowbased`.
class RowBasedTransversal : public FdDiscovery {
 public:
  explicit RowBasedTransversal(RowBasedVariant variant = RowBasedVariant::kFastFds)
      : variant_(variant) {}
  std::string name() const override {
    return variant_ == RowBasedVariant::kFastFds ? "fastfds" : "depminer";
  }
  DiscoveryResult discover(const Relation& r) override;

 private:
  RowBasedVariant variant_;
};

}  // namespace dhyfd

#endif  // DHYFD_ALGO_ROWBASED_H_
