#ifndef DHYFD_ALGO_DFD_H_
#define DHYFD_ALGO_DFD_H_

#include "algo/discovery.h"

namespace dhyfd {

/// DFD-style lattice search (Abedjan, Schulze & Naumann, CIKM 2014 — cited
/// by the paper as [2]).
///
/// Per RHS attribute, the minimal LHSs are found by alternating two moves
/// until they meet: candidate LHSs are the minimal transversals of the
/// known maximal non-dependencies' complements ("dualize and advance" — the
/// deterministic skeleton DFD's random walks approximate); each candidate
/// is validated against a memoized stripped partition, and failures are
/// greedily maximized into new maximal non-dependencies.
class Dfd : public FdDiscovery {
 public:
  explicit Dfd(double time_limit_seconds = 0)
      : time_limit_seconds_(time_limit_seconds) {}
  std::string name() const override { return "dfd"; }
  DiscoveryResult discover(const Relation& r) override;

 private:
  double time_limit_seconds_;
};

}  // namespace dhyfd

#endif  // DHYFD_ALGO_DFD_H_
