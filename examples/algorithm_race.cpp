// Algorithm race: run all six discovery algorithms on the same input and
// compare runtimes, validations, and sampling effort — a miniature of the
// paper's Table II on any CSV you have lying around.
//
// Usage:
//   example_algorithm_race                 # built-in abalone-style demo
//   example_algorithm_race data.csv
//   example_algorithm_race data.csv 10    # per-algorithm time limit (s)
#include <cstdio>
#include <cstdlib>
#include <string>

#include "algo/discovery.h"
#include "datagen/benchmark_data.h"
#include "relation/csv.h"
#include "relation/encoder.h"
#include "util/cancellation.h"

int main(int argc, char** argv) {
  using namespace dhyfd;

  RawTable table = argc > 1 ? ReadCsvFile(argv[1])
                            : GenerateBenchmark("abalone", 4177);
  double tl = argc > 2 ? std::atof(argv[2]) : 30.0;

  EncodedRelation encoded = EncodeRelation(table);
  const Relation& r = encoded.relation;
  std::printf("racing %d rows x %d columns (time limit %.0f s per algorithm)\n\n",
              r.num_rows(), r.num_cols(), tl);

  std::printf("%-8s %10s %8s %12s %12s %12s %10s\n", "algo", "time_s", "#FD",
              "validations", "pairs", "refinements", "mem_MB");
  for (const std::string& name : AllDiscoveryNames()) {
    // The time limit is an expiring stop signal bound to this thread; every
    // algorithm polls it and flags stats.timed_out when it fires.
    CancelToken limit(tl);
    CancelScope scope(&limit);
    DiscoveryResult res = MakeDiscovery(name)->discover(r);
    if (res.stats.timed_out) {
      std::printf("%-8s %10s\n", name.c_str(), "TL");
      continue;
    }
    std::printf("%-8s %10.3f %8lld %12lld %12lld %12lld %10.1f\n", name.c_str(),
                res.stats.seconds, static_cast<long long>(res.fds.size()),
                static_cast<long long>(res.stats.validations),
                static_cast<long long>(res.stats.pairs_compared),
                static_cast<long long>(res.stats.refinements),
                res.stats.memory_mb);
  }
  std::printf("\nall algorithms compute the same left-reduced cover; the race "
              "is about how much of the row/column structure each one "
              "exploits (paper Sections IV-V).\n");
  return 0;
}
