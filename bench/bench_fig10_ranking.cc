// Reproduces Figure 10: for the bigger incomplete data sets, how many FDs
// of the canonical cover cause at most a given number of redundant
// occurrences (buckets at 0 and 2.5/5/10/15/20/40/60/80/100% of the
// maximum per-FD redundancy), plus the time to compute all redundant
// occurrences from the canonical cover.
//
// Flags: --datasets=...  --rows=N  --tl=SECONDS (default 30)
#include "bench_util.h"

#include "fd/cover.h"
#include "ranking/ranking.h"
#include "util/timer.h"

namespace dhyfd::bench {
namespace {

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  ObsSession obs(ObsOptionsFromFlags(flags));
  double tl = flags.get_double("tl", 30.0);
  int64_t max_cover = flags.get_int("max_cover", 100000);
  std::vector<std::string> datasets = flags.get_list(
      "datasets", {"ncvoter", "horse", "plista", "flight", "diabetic", "uniprot"});

  PrintHeader("Figure 10",
              "FDs in the canonical cover (count per bucket) that cause at "
              "most the given number of redundant occurrences; buckets are "
              "percents of the maximum per-FD redundancy. Paper: many FDs "
              "land in the low percentile (dirty data / accidental FDs), a "
              "few in the top buckets.");

  for (const std::string& name : datasets) {
    Relation r = LoadBenchmark(name, flags.get_int("rows", 0));
    DiscoveryResult res = DiscoverWithin("dhyfd", r, tl);
    if (res.stats.timed_out) {
      std::printf("%s: discovery TL\n\n", name.c_str());
      continue;
    }
    if (max_cover > 0 && res.fds.size() > max_cover) {
      std::printf("%s: skipped (%lld FDs exceed --max_cover=%lld)\n\n", name.c_str(),
                  static_cast<long long>(res.fds.size()),
                  static_cast<long long>(max_cover));
      continue;
    }
    FdSet canonical = CanonicalCover(res.fds, r.num_cols());
    Timer timer;
    std::vector<FdRedundancy> reds = ComputeCoverRedundancy(r, canonical).per_fd;
    double seconds = timer.seconds();
    RedundancyHistogram hist =
        BuildRedundancyHistogram(reds, RedundancyMode::kWithNulls);
    std::printf("%s: %lld FDs in canonical cover, max per-FD redundancy %lld, "
                "ranking computed in %.3f s\n",
                name.c_str(), static_cast<long long>(canonical.size()),
                static_cast<long long>(hist.max_redundancy), seconds);
    std::printf("  %12s", "bucket<=");
    for (int64_t t : hist.thresholds) std::printf(" %8lld", static_cast<long long>(t));
    std::printf("\n  %12s", "#FDs");
    for (int64_t c : hist.fd_counts) std::printf(" %8lld", static_cast<long long>(c));
    std::printf("\n\n");
    std::fflush(stdout);
  }
  return 0;
}

}  // namespace
}  // namespace dhyfd::bench

int main(int argc, char** argv) { return dhyfd::bench::Main(argc, argv); }
