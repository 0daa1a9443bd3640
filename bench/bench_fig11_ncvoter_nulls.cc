// Reproduces Figure 11: over increasing fragments of ncvoter, the number
// of FDs causing up to a given number of redundancies, counted with nulls
// (paper: blue) vs without any nulls on LHS or RHS (orange), plus the time
// to determine them. The paper uses 8k/16k/512k/1024k-tuple fragments; the
// analog defaults to scaled fragments.
//
// Flags: --fragments=1000,2000,...  --tl=SECONDS (default 30)
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
  int64_t max_cover = flags.get_int("max_cover", 250000);
  std::vector<std::string> fragments =
      flags.get_list("fragments", {"1000", "2000", "8000", "16000"});

  PrintHeader("Figure 11",
              "ncvoter fragments: FDs per redundancy bucket counted with "
              "nulls (w/) vs with no nulls on LHS and RHS (w/o), plus "
              "computation times. Paper: counts stay stable across fragment "
              "sizes; excluding nulls shifts low-redundancy FDs to the "
              "zero bucket.");

  for (const std::string& fs : fragments) {
    int rows = std::atoi(fs.c_str());
    Relation r = LoadBenchmark("ncvoter", rows);
    DiscoveryResult res = MakeDiscovery("dhyfd", tl)->discover(r);
    if (res.stats.timed_out) {
      std::printf("ncvoter_%sr: discovery TL\n\n", fs.c_str());
      continue;
    }
    if (max_cover > 0 && res.fds.size() > max_cover) {
      std::printf("ncvoter_%sr: skipped (%lld FDs exceed --max_cover)\n\n", fs.c_str(),
                  static_cast<long long>(res.fds.size()));
      continue;
    }
    FdSet canonical = CanonicalCover(res.fds, r.num_cols());
    Timer timer;
    std::vector<FdRedundancy> reds = ComputeCoverRedundancy(r, canonical).per_fd;
    double seconds = timer.seconds();
    RedundancyHistogram with_nulls =
        BuildRedundancyHistogram(reds, RedundancyMode::kWithNulls);
    RedundancyHistogram without =
        BuildRedundancyHistogram(reds, RedundancyMode::kExcludingNullBoth);
    std::printf("ncvoter_%sr: %lld FDs, counts computed in %.3f s\n", fs.c_str(),
                static_cast<long long>(canonical.size()), seconds);
    std::printf("  %12s", "bucket<=");
    for (int64_t t : with_nulls.thresholds) {
      std::printf(" %8lld", static_cast<long long>(t));
    }
    std::printf("\n  %12s", "w/ nulls");
    for (int64_t c : with_nulls.fd_counts) {
      std::printf(" %8lld", static_cast<long long>(c));
    }
    std::printf("\n  %12s", "w/o nulls");
    for (int64_t c : without.fd_counts) {
      std::printf(" %8lld", static_cast<long long>(c));
    }
    std::printf("\n\n");
    std::fflush(stdout);
  }
  return 0;
}

}  // namespace
}  // namespace dhyfd::bench

int main(int argc, char** argv) { return dhyfd::bench::Main(argc, argv); }
