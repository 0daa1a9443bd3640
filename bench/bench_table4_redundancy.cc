// Reproduces Table IV: data redundancy per data set — #values, #red
// (redundant occurrences excluding null markers), %red, #red+0 (including
// nulls), %red+0 — computed from the canonical cover, as in the paper.
//
// Flags: --datasets=a,b  --rows=N  --tl=SECONDS (default 30)
#include "bench_util.h"

#include "fd/cover.h"
#include "ranking/redundancy.h"

namespace dhyfd::bench {
namespace {

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  ObsSession obs(ObsOptionsFromFlags(flags));
  double tl = flags.get_double("tl", 30.0);
  int64_t max_cover = flags.get_int("max_cover", 100000);
  std::vector<std::string> datasets;
  for (const std::string& name : BenchmarkNames()) {
    if (FindBenchmark(name)->has_table4) datasets.push_back(name);
  }
  datasets = flags.get_list("datasets", datasets);

  PrintHeader("Table IV",
              "Data redundancy of the canonical cover. #red excludes "
              "occurrences that are null markers; #red+0 includes them. "
              "Complete data sets report only #red (both are equal).");

  std::printf("%-11s %-9s %13s %12s %7s %12s %8s\n", "dataset", "", "#values",
              "#red", "%red", "#red+0", "%red+0");
  PrintRule(80);
  for (const std::string& name : datasets) {
    const BenchmarkInfo* info = FindBenchmark(name);
    if (info == nullptr || !info->has_table4) continue;
    const PaperTable4& p = info->t4;
    if (p.red_plus0 >= 0) {
      std::printf("%-11s %-9s %13lld %12lld %7.2f %12lld %8.2f\n", name.c_str(),
                  "paper", p.values, p.red, p.pct_red, p.red_plus0, p.pct_red_plus0);
    } else {
      std::printf("%-11s %-9s %13lld %12lld %7.2f %12s %8s\n", name.c_str(), "paper",
                  p.values, p.red, p.pct_red, "-", "-");
    }
    Relation r = LoadBenchmark(name, flags.get_int("rows", 0));
    DiscoveryResult res = DiscoverWithin("dhyfd", r, tl);
    if (res.stats.timed_out) {
      std::printf("%-11s %-9s discovery TL\n", "", "measured");
    } else if (max_cover > 0 && res.fds.size() > max_cover) {
      std::printf("%-11s %-9s skipped: %lld FDs exceed --max_cover=%lld\n", "",
                  "measured", static_cast<long long>(res.fds.size()),
                  static_cast<long long>(max_cover));
    } else {
      FdSet canonical = CanonicalCover(res.fds, r.num_cols());
      DatasetRedundancy d = ComputeCoverRedundancy(r, canonical).dataset;
      std::printf("%-11s %-9s %13lld %12lld %7.2f %12lld %8.2f\n", "", "measured",
                  static_cast<long long>(d.num_values), static_cast<long long>(d.red),
                  d.percent_red(), static_cast<long long>(d.red_plus0),
                  d.percent_red_plus0());
    }
    PrintRule(80);
    std::fflush(stdout);
  }
  return 0;
}

}  // namespace
}  // namespace dhyfd::bench

int main(int argc, char** argv) { return dhyfd::bench::Main(argc, argv); }
