// Reproduces Table III: properties of left-reduced vs canonical covers —
// |L-r|, ||L-r||, |Can|, ||Can||, the percentage ratios, and the time to
// compute the canonical cover from the left-reduced one. Paper: ~50%
// average savings; small data sets ~25%, large ones >70%.
//
// Flags: --datasets=a,b  --rows=N  --tl=SECONDS (discovery limit, default 30)
#include "bench_util.h"

#include "fd/cover.h"
#include "util/timer.h"

namespace dhyfd::bench {
namespace {

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  ObsSession obs(ObsOptionsFromFlags(flags));
  double tl = flags.get_double("tl", 30.0);
  int64_t max_cover = flags.get_int("max_cover", 100000);
  std::vector<std::string> datasets;
  for (const std::string& name : BenchmarkNames()) {
    if (FindBenchmark(name)->has_table3) datasets.push_back(name);
  }
  datasets = flags.get_list("datasets", datasets);

  PrintHeader("Table III",
              "Left-reduced vs canonical cover sizes. %S = 100*|Can|/|L-r|, "
              "%C = 100*||Can||/||L-r||, Time = canonical-cover computation "
              "seconds.");

  std::printf("%-11s %-9s %9s %10s %9s %10s %6s %6s %9s\n", "dataset", "",
              "|L-r|", "||L-r||", "|Can|", "||Can||", "%S", "%C", "time_s");
  PrintRule(88);
  for (const std::string& name : datasets) {
    const BenchmarkInfo* info = FindBenchmark(name);
    if (info == nullptr || !info->has_table3) continue;
    const PaperTable3& p = info->t3;
    std::printf("%-11s %-9s %9lld %10lld %9lld %10lld %6.0f %6.0f %9s\n",
                name.c_str(), "paper", p.lr, p.lr_occ, p.can, p.can_occ, p.pct_size,
                p.pct_card, FmtPaper(p.seconds).c_str());
    Relation r = LoadBenchmark(name, flags.get_int("rows", 0));
    DiscoveryResult res = DiscoverWithin("dhyfd", r, tl);
    if (res.stats.timed_out) {
      std::printf("%-11s %-9s discovery TL\n", "", "measured");
    } else if (max_cover > 0 && res.fds.size() > max_cover) {
      std::printf("%-11s %-9s skipped: %lld FDs exceed --max_cover=%lld\n", "",
                  "measured", static_cast<long long>(res.fds.size()),
                  static_cast<long long>(max_cover));
    } else {
      Timer timer;
      FdSet canonical = CanonicalCover(res.fds, r.num_cols());
      double seconds = timer.seconds();
      CoverStats stats = ComputeCoverStats(res.fds, canonical);
      std::printf("%-11s %-9s %9lld %10lld %9lld %10lld %6.0f %6.0f %9.3f\n", "",
                  "measured", static_cast<long long>(stats.left_reduced_count),
                  static_cast<long long>(stats.left_reduced_occurrences),
                  static_cast<long long>(stats.canonical_count),
                  static_cast<long long>(stats.canonical_occurrences),
                  stats.percent_size, stats.percent_card, seconds);
    }
    PrintRule(88);
    std::fflush(stdout);
  }
  return 0;
}

}  // namespace
}  // namespace dhyfd::bench

int main(int argc, char** argv) { return dhyfd::bench::Main(argc, argv); }
