// Reproduces Table II: running time (seconds) under null = null semantics
// and memory usage (MB) for TANE, FDEP, FDEP1, FDEP2, HyFD, and DHyFD on
// the benchmark-data-set analogs.
//
// Flags: --datasets=a,b,c  --rows=N (override all row counts)
//        --tl=SECONDS (per-run time limit; default 20)
//        --algos=tane,fdep,...
//        --trace=<file> (Chrome trace JSON) --metrics=<file> (Prometheus)
#include "bench_util.h"

#include "util/memory.h"

namespace dhyfd::bench {
namespace {

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  ObsSession obs(ObsOptionsFromFlags(flags));
  double tl = flags.get_double("tl", 15.0);
  std::vector<std::string> datasets;
  for (const std::string& name : BenchmarkNames()) {
    if (FindBenchmark(name)->has_table2) datasets.push_back(name);
  }
  datasets = flags.get_list("datasets", datasets);
  std::vector<std::string> algos = flags.get_list("algos", AllDiscoveryNames());

  PrintHeader("Table II",
              "Running time (s, null = null) and memory (MB). Each data set "
              "prints the paper's reported row, then the measured row on the "
              "synthetic analog (TL = exceeded the time limit).");
  std::printf("per-run time limit: %.0f s (--tl=)\n\n", tl);

  std::printf("%-11s %-9s %8s %4s %8s | %9s %9s %9s %9s %9s %9s | %9s %9s\n",
              "dataset", "", "#R", "#C", "#FD", "tane", "fdep", "fdep1", "fdep2",
              "hyfd", "dhyfd", "hyfd_MB", "dhyfd_MB");
  PrintRule(132);

  for (const std::string& name : datasets) {
    const BenchmarkInfo* info = FindBenchmark(name);
    if (info == nullptr || !info->has_table2) continue;
    const PaperTable2& p = info->t2;
    std::printf("%-11s %-9s %8d %4d %8d | %9s %9s %9s %9s %9s %9s | %9s %9s\n",
                name.c_str(), "paper", p.rows, p.cols, p.fds,
                FmtPaper(p.tane).c_str(), FmtPaper(p.fdep).c_str(),
                FmtPaper(p.fdep1).c_str(), FmtPaper(p.fdep2).c_str(),
                FmtPaper(p.hyfd).c_str(), FmtPaper(p.dhyfd).c_str(),
                FmtPaper(p.hyfd_mb).c_str(), FmtPaper(p.dhyfd_mb).c_str());

    Relation r = LoadBenchmark(name, flags.get_int("rows", 0));
    std::map<std::string, std::string> cells;
    std::map<std::string, std::string> mem_cells;
    int64_t fd_count = -1;
    std::string json_cells;
    for (const std::string& algo : algos) {
      DiscoveryResult res = DiscoverWithin(algo, r, tl);
      cells[algo] = FmtTime(res.stats);
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.1f", res.stats.memory_mb);
      mem_cells[algo] = buf;
      if (!res.stats.timed_out) fd_count = res.fds.size();
      std::snprintf(buf, sizeof(buf), ",\"%s_seconds\":%s", algo.c_str(),
                    res.stats.timed_out ? "null" : FmtTime(res.stats).c_str());
      json_cells += buf;
    }
    auto cell = [&](const char* a) -> std::string {
      auto it = cells.find(a);
      return it == cells.end() ? "-" : it->second;
    };
    auto memcell = [&](const char* a) -> std::string {
      auto it = mem_cells.find(a);
      return it == mem_cells.end() ? "-" : it->second;
    };
    std::printf("%-11s %-9s %8d %4d %8lld | %9s %9s %9s %9s %9s %9s | %9s %9s\n",
                "", "measured", r.num_rows(), r.num_cols(),
                static_cast<long long>(fd_count), cell("tane").c_str(),
                cell("fdep").c_str(), cell("fdep1").c_str(), cell("fdep2").c_str(),
                cell("hyfd").c_str(), cell("dhyfd").c_str(), memcell("hyfd").c_str(),
                memcell("dhyfd").c_str());
    std::printf("{\"bench\":\"table2\",%s,\"rows\":%d,\"cols\":%d,\"fds\":%lld%s}\n",
                JsonStamp(name).c_str(), r.num_rows(), r.num_cols(),
                static_cast<long long>(fd_count), json_cells.c_str());
    PrintRule(132);
    std::fflush(stdout);
  }
  return 0;
}

}  // namespace
}  // namespace dhyfd::bench

int main(int argc, char** argv) { return dhyfd::bench::Main(argc, argv); }
