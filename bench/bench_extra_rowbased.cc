// Extra baselines beyond the paper's Table II line-up: FastFDs and
// Dep-Miner (the transversal-based row algorithms the paper cites as
// related work [10], [19]) against FDEP2 and DHyFD on the smaller analogs.
//
// Flags: --datasets=a,b  --rows=N  --tl=SECONDS (default 20)
#include "bench_util.h"

namespace dhyfd::bench {
namespace {

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  ObsSession obs(ObsOptionsFromFlags(flags));
  double tl = flags.get_double("tl", 20.0);
  std::vector<std::string> datasets = flags.get_list(
      "datasets", {"iris", "balance", "abalone", "breast", "bridges", "echo",
                   "ncvoter", "hepatitis"});
  const std::vector<std::string> algos = {"fdep2", "fastfds", "depminer", "dfd", "dhyfd"};

  PrintHeader("Extra row-based baselines",
              "FastFDs (Wyss et al. [19]) and Dep-Miner (Lopes et al. [10]) "
              "vs FDEP2 and DHyFD — the transversal branch of the row-based "
              "family the paper's related work discusses. Times in seconds.");

  std::printf("%-11s", "dataset");
  for (const std::string& a : algos) std::printf(" %10s", a.c_str());
  std::printf(" %10s\n", "#FD");
  PrintRule(81);
  for (const std::string& name : datasets) {
    Relation r = LoadBenchmark(name, flags.get_int("rows", 0));
    std::printf("%-11s", name.c_str());
    int64_t fds = -1;
    for (const std::string& algo : algos) {
      DiscoveryResult res = DiscoverWithin(algo, r, tl);
      std::printf(" %10s", FmtTime(res.stats).c_str());
      if (!res.stats.timed_out) fds = res.fds.size();
      std::fflush(stdout);
    }
    std::printf(" %10lld\n", static_cast<long long>(fds));
  }
  return 0;
}

}  // namespace
}  // namespace dhyfd::bench

int main(int argc, char** argv) { return dhyfd::bench::Main(argc, argv); }
