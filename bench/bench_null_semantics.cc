// Reproduces the Section V-B null-semantics comparison: discovery runtime
// and FD counts under null = null vs null != null. The paper reports that
// null != null tends to exhibit more FDs and hence longer runtimes,
// especially on larger data sets, with the same algorithm ranking.
//
// Flags: --datasets=a,b  --rows=N  --tl=SECONDS (default 20) --algos=...
#include "bench_util.h"

namespace dhyfd::bench {
namespace {

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  ObsSession obs(ObsOptionsFromFlags(flags));
  double tl = flags.get_double("tl", 12.0);
  std::vector<std::string> datasets = flags.get_list(
      "datasets", {"bridges", "echo", "hepatitis", "horse", "ncvoter", "diabetic",
                   "weather", "uniprot"});
  std::vector<std::string> algos =
      flags.get_list("algos", {"fdep2", "hyfd", "dhyfd"});

  PrintHeader("Null semantics (Section V-B)",
              "Runtime (s) and #FD under null = null vs null != null. Paper: "
              "null != null exhibits more FDs and longer runtimes; algorithm "
              "ranking is mostly unchanged, with FDEP fastest on some small "
              "incomplete data sets under null != null.");

  std::printf("%-11s %-9s", "dataset", "semantics");
  for (const std::string& a : algos) std::printf(" %10s", a.c_str());
  std::printf(" %10s\n", "#FD");
  PrintRule(34 + 11 * (static_cast<int>(algos.size()) + 1));

  for (const std::string& name : datasets) {
    for (NullSemantics sem :
         {NullSemantics::kNullEqualsNull, NullSemantics::kNullNotEqualsNull}) {
      Relation r = LoadBenchmark(name, flags.get_int("rows", 0), sem);
      std::printf("%-11s %-9s", name.c_str(),
                  sem == NullSemantics::kNullEqualsNull ? "null=" : "null!=");
      int64_t fds = -1;
      for (const std::string& algo : algos) {
        DiscoveryResult res = DiscoverWithin(algo, r, tl);
        std::printf(" %10s", FmtTime(res.stats).c_str());
        if (!res.stats.timed_out) fds = res.fds.size();
        std::fflush(stdout);
      }
      std::printf(" %10lld\n", static_cast<long long>(fds));
    }
    PrintRule(34 + 11 * (static_cast<int>(algos.size()) + 1));
  }
  return 0;
}

}  // namespace
}  // namespace dhyfd::bench

int main(int argc, char** argv) { return dhyfd::bench::Main(argc, argv); }
