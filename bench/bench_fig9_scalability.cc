// Reproduces Figure 9: row scalability on weather (left) and column
// scalability on diabetic at fixed rows (right), with the #FD series that
// the paper overlays on the right chart. Paper: TANE and FDEP blow up with
// rows; HyFD degrades sharply past a column threshold where the number of
// valid FDs doubles; DHyFD stays smooth.
//
// Flags: --tl=SECONDS (default 15) --weather_rows=... --diabetic_rows=N --cols=...
#include "bench_util.h"

namespace dhyfd::bench {
namespace {

const std::vector<std::string> kAlgos = {"tane", "fdep2", "hyfd", "dhyfd"};

void PrintHeaderRow(const char* dim) {
  std::printf("%10s", dim);
  for (const std::string& a : kAlgos) std::printf(" %10s", a.c_str());
  std::printf(" %10s\n", "#FD");
  PrintRule(10 + 11 * (static_cast<int>(kAlgos.size()) + 1));
}

void Sweep(const Relation& frag, const char* label, double tl) {
  std::printf("%10s", label);
  int64_t fds = -1;
  for (const std::string& algo : kAlgos) {
    DiscoveryResult res = DiscoverWithin(algo, frag, tl);
    std::printf(" %10s", FmtTime(res.stats).c_str());
    if (!res.stats.timed_out) fds = res.fds.size();
    std::fflush(stdout);
  }
  std::printf(" %10lld\n", static_cast<long long>(fds));
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  ObsSession obs(ObsOptionsFromFlags(flags));
  double tl = flags.get_double("tl", 10.0);
  PrintHeader("Figure 9",
              "Left: row scalability on weather. Right: column scalability on "
              "diabetic at fixed rows, with the valid-FD count that drives "
              "HyFD's degradation.");

  std::printf("weather: time (s) vs rows\n");
  PrintHeaderRow("rows");
  Relation weather = LoadBenchmark("weather", flags.get_int("weather_max_rows", 16000));
  for (int rows : {1000, 2000, 4000, 6000, 8000, 12000, 16000}) {
    if (rows > weather.num_rows()) break;
    Relation frag = weather.fragment(rows, weather.num_cols());
    Sweep(frag, std::to_string(rows).c_str(), tl);
  }

  int drows = flags.get_int("diabetic_rows", 3000);
  std::printf("\ndiabetic (%d rows): time (s) vs columns\n", drows);
  PrintHeaderRow("cols");
  Relation diabetic = LoadBenchmark("diabetic", drows);
  for (int cols : {8, 12, 16, 20, 24, 27, 30}) {
    Relation frag = diabetic.fragment(diabetic.num_rows(), cols);
    Sweep(frag, std::to_string(cols).c_str(), tl);
  }
  return 0;
}

}  // namespace
}  // namespace dhyfd::bench

int main(int argc, char** argv) { return dhyfd::bench::Main(argc, argv); }
