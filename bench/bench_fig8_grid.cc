// Reproduces Figure 8: the best-performing algorithm on row x column
// fragments of weather and diabetic. The paper's pattern: FDEP wins at few
// rows (and gains with more columns), TANE only at few columns, DHyFD wins
// once both rows and columns grow, with HyFD close behind.
//
// Flags: --tl=SECONDS (per run; default 5) --weather_rows=... --weather_cols=...
#include "bench_util.h"

namespace dhyfd::bench {
namespace {

void Grid(const Relation& base, const std::vector<int>& row_steps,
          const std::vector<int>& col_steps, double tl) {
  const std::vector<std::string> algos = {"tane", "fdep2", "hyfd", "dhyfd"};
  std::printf("%8s |", "rows\\cols");
  for (int c : col_steps) std::printf(" %7d", c);
  std::printf("\n");
  PrintRule(12 + 8 * static_cast<int>(col_steps.size()));
  for (int rows : row_steps) {
    std::printf("%8d |", rows);
    for (int cols : col_steps) {
      Relation frag = base.fragment(rows, cols);
      std::string best = "-";
      double best_time = 1e18;
      for (const std::string& algo : algos) {
        DiscoveryResult res = DiscoverWithin(algo, frag, tl);
        if (!res.stats.timed_out && res.stats.seconds < best_time) {
          best_time = res.stats.seconds;
          best = algo;
        }
      }
      std::printf(" %7s", best.c_str());
      std::fflush(stdout);
    }
    std::printf("\n");
  }
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  ObsSession obs(ObsOptionsFromFlags(flags));
  double tl = flags.get_double("tl", 4.0);
  PrintHeader("Figure 8",
              "Best performer (lowest runtime) per rows x columns fragment. "
              "Paper: FDEP wins on few rows, TANE on few columns, DHyFD when "
              "both grow.");

  std::printf("weather fragments\n");
  Relation weather = LoadBenchmark("weather", flags.get_int("weather_max_rows", 12000));
  Grid(weather, {500, 1000, 2000, 4000, 8000, 12000}, {6, 9, 12, 15, 18}, tl);

  std::printf("\ndiabetic fragments\n");
  Relation diabetic =
      LoadBenchmark("diabetic", flags.get_int("diabetic_max_rows", 6000));
  Grid(diabetic, {500, 1000, 2000, 4000, 6000}, {10, 15, 20, 25, 30}, tl);
  return 0;
}

}  // namespace
}  // namespace dhyfd::bench

int main(int argc, char** argv) { return dhyfd::bench::Main(argc, argv); }
