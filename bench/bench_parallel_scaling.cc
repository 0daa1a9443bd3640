// Intra-job parallel discovery: threads x dataset scaling grid.
//
// For each dataset, runs the hybrid discoverer once sequentially (the
// baseline) and then at each requested degree with a ThreadPool, reporting
// wall seconds, speedup over the baseline, and whether the parallel cover
// is bit-identical to the sequential one (it must be — sharding changes who
// does the work, never the answer; see DESIGN.md, "Parallel discovery").
//
// Acceptance shape: covers identical at every degree (enforced always),
// and >= --min-speedup at the highest degree on each dataset. The speedup
// gate only bites when the machine has at least that many cores — on a
// smaller box the grid still runs and the rows still record the measured
// numbers (with "cores" for context), but slowdown there is physics, not a
// regression, so the gate reports itself skipped instead of failing.
//
// Emits one {"bench":"parallel_scaling",...} JSON row per cell on stdout;
// fold into BENCH_parallel_scaling.json with tools/bench_distill.py.
//
// Flags: --datasets=diabetic --rows=6000 --threads=1,2,4 --algo=dhyfd
//        --reps=3 --min-speedup=3.0
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "util/thread_pool.h"

namespace dhyfd::bench {
namespace {

struct Cell {
  int threads = 1;
  double seconds = 0;    // best of --reps runs
  double speedup = 1.0;  // sequential seconds / this cell's seconds
  std::size_t fds = 0;
  std::int64_t validations = 0;
  bool identical = true;  // cover bit-identical to the sequential baseline
};

bool SameCover(const FdSet& a, const FdSet& b) {
  if (a.fds.size() != b.fds.size()) return false;
  for (std::size_t i = 0; i < a.fds.size(); ++i) {
    if (!(a.fds[i] == b.fds[i])) return false;
  }
  return true;
}

/// Best-of-reps run at one degree; degree 1 runs without a pool (the true
/// sequential path, not a one-thread pool).
Cell RunCell(const std::string& algo, const Relation& r, int threads,
             int reps, const DiscoveryResult* baseline) {
  Cell cell;
  cell.threads = threads;
  ThreadPool pool(threads);
  for (int rep = 0; rep < reps; ++rep) {
    auto discovery =
        threads > 1 ? MakeDiscovery(algo, threads, &pool)
                    : MakeDiscovery(algo);
    DiscoveryResult res = discovery->discover(r);
    if (rep == 0 || res.stats.seconds < cell.seconds) {
      cell.seconds = res.stats.seconds;
    }
    cell.fds = res.fds.fds.size();
    cell.validations = res.stats.validations;
    if (baseline != nullptr) {
      cell.identical = cell.identical && SameCover(baseline->fds, res.fds);
    }
  }
  if (baseline != nullptr && cell.seconds > 0) {
    cell.speedup = baseline->stats.seconds / cell.seconds;
  }
  return cell;
}

void PrintJsonRow(const std::string& dataset, const Relation& r,
                  const std::string& algo, int reps, unsigned cores,
                  const Cell& c) {
  std::printf(
      "{\"bench\":\"parallel_scaling\",%s,\"rows\":%d,\"cols\":%d,"
      "\"algo\":\"%s\",\"threads\":%d,\"cores\":%u,\"reps\":%d,"
      "\"seconds\":%.4f,\"speedup\":%.2f,\"fds\":%zu,\"validations\":%lld,"
      "\"identical\":%s}\n",
      JsonStamp(dataset).c_str(), r.num_rows(), r.num_cols(), algo.c_str(),
      c.threads, cores, reps, c.seconds, c.speedup, c.fds,
      static_cast<long long>(c.validations), c.identical ? "true" : "false");
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  ObsSession obs(ObsOptionsFromFlags(flags));
  PrintHeader("Intra-job parallel scaling",
              "Wall seconds and speedup per threads x dataset cell. Reading: "
              "the cover is bit-identical to the sequential run at every "
              "degree, and seconds shrink as threads grow — up to the "
              "machine's core count, past which extra shards only add "
              "coordination.");

  const std::string algo = flags.get_str("algo", "dhyfd");
  const int rows = flags.get_int("rows", 6000);
  const int reps = flags.get_int("reps", 3);
  const double min_speedup = flags.get_double("min-speedup", 3.0);
  const unsigned cores = std::thread::hardware_concurrency();

  std::vector<int> degrees;
  for (const std::string& s : flags.get_list("threads", {"1", "2", "4"}))
    degrees.push_back(std::atoi(s.c_str()));

  std::printf("algo=%s reps=%d cores=%u\n\n", algo.c_str(), reps, cores);
  std::printf("%-10s %8s | %9s %8s %6s %12s %10s\n", "dataset", "threads",
              "seconds", "speedup", "fds", "validations", "identical");
  PrintRule(76);

  bool all_identical = true;
  bool speedup_ok = true;
  bool speedup_checked = false;
  for (const std::string& dataset : flags.get_list("datasets", {"diabetic"})) {
    Relation r = LoadBenchmark(dataset, rows);
    DiscoveryResult baseline;
    std::vector<Cell> cells;
    int max_degree = 1;
    for (int d : degrees) {
      if (d <= 1 && cells.empty()) {
        // Sequential baseline cell: measured like any other, then used as
        // the reference for every parallel cell's speedup + cover check.
        auto discovery = MakeDiscovery(algo);
        baseline = discovery->discover(r);
        Cell c = RunCell(algo, r, 1, reps, &baseline);
        baseline.stats.seconds = c.seconds;  // best-of-reps reference
        cells.push_back(c);
      } else {
        cells.push_back(RunCell(algo, r, d, reps, &baseline));
      }
      if (d > max_degree) max_degree = d;
    }
    for (const Cell& c : cells) {
      std::printf("%-10s %8d | %9.3f %8.2fx %6zu %12lld %10s\n",
                  dataset.c_str(), c.threads, c.seconds, c.speedup, c.fds,
                  static_cast<long long>(c.validations),
                  c.identical ? "yes" : "NO");
      std::fflush(stdout);
      all_identical = all_identical && c.identical;
      if (c.threads == max_degree && max_degree > 1) {
        if (cores >= static_cast<unsigned>(max_degree)) {
          speedup_checked = true;
          if (c.speedup < min_speedup) {
            speedup_ok = false;
            std::printf("BELOW TARGET: %s at %d threads: %.2fx < %.2fx\n",
                        dataset.c_str(), c.threads, c.speedup, min_speedup);
          }
        } else {
          std::printf(
              "note: speedup gate skipped for %s — %u core(s) < %d "
              "threads, parallel shards just time-slice here\n",
              dataset.c_str(), cores, max_degree);
        }
      }
    }
    PrintRule(76);
    std::printf("\n");
    for (const Cell& c : cells) PrintJsonRow(dataset, r, algo, reps, cores, c);
    std::printf("\n");
  }

  std::printf("covers identical at every degree: %s\n",
              all_identical ? "yes" : "NO");
  if (speedup_checked) {
    std::printf("speedup >= %.2fx at max threads: %s\n", min_speedup,
                speedup_ok ? "yes" : "NO");
  }
  return (all_identical && speedup_ok) ? 0 : 1;
}

}  // namespace
}  // namespace dhyfd::bench

int main(int argc, char** argv) { return dhyfd::bench::Main(argc, argv); }
