#ifndef DHYFD_PERFBENCH_BENCH_H_
#define DHYFD_PERFBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "relation/csv.h"

namespace perfbench {

/// Command-line settings of one benchmark run.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

struct Metric {
  double value = 0;
  std::string unit;
};

/// What one workload run reports: the metrics of its mode (end-to-end when
/// untraced, per-layer when traced), the operation accounting, and every
/// oracle failure in words.
struct RunResult {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// Sample count behind each reported percentile.
  std::map<std::string, std::int64_t> samples;
  std::vector<std::string> failures;

  bool correct() const { return failures.empty() && failed == 0; }
  void set(const std::string& name, double value, const char* unit) {
    metrics[name] = Metric{value, unit};
  }
  void fail(const std::string& why) { failures.push_back(why); }
};

RunResult RunProfileWide(const RunConfig& config);
RunResult RunProfileTall(const RunConfig& config);
RunResult RunServeLive(const RunConfig& config);

// ---- shared helpers (workloads.cc) ----------------------------------------

/// Linearly interpolated q-quantile of raw samples (0 when empty).
double Quantile(std::vector<double> samples, double q);
double Mean(const std::vector<double>& samples);
double NowSeconds();
/// Process peak RSS (VmHWM) in MiB.
double PeakRssMb();
/// Worker threads for the parallel parts: min(4, online cores).
int BenchThreads();

/// Makes a seeded variant of a generated table that keeps its dependency
/// structure: every non-null cell gets a per-column, seed-derived suffix (a
/// bijection, so every FD and every redundancy count is unchanged) and, with
/// `shuffle`, the rows are permuted.
void ApplySeed(dhyfd::RawTable* table, std::uint64_t seed, bool shuffle);

}  // namespace perfbench

#endif  // DHYFD_PERFBENCH_BENCH_H_
