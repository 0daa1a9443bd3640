#ifndef DHYFD_BENCH_BENCH_UTIL_H_
#define DHYFD_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "algo/discovery.h"
#include "datagen/benchmark_data.h"
#include "obs/session.h"
#include "relation/encoder.h"
#include "util/cancellation.h"

namespace dhyfd::bench {

/// Minimal --key=value flag parser shared by all bench binaries.
class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) continue;
      size_t eq = arg.find('=');
      if (eq == std::string::npos) {
        kv_[arg.substr(2)] = "1";
      } else {
        kv_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
      }
    }
  }

  int get_int(const std::string& key, int def) const {
    auto it = kv_.find(key);
    return it == kv_.end() ? def : std::atoi(it->second.c_str());
  }
  double get_double(const std::string& key, double def) const {
    auto it = kv_.find(key);
    return it == kv_.end() ? def : std::atof(it->second.c_str());
  }
  std::string get_str(const std::string& key, const std::string& def) const {
    auto it = kv_.find(key);
    return it == kv_.end() ? def : it->second;
  }
  bool has(const std::string& key) const { return kv_.count(key) > 0; }

  /// Comma-separated list flag.
  std::vector<std::string> get_list(const std::string& key,
                                    const std::vector<std::string>& def) const {
    auto it = kv_.find(key);
    if (it == kv_.end()) return def;
    std::vector<std::string> out;
    std::string cur;
    for (char c : it->second) {
      if (c == ',') {
        if (!cur.empty()) out.push_back(cur);
        cur.clear();
      } else {
        cur += c;
      }
    }
    if (!cur.empty()) out.push_back(cur);
    return out;
  }

 private:
  std::map<std::string, std::string> kv_;
};

/// Observability options from the shared --trace=<file> / --metrics=<file>
/// flags. --metrics-interval=<seconds> adds periodic Prometheus snapshots
/// on top of the final flush, so a long bench is scrapeable mid-run.
/// Typical use, first thing in a bench Main():
///
///   ObsSession obs(ObsOptionsFromFlags(flags));
inline ObsSessionOptions ObsOptionsFromFlags(const Flags& flags) {
  ObsSessionOptions options;
  options.trace_path = flags.get_str("trace", "");
  options.metrics_path = flags.get_str("metrics", "");
  options.snapshot_interval_seconds = flags.get_double("metrics-interval", 0);
  return options;
}

/// Git commit the binary was built from (baked in by bench/CMakeLists.txt;
/// "unknown" when the sources were not in a git checkout at configure time).
inline const char* BuildCommit() {
#ifdef DHYFD_GIT_SHA
  return DHYFD_GIT_SHA;
#else
  return "unknown";
#endif
}

/// Current UTC time, ISO-8601 (e.g. "2026-08-06T12:34:56Z").
inline std::string Iso8601Now() {
  std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

/// Provenance fragment for machine-readable bench rows — splice into a JSON
/// object: "commit":"<sha>","dataset":"<name>","timestamp":"<iso8601>".
inline std::string JsonStamp(const std::string& dataset) {
  return std::string("\"commit\":\"") + BuildCommit() + "\",\"dataset\":\"" +
         dataset + "\",\"timestamp\":\"" + Iso8601Now() + "\"";
}

/// Generates and DIIS-encodes a benchmark analog.
inline Relation LoadBenchmark(const std::string& name, int rows_override = 0,
                              NullSemantics semantics = NullSemantics::kNullEqualsNull) {
  RawTable table = GenerateBenchmark(name, rows_override);
  return EncodeRelation(table, semantics).relation;
}

/// Runs `algo` on `r` under a CancelToken expiring `tl` seconds from now
/// (<= 0 = no limit): the paper's TL budget. A run the expiry stopped has
/// stats.timed_out set, which FmtTime prints as "TL".
inline DiscoveryResult DiscoverWithin(FdDiscovery&& algo, const Relation& r, double tl) {
  CancelToken limit(tl);
  CancelScope scope(&limit);
  return algo.discover(r);
}

/// DiscoverWithin for one of the MakeDiscovery names.
inline DiscoveryResult DiscoverWithin(const std::string& name, const Relation& r,
                                      double tl) {
  return DiscoverWithin(std::move(*MakeDiscovery(name)), r, tl);
}

/// Formats a measured runtime, or "TL" for timed-out runs.
inline std::string FmtTime(const DiscoveryStats& stats) {
  if (stats.timed_out) return "TL";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", stats.seconds);
  return buf;
}

/// Formats a paper-reported figure (handles the TL / N/A sentinels).
inline std::string FmtPaper(double v) {
  if (v == kTimeLimit) return "TL";
  if (v == kNotAvail) return "N/A";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3g", v);
  return buf;
}

inline void PrintRule(int width) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

/// Standard preamble: what the bench reproduces and how to read it.
inline void PrintHeader(const char* experiment, const char* description) {
  std::printf("=== %s ===\n%s\n", experiment, description);
  std::printf(
      "NOTE: data sets are seeded synthetic analogs (see DESIGN.md); "
      "absolute numbers differ from the paper's testbed, the qualitative "
      "shape is what reproduces.\n\n");
}

}  // namespace dhyfd::bench

#endif  // DHYFD_BENCH_BENCH_UTIL_H_
