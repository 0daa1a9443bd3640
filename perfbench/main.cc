// One benchmark for the profiling pipeline, the live store and the server.
//
//   perfbench --workload <profile_wide|profile_tall|serve_live> --seed <n>
//             --seconds <s> --trace <0|1> [--commit <id>]
//
// Prints a stamp line (cores, commit, seed, build type, sample counts,
// oracle failures) and, as its last line, one JSON object with the keys
// correct, attempted, failed and metrics. --trace 0 reports the end-to-end
// metrics, --trace 1 the per-layer ones. Exits 1 when an oracle failed.
// perfbench/run.py builds this binary and is the command to run.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include <unistd.h>

#include "bench.h"

namespace perfbench {
namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <profile_wide|"
               "profile_tall|serve_live> --seed <n> --seconds <s> --trace <0|1> "
               "[--commit <id>]\n",
               why);
  return 2;
}

int Main(int argc, char** argv) {
  RunConfig config;
  std::string commit = "unknown";
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    std::size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return Usage(("missing value for " + key).c_str());
    }
    if (key == "--workload") {
      config.workload = value;
    } else if (key == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      config.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      config.trace = value == "1";
    } else if (key == "--commit") {
      commit = value;
    } else {
      return Usage(("unknown flag " + key).c_str());
    }
  }
  if (config.seconds <= 0) return Usage("--seconds must be positive");

  RunResult result;
  if (config.workload == "profile_wide") {
    result = RunProfileWide(config);
  } else if (config.workload == "profile_tall") {
    result = RunProfileTall(config);
  } else if (config.workload == "serve_live") {
    result = RunServeLive(config);
  } else {
    return Usage(("unknown workload '" + config.workload + "'").c_str());
  }

  for (auto& [name, metric] : result.metrics) {
    if (!std::isfinite(metric.value)) {
      result.fail("metric " + name + " is not finite");
      metric.value = 0;
    }
  }

  std::string stamp = "{\"stamp\":{\"workload\":" + JsonString(config.workload) +
                      ",\"seed\":" + std::to_string(config.seed) +
                      ",\"seconds\":" + JsonNumber(config.seconds) +
                      ",\"trace\":" + (config.trace ? "1" : "0") +
                      ",\"cores\":" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
                      ",\"commit\":" + JsonString(commit) +
                      ",\"build_type\":" + JsonString(PERFBENCH_BUILD_TYPE) +
                      ",\"warmup\":\"none; every call is a timed sample\"" +
                      ",\"samples\":{";
  bool first = true;
  for (const auto& [name, n] : result.samples) {
    stamp += (first ? "" : ",") + JsonString(name) + ":" + std::to_string(n);
    first = false;
  }
  stamp += "},\"failures\":[";
  first = true;
  for (const std::string& f : result.failures) {
    stamp += (first ? "" : ",") + JsonString(f);
    first = false;
  }
  std::printf("%s]}}\n", stamp.c_str());

  std::string line = std::string("{\"correct\": ") +
                     (result.correct() ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(result.attempted) +
                     ", \"failed\": " + std::to_string(result.failed) +
                     ", \"metrics\": {";
  first = true;
  for (const auto& [name, metric] : result.metrics) {
    line += (first ? "" : ", ") + JsonString(name) + ": {\"value\": " +
            JsonNumber(metric.value) + ", \"unit\": " + JsonString(metric.unit) +
            "}";
    first = false;
  }
  std::printf("%s}}\n", line.c_str());
  std::fflush(stdout);
  return result.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
