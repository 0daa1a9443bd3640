// Hostile CSV corpus: every input an upload can carry must either profile
// or be refused with a typed error — never crash, hang or corrupt memory.
// Each case runs through ParseCsvString -> Profiler at every prefix (a
// seeded sample of prefixes for the large cases), and through a loopback
// server's register_dataset, both static and live. The ASan and UBSan CI
// legs run this binary.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/profiler.h"
#include "net/client.h"
#include "net/server.h"
#include "relation/csv.h"
#include "service/dataset_registry.h"
#include "service/live_store.h"
#include "service/metrics.h"
#include "service/scheduler.h"
#include "util/random.h"

namespace dhyfd::net {
namespace {

enum class Outcome { kProfiled, kRefused };

struct HostileCase {
  std::string name;
  std::string csv;
  Outcome expected;  // of the whole input
};

std::string Wide(int cols) {
  std::string header;
  std::string row;
  for (int c = 0; c < cols; ++c) {
    header += (c > 0 ? "," : "") + ("c" + std::to_string(c));
    row += (c > 0 ? "," : "") + std::to_string(c % 7);
  }
  return header + "\n" + row + "\n" + row + "\n";
}

std::vector<HostileCase> Corpus() {
  const std::string nul_row("1,a\0b\n", 6);
  return {
      {"empty", "", Outcome::kProfiled},
      {"header_only", "a,b,c\n", Outcome::kProfiled},
      {"ragged_short", "a,b,c\n1,2,3\n4,5\n", Outcome::kRefused},
      {"ragged_long", "a,b,c\n1,2,3\n4,5,6,7\n", Outcome::kRefused},
      {"duplicate_headers", "a,a,b\n1,2,3\n1,2,4\n", Outcome::kProfiled},
      {"nul_byte", "a,b\n" + nul_row + "2,c\n", Outcome::kProfiled},
      {"unterminated_quote", "a,b\n1,\"open\n2,3\n", Outcome::kRefused},
      {"all_null_column", "a,b\n1,\n2,?\n3,NULL\n", Outcome::kProfiled},
      {"zero_columns", "\n\n\n", Outcome::kProfiled},
      {"300_columns", Wide(300), Outcome::kRefused},
      {"8mb_cell", "a,b\n" + std::string(8u << 20, 'x') + ",1\ny,2\n",
       Outcome::kProfiled},
  };
}

// Prefix lengths to try: every one when the input is at most
// `every_prefix_max` bytes, else the empty and whole input plus `sampled`
// seeded cuts, so the 8 MB case stays a handful of profiles.
std::vector<std::size_t> Cuts(const std::string& text, std::uint64_t seed,
                              std::size_t every_prefix_max, int sampled) {
  std::vector<std::size_t> cuts;
  if (text.size() <= every_prefix_max) {
    for (std::size_t c = 0; c <= text.size(); ++c) cuts.push_back(c);
    return cuts;
  }
  cuts = {0, text.size()};
  Random rng(seed);
  for (int i = 0; i < sampled; ++i) cuts.push_back(rng.next_below(text.size() + 1));
  return cuts;
}

// Anything but the two typed refusals escapes and fails the test.
Outcome ParseAndProfile(const std::string& text) {
  RawTable table;
  try {
    table = ParseCsvString(text);
  } catch (const std::runtime_error&) {  // malformed CSV
    return Outcome::kRefused;
  }
  try {
    Profiler().profile(table);
  } catch (const std::invalid_argument&) {  // table the Schema refuses
    return Outcome::kRefused;
  }
  return Outcome::kProfiled;
}

TEST(HostileInputTest, ParseAndProfileEveryPrefix) {
  std::uint64_t seed = 1;
  for (const HostileCase& c : Corpus()) {
    for (std::size_t cut : Cuts(c.csv, seed++, /*every_prefix_max=*/512,
                                /*sampled=*/24)) {
      Outcome got = ParseAndProfile(c.csv.substr(0, cut));
      if (cut == c.csv.size()) {
        EXPECT_EQ(got, c.expected) << c.name;
      }
    }
  }
}

TEST(HostileInputTest, RegisterDatasetStaticAndLive) {
  MetricsRegistry metrics;
  DatasetRegistry datasets{&metrics};
  SchedulerOptions sched;
  sched.num_threads = 2;
  JobScheduler scheduler(&datasets, &metrics, sched);
  LiveStore live(&metrics, 2);
  ServerOptions options;
  options.quota_rate = 0;  // the corpus is a burst of registrations
  ProfilingServer server(&scheduler, &live, &datasets, &metrics, options);
  server.start();
  {
    BlockingClient client("127.0.0.1", server.port(), "hostile-client",
                          /*timeout_seconds=*/60);
    std::uint64_t seed = 100;
    int registered = 0;
    for (const HostileCase& c : Corpus()) {
      for (std::size_t cut : Cuts(c.csv, seed++, /*every_prefix_max=*/0,
                                  /*sampled=*/4)) {
        const std::string text = c.csv.substr(0, cut);
        const Outcome local = ParseAndProfile(text);
        for (bool is_live : {false, true}) {
          const std::string name = c.name + "_" + std::to_string(cut) +
                                   (is_live ? "_live" : "_static");
          Outcome remote = Outcome::kProfiled;
          try {
            RegisterOkMsg ok = client.register_dataset(name, text, is_live);
            EXPECT_EQ(ok.cols, static_cast<std::uint32_t>(ParseCsvString(text).num_cols()))
                << name;
            ++registered;
          } catch (const RpcError& e) {
            EXPECT_EQ(e.code(), ErrCode::kBadRequest) << name << ": " << e.what();
            remote = Outcome::kRefused;
          }
          EXPECT_EQ(remote, local) << name;
        }
      }
    }
    EXPECT_GT(registered, 0);
    client.ping();  // the connection survived the whole corpus
  }
  server.shutdown();
  live.shutdown();
  scheduler.shutdown();
}

}  // namespace
}  // namespace dhyfd::net
