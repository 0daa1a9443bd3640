// Null-semantics explorer: Section V-B of the paper stresses that the two
// common interpretations of missing values (null = null vs null != null)
// change which FDs hold and how relevant they are. This example profiles
// an incomplete data set under both semantics and shows the FDs whose
// status flips, plus the paper's sigma_3-style diagnosis: FDs whose
// redundancy is almost entirely null markers are likely accidental.
//
// Usage:
//   example_null_semantics_explorer            # built-in bridges-style demo
//   example_null_semantics_explorer data.csv
#include <cstdio>
#include <string>

#include "core/profiler.h"
#include "datagen/benchmark_data.h"
#include "fd/closure.h"
#include "relation/csv.h"

int main(int argc, char** argv) {
  using namespace dhyfd;

  RawTable table = argc > 1 ? ReadCsvFile(argv[1])
                            : GenerateBenchmark("bridges", 108);
  std::printf("analyzing %s (%d rows, %d columns)\n",
              argc > 1 ? argv[1] : "built-in bridges-style demo",
              table.num_rows(), table.num_cols());

  ProfileOptions eq_opts;
  eq_opts.semantics = NullSemantics::kNullEqualsNull;
  ProfileReport eq = Profiler(eq_opts).profile(table);

  ProfileOptions neq_opts;
  neq_opts.semantics = NullSemantics::kNullNotEqualsNull;
  ProfileReport neq = Profiler(neq_opts).profile(table);

  std::printf("\nnull occurrences: %lld (%d incomplete columns)\n",
              static_cast<long long>(eq.null_stats.null_occurrences),
              eq.null_stats.incomplete_columns);
  std::printf("%-14s %14s %14s\n", "", "null = null", "null != null");
  std::printf("%-14s %14lld %14lld\n", "|L-r|",
              static_cast<long long>(eq.discovery.fds.size()),
              static_cast<long long>(neq.discovery.fds.size()));
  std::printf("%-14s %14lld %14lld\n", "|Can|",
              static_cast<long long>(eq.canonical.size()),
              static_cast<long long>(neq.canonical.size()));
  std::printf("%-14s %14lld %14lld\n", "#red",
              static_cast<long long>(eq.dataset_redundancy.red),
              static_cast<long long>(neq.dataset_redundancy.red));

  // Making nulls unique can only shrink agreement clusters, so every
  // null = null FD keeps holding; the interesting delta is the FDs GAINED
  // under null != null — they hold only because null collisions no longer
  // create violating pairs.
  const int n = eq.schema.size();
  ClosureEngine eq_closure(eq.discovery.fds, n);
  std::printf("\nFDs gained under null != null (their violations were pairs "
              "of matching null markers):\n");
  int shown = 0;
  for (const Fd& fd : neq.canonical.fds) {
    if (!eq_closure.implies(fd.lhs, fd.rhs)) {
      std::printf("  %s\n", fd.to_string(neq.schema).c_str());
      if (++shown >= 8) break;
    }
  }
  if (shown == 0) std::printf("  (none)\n");

  // Paper's sigma_3 diagnostic: redundancy dominated by null markers.
  std::printf("\nlikely-accidental FDs (over 80%% of their redundant values "
              "are null markers):\n");
  shown = 0;
  for (const FdRedundancy& red : eq.ranking) {
    if (red.with_nulls >= 5 &&
        static_cast<double>(red.excluding_null_rhs) <
            0.2 * static_cast<double>(red.with_nulls)) {
      std::printf("  %-50s #red+0=%lld but #red=%lld\n",
                  red.fd.to_string(eq.schema).c_str(),
                  static_cast<long long>(red.with_nulls),
                  static_cast<long long>(red.excluding_null_rhs));
      if (++shown >= 8) break;
    }
  }
  if (shown == 0) std::printf("  (none)\n");
  return 0;
}
