// Incremental maintenance vs full re-profiling over a live relation: a
// batch-size x churn grid. Each cell streams the same update workload twice
// through a LiveProfile — once incrementally (insert induction + delete
// generalization + DDM-style rebuild fallback), once forcing a compact +
// full DHyFD re-run per batch — and reports mean per-batch latency and the
// speedup. Small batches are where incremental maintenance must win; heavy
// churn is where the rebuild fallback is allowed to take over.
//
// Flags: --rows=N --ops=N --batch_sizes=1,8,64,256
//        --delete_fractions=0,0.25,0.5 --seed=N
//        --trace=<file> (Chrome trace JSON) --metrics=<file> (Prometheus)
#include "bench_util.h"

#include "datagen/update_stream.h"
#include "incr/live_profile.h"
#include "util/timer.h"

namespace dhyfd::bench {
namespace {

DatasetSpec BaseSpec(uint64_t seed) {
  DatasetSpec s;
  s.name = "live";
  s.seed = seed;
  ColumnSpec key{.name = "k", .kind = ColumnKind::kKey};
  ColumnSpec s3{.name = "s", .kind = ColumnKind::kRandom, .domain_size = 4};
  ColumnSpec m1{.name = "m1", .kind = ColumnKind::kRandom, .domain_size = 16};
  ColumnSpec m2{.name = "m2", .kind = ColumnKind::kRandom, .domain_size = 32};
  ColumnSpec d1{.name = "d1", .kind = ColumnKind::kDerived, .domain_size = 24};
  d1.parents = {1, 2};
  ColumnSpec d2{.name = "d2", .kind = ColumnKind::kDerived, .domain_size = 48};
  d2.parents = {3};
  s.columns = {key, s3, m1, m2, d1, d2};
  s.duplicate_row_rate = 0.05;
  s.near_duplicate_rate = 0.1;
  return s;
}

struct CellResult {
  double incr_ms_per_batch = 0;
  double full_ms_per_batch = 0;
  int64_t rebuilds = 0;
  int64_t fds_final = 0;
  int batches = 0;
};

CellResult RunCell(const UpdateStreamSpec& spec) {
  UpdateStream stream = GenerateUpdateStream(spec);
  CellResult out;
  out.batches = static_cast<int>(stream.batches.size());

  {
    LiveProfile incr(stream.initial);
    for (const UpdateBatch& b : stream.batches) {
      out.incr_ms_per_batch += incr.apply(b).stats.seconds * 1e3;
    }
    out.incr_ms_per_batch /= out.batches;
    out.rebuilds = incr.rebuild_count();
    out.fds_final = incr.cover().size();
  }
  {
    // The rerun baseline: apply each batch raw, then compact and
    // re-discover from scratch.
    LiveProfile full(stream.initial);
    LiveRelation& rel = full.live_relation();
    for (const UpdateBatch& b : stream.batches) {
      Timer timer;
      for (const auto& cells : b.inserts) rel.insert_row(cells);
      for (LiveRowId id : b.deletes) {
        const RowId row = rel.row_of(id);
        if (row >= 0) rel.erase_row(row);
      }
      full.force_rebuild();
      out.full_ms_per_batch += timer.seconds() * 1e3;
    }
    out.full_ms_per_batch /= out.batches;
  }
  return out;
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  ObsSession obs(ObsOptionsFromFlags(flags));
  int initial_rows = flags.get_int("rows", 2000);
  int total_ops = flags.get_int("ops", 1024);
  uint64_t seed = static_cast<uint64_t>(flags.get_int("seed", 17));
  std::vector<std::string> batch_sizes =
      flags.get_list("batch_sizes", {"1", "8", "64", "256"});
  std::vector<std::string> delete_fractions =
      flags.get_list("delete_fractions", {"0", "0.25", "0.5"});

  PrintHeader("Incremental maintenance",
              "Per-batch latency of incremental cover maintenance vs a full "
              "compact+re-discover per batch, over a batch-size x churn "
              "grid (same total update count per cell). speedup > 1 means "
              "incremental wins; the rebuilds column shows how often the "
              "cost-ratio / tombstone fallback fired.");

  std::printf("%10s %10s %8s %12s %12s %8s %8s %6s\n", "batch", "del_frac",
              "batches", "incr_ms/b", "full_ms/b", "speedup", "rebuilds", "#FD");
  PrintRule(80);

  for (const std::string& bs : batch_sizes) {
    for (const std::string& df : delete_fractions) {
      UpdateStreamSpec spec;
      spec.base = BaseSpec(seed);
      spec.initial_rows = initial_rows;
      spec.batch_size = std::atoi(bs.c_str());
      spec.num_batches = total_ops / spec.batch_size;
      if (spec.num_batches < 1) spec.num_batches = 1;
      spec.delete_fraction = std::atof(df.c_str());
      spec.seed = seed + 1;

      CellResult cell = RunCell(spec);
      double speedup = cell.incr_ms_per_batch > 0
                           ? cell.full_ms_per_batch / cell.incr_ms_per_batch
                           : 0;
      std::printf("%10s %10s %8d %12.3f %12.3f %8.1f %8lld %6lld\n", bs.c_str(),
                  df.c_str(), cell.batches, cell.incr_ms_per_batch,
                  cell.full_ms_per_batch, speedup,
                  static_cast<long long>(cell.rebuilds),
                  static_cast<long long>(cell.fds_final));
      std::printf(
          "{\"bench\":\"incremental\",%s,\"batch_size\":%s,"
          "\"delete_fraction\":%s,\"batches\":%d,\"incr_ms_per_batch\":%.3f,"
          "\"full_ms_per_batch\":%.3f,\"speedup\":%.2f,\"rebuilds\":%lld,"
          "\"fds\":%lld}\n",
          JsonStamp(spec.base.name).c_str(), bs.c_str(), df.c_str(),
          cell.batches, cell.incr_ms_per_batch, cell.full_ms_per_batch, speedup,
          static_cast<long long>(cell.rebuilds),
          static_cast<long long>(cell.fds_final));
      std::fflush(stdout);
    }
  }
  return 0;
}

}  // namespace
}  // namespace dhyfd::bench

int main(int argc, char** argv) { return dhyfd::bench::Main(argc, argv); }
