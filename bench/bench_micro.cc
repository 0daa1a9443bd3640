// Micro-benchmarks (google-benchmark) for the hot primitives: stripped-
// partition construction/refinement/intersection, FD-tree operations,
// synergized induction, attribute closure, agree-set extraction, the
// neighborhood sampler and relation encoding.
#include <benchmark/benchmark.h>

#include "bench_util.h"

#include "algo/agree_sets.h"
#include "algo/discovery.h"
#include "algo/sampler.h"
#include "datagen/benchmark_data.h"
#include "fd/closure.h"
#include "fdtree/extended_fd_tree.h"
#include "fdtree/fd_tree.h"
#include "partition/partition_ops.h"
#include "relation/encoder.h"
#include "util/random.h"
#include "util/timer.h"

namespace dhyfd {
namespace {

Relation MakeRelation(int rows, int cols, int domain, uint64_t seed) {
  Random rng(seed);
  Relation r(Schema::numbered(cols), rows);
  for (int c = 0; c < cols; ++c) {
    for (RowId i = 0; i < rows; ++i) {
      r.set_value(i, c, static_cast<ValueId>(rng.next_below(domain)));
    }
    r.set_domain_size(c, domain);
  }
  return r;
}

void BM_BuildAttributePartition(benchmark::State& state) {
  Relation r = MakeRelation(static_cast<int>(state.range(0)), 4, 64, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildAttributePartition(r, 0));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BuildAttributePartition)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_RefinePartition(benchmark::State& state) {
  Relation r = MakeRelation(static_cast<int>(state.range(0)), 4, 64, 2);
  PartitionRefiner refiner(r);
  StrippedPartition p = BuildAttributePartition(r, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(refiner.refine(p, 1));
  }
  state.SetItemsProcessed(state.iterations() * p.support());
}
BENCHMARK(BM_RefinePartition)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_RefineInplace(benchmark::State& state) {
  // The double-buffered steady-state path: a fresh copy is refined in place
  // each iteration, so the refiner's arena capacity is reused throughout.
  Relation r = MakeRelation(static_cast<int>(state.range(0)), 4, 64, 2);
  PartitionRefiner refiner(r);
  StrippedPartition base = BuildAttributePartition(r, 0);
  StrippedPartition p;
  for (auto _ : state) {
    p = base;
    refiner.refine_inplace(p, 1);
    benchmark::DoNotOptimize(p.error());
  }
  state.SetItemsProcessed(state.iterations() * base.support());
}
BENCHMARK(BM_RefineInplace)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_RefineSingleCluster(benchmark::State& state) {
  // Algorithm 4's validator primitive: split one big class by an attribute.
  Relation r = MakeRelation(static_cast<int>(state.range(0)), 4, 64, 2);
  PartitionRefiner refiner(r);
  StrippedPartition whole = StrippedPartition::whole(r.num_rows());
  StrippedPartition out;
  for (auto _ : state) {
    out.clear();
    refiner.refine_cluster(whole.cluster(0), 1, out);
    benchmark::DoNotOptimize(out.support());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RefineSingleCluster)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_IntersectPartitions(benchmark::State& state) {
  Relation r = MakeRelation(static_cast<int>(state.range(0)), 4, 64, 3);
  StrippedPartition a = BuildAttributePartition(r, 0);
  StrippedPartition b = BuildAttributePartition(r, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(IntersectPartitions(a, b, r.num_rows()));
  }
  state.SetItemsProcessed(state.iterations() * r.num_rows());
}
BENCHMARK(BM_IntersectPartitions)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_IntersectPersistent(benchmark::State& state) {
  // TANE's steady-state path: the probe table and output arena persist.
  Relation r = MakeRelation(static_cast<int>(state.range(0)), 4, 64, 3);
  StrippedPartition a = BuildAttributePartition(r, 0);
  StrippedPartition b = BuildAttributePartition(r, 1);
  PartitionIntersector intersector(r.num_rows());
  StrippedPartition out;
  for (auto _ : state) {
    intersector.intersect(a, b, out);
    benchmark::DoNotOptimize(out.error());
  }
  state.SetItemsProcessed(state.iterations() * r.num_rows());
}
BENCHMARK(BM_IntersectPersistent)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_AgreeSets(benchmark::State& state) {
  Relation r = MakeRelation(static_cast<int>(state.range(0)), 10, 8, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeAllAgreeSets(r));
  }
  int64_t pairs = static_cast<int64_t>(state.range(0)) * (state.range(0) - 1) / 2;
  state.SetItemsProcessed(state.iterations() * pairs);
}
BENCHMARK(BM_AgreeSets)->Arg(200)->Arg(1000)->Arg(3000);

void BM_NeighborhoodSampler(benchmark::State& state) {
  // Construction (counting passes + row-major copy) plus DHyFD's initial
  // sampling over windows 1..3, sequential, on the ncvoter analog.
  Relation r = EncodeRelation(GenerateBenchmark("ncvoter", static_cast<int>(state.range(0))))
                   .relation;
  for (auto _ : state) {
    NeighborhoodSampler sampler(r);
    benchmark::DoNotOptimize(sampler.initial(3).size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_NeighborhoodSampler)->Arg(10000)->Arg(100000)->Unit(benchmark::kMillisecond);

void BM_EncodeRelation(benchmark::State& state) {
  // Sequential DIIS encoding of the ncvoter analog's string cells.
  RawTable t = GenerateBenchmark("ncvoter", static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(EncodeRelation(t).relation.num_rows());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * t.num_cols());
}
BENCHMARK(BM_EncodeRelation)->Arg(10000)->Arg(100000)->Unit(benchmark::kMillisecond);

void BM_SynergizedInduction(benchmark::State& state) {
  // Induct a stream of random non-FDs into a fresh extended tree.
  const int m = 20;
  Random rng(5);
  std::vector<AttributeSet> non_fds;
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    AttributeSet x;
    for (int a = 0; a < m; ++a) {
      if (rng.next_bool(0.6)) x.set(a);
    }
    non_fds.push_back(x);
  }
  SortBySizeDescending(non_fds);
  const AttributeSet all = AttributeSet::full(m);
  for (auto _ : state) {
    ExtendedFdTree tree(m);
    tree.init_root_fd(all);
    for (const AttributeSet& x : non_fds) tree.induct(x, all - x);
    benchmark::DoNotOptimize(tree.total_fd_count());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SynergizedInduction)->Arg(100)->Arg(500)->Arg(2000);

void BM_ClassicInduction(benchmark::State& state) {
  const int m = 20;
  Random rng(5);
  std::vector<AttributeSet> non_fds;
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    AttributeSet x;
    for (int a = 0; a < m; ++a) {
      if (rng.next_bool(0.6)) x.set(a);
    }
    non_fds.push_back(x);
  }
  SortBySizeDescending(non_fds);
  const AttributeSet all = AttributeSet::full(m);
  for (auto _ : state) {
    FdTree tree(m);
    for (AttrId a = 0; a < m; ++a) tree.add(AttributeSet(), a);
    for (const AttributeSet& x : non_fds) {
      (all - x).for_each([&](AttrId a) { tree.induct(x, a); });
    }
    benchmark::DoNotOptimize(tree.node_count());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ClassicInduction)->Arg(100)->Arg(500)->Arg(2000);

void BM_Closure(benchmark::State& state) {
  const int m = 30;
  Random rng(6);
  FdSet fds;
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    AttributeSet lhs;
    for (int k = 0; k < 3; ++k) lhs.set(static_cast<AttrId>(rng.next_below(m)));
    fds.add(Fd(lhs, static_cast<AttrId>(rng.next_below(m))));
  }
  ClosureEngine engine(fds, m);
  AttributeSet x{0, 5, 10};
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.closure(x));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Closure)->Arg(100)->Arg(1000)->Arg(10000);

void BM_EndToEndDhyfdNcvoter(benchmark::State& state) {
  RawTable t = GenerateBenchmark("ncvoter", static_cast<int>(state.range(0)));
  Relation r = EncodeRelation(t).relation;
  for (auto _ : state) {
    auto algo = MakeDiscovery("dhyfd");
    benchmark::DoNotOptimize(algo->discover(r).fds.size());
  }
}
BENCHMARK(BM_EndToEndDhyfdNcvoter)->Arg(500)->Arg(1000)->Unit(benchmark::kMillisecond);

// Stamped JSON rows for the partition kernels, so the refine/intersect
// trajectory is tracked across commits alongside the google-benchmark
// human-readable output. One row per kernel x row-count.
void EmitPartitionKernelJson() {
  constexpr int kRows[] = {10000, 100000};
  constexpr int kReps = 20;
  for (int rows : kRows) {
    Relation r = MakeRelation(rows, 4, 64, 2);
    PartitionRefiner refiner(r);
    PartitionIntersector intersector(r.num_rows());
    StrippedPartition base = BuildAttributePartition(r, 0);
    StrippedPartition pb = BuildAttributePartition(r, 1);
    StrippedPartition scratch;

    auto time_ns = [](auto&& fn) {
      Timer t;
      for (int i = 0; i < kReps; ++i) fn();
      return t.seconds() * 1e9 / kReps;
    };
    double build_ns = time_ns([&] {
      benchmark::DoNotOptimize(BuildAttributePartition(r, 0));
    });
    double refine_cluster_ns = time_ns([&] {
      StrippedPartition whole = StrippedPartition::whole(r.num_rows());
      scratch.clear();
      refiner.refine_cluster(whole.cluster(0), 1, scratch);
      benchmark::DoNotOptimize(scratch.support());
    });
    double refine_ns = time_ns([&] {
      StrippedPartition p = base;
      refiner.refine_inplace(p, 1);
      benchmark::DoNotOptimize(p.error());
    });
    double intersect_ns = time_ns([&] {
      intersector.intersect(base, pb, scratch);
      benchmark::DoNotOptimize(scratch.error());
    });
    std::printf(
        "{\"bench\":\"micro_partition\",%s,\"rows\":%d,"
        "\"attr_build_ns\":%.0f,\"refine_cluster_ns\":%.0f,"
        "\"refine_ns\":%.0f,\"intersect_ns\":%.0f,"
        "\"partition_bytes\":%zu}\n",
        bench::JsonStamp("synthetic-u64").c_str(), rows, build_ns,
        refine_cluster_ns, refine_ns, intersect_ns, base.memory_bytes());
  }
  std::fflush(stdout);
}

}  // namespace
}  // namespace dhyfd

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  dhyfd::EmitPartitionKernelJson();
  return 0;
}
