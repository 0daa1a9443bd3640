#!/usr/bin/env bash
# CI entry point. Legs, in order:
#   1. analyze           — tools/analyze/analyze.py self-test, tree sweep
#                          (layering + obs schema + switch exhaustiveness +
#                          per-file conventions), seeded mis-architecture
#                          that must FAIL, generated header/dot drift gate,
#                          and a typo'd-constant smoke that must FAIL to
#                          compile
#   2. tier-1            — full -Werror build + every ctest
#   3. bench             — build-only compile of every bench/ harness
#   4. tsan              — concurrency tests under ThreadSanitizer, including
#                          the net server round-trip + backpressure suite,
#                          the pooled encode / sampler / rank / profile
#                          equivalence tests, and the stop signal (the
#                          CancelToken polled from many threads, and
#                          sharded discovery stopped by expiry or by a
#                          cancel from another thread)
#   5. asan              — partition-arena tests, the flat FD-tree's arena
#                          (node indices, child-block slots found by bit
#                          rank, per-depth lists) under random inductions
#                          and the DDM's id scans, the word-indexed closure
#                          bitset matrix (closure + canonical-cover tests),
#                          the wire-framing negative/fuzz-ish suite (incl.
#                          the query payload negatives), the query lattice,
#                          the prefix-shared rank pass (also rooted at a
#                          tombstoned live relation's live rows, as the
#                          live profile's per-batch ranking runs it), the
#                          sampler's row-major code copy, the encoder, the
#                          input-width negatives, the hostile-CSV corpus,
#                          the live-update property streams, the net
#                          server round-trips + trace propagation, and the
#                          job/update handle continuations under ASan
#   6. ubsan             — bit-twiddling kernels, the FD-tree's child-mask
#                          rank and slot arithmetic, the sampler's counting
#                          passes and the hostile-CSV corpus under UBSan
#                          (non-recoverable)
#   7. thread-safety     — Clang Thread Safety Analysis as errors over src/,
#                          plus a seeded mis-annotation that must FAIL to
#                          compile (skipped with a notice when clang++ is not
#                          installed; the annotations compile to nothing off
#                          Clang, so the tree itself is unaffected)
#   8. obs               — --trace export produces valid Chrome trace JSON
#   9. tidy (opt-in)     — ./ci.sh --tidy runs clang-tidy over src/ via the
#                          compile database (needs clang-tidy installed)
#
# Usage: ./ci.sh [jobs] [--tidy]
set -euo pipefail
cd "$(dirname "$0")"

JOBS="$(nproc)"
RUN_TIDY=0
for arg in "$@"; do
  case "$arg" in
    --tidy) RUN_TIDY=1 ;;
    *) JOBS="$arg" ;;
  esac
done

echo "=== analyze: layering + obs schema + exhaustiveness + conventions ==="
python3 tools/analyze/analyze.py --self-test
python3 tools/analyze/analyze.py --root .
# Negative control: a seeded mis-architecture (layer inversion, unregistered
# counter, non-exhaustive switch, raw std::thread — one per pass) must make
# the analyzer exit nonzero, proving each pass bites.
if python3 tools/analyze/analyze.py \
     --root tools/analyze/fixtures/seeded \
     --config tools/analyze/fixtures/seeded > /dev/null 2>&1; then
  echo "FATAL: seeded fixture tree passed — the analyzer gate is inert" >&2
  exit 1
fi
# Drift gate: the checked-in generated header and include-graph dot must be
# byte-identical to what --fix regenerates from the manifests.
python3 tools/analyze/analyze.py --root . --fix
git diff --exit-code -- src/obs/obs_schema.gen.h tools/analyze/include_graph.dot
# Negative control: a typo'd kObs* constant must FAIL to compile — that is
# the whole point of generating constants instead of comparing strings.
if "${CXX:-c++}" -fsyntax-only -std=c++20 -Isrc \
     tools/obs_schema_smoke.cc 2> /dev/null; then
  echo "FATAL: obs_schema_smoke.cc compiled — the schema gate is inert" >&2
  exit 1
fi
echo "analyze OK (tree clean, seeded tree rejected, smoke typo rejected)"

echo
echo "=== tier-1: configure + build (-Werror) + ctest ==="
cmake -B build -S . -DDHYFD_WERROR=ON
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

echo
echo "=== bench: build-only compile of every bench/ target ==="
BENCH_TARGETS=()
for src in bench/bench_*.cc; do
  BENCH_TARGETS+=("$(basename "$src" .cc)")
done
cmake --build build -j "$JOBS" --target "${BENCH_TARGETS[@]}"

echo
echo "=== tsan: concurrency targets under ThreadSanitizer ==="
cmake -B build-tsan -S . -DDHYFD_SANITIZE=thread -DDHYFD_WERROR=ON
cmake --build build-tsan -j "$JOBS" --target \
  thread_pool_test service_test live_store_test incr_property_test \
  obs_test trace_propagation_test net_credit_test net_server_test \
  net_http_test cost_ledger_test parallel_discovery_test deadline_test
# halt_on_error makes any race abort the run; TSan also reports threads
# still running at exit, which covers the "zero leaked threads" check.
# obs_test / trace_propagation_test hammer the tracer's lock-free per-thread
# buffers and the trace-context handoff across pool workers.
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/thread_pool_test
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/service_test
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/live_store_test
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/incr_property_test
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/obs_test
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/trace_propagation_test
# net_server_test exercises full client/server round-trips, concurrent
# clients, credit-window backpressure, and graceful drain — the event loop,
# the ops pool, and the job/update continuations posting to its inbox all
# overlap here.
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/net_credit_test
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/net_server_test
# net_http_test mixes HTTP connections into the same poll loop the RPC
# traffic uses (including a /healthz probe racing a draining shutdown);
# cost_ledger_test covers the thread-local sink install/forward/restore.
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/net_http_test
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/cost_ledger_test
# parallel_discovery_test runs the sharded DHyFD/HyFD validators under real
# concurrency: the parallel == sequential cover equivalence is asserted here
# with TSan watching the help-first shard claims and the obs-delta relay. The
# per-column encoder, the sampler's in-shard dedupe against the shared seen
# set, and the rank shards' atomic cell marks are checked the same way, as
# is every validation shard polling one expiring or cancelled token.
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/parallel_discovery_test
# deadline_test: CancelToken's cancel/expiry race (many pollers recording
# the expiry while another thread cancels) and every algorithm under an
# expiring token.
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/deadline_test

echo
echo "=== asan: partition arena indexing under AddressSanitizer ==="
# The CSR partition substrate is raw cursor arithmetic into a shared arena;
# out-of-bounds writes there are exactly what ASan catches. The TSan jobs
# above stay as-is — these kernels are single-threaded.
cmake -B build-asan -S . -DDHYFD_SANITIZE=address -DDHYFD_WERROR=ON
cmake --build build-asan -j "$JOBS" --target \
  partition_test partition_cache_test partition_intersect_test \
  extended_fd_tree_test fdtree_induction_chain_test ddm_test \
  closure_test cover_test sampler_test encoder_test \
  net_wire_test query_test redundancy_test robustness_test live_profile_test \
  incr_property_test hostile_input_test net_server_test trace_propagation_test \
  service_test live_store_test
./build-asan/tests/partition_test
./build-asan/tests/partition_cache_test
./build-asan/tests/partition_intersect_test
# The extended FD-tree is one chunked node arena addressed by 32-bit index;
# a child is slot children + rank(attr) of a block that moves (and is
# recycled) as it grows. An offset past the slot pool or an arena chunk is
# what ASan reports; a wrong one inside them sends a walk to another node,
# which the brute-force oracles here catch. The DDM rewrites ids in arena
# scans.
./build-asan/tests/extended_fd_tree_test
./build-asan/tests/fdtree_induction_chain_test
./build-asan/tests/ddm_test
# The closure engine indexes one flat bitset matrix by attribute row and
# 64-FD word, with a masked tail word; the property sweep straddles every
# word boundary and the canonical-cover tests drive ~97k-FD matrices.
./build-asan/tests/closure_test
./build-asan/tests/cover_test
# The sampler's agree-set loop reads a row-major copy of the codes at
# row * cols offsets (and prefetches rows ahead of its cursor), and its
# counting passes scatter rows through per-code cursors into the
# neighborhood orders; the encoder fills one code column per shard.
./build-asan/tests/sampler_test
./build-asan/tests/encoder_test
# net_wire_test feeds the frame decoder truncated frames, hostile length
# prefixes, and random byte soup — exactly the inputs where a missing bounds
# check would read past a buffer, which is ASan's home turf. The query
# payload negatives (truncated SubmitQuery specs, hostile column counts,
# absurd k/epsilon) ride in the same binary.
./build-asan/tests/net_wire_test
# query_test drives the top-k lattice and the g3 removal counter, both of
# which walk the shared CSR arena with raw cursors.
./build-asan/tests/query_test
# The single rank pass marks dataset cells at raw row * cols + attr offsets
# and refines into a stack of prefix partitions (redundancy_test); the
# input-width negatives (257 columns, short and long
# insert rows) used to index past an AttributeSet or a row (robustness_test,
# live_profile_test).
./build-asan/tests/redundancy_test
./build-asan/tests/robustness_test
./build-asan/tests/live_profile_test
# The live profile ranks its cover after every batch with the same pass,
# rooted at the live rows of a tombstoned relation: its cells are marked at
# storage-row offsets while dead rows still hold stale values. The property
# streams (mixed, null-heavy, delete-heavy, drain-to-empty) check every
# batch's ranking against a from-scratch pass.
./build-asan/tests/incr_property_test
# Hostile CSV uploads (NUL bytes, unterminated quotes, ragged rows, 300
# columns, an 8 MB cell) through the parser, the profiler and both
# register_dataset paths, at every prefix of each input.
./build-asan/tests/hostile_input_test
# The server's ops-pool runner moves each request's captured state onto a
# pool thread and its answer back to the loop; the last use-after-free in
# the server was remote-triggerable, so the full round-trip suite (every
# request type, hostile envelopes, drain) and the traced paths run here too.
./build-asan/tests/net_server_test
./build-asan/tests/trace_propagation_test
# Job/update continuations run on worker threads after the handle turns terminal.
./build-asan/tests/service_test
./build-asan/tests/live_store_test

echo
echo "=== ubsan: bit-twiddling kernels under UBSan (no recovery) ==="
# attribute_set's word masks, the CSR stripped-partition cursor sentinels,
# and the ranking math are where shifts/overflow/bad casts would hide;
# -fno-sanitize-recover=all turns the first hit into a nonzero exit.
cmake -B build-ubsan -S . -DDHYFD_SANITIZE=undefined -DDHYFD_WERROR=ON
cmake --build build-ubsan -j "$JOBS" --target \
  attribute_set_test extended_fd_tree_test fdtree_induction_chain_test ddm_test \
  partition_test partition_intersect_test sampler_test \
  closure_test ranking_test query_topk_property_test hostile_input_test
./build-ubsan/tests/attribute_set_test
# The FD-tree's rank (popcount below a bit, shifts by the attribute's word
# offset) and its uint32 slot offsets are where a shift past 63 or a
# narrowing wrap would hide; the 100-attribute oracle straddles a word.
./build-ubsan/tests/extended_fd_tree_test
./build-ubsan/tests/fdtree_induction_chain_test
./build-ubsan/tests/ddm_test
# The refiner's pair fast path and counting split, and the sampler's
# counting passes, which index per-code buckets at bucket[code + 1].
./build-ubsan/tests/partition_test
./build-ubsan/tests/partition_intersect_test
./build-ubsan/tests/sampler_test
./build-ubsan/tests/closure_test
./build-ubsan/tests/ranking_test
# The top-k oracle sweep exercises the score accumulation and the removal
# budget floor() edge where an overflow or bad cast would skew the rank.
./build-ubsan/tests/query_topk_property_test
# Width and length arithmetic on hostile CSV inputs (300 columns, 8 MB
# cells, ragged rows) is where a signed overflow or bad cast would hide.
./build-ubsan/tests/hostile_input_test

echo
echo "=== thread-safety: Clang TSA over src/ (-Werror=thread-safety) ==="
if command -v clang++ > /dev/null 2>&1; then
  cmake -B build-threadsafety -S . \
    -DCMAKE_CXX_COMPILER=clang++ -DDHYFD_THREAD_SAFETY=ON
  # The dhyfd library holds every annotated class; building it runs the
  # analysis over all mutex-holding TUs.
  cmake --build build-threadsafety -j "$JOBS" --target dhyfd
  # Negative control: a seeded mis-annotation must FAIL to compile, proving
  # the gate bites. tools/thread_safety_smoke.cc documents each planted bug.
  if clang++ -fsyntax-only -std=c++20 -Isrc \
       -Wthread-safety -Werror=thread-safety \
       tools/thread_safety_smoke.cc 2> /dev/null; then
    echo "FATAL: thread_safety_smoke.cc compiled — the TSA gate is inert" >&2
    exit 1
  fi
  echo "thread-safety OK (clean build + smoke mis-annotation rejected)"
else
  echo "SKIPPED: clang++ not installed; the annotations compile to nothing"
  echo "on this toolchain. Install clang to run the proof leg locally."
fi

echo
echo "=== obs: --trace export produces valid Chrome trace JSON ==="
cmake --build build -j "$JOBS" --target example_fd_service_demo
TRACE_OUT="$(mktemp /tmp/dhyfd_trace.XXXXXX.json)"
METRICS_OUT="$(mktemp /tmp/dhyfd_metrics.XXXXXX.prom)"
./build/examples/example_fd_service_demo 4 600 \
  --trace="$TRACE_OUT" --metrics="$METRICS_OUT" > /dev/null
python3 - "$TRACE_OUT" "$METRICS_OUT" <<'EOF'
import json, sys
trace_path, metrics_path = sys.argv[1], sys.argv[2]
with open(trace_path) as f:
    doc = json.load(f)  # parse failure -> nonzero exit -> CI failure
events = doc["traceEvents"]
assert len(events) > 0, "trace is empty"
ids = {e.get("args", {}).get("trace_id", 0) for e in events}
assert any(i != 0 for i in ids), "no job carried a trace id"
with open(metrics_path) as f:
    assert "# TYPE dhyfd_" in f.read(), "metrics export missing TYPE lines"
print(f"trace OK: {len(events)} events, {len(ids) - (0 in ids)} trace ids")
EOF
rm -f "$TRACE_OUT" "$METRICS_OUT"

if [[ "$RUN_TIDY" == 1 ]]; then
  echo
  echo "=== tidy: clang-tidy over src/ via the compile database ==="
  if command -v clang-tidy > /dev/null 2>&1; then
    # The tier-1 configure above exported build/compile_commands.json.
    mapfile -t TIDY_SOURCES < <(find src -name '*.cc' | sort)
    clang-tidy -p build --quiet "${TIDY_SOURCES[@]}"
    echo "tidy OK"
  else
    echo "SKIPPED: clang-tidy not installed."
  fi
fi

echo
echo "CI OK"
