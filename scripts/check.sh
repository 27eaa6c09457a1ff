#!/usr/bin/env bash
# Local gates, mirroring CI.
#
# Default mode — concurrency gate: builds the runtime + service test subsets
# under ThreadSanitizer and runs them. The resident executor, job queue,
# plan cache, and service stress tests are exactly the code where a data
# race would hide from the functional suite.
#
# --perf mode — perf-regression gate: Release-builds the bench drivers,
# regenerates the quick kernel numbers, and compares them against the
# committed BENCH_kernels.json with bench_diff (same tolerance and anchor as
# CI's perf-gate job). Also smoke-tests `tqr serve --trace-out` by parsing
# the emitted Chrome trace back.
#
# --chaos mode — cluster fault-tolerance gate: Release-builds the chaos
# drivers and runs cluster_chaos --quick, which exits 3 unless the
# failover-enabled cluster completes 100% of accepted jobs through a
# seeded mid-batch node crash while the failover-disabled baseline loses
# jobs (plus the brownout-hedging and flaky-link invariants). Also
# smoke-tests `tqr cluster` chaos flags end to end: the run's failovers
# must surface in the merged Perfetto trace and the metrics registry.
#
# Usage: scripts/check.sh [--perf | --chaos] [build-dir]
# Extra cmake cache flags (e.g. -DTQR_MICROKERNEL_SCALAR=ON for the scalar
# micro-kernel leg in CI) can be passed via CMAKE_EXTRA_FLAGS.
set -euo pipefail

REPO_DIR="$(cd "$(dirname "$0")/.." && pwd)"

MODE="tsan"
if [[ "${1:-}" == "--perf" ]]; then
  MODE="perf"
  shift
elif [[ "${1:-}" == "--chaos" ]]; then
  MODE="chaos"
  shift
fi

if [[ "$MODE" == "chaos" ]]; then
  BUILD_DIR="${1:-$REPO_DIR/build-perf}"
  OUT_DIR="$BUILD_DIR/chaos-check"
  mkdir -p "$OUT_DIR"

  cmake -B "$BUILD_DIR" -S "$REPO_DIR" \
    -DCMAKE_BUILD_TYPE=Release \
    ${CMAKE_EXTRA_FLAGS:-} > /dev/null
  cmake --build "$BUILD_DIR" -j --target cluster_chaos bench_diff tqr

  echo "== cluster chaos sweep (quick, failover-gated) =="
  "$BUILD_DIR/bench/cluster_chaos" --quick \
    > "$OUT_DIR/chaos_current.json"
  "$BUILD_DIR/bench/bench_diff" --list \
    --current "$OUT_DIR/chaos_current.json"

  echo "== tqr cluster failover trace + metrics smoke =="
  "$BUILD_DIR/tools/tqr" cluster --jobs 192x192:12 --policy rr --lanes 1 \
    --fault-kind crash --fault-at 0.03 --failover 3 \
    --trace-out "$OUT_DIR/chaos_trace.json" \
    --metrics-out "$OUT_DIR/chaos_metrics.json" --json
  python3 -c "import json, sys; \
    d = json.load(open(sys.argv[1])); \
    inst = [e for e in d['traceEvents'] if e.get('name') == 'failover']; \
    assert inst, 'no failover instants in the merged trace'; \
    m = json.load(open(sys.argv[2])); \
    assert m['counters']['cluster.failovers'] >= 1, m; \
    print(len(inst), 'failover instants,', \
          m['counters']['cluster.failovers'], 'failovers')" \
    "$OUT_DIR/chaos_trace.json" "$OUT_DIR/chaos_metrics.json"

  echo "check.sh --chaos: cluster fault-tolerance gate passed" \
    "(artifacts in $OUT_DIR)"
  exit 0
fi

if [[ "$MODE" == "perf" ]]; then
  BUILD_DIR="${1:-$REPO_DIR/build-perf}"
  OUT_DIR="$BUILD_DIR/perf-check"
  mkdir -p "$OUT_DIR"

  cmake -B "$BUILD_DIR" -S "$REPO_DIR" \
    -DCMAKE_BUILD_TYPE=Release \
    ${CMAKE_EXTRA_FLAGS:-} > /dev/null
  cmake --build "$BUILD_DIR" -j \
    --target kernels_gbench serve_throughput batched_qr bench_diff tqr

  echo "== kernel micro-bench (quick, median of 3 passes) =="
  "$BUILD_DIR/bench/kernels_gbench" --json --quick \
    --out "$OUT_DIR/kernels_current.json"
  echo "== bench_diff vs committed baseline =="
  "$BUILD_DIR/bench/bench_diff" \
    --baseline "$REPO_DIR/BENCH_kernels.json" \
    --current "$OUT_DIR/kernels_current.json" \
    --tolerance "${PERF_TOLERANCE:-0.35}" \
    --anchor gflops.gemm_naive.t128

  echo "== service throughput (quick, contended sweep) =="
  "$BUILD_DIR/bench/serve_throughput" --quick --repeats 1 --sweep \
    > "$OUT_DIR/serve_current.json"
  "$BUILD_DIR/bench/bench_diff" --list \
    --current "$OUT_DIR/serve_current.json"
  echo "== bench_diff sweep gate (jobs_per_s + submit-to-pick p99) =="
  "$BUILD_DIR/bench/bench_diff" \
    --baseline "$REPO_DIR/BENCH_kernels.json" \
    --current "$OUT_DIR/serve_current.json" \
    --tolerance "${SWEEP_TOLERANCE:-0.60}" \
    --anchor sweep.s1.jobs_per_s \
    --only sweep

  echo "== batched small-QR (quick, margin-gated) =="
  # --quick self-gates (exit 3) unless batched beats the loop-of-jobs
  # baseline by the committed margin at sizes <= 32; bench_diff then gates
  # the absolute problems/sec rates against the committed baseline.
  "$BUILD_DIR/bench/batched_qr" --quick \
    > "$OUT_DIR/batched_current.json"
  "$BUILD_DIR/bench/bench_diff" \
    --baseline "$REPO_DIR/BENCH_kernels.json" \
    --current "$OUT_DIR/batched_current.json" \
    --tolerance "${BATCHED_TOLERANCE:-0.40}" \
    --anchor batched.yardstick.gemm_naive_gflops \
    --only batched

  echo "== serve trace smoke =="
  "$BUILD_DIR/tools/tqr" serve --jobs 128x128:8 --lanes 2 \
    --trace-out "$OUT_DIR/serve_trace.json" \
    --metrics-out "$OUT_DIR/serve_metrics.json" > /dev/null
  python3 -c "import json, sys; \
    d = json.load(open(sys.argv[1])); \
    assert d['traceEvents'], 'empty trace'; \
    print(len(d['traceEvents']), 'trace events')" "$OUT_DIR/serve_trace.json"

  echo "check.sh --perf: perf gate passed (artifacts in $OUT_DIR)"
  exit 0
fi

BUILD_DIR="${1:-$REPO_DIR/build-tsan}"

cmake -B "$BUILD_DIR" -S "$REPO_DIR" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread" \
  ${CMAKE_EXTRA_FLAGS:-} > /dev/null
cmake --build "$BUILD_DIR" -j \
  --target test_runtime test_svc test_cluster test_batched

export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1"
# Per-binary timeout: the cancellation tests park threads on condition
# variables on purpose — a regression there hangs rather than fails, and a
# hang must not wedge the gate. Override with TEST_TIMEOUT (seconds).
TEST_TIMEOUT="${TEST_TIMEOUT:-600}"
echo "== test_runtime (TSan) =="
timeout "$TEST_TIMEOUT" "$BUILD_DIR/tests/test_runtime"
echo "== test_svc (TSan) =="
timeout "$TEST_TIMEOUT" "$BUILD_DIR/tests/test_svc"
echo "== test_cluster (TSan) =="
timeout "$TEST_TIMEOUT" "$BUILD_DIR/tests/test_cluster"
echo "== test_batched (TSan) =="
timeout "$TEST_TIMEOUT" "$BUILD_DIR/tests/test_batched"
echo "check.sh: all concurrency tests passed under ThreadSanitizer"
