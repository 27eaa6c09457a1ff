#!/usr/bin/env bash
# End-to-end smoke test of the tqr CLI, registered with ctest.
# Usage: cli_smoke_test.sh /path/to/tqr
set -euo pipefail

TQR="$1"
DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT
cd "$DIR"

fail() { echo "FAIL: $1" >&2; exit 1; }

# gen: both formats, several classes.
"$TQR" gen --out A.mtx --rows 64 --class illcond --cond 1e4 --seed 3 \
  | grep -q "wrote A.mtx" || fail "gen mtx"
"$TQR" gen --out b.bin --rows 64 --cols 1 --seed 4 \
  | grep -q "wrote b.bin" || fail "gen bin"
head -1 A.mtx | grep -q "%%MatrixMarket" || fail "mtx header"

# factor: residuals at machine precision.
out=$("$TQR" factor --in A.mtx --r R.mtx --q Q.bin)
echo "$out" | grep -q "wrote R to R.mtx" || fail "factor outputs"
echo "$out" | grep -Eq 'Q\^T Q - I.*e-1[4-9]' || fail "orthogonality residual: $out"
echo "$out" | grep -Eq '^factor time [0-9.]+ s, [0-9.]+ GFLOP/s$' \
  || fail "factor time line: $out"

# solve: QR and Cholesky methods.
out=$("$TQR" solve --in A.mtx --rhs b.bin --out x.mtx --refine 1)
echo "$out" | grep -Eq 'A\^T \(b - A x\).*e-(0[7-9]|1[0-9])' \
  || fail "qr solve residual"
echo "$out" | grep -Eq '^solve time [0-9.]+ s, [0-9.]+ GFLOP/s$' \
  || fail "solve time line: $out"
# solve with chol must reject a non-SPD input cleanly (exit code 2).
set +e
"$TQR" solve --in A.mtx --rhs b.bin --method chol > /dev/null 2>&1
rc=$?
set -e
[[ $rc -eq 2 || $rc -eq 0 ]] || fail "chol solve exit code $rc"

# simulate + plan run and print the expected sections.
"$TQR" simulate --size 640 --gpus 3 | grep -q "makespan" || fail "simulate"
"$TQR" plan --size 640 | grep -q "memory estimates" || fail "plan"
"$TQR" plan --size 1280 --nodes 2 | grep -q "GTX680" || fail "cluster plan"

# serve: small trace through the resident service, JSON and table output.
"$TQR" serve --jobs 96x96:4,128x64:2 --lanes 2 --residual \
  | grep -q "6 ok, 0 failed" || fail "serve table"
"$TQR" serve --jobs 96x96:4 --json | grep -q '"hit_rate"' || fail "serve json"

# serve: shape errors are the submitter's, like NaN input: they resolve
# invalid_input (exit 2) and no healthy lane is quarantined for them.
set +e
out=$("$TQR" serve --jobs 64x128:3,96x96:2 --lanes 2 --quarantine-after 1 \
  --json 2> /dev/null)
rc=$?
set -e
[[ $rc -eq 2 ]] || fail "shape-error serve exit code $rc"
echo "$out" | grep -q '"ok": 2, "failed": 0' || fail "shape-error ok/failed: $out"
echo "$out" | grep -q '"invalid_input": 3' || fail "shape-error invalid: $out"
echo "$out" | grep -q '"quarantines": 0' || fail "shape-error quarantine: $out"

# factor with the hierarchical elimination tree stays at machine precision.
"$TQR" factor --in A.mtx --elim hier \
  | grep -Eq 'Q\^T Q - I.*e-1[4-9]' || fail "hier factor residual"

# cluster: shard a trace across two nodes; routed counts must cover all jobs.
"$TQR" cluster --jobs 96x96:6 --nodes 2 --trace-out trace.json \
  | grep -q "6 ok, 0 not ok" || fail "cluster table"
"$TQR" cluster --jobs 96x96:4 --nodes 2 --policy rr --json \
  | grep -q '"routed": \[2, 2\]' || fail "cluster rr json"
grep -q '"node1/svc queue"' trace.json || fail "merged trace node naming"

# usage errors exit 1.
set +e
"$TQR" bogus > /dev/null 2>&1; [[ $? -eq 1 ]] || fail "unknown command exit"
"$TQR" gen > /dev/null 2>&1; [[ $? -eq 1 ]] || fail "missing flag exit"
"$TQR" cluster --nodes 0 > /dev/null 2>&1; [[ $? -eq 1 ]] || fail "nodes=0 exit"
"$TQR" cluster --nodes 2 --inter-bw 0 > /dev/null 2>&1
[[ $? -eq 1 ]] || fail "inter-bw=0 exit"
"$TQR" cluster --policy bogus > /dev/null 2>&1; [[ $? -eq 1 ]] || fail "policy exit"
"$TQR" simulate --size 640 --nodes 9 > /dev/null 2>&1
[[ $? -eq 1 ]] || fail "simulate nodes=9 exit"
set -e

echo "cli smoke test passed"
