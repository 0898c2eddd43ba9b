#!/usr/bin/env bash
# Smoke benchmarks for the parallel execution layer and the artifact
# cache.
#
# 1. Runs the same filtering workload with ER_THREADS=1 and
#    ER_THREADS=<all cores>, checks the outputs are byte-identical (the
#    determinism guarantee), and writes timings + speedup to
#    BENCH_parallel.json in the repository root.
# 2. Runs one sweep column cold, warm (shared artifact cache) and
#    warm-disk (fresh cache over the persistent artifact store, i.e. a
#    simulated process restart) via `er sweep --bench-prepare`, checks
#    neither warm pass re-prepares anything and all three report
#    identically, and leaves BENCH_prepare.json.
# 3. Runs the kernel/layout micro-benchmark (naive vs CSR sparse layouts,
#    scalar vs blocked vs SIMD dense kernels), which verifies every
#    optimized path's candidate sets match its reference bit-for-bit and
#    leaves BENCH_kernels.json.
# 4. Appends the run's headline speedups to results/bench_history.jsonl
#    (git SHA + date) and fails on a >20% regression against the median
#    of the last five recorded runs.
set -euo pipefail

cd "$(dirname "$0")/.."

SCALE="${BENCH_SCALE:-0.25}"
MAX_THREADS="$(nproc)"

echo "== building er-cli (release)" >&2
cargo build --release -p er-cli >&2

ER=target/release/er
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

"$ER" generate --profile D2 --scale "$SCALE" --seed 7 --out-dir "$WORK" >&2

now_ms() { date +%s%3N; }

# run_filter <threads> <method> <extra flags...> -> prints elapsed ms,
# leaves pairs in $WORK/pairs_<method>_<threads>.csv
run_filter() {
    local threads="$1" method="$2"
    shift 2
    local out="$WORK/pairs_${method}_${threads}.csv"
    local start end
    start="$(now_ms)"
    ER_THREADS="$threads" "$ER" filter \
        --e1 "$WORK/D2_e1.csv" --e2 "$WORK/D2_e2.csv" \
        --method "$method" "$@" --out "$out" >&2
    end="$(now_ms)"
    echo "$((end - start))"
}

declare -A T1 TN
for spec in "knn --k 3 --model C3G --clean" "faiss --k 3 --clean"; do
    method="${spec%% *}"
    # shellcheck disable=SC2086
    T1[$method]="$(run_filter 1 $spec)"
    # shellcheck disable=SC2086
    TN[$method]="$(run_filter "$MAX_THREADS" $spec)"
    if ! cmp -s "$WORK/pairs_${method}_1.csv" "$WORK/pairs_${method}_${MAX_THREADS}.csv"; then
        echo "DETERMINISM FAILURE: $method output differs between 1 and $MAX_THREADS threads" >&2
        exit 1
    fi
    echo "== $method: ${T1[$method]} ms @1 thread, ${TN[$method]} ms @$MAX_THREADS threads (outputs identical)" >&2
done

speedup() { awk -v a="$1" -v b="$2" 'BEGIN { printf "%.2f", (b > 0) ? a / b : 0 }'; }

cat > BENCH_parallel.json <<EOF
{
  "bench": "parallel_smoke",
  "host_cores": $MAX_THREADS,
  "workload": { "profile": "D2", "scale": $SCALE, "seed": 7 },
  "deterministic_outputs": true,
  "methods": {
    "knn": {
      "ms_threads_1": ${T1[knn]},
      "ms_threads_max": ${TN[knn]},
      "speedup": $(speedup "${T1[knn]}" "${TN[knn]}")
    },
    "faiss": {
      "ms_threads_1": ${T1[faiss]},
      "ms_threads_max": ${TN[faiss]},
      "speedup": $(speedup "${T1[faiss]}" "${TN[faiss]}")
    }
  },
  "note": "speedup is bounded by host_cores; on a single-core host it is ~1.0 by construction"
}
EOF

echo "== wrote BENCH_parallel.json" >&2
cat BENCH_parallel.json

echo "== artifact-cache smoke: cold vs warm vs warm-disk prepare stages" >&2
"$ER" sweep --datasets D2 --scale "${BENCH_PREPARE_SCALE:-0.08}" --grid quick \
    --reps 1 --dim 32 --seed 7 --bench-prepare BENCH_prepare.json >&2
if ! grep -q '"reports_identical":true' BENCH_prepare.json; then
    echo "CACHE FAILURE: warm/disk report differs from cold" >&2
    exit 1
fi
# The warm pass must hit on every lookup (zero misses -> zero prepare
# seconds, so the cold/warm prepare ratio is >= 2x by construction).
if ! grep -o '"warm":{[^}]*}' BENCH_prepare.json | grep -q '"misses":0'; then
    echo "CACHE FAILURE: warm pass re-prepared artifacts" >&2
    exit 1
fi
# The disk pass starts from an empty cache and must be served entirely
# by the persistent store: zero misses again, and every lookup that the
# cold pass prepared arrives as a store hit.
if ! grep -q '"prepare_disk_s":' BENCH_prepare.json; then
    echo "STORE FAILURE: no prepare_disk_s field in BENCH_prepare.json" >&2
    exit 1
fi
disk="$(grep -o '"disk":{[^}]*}' BENCH_prepare.json)"
if ! echo "$disk" | grep -q '"misses":0'; then
    echo "STORE FAILURE: disk pass re-prepared artifacts: $disk" >&2
    exit 1
fi
if echo "$disk" | grep -q '"store_hits":0,'; then
    echo "STORE FAILURE: disk pass never hit the store: $disk" >&2
    exit 1
fi
echo "== wrote BENCH_prepare.json" >&2
cat BENCH_prepare.json

echo "== kernel smoke: naive layouts vs CSR/SIMD kernels" >&2
cargo build --release -p er-bench --bin bench_kernels --bin bench_history >&2
target/release/bench_kernels --scale "${BENCH_KERNEL_SCALE:-0.25}" --seed 7 \
    --out BENCH_kernels.json >&2
if ! grep -q '"candidate_sets_identical":true' BENCH_kernels.json; then
    echo "KERNEL FAILURE: CSR pipeline disagrees with the naive reference" >&2
    exit 1
fi
# The dense kernels must be bitwise identical across scalar/blocked/SIMD.
if grep -q '"bitwise_identical":false' BENCH_kernels.json; then
    echo "KERNEL FAILURE: SIMD/blocked dense kernels are not bit-identical" >&2
    exit 1
fi
echo "== wrote BENCH_kernels.json" >&2
cat BENCH_kernels.json

echo "== perf history: append + regression check" >&2
target/release/bench_history --bench BENCH_kernels.json \
    --history results/bench_history.jsonl --append --check >&2
