#!/usr/bin/env bash
# Smoke test of the sharded, out-of-core sweep (`er sweep --shards N`).
#
# 1. Runs a 400k-row skewed streaming workload split across 4 shards
#    under a HARD 100 MiB address-space cap (ulimit -v) with an 8 MiB
#    artifact-cache residency budget — the monolithic (1-shard) run of
#    the same workload peaks well above the cap and aborts under it, so
#    exiting 0 here is the out-of-core proof: peak memory is one shard
#    plus scratch, not the collection.
# 2. Re-runs warm over the populated store, still capped, and checks the
#    cache counters: zero misses (nothing re-prepared), one store hit
#    per shard, and at least one unmap — an eviction of a disk-backed
#    shard that frees residency without losing work.
# 3. Runs the same workload unsharded (1 shard, no cap) and with a
#    different thread count, and requires all reports byte-identical —
#    the shard-count and thread-count invariance guarantee.
#
# Throughput is not measured here: `benchmark/run.sh --workload
# shard_sweep` times the same command.
set -euo pipefail

cd "$(dirname "$0")/.."

ROWS="${SHARD_ROWS:-400000}"
SHARDS=4
CAP_KB="${SHARD_CAP_KB:-102400}"     # 100 MiB address-space cap
BUDGET="${SHARD_CACHE_BUDGET:-8M}"

echo "== building er-cli (release)" >&2
cargo build --release -p er-cli >&2

ER=target/release/er
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

echo "== cold sharded sweep: $ROWS rows, $SHARDS shards, ulimit -v ${CAP_KB}KB" >&2
(
    ulimit -v "$CAP_KB"
    "$ER" sweep --shards "$SHARDS" --rows "$ROWS" --cache-budget "$BUDGET" \
        --store-dir "$WORK/store" --report "$WORK/report_sharded.txt" \
        --shard-bench "$WORK/bench_cold.json" >&2
) || { echo "OUT-OF-CORE FAILURE: capped sharded sweep died" >&2; exit 1; }

echo "== warm sharded sweep over the populated store (still capped)" >&2
(
    ulimit -v "$CAP_KB"
    "$ER" sweep --shards "$SHARDS" --rows "$ROWS" --cache-budget "$BUDGET" \
        --store-dir "$WORK/store" --report "$WORK/report_warm.txt" \
        --shard-bench "$WORK/bench_warm.json" >&2
) || { echo "OUT-OF-CORE FAILURE: warm capped sweep died" >&2; exit 1; }
cmp "$WORK/report_sharded.txt" "$WORK/report_warm.txt" || {
    echo "DETERMINISM FAILURE: warm report differs from cold" >&2; exit 1; }
warm_cache="$(grep -o '"cache":{[^}]*}' "$WORK/bench_warm.json")"
echo "$warm_cache" | grep -q '"misses":0' || {
    echo "CACHE FAILURE: warm pass re-prepared shards: $warm_cache" >&2; exit 1; }
echo "$warm_cache" | grep -q "\"store_hits\":$SHARDS" || {
    echo "STORE FAILURE: warm pass not fully store-served: $warm_cache" >&2; exit 1; }
if echo "$warm_cache" | grep -q '"unmaps":0'; then
    echo "PAGING FAILURE: no disk-backed shard was ever unmapped: $warm_cache" >&2
    exit 1
fi

echo "== shard-count invariance: 1 shard (uncapped) vs $SHARDS shards" >&2
"$ER" sweep --shards 1 --rows "$ROWS" --report "$WORK/report_mono.txt" >&2
cmp "$WORK/report_mono.txt" "$WORK/report_sharded.txt" || {
    echo "INVARIANCE FAILURE: 1-shard report differs from $SHARDS-shard report" >&2
    exit 1
}

echo "== thread-count invariance: ER_THREADS=1 vs $(nproc)" >&2
ER_THREADS=1 "$ER" sweep --shards "$SHARDS" --rows "$ROWS" \
    --report "$WORK/report_t1.txt" >&2
cmp "$WORK/report_t1.txt" "$WORK/report_sharded.txt" || {
    echo "INVARIANCE FAILURE: report differs across thread counts" >&2
    exit 1
}

grep -q '"candidate_sets_identical":true' "$WORK/bench_cold.json" || {
    echo "MERGE FAILURE: shard merge violated the ascending-ids invariant" >&2
    exit 1
}
echo "shard smoke OK" >&2
