#!/usr/bin/env bash
# The repo benchmark's one command.
#
#   benchmark/run.sh                       every workload, results in benchmark/out/results.json
#   benchmark/run.sh --workload W          one workload; last stdout line is the result object
#   benchmark/run.sh --trace [0|1]         also (suite) or only (one workload) the traced run
#   benchmark/run.sh --agree               two alternating sets of 5 untraced suites (~15 min);
#                                          non-zero if their medians disagree
#   common: --seed N (default 11)  --seconds S (default 8)
#
# Builds `er` (the root workspace's er-cli) and the benchmark's own
# workspace in release mode first; build output goes to stderr. Fails,
# printing no result, anywhere the repo's sources are not present.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

# One target directory for both workspaces, absolute so the nested
# workspace resolves it the same way. The driver sets CARGO_TARGET_DIR
# relative to the checkout; without it, use the root workspace's own.
target="${CARGO_TARGET_DIR:-target}"
case "$target" in /*) ;; *) target="$root/$target" ;; esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --manifest-path "$root/Cargo.toml" -p er-cli 1>&2
cargo build --release --offline --manifest-path "$here/Cargo.toml" -p e2e 1>&2
# The probes are a package of their own so that a refactor which breaks
# one cannot take the driver down with it: if they do not build, traced
# runs report the probe metrics as unavailable and say why.
layers=()
if cargo build --release --offline --manifest-path "$here/Cargo.toml" -p layers 1>&2; then
    layers=(--layers-bin "$target/release/layers")
else
    echo "benchmark: the layers probe package did not build; per-layer probe metrics will be unavailable" >&2
fi

exec "$target/release/e2e" \
    --er-bin "$target/release/er" \
    --out-dir "$here/out" \
    ${layers[@]+"${layers[@]}"} \
    "$@"
