#!/usr/bin/env bash
# The performance gate: is a change slower than its parent commit?
#
#   scripts/perf-gate.sh PARENT_DIR CHANGE_DIR
#
# PARENT_DIR and CHANGE_DIR are source trees of this repository; CI passes
# an export of HEAD^1 and its own checkout. The script builds
# examples/benchmark in each tree, each with its own CARGO_TARGET_DIR under
# .bench_build/, and runs composite-long for ten seeds at --seconds 1
# --trace 0. The sides alternate: the parent runs first on odd seeds, the
# change on even ones, so a host that speeds up or slows down moves both
# runs of a pair alike. The parent's `benchmark --pairs` then judges the
# pairs. The gate fails if any run exits nonzero or any row reads `worse`,
# that is a median worse than its bound in BENCHMARK.json.
set -euo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 PARENT_DIR CHANGE_DIR" >&2
    exit 2
fi
build="$(cd "$(dirname "$0")/.." && pwd)/.bench_build"
workload=composite-long
records="$build/records"
rm -rf "$records" "$build/pairs.txt"
mkdir -p "$records/parent" "$records/change"

build_side() { # SIDE SOURCE_DIR
    echo "perf-gate: building $1 from $2"
    CARGO_TARGET_DIR="$build/$1" cargo build --release --offline --quiet \
        --manifest-path "$2/examples/benchmark/Cargo.toml"
}
build_side parent "$1"
build_side change "$2"

run() { # SIDE SEED
    local log="$records/$1-$2.log"
    if ! (cd "$build" && "$build/$1/release/benchmark" --workload "$workload" \
        --seed "$2" --seconds 1 --trace 0 \
        --json "$records/$1/$workload-$2.json" >"$log" 2>&1); then
        cat "$log"
        echo "perf-gate: the $1 run of seed $2 failed" >&2
        exit 1
    fi
    echo "seed $2 $1: $(grep '^metric job_p50_ms' "$log")"
}
for seed in $(seq 1984 1993); do
    if [ $((seed % 2)) -eq 1 ]; then
        run parent "$seed"
        run change "$seed"
    else
        run change "$seed"
        run parent "$seed"
    fi
done

"$build/parent/release/benchmark" --pairs "$records/parent" "$records/change" |
    tee "$build/pairs.txt"
if ! grep -q ' job_p50_ms ' "$build/pairs.txt"; then
    echo "perf-gate: no job_p50_ms pairs to judge" >&2
    exit 1
fi
if grep -q ' worse$' "$build/pairs.txt"; then
    echo "perf-gate: worse than the parent beyond the bound:" >&2
    grep ' worse$' "$build/pairs.txt" >&2
    exit 1
fi
echo "perf-gate: no metric is worse than the parent beyond its bound"
