#!/usr/bin/env bash
# The performance gate: is a change slower than its parent commit?
#
#   scripts/perf-gate.sh PARENT_DIR CHANGE_DIR
#
# PARENT_DIR and CHANGE_DIR are source trees of this repository; CI passes
# an export of HEAD^1 and its own checkout. The script builds
# examples/benchmark in each tree, each with its own CARGO_TARGET_DIR under
# .bench_build/, and runs each of two workloads for ten seeds at --seconds 1
# --trace 0: composite-long, where the simulation hot loop does the work,
# and characterize, where a machine is set up for every probe cell, so a
# set-up regression shows there first. The sides alternate: the parent runs
# first on odd seeds, the change on even ones, so a host that speeds up or
# slows down moves both runs of a pair alike. The parent's `benchmark
# --pairs` then judges the pairs of each workload. The gate fails if any
# run exits nonzero, a workload has no job_p50_ms pairs, or any row reads
# `worse`, that is a median worse than its bound in BENCHMARK.json.
set -euo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 PARENT_DIR CHANGE_DIR" >&2
    exit 2
fi
build="$(cd "$(dirname "$0")/.." && pwd)/.bench_build"
workloads="composite-long characterize"
records="$build/records"
rm -rf "$records" "$build/pairs.txt"
mkdir -p "$records/parent" "$records/change"

build_side() { # SIDE SOURCE_DIR
    echo "perf-gate: building $1 from $2"
    rm -rf "$build/$1" # from scratch: cargo judges freshness by file mtime
    CARGO_TARGET_DIR="$build/$1" cargo build --release --offline --quiet \
        --manifest-path "$2/examples/benchmark/Cargo.toml"
}
build_side parent "$1"
build_side change "$2"

run() { # SIDE WORKLOAD SEED
    local log="$records/$1-$2-$3.log"
    if ! (cd "$build" && "$build/$1/release/benchmark" --workload "$2" \
        --seed "$3" --seconds 1 --trace 0 \
        --json "$records/$1/$2-$3.json" >"$log" 2>&1); then
        cat "$log"
        echo "perf-gate: the $1 run of $2 seed $3 failed" >&2
        exit 1
    fi
    echo "$2 seed $3 $1: $(grep '^metric job_p50_ms' "$log")"
}
for workload in $workloads; do
    for seed in $(seq 1984 1993); do
        if [ $((seed % 2)) -eq 1 ]; then
            run parent "$workload" "$seed"
            run change "$workload" "$seed"
        else
            run change "$workload" "$seed"
            run parent "$workload" "$seed"
        fi
    done
done

"$build/parent/release/benchmark" --pairs "$records/parent" "$records/change" |
    tee "$build/pairs.txt"
for workload in $workloads; do
    if ! grep -Eq "^$workload +job_p50_ms " "$build/pairs.txt"; then
        echo "perf-gate: no $workload job_p50_ms pairs to judge" >&2
        exit 1
    fi
done
if grep -q ' worse$' "$build/pairs.txt"; then
    echo "perf-gate: worse than the parent beyond the bound:" >&2
    grep ' worse$' "$build/pairs.txt" >&2
    exit 1
fi
echo "perf-gate: no metric is worse than the parent beyond its bound"
