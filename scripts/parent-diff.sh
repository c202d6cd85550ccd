#!/usr/bin/env bash
# The parent diff: does a change write its parent commit's bytes?
#
#   scripts/parent-diff.sh PARENT_DIR CHANGE_DIR
#
# PARENT_DIR and CHANGE_DIR are source trees of this repository; CI passes
# an export of HEAD^1 and its checkout. Each side's `reproduce` is built
# from scratch under .bench_build/ and runs each spec below. A run pair must
# pass `reproduce diff` and be byte-identical, checkpoints included
# (`reproduce diff` compares parsed values and never reads timeseries.csv
# or costs.md); a spec with a bound must stay under that peak RSS on the
# change side. Both refutes of a wrong model must exit 1 with the same
# stdout and fixture bytes, and their run directories must pass `reproduce
# diff` (their runtime.json and trace.json hold wall-clock times). The
# script exits 1 on any difference and writes .bench_build/parent-diff.txt:
# each pair's `reproduce diff` (the CPI, Table 8 and section 4 among it)
# and the files that differ, trimmed to the lines worth citing, for an
# output-changing change to cite.
set -euo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 PARENT_DIR CHANGE_DIR" >&2
    exit 2
fi
sources=("$(cd "$1" && pwd)" "$(cd "$2" && pwd)")
build="$(cd "$(dirname "$0")/.." && pwd)/.bench_build"
report="$build/parent-diff.txt"
rm -rf "$build/runs" "$report"
mkdir -p "$build/runs/parent" "$build/runs/change"
cd "$build/runs" # so the report names run directories parent/NAME, change/NAME

build_side() { # SIDE SOURCE_DIR
    echo "parent-diff: building $1 from $2"
    # Cargo judges freshness by mtime, and `git archive` stamps files with
    # the commit's time: a reused target dir can keep another tree's binary.
    rm -rf "$build/reproduce-$1"
    CARGO_TARGET_DIR="$build/reproduce-$1" cargo build --release --offline --quiet \
        --manifest-path "$2/Cargo.toml" -p vax-bench --bin reproduce
}
build_side parent "${sources[0]}"
build_side change "${sources[1]}"
parent="$build/reproduce-parent/release/reproduce"
change="$build/reproduce-change/release/reproduce"

# Run a command, then fail if its peak RSS passed BOUND MiB (0: no bound).
peak_rss='
import resource, subprocess, sys
bound = int(sys.argv[1])
code = subprocess.run(sys.argv[2:]).returncode
# ru_maxrss is in KiB on Linux.
peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
if bound:
    print(f"peak RSS {peak:.1f} MiB (limit {bound} MiB)")
sys.exit(code or int(bound > 0 and peak > bound))'
run() { # BINARY BOUND ARGS...
    local log=run.log
    if ! python3 -c "$peak_rss" "$2" "$1" "${@:3}" >"$log" 2>&1; then
        cat "$log"
        echo "parent-diff: failed: $*" >&2
        exit 1
    fi
    grep '^peak RSS' "$log" || true
}

# The report keeps each artifact's header line and every line of
# tables.json, validation.json and costs.json (the CPI, Table 8, section
# 4, the invariants, the cost records); of any other artifact and of a
# `diff -rq` file list it keeps the first 20 lines and counts the rest.
trim='
function flush() { if (cut) printf "  ... and %d more\n", cut; cut = kept = 0 }
/^[a-z_]+\.json +(ok|DRIFT|ERROR)/ {
    flush(); all = $1 ~ /^(tables|validation|costs)\.json$/; print; next
}
/^  / || /^(Files|Only in) / { if (all || ++kept <= 20) print; else cut++; next }
{ flush(); print }
END { flush() }'

fail=0
check() { # LABEL COMMAND...: report COMMAND's output, trimmed; note a difference
    echo "-- $1" >>"$report"
    local verdict=same
    "${@:2}" >check.log 2>&1 || verdict=DIFFERS
    awk "$trim" check.log >>"$report"
    echo "parent-diff: $1: $verdict"
    if [ "$verdict" != same ]; then
        fail=1
    fi
}

pair() { # NAME BOUND ARGS...: run ARGS with both binaries, compare the dirs
    local a="parent/$1" b="change/$1"
    echo "== $1: reproduce ${*:3}" | tee -a "$report"
    run "$parent" 0 "${@:3}" --out "$a"
    run "$change" "$2" "${@:3}" --out "$b" | tee -a "$report"
    check "$1 reproduce diff" "$change" diff "$a" "$b"
    check "$1 diff -rq" diff -rq "$a" "$b"
}

# A sampled run keeps one counter row per interval, never a histogram
# board; a run's memory does not grow with its shard count.
pair sampled-300k 128 --instructions 300000 --seed 1984 --shards 2 --jobs 2 \
    --interval-cycles 20000 --format json
pair grid-1000 64 --instructions 500 --seed 1984 --shards 200 --jobs 2 --format json
# 12k-instruction cells select a second process while measured, here under
# TB storms and code writes that flush the decode cache around it.
pair switch-12k 0 --instructions 12000 --seed 1984 --shards 4 --jobs 2 \
    --fault-seed 1984 --fault-classes tb-storm,smc --format json
pair allfault-12k 0 --instructions 12000 --seed 1984 --shards 4 --jobs 2 \
    --fault-seed 1984 --fault-classes parity,tb-storm,hw-burst,sw-burst,smc --format json
pair characterize 0 characterize --jobs 2

refute=(refute --opcodes MOVL,ADDL2,CLRL --reps 4 --iters 16 --jobs 2)
echo "== refute: reproduce ${refute[*]}, record 0 four cycles too dear" | tee -a "$report"
python3 - "${sources[1]}/tests/fixtures/characterize-golden/costs.json" wrong.json <<'EOF'
import json, sys
table = json.load(open(sys.argv[1]))
table["records"][0]["cycles"] += 4
json.dump(table, open(sys.argv[2], "w"))
EOF
for side in parent change; do
    code=0
    "$build/reproduce-$side/release/reproduce" "${refute[@]}" --model wrong.json \
        --fixtures "$side/refute-fixtures" --out "$side/refute" \
        --trace-out "$side/refute/trace.json" >"$side/refute.txt" 2>run.log || code=$?
    if [ "$code" != 1 ]; then
        cat run.log
        echo "parent-diff: the $side refute exited $code, not 1" | tee -a "$report"
        fail=1
    fi
done
cat change/refute.txt >>"$report"
check "refute stdout" diff parent/refute.txt change/refute.txt
check "refute diff -rq fixtures" diff -rq parent/refute-fixtures change/refute-fixtures
check "refute reproduce diff" "$change" diff parent/refute change/refute

if [ "$fail" -ne 0 ]; then
    echo "parent-diff: the change does not write the parent's bytes; see $report" >&2
    exit 1
fi
echo "parent-diff: every pair holds the parent's bytes; see $report"
