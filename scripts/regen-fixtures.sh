#!/usr/bin/env bash
# Rebuild the committed output fixtures from this tree:
#
#   scripts/regen-fixtures.sh
#
# Builds `reproduce` here, deletes tests/fixtures/golden-small (the golden
# run's nine files, its text report among them), golden-checkpoints (that
# run's checkpoint journal) and characterize-golden (the reduced-grid cost
# table), and writes them again with the commands tests/diff_engine.rs and
# tests/characterize.rs check, so a file no longer written shows up in `git
# status` as a deletion. tests/fixtures/refutations is a recorded input, not
# output, and stays. On an unchanged tree `git status -- tests/fixtures`
# shows nothing (CI's regression-gate); after an intended output change,
# commit what it shows.
set -euo pipefail

if [ $# -ne 0 ]; then
    echo "usage: $0" >&2
    exit 2
fi
root="$(cd "$(dirname "$0")/.." && pwd)"
CARGO_TARGET_DIR="$root/target" cargo build --release --offline --quiet \
    --manifest-path "$root/Cargo.toml" -p vax-bench --bin reproduce
reproduce="$root/target/release/reproduce"
fixtures="$root/tests/fixtures"
rm -rf "$fixtures/golden-small" "$fixtures/golden-checkpoints" \
    "$fixtures/characterize-golden"

golden="--instructions 2000 --seed 1984 --interval-cycles 5000"
# shellcheck disable=SC2086 # $golden is a word list
"$reproduce" $golden --format json --profile --flight-recorder 64 \
    --out "$fixtures/golden-small" --quiet
mv "$fixtures/golden-small/checkpoints" "$fixtures/golden-checkpoints"
# shellcheck disable=SC2086
"$reproduce" $golden --quiet >"$fixtures/golden-small/report.txt"
# One or more opcodes of each execute group the probes reach, so an
# execute-cost change in any of them shows up in the golden cost table.
"$reproduce" characterize --reps 4 --iters 16 \
    --opcodes MOVL,ADDL2,CLRL,EXTZV,ADDF2,MULL2,PUSHR,MOVC3,ADDP4 \
    --out "$fixtures/characterize-golden" --quiet
echo "regen-fixtures: rewrote golden-small, golden-checkpoints and characterize-golden"
