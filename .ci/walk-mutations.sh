#!/usr/bin/env bash
# Walk mutation check: does the test suite see a bug in the read traversal?
#
# `sec_versioning::walk` is the one traversal every read layer shares, so a
# bug there is the same bug in the engine and in the byte archive. The
# simulator checks the engine against an independent, walk-free reference
# (`sec_sim::reference`); this script shows that it does see such bugs.
#
# For each mutation in the table below it copies the tree (without `target/`
# and `.git/`), applies the mutation as a literal text replacement, and runs
#
#   1. cargo test -q -p sec-sim
#   2. sim-sweep --seeds 200 --root 0x5EC0DE7E57 (release)
#   3. cargo test -q -p sec-versioning
#
# printing which of them caught it and the failing tests or properties.
#
# Usage: .ci/walk-mutations.sh [TREE]
#   TREE defaults to the checkout holding this script. MUTATION_WORK picks the
#   scratch directory (default: a fresh mktemp -d, removed on exit unless set).
#   The copy builds into MUTATION_WORK/target, reused across mutations.
#
# Exit status: 0 when every mutation applies and fails `cargo test -p
# sec-sim`; 1 when one survives it or no longer applies (the walk changed:
# update the table).

set -uo pipefail

root="$(cd "${1:-$(dirname "$0")/..}" && pwd)"
if [ -n "${MUTATION_WORK:-}" ]; then
    work="$MUTATION_WORK"
    mkdir -p "$work"
else
    work="$(mktemp -d)"
    trap 'rm -rf "$work"' EXIT
fi
tree="$work/tree"
export CARGO_TARGET_DIR="$work/target"

rm -rf "$tree"
mkdir -p "$tree"
tar -C "$root" --exclude=./target --exclude=./.git --exclude=./benchmark/target \
    --exclude=./.bench_build -cf - . | tar -C "$tree" -xf -

walk=crates/versioning/src/walk.rs

# name | file | text to replace | replacement. Each "text to replace" must
# occur exactly once in its file.
mutations=(
    "extra-prefix-read|$walk|io_reads += shares.len();|io_reads += shares.len() + usize::from(io_reads > 0);"
    "sparse-entry-skipped|$walk|order.push(FoldStep::Sparse(entry_shares, gamma));|let _ = (entry_shares, gamma);"
    "sum-member-dropped|$walk|Some(members) => members.push(entry_shares),|Some(_) => {}"
    "anchor-one-off|$walk|(Some((base, shards)), (base..l).collect())|(Some((base, shards)), (base + 1..l).collect())"
    "reversed-chain-short|$walk|(l.saturating_sub(1)..held.saturating_sub(1)).rev()|(l..held.saturating_sub(1)).rev()"
    "plan-wrong-live-set|$walk|Some(target) => match plan_entry(idx, target) {|Some(target) => match plan_entry(idx.saturating_sub(1), target) {"
)

# The failing tests of a `cargo test --no-fail-fast` log: the names listed
# under each test binary's "failures:" headings.
failed_tests() {
    awk '/^failures:$/ { listing = 1; next }
         listing && /^    [^ ]+$/ { names = names " " $1; next }
         listing && /^$/ { next }
         listing { listing = 0 }
         END { print names }' "$1"
}

# Runs one suite in the mutated copy. Prints "caught <count> (<failing tests
# or properties>)" and returns 0, "missed" and returns 1, or "BUILD FAILED" and
# returns 2 (the mutation no longer compiles: update the table).
run_suite() {
    local log="$work/suite.log" detail
    if (cd "$tree" && "$@") >"$log" 2>&1; then
        echo "missed"
        return 1
    fi
    if grep -q '^error: could not compile' "$log"; then
        echo "BUILD FAILED"
        return 2
    fi
    detail="$(failed_tests "$log")"
    [ -n "${detail// /}" ] || detail="$(grep '^sim-sweep: [a-z-]* *FAILED$' "$log" | awk '{print $2}' | tr '\n' ' ')"
    set -- $detail
    echo "caught $# ($*)"
}

status=0
for entry in "${mutations[@]}"; do
    IFS='|' read -r name file from to <<<"$entry"
    path="$tree/$file"
    original="$(cat "$path"; printf x)"
    original="${original%x}"
    rest="${original#*"$from"}"
    if [ "$rest" = "$original" ] || [ "${rest#*"$from"}" != "$rest" ]; then
        echo "$name: DOES NOT APPLY (the text must occur exactly once in $file)"
        status=1
        continue
    fi
    printf '%s' "${original/"$from"/"$to"}" >"$path"

    sim="$(run_suite cargo test -q --no-fail-fast -p sec-sim)"
    sim_status=$?
    sweep="$(run_suite cargo run -q --release -p sec-sim --bin sim-sweep -- --seeds 200 --root 0x5EC0DE7E57)"
    versioning="$(run_suite cargo test -q --no-fail-fast -p sec-versioning)"
    echo "$name: sec-sim tests $sim | sweep $sweep | sec-versioning tests $versioning"
    case "$sim_status" in
        0) ;;
        1) echo "$name: SURVIVES cargo test -p sec-sim"; status=1 ;;
        *) echo "$name: DOES NOT COMPILE"; status=1 ;;
    esac

    printf '%s' "$original" >"$path"
done
exit "$status"
