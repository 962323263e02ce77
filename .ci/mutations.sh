#!/usr/bin/env bash
# Mutation check: does `sec-sim` see a bug in the serving code?
#
# `sec_sim::reference` is the one oracle for the engine and the cluster. It
# shares no code with `sec_versioning::walk`, the traversal every read layer
# goes through, nor with the engine's cache ladder, repair commit or metrics;
# this script shows that the simulator sees bugs in each of them.
#
# For each mutation in the table below it copies the tree (without `target/`
# and `.git/`), applies the mutation as a literal text replacement, and runs
#
#   1. cargo test -q -p sec-sim
#   2. sim-sweep --seeds 200 --root 0x5EC0DE7E57 (release)
#   3. cargo test -q on the mutated file's own crate
#
# printing which of them caught it and the failing tests or properties.
#
# Usage: .ci/mutations.sh [TREE]
#   TREE defaults to the checkout holding this script. MUTATION_WORK picks the
#   scratch directory (default: a fresh mktemp -d, removed on exit unless set).
#   The copy builds into MUTATION_WORK/target, reused across mutations.
#
# Exit status: 0 when every mutation applies and fails `cargo test -p
# sec-sim`; 1 when one survives it or no longer applies (the code changed:
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
read=crates/engine/src/read.rs
engine=crates/engine/src/engine.rs
cluster=crates/engine/src/cluster.rs
node=crates/store/src/node.rs

# Four words a row: name, file, text to replace, replacement. Each text to
# replace must occur exactly once in its file; `\n` in either text stands for
# a newline.
mutations=(
    # The walk: reads, sums, anchors and plans.
    extra-prefix-read "$walk"
    'io_reads += shares.len();'
    'io_reads += shares.len() + usize::from(io_reads > 0);'
    sparse-entry-skipped "$walk"
    'order.push(FoldStep::Sparse(entry_shares, gamma));'
    'let _ = (entry_shares, gamma);'
    sum-member-dropped "$walk"
    'Some(members) => members.push(entry_shares),'
    'Some(_) => {}'
    anchor-one-off "$walk"
    '(Some((base, shards)), (base..l).collect())'
    '(Some((base, shards)), (base + 1..l).collect())'
    reversed-chain-short "$walk"
    '(l.saturating_sub(1)..held.saturating_sub(1)).rev()'
    '(l..held.saturating_sub(1)).rev()'
    plan-wrong-live-set "$walk"
    'Some(target) => match plan_entry(idx, target) {'
    'Some(target) => match plan_entry(idx.saturating_sub(1), target) {'
    # A systematic full read (what a sparse target falls back to when no 2γ
    # live rows qualify) recovered as if sparse: only a systematic code
    # plans one.
    systematic-fallback-as-sparse "$walk"
    '(DecodeMethod::SparseRecovery, ReadTarget::Sparse { gamma }) => Some(gamma),'
    '(DecodeMethod::SparseRecovery | DecodeMethod::SystematicDirect, ReadTarget::Sparse { gamma }) => Some(gamma),'
    # The cache ladder: the exact hit, the nearest base, the deltas past it,
    # and what a failed read leaves behind.
    cache-stale-exact-hit "$read"
    'Some((version, data)) if version == l => {'
    'Some((version, data)) if version + 1 >= l => {'
    cache-base-one-off "$read"
    '(version, ByteShards::from_flat(&data, k))'
    '(version + 1, ByteShards::from_flat(&data, k))'
    cache-delta-twice "$walk"
    '(Some((base, shards)), (base..l).collect())'
    '(Some((base, shards)), (base.saturating_sub(1)..l).collect())'
    cache-insert-after-failed-read "$read"
    '&self.codec,\n            |reads| lock_walk_nodes(&slabs, reads),\n            |held, idx, position| held.block(idx, position),\n        )?;'
    '&self.codec,\n            |reads| lock_walk_nodes(&slabs, reads),\n            |held, idx, position| held.block(idx, position),\n        ).inspect_err(|_| { self.cache.insert(l, vec![0; snap.object_len]); })?;'
    # Repairs: the epoch-checked revive, and a dispersed repair's revive.
    engine-repair-unchecked "$engine"
    'if !slab.alive.try_commit_repair(position, epoch) {'
    'if !{ slab.alive.revive(position); true } {'
    cluster-repair-unchecked "$cluster"
    'if !liveness.try_commit_repair(node, epoch) {'
    'if !{ liveness.revive(node); true } {'
    dispersed-repair-no-revive "$cluster"
    'NodeGroup::Object(engine) => return Ok(engine.repair_node(node)?),'
    'NodeGroup::Object(engine) => return Ok(engine.rebuild_node(node)?),'
    # Metrics: draining on reset, and each block read and written counted
    # once.
    reset-metrics-not-drained "$engine"
    'self.metrics_view(self.metrics.take())'
    'self.metrics_view(self.metrics.snapshot())'
    symbol-read-double-counted "$read"
    'engine.metrics.add_symbol_reads(1);'
    'engine.metrics.add_symbol_reads(2);'
    node-read-double-counted "$node"
    'self.reads.fetch_add(1, Ordering::Relaxed);'
    'self.reads.fetch_add(2, Ordering::Relaxed);'
    rewritten-slot-write-uncounted "$engine"
    'self.metrics.add_symbol_writes(1);'
    'self.metrics.add_symbol_writes(u64::from(entry + 1 == archive.layout().len()));'
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
for ((row = 0; row < ${#mutations[@]}; row += 4)); do
    name="${mutations[row]}"
    file="${mutations[row + 1]}"
    from="${mutations[row + 2]//\\n/$'\n'}"
    to="${mutations[row + 3]//\\n/$'\n'}"
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

    crate="sec-$(cut -d/ -f2 <<<"$file")"
    sim="$(run_suite cargo test -q --no-fail-fast -p sec-sim)"
    sim_status=$?
    sweep="$(run_suite cargo run -q --release -p sec-sim --bin sim-sweep -- --seeds 200 --root 0x5EC0DE7E57)"
    own="$(run_suite cargo test -q --no-fail-fast -p "$crate")"
    echo "$name: sec-sim tests $sim | sweep $sweep | $crate tests $own"
    case "$sim_status" in
        0) ;;
        1) echo "$name: SURVIVES cargo test -p sec-sim"; status=1 ;;
        *) echo "$name: DOES NOT COMPILE"; status=1 ;;
    esac

    printf '%s' "$original" >"$path"
done
exit "$status"
