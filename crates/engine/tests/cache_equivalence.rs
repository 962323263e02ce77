//! Property-based equivalence for the delta cache and anchor checkpoints:
//! a cached, checkpointed `SecEngine` must serve byte-for-byte what the
//! plain uncached archive serves — for every strategy and both placements —
//! and with the cache disabled its I/O accounting must match both the
//! checkpointed reference archive and the layout-based `IoModel`
//! predictions exactly. A final long-chain test pins the read-amplification
//! bound `k · (1 + spacing)` the checkpoint policy exists to provide.

use proptest::prelude::*;

use sec_engine::{PlacementStrategy, SecEngine};
use sec_erasure::GeneratorForm;
use sec_versioning::{
    ArchiveConfig, ArchiveLedger, ByteVersionedArchive, CacheStats, CheckpointPolicy, EncodingStrategy,
    StoredPayload,
};

const N: usize = 6;
const K: usize = 3;

/// A random version history of `len`-byte objects: a base object plus up to
/// five per-version edit sets (byte position, xor mask), mask 0 excluded so
/// an edit always changes the byte (γ can still be 0 via empty edit sets).
fn history() -> impl Strategy<Value = Vec<Vec<u8>>> {
    let len = 3 * 17usize; // three 17-byte blocks
    let base = prop::collection::vec(0u8..=255, len);
    let edits = prop::collection::vec(prop::collection::vec((0usize..len, 1u8..=255), 0..=6), 1..6);
    (base, edits).prop_map(|(base, edits)| {
        let mut versions = vec![base];
        for edit_set in edits {
            let mut next = versions.last().expect("non-empty").clone();
            for (pos, mask) in edit_set {
                next[pos] ^= mask;
            }
            versions.push(next);
        }
        versions
    })
}

fn strategy_strategy() -> impl Strategy<Value = EncodingStrategy> {
    prop_oneof![
        Just(EncodingStrategy::BasicSec),
        Just(EncodingStrategy::OptimizedSec),
        Just(EncodingStrategy::ReversedSec),
        Just(EncodingStrategy::NonDifferential),
    ]
}

fn placement_strategy() -> impl Strategy<Value = PlacementStrategy> {
    prop_oneof![
        Just(PlacementStrategy::Colocated),
        Just(PlacementStrategy::Dispersed),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Bytes first: whatever the cache and checkpoint policy do to the
    /// *layout* and the *walks*, the decoded versions must equal the plain
    /// (checkpoint-free, cache-free) archive's — on a cold pass, on a
    /// second pass served from the warm cache, and through `get_prefix`.
    #[test]
    fn cached_checkpointed_bytes_equal_the_uncached_archive(
        versions in history(),
        strategy in strategy_strategy(),
        placement in placement_strategy(),
        spacing in 0usize..4,
        capacity in 1usize..5,
    ) {
        let plain = ArchiveConfig::new(N, K, GeneratorForm::NonSystematic, strategy).unwrap();
        let mut uncached = ByteVersionedArchive::new(plain).unwrap();
        uncached.append_all(&versions).unwrap();

        let config = plain.with_checkpoints(CheckpointPolicy::every(spacing));
        let engine = SecEngine::with_placement(config, placement, capacity).unwrap();
        engine.append_all(&versions).unwrap();

        for pass in 0..2 {
            for l in 1..=versions.len() {
                let got = engine.get_version(l).unwrap();
                let want = uncached.retrieve_version(l).unwrap();
                prop_assert_eq!(
                    &*got.data, &want.data,
                    "{} {:?} spacing {} pass {} version {}", strategy, placement, spacing, pass, l
                );
            }
            let prefix = engine.get_prefix(versions.len()).unwrap();
            for (idx, got) in prefix.versions.iter().enumerate() {
                prop_assert_eq!(
                    got.as_slice(), versions[idx].as_slice(),
                    "{} {:?} spacing {} pass {} prefix version {}",
                    strategy, placement, spacing, pass, idx + 1
                );
            }
        }

        // Re-reading the latest version must now be a pure cache hit: it
        // was inserted by the read above (or the append pre-warm) and no
        // strategy evicts it before any other version.
        let latest = versions.len();
        engine.get_version(latest).unwrap();
        let again = engine.get_version(latest).unwrap();
        prop_assert!(again.cached, "{} {:?}: repeat read of the latest version missed", strategy, placement);
        prop_assert_eq!(again.io_reads, 0);
        prop_assert_eq!(&*again.data, &versions[latest - 1]);
    }

    /// Accounting second: with the cache *disabled*, the checkpointed
    /// engine's per-read I/O must equal the identically-checkpointed
    /// reference archive and the layout-based `IoModel` prediction, for
    /// every version and every prefix — and the cache must have done zero
    /// bookkeeping.
    #[test]
    fn uncached_engine_io_matches_the_layout_model(
        versions in history(),
        strategy in strategy_strategy(),
        placement in placement_strategy(),
        spacing in 0usize..4,
    ) {
        let config = ArchiveConfig::new(N, K, GeneratorForm::NonSystematic, strategy)
            .unwrap()
            .with_checkpoints(CheckpointPolicy::every(spacing));
        let mut reference = ByteVersionedArchive::new(config).unwrap();
        reference.append_all(&versions).unwrap();
        let engine = SecEngine::with_placement(config, placement, 0).unwrap();
        engine.append_all(&versions).unwrap();

        let model = config.io_model();
        let layout: Vec<StoredPayload> =
            reference.stored_entries().iter().map(|e| e.payload).collect();

        // Layout and write parity: a bare ledger — what the engine keeps
        // behind its archive lock — records the layout the reference's
        // blocks carry, and the engine wrote each block it returned to
        // exactly one node: one entry per append, or for Reversed SEC two
        // from the second version on (the rewritten slot and the new full).
        let mut ledger = ArchiveLedger::new(config).unwrap();
        let mut entries_written = 0usize;
        for version in &versions {
            entries_written += ledger.append::<Vec<Vec<u8>>>(version).unwrap().1.len();
        }
        prop_assert_eq!(ledger.layout(), layout.as_slice(), "{} spacing {}", strategy, spacing);
        prop_assert_eq!(ledger.checkpoints_written(), reference.checkpoints_written());
        let appends = versions.len();
        prop_assert_eq!(entries_written, match strategy {
            EncodingStrategy::ReversedSec => 1 + 2 * (appends - 1),
            _ => appends,
        });
        prop_assert_eq!(
            engine.metrics_snapshot().io.symbol_writes as usize, N * entries_written,
            "{} {:?} spacing {}: block writes", strategy, placement, spacing
        );

        for l in 1..=versions.len() {
            let got = engine.get_version(l).unwrap();
            let want = reference.retrieve_version(l).unwrap();
            prop_assert!(!got.cached);
            prop_assert_eq!(
                got.io_reads, want.io_reads,
                "{} {:?} spacing {} version {}: engine vs reference", strategy, placement, spacing, l
            );
            prop_assert_eq!(
                got.io_reads,
                model.version_reads_for_layout(strategy, &layout, l),
                "{} {:?} spacing {} version {}: engine vs layout model", strategy, placement, spacing, l
            );

            let prefix = engine.get_prefix(l).unwrap();
            let prefix_want = reference.retrieve_prefix(l).unwrap();
            prop_assert!(!prefix.cached);
            prop_assert_eq!(
                prefix.io_reads, prefix_want.io_reads,
                "{} {:?} spacing {} prefix {}: engine vs reference", strategy, placement, spacing, l
            );
            prop_assert_eq!(
                prefix.io_reads,
                model.prefix_reads_for_layout(strategy, &layout, l),
                "{} {:?} spacing {} prefix {}: engine vs layout model", strategy, placement, spacing, l
            );
        }
        prop_assert_eq!(engine.metrics_snapshot().cache, CacheStats::default());
    }
}

/// The acceptance bound the checkpoint policy exists for: on a 64-version
/// Basic-SEC chain, every version read with spacing `c` costs at most
/// `k · (1 + c)` block reads — while the checkpoint-free chain's tail read
/// grows with the whole history.
#[test]
fn checkpoint_spacing_bounds_read_amplification_on_a_long_chain() {
    let len = 3 * 7; // three 7-byte blocks
    let mut versions: Vec<Vec<u8>> = vec![vec![0x5A; len]];
    for j in 1..64usize {
        let mut next = versions[j - 1].clone();
        next[(j * 5) % len] ^= (j as u8).wrapping_mul(37) | 1;
        versions.push(next);
    }

    let plain = ArchiveConfig::new(N, K, GeneratorForm::NonSystematic, EncodingStrategy::BasicSec)
        .expect("valid config");
    for spacing in [4usize, 8, 16] {
        let config = plain.with_checkpoints(CheckpointPolicy::every(spacing));
        let engine = SecEngine::with_cache(config, 0).expect("engine construction");
        engine.append_all(&versions).expect("append chain");
        let bound = K * (1 + spacing);
        for l in 1..=versions.len() {
            let r = engine.get_version(l).expect("retrieval");
            assert_eq!(*r.data, versions[l - 1], "spacing {spacing} version {l} bytes");
            assert!(
                r.io_reads <= bound,
                "spacing {spacing} version {l}: {} reads exceed the k(1+c) bound {bound}",
                r.io_reads
            );
        }
    }

    // Contrast: without checkpoints the tail read pays for every delta in
    // the chain, far beyond the tightest bound above.
    let engine = SecEngine::with_cache(plain, 0).expect("engine construction");
    engine.append_all(&versions).expect("append chain");
    let tail = engine.get_version(versions.len()).expect("retrieval");
    assert!(
        tail.io_reads > K * (1 + 16),
        "uncheckpointed tail read ({} reads) should exceed every spacing bound",
        tail.io_reads
    );
}
