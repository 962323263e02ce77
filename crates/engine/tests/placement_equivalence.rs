//! Property-based equivalence for **dispersed placement**: for any random
//! byte-version history, any strategy and either generator form, a dispersed
//! [`SecEngine`] must agree with both the single-threaded
//! [`ByteVersionedArchive`] reference and a [`ByteDistributedStore`] built
//! with [`PlacementStrategy::Dispersed`] — same bytes *and* the same
//! block-read accounting. Placement changes where blocks live, never what a
//! retrieval reads.

use proptest::prelude::*;

use sec_engine::SecEngine;
use sec_erasure::GeneratorForm;
use sec_store::{ByteDistributedStore, PlacementStrategy};
use sec_versioning::{ArchiveConfig, ByteVersionedArchive, EncodingStrategy};

const N: usize = 6;
const K: usize = 3;

/// A random version history of three-block objects: a base object plus up to
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

fn form_strategy() -> impl Strategy<Value = GeneratorForm> {
    prop_oneof![
        Just(GeneratorForm::Systematic),
        Just(GeneratorForm::NonSystematic),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn dispersed_engine_equals_dispersed_store_and_reference(
        versions in history(),
        strategy in strategy_strategy(),
        form in form_strategy(),
    ) {
        let config = ArchiveConfig::new(N, K, form, strategy).unwrap();
        let mut reference = ByteVersionedArchive::new(config).unwrap();
        reference.append_all(&versions).unwrap();
        let store = ByteDistributedStore::new(&reference, PlacementStrategy::Dispersed);

        let engine = SecEngine::with_placement(config, PlacementStrategy::Dispersed, 0).unwrap();
        engine.append_all(&versions).unwrap();
        engine.reset_metrics();

        // The engine grew one fresh slab of n nodes per stored entry — the
        // same node space the dispersed store provisions up front.
        prop_assert_eq!(engine.node_count(), store.node_count());
        prop_assert_eq!(engine.node_count(), N * reference.layout().len());
        prop_assert_eq!(engine.placement().strategy(), PlacementStrategy::Dispersed);

        let mut reported_reads = 0usize;
        for l in 1..=versions.len() {
            let got = engine.get_version(l).unwrap();
            let via_store = store.retrieve_version(&reference, l).unwrap();
            let via_archive = reference.retrieve_version(l).unwrap();
            prop_assert_eq!(&*got.data, &via_store.data, "{} {} version {}", strategy, form, l);
            prop_assert_eq!(&*got.data, &via_archive.data, "{} {} version {}", strategy, form, l);
            prop_assert_eq!(got.io_reads, via_store.io_reads, "{} {} version {}", strategy, form, l);
            prop_assert_eq!(got.io_reads, via_archive.io_reads, "{} {} version {}", strategy, form, l);
            prop_assert!(!got.cached);
            reported_reads += got.io_reads;
        }

        // Aggregate accounting holds across the grown node space: the sum of
        // the per-node read counters equals the per-retrieval reports.
        let m = engine.metrics_snapshot();
        prop_assert_eq!(m.nodes, engine.node_count());
        prop_assert_eq!(m.node_reads.len(), m.nodes);
        prop_assert_eq!(m.io.symbol_reads as usize, reported_reads);
        prop_assert_eq!(m.io.failed_reads, 0);
        prop_assert_eq!(m.node_reads.iter().sum::<u64>(), m.io.symbol_reads);

        // Prefix retrieval agrees with the reference as well.
        let got = engine.get_prefix(versions.len()).unwrap();
        let want = reference.retrieve_prefix(versions.len()).unwrap();
        prop_assert_eq!(&got.versions, &want.versions);
        prop_assert_eq!(got.io_reads, want.io_reads);
    }

    #[test]
    fn colocated_and_dispersed_engines_read_identically_when_healthy(
        versions in history(),
        strategy in strategy_strategy(),
    ) {
        // With every node alive, placement is invisible to the read path:
        // same bytes, same read counts, per version and per prefix.
        let config = ArchiveConfig::new(N, K, GeneratorForm::NonSystematic, strategy).unwrap();
        let colocated = SecEngine::with_placement(config, PlacementStrategy::Colocated, 0).unwrap();
        let dispersed = SecEngine::with_placement(config, PlacementStrategy::Dispersed, 0).unwrap();
        colocated.append_all(&versions).unwrap();
        dispersed.append_all(&versions).unwrap();
        for l in 1..=versions.len() {
            let c = colocated.get_version(l).unwrap();
            let d = dispersed.get_version(l).unwrap();
            prop_assert_eq!(&*c.data, &*d.data, "{} version {}", strategy, l);
            prop_assert_eq!(c.io_reads, d.io_reads, "{} version {}", strategy, l);
        }
        let c = colocated.get_prefix(versions.len()).unwrap();
        let d = dispersed.get_prefix(versions.len()).unwrap();
        prop_assert_eq!(&c.versions, &d.versions);
        prop_assert_eq!(c.io_reads, d.io_reads);
    }
}
