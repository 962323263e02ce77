//! Property-based equivalence for **dispersed placement**: for any random
//! byte-version history, any strategy and either generator form, a dispersed
//! [`SecEngine`] must agree with the single-threaded [`ByteVersionedArchive`]
//! reference — same bytes *and* the same block-read accounting, healthy and
//! under a random failure pattern, where the reference reads each entry
//! position only if the node [`Placement::try_node_for`] assigns it is up.
//! Placement changes where blocks live, never what a retrieval reads.

use proptest::prelude::*;

use sec_engine::SecEngine;
use sec_erasure::GeneratorForm;
use sec_store::{Placement, PlacementStrategy, StoreError};
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
    fn dispersed_engine_equals_the_failure_aware_reference(
        versions in history(),
        strategy in strategy_strategy(),
        form in form_strategy(),
        failures in prop::collection::vec(0usize..64, 0..12),
    ) {
        let config = ArchiveConfig::new(N, K, form, strategy).unwrap();
        let mut reference = ByteVersionedArchive::new(config).unwrap();
        reference.append_all(&versions).unwrap();

        let engine = SecEngine::with_placement(config, PlacementStrategy::Dispersed, 0).unwrap();
        engine.append_all(&versions).unwrap();
        engine.reset_metrics();

        // The engine grew one fresh slab of n nodes per stored entry: the
        // node space a dispersed placement of the layout addresses.
        let placement = Placement::new(PlacementStrategy::Dispersed, N, reference.layout().len());
        prop_assert_eq!(engine.node_count(), placement.node_count());
        prop_assert_eq!(engine.node_count(), N * reference.layout().len());
        prop_assert_eq!(engine.placement(), placement);

        let mut reported_reads = 0usize;
        for l in 1..=versions.len() {
            let got = engine.get_version(l).unwrap();
            let want = reference.retrieve_version(l).unwrap();
            prop_assert_eq!(&*got.data, &want.data, "{} {} version {}", strategy, form, l);
            prop_assert_eq!(got.io_reads, want.io_reads, "{} {} version {}", strategy, form, l);
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

        // Under failures each entry degrades on its own node set, and the
        // engine fails exactly where the reference does, at the same entry.
        let failed: Vec<usize> = failures.iter().map(|node| node % engine.node_count()).collect();
        for &node in &failed {
            engine.fail_node(node).unwrap();
        }
        let live = |entry, position| {
            placement
                .try_node_for(entry, position)
                .is_ok_and(|node| !failed.contains(&node))
        };
        for l in 1..=versions.len() {
            let got = engine.get_version(l);
            let want = reference.retrieve_version_from(l, live).map_err(StoreError::from);
            match (got, want) {
                (Ok(got), Ok(want)) => {
                    prop_assert_eq!(&*got.data, &want.data, "{} {} version {}", strategy, form, l);
                    prop_assert_eq!(got.io_reads, want.io_reads, "{} {} version {}", strategy, form, l);
                }
                (got, want) => prop_assert_eq!(got.err(), want.err(), "{} {} version {}", strategy, form, l),
            }
        }
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
