//! The decode-once walk changes nothing observable. Histories that mix
//! dense (`γ ≥ k/2`, read like a full version and summed with the chain
//! start) and sparse (`γ < k/2`) deltas, with and without checkpoints, are
//! served by a colocated (6,3) engine in both generator forms under
//! Basic, Optimized and Reversed SEC, through every pattern of up to
//! `n − k` failed nodes — and one more, where entries become unreadable.
//! For every version:
//!
//! * the bytes are the version that was appended, and what the walk-free
//!   reference (`sec_sim::reference`) reads from the same live positions;
//! * the block reads equal the reference's, and on a healthy layout
//!   `IoModel::version_reads_for_layout`;
//! * a failure names the same entry as the reference's, and no read fails
//!   while every entry keeps `k` live positions;
//! * every prefix read — one walk, decoded entry by entry because every
//!   version is an output — agrees with the reference's prefix in bytes,
//!   block reads and failing entry, and on a healthy layout reads
//!   `IoModel::prefix_reads_for_layout`.
//!
//! A dispersed engine, where every entry has its own node set and so its
//! own position set under failures, is checked against the same reference.
//!
//! Histories are drawn from each test's label seed; a failure prints the
//! `SEC_SIM_SEED` that replays it.

use sec_engine::SecEngine;
use sec_erasure::GeneratorForm;
use sec_sim::{random_walk, reference, SimRng};
use sec_store::{FailurePattern, Placement, PlacementStrategy, StoreError};
use sec_versioning::{
    ArchiveConfig, ByteVersionedArchive, CheckpointPolicy, EncodingStrategy, VersioningError,
};

const N: usize = 6;
const K: usize = 3;
const BLOCK: usize = 17;

/// A history of three-block objects: a random base object, then 3 to 8
/// versions, each XORing a non-zero byte into `γ` distinct blocks (`γ` drawn
/// from 0..=3, so dense, sparse and identical versions mix).
fn history(rng: &mut SimRng) -> Vec<Vec<u8>> {
    let mut versions = vec![(0..K * BLOCK).map(|_| rng.next_u64() as u8).collect::<Vec<u8>>()];
    for _ in 0..3 + rng.gen_range(6) {
        let mut next = versions.last().expect("non-empty").clone();
        let (gamma, first_block) = (rng.gen_range(K + 1), rng.gen_range(K));
        let (offset, mask) = (rng.gen_range(BLOCK), 1 + rng.gen_range(255) as u8);
        for block in (0..gamma).map(|i| (first_block + i) % K) {
            next[block * BLOCK + offset] ^= mask;
        }
        versions.push(next);
    }
    versions
}

fn config(form: GeneratorForm, strategy: EncodingStrategy, spacing: usize) -> ArchiveConfig {
    let config = ArchiveConfig::new(N, K, form, strategy).unwrap();
    match spacing {
        0 => config,
        spacing => config.with_checkpoints(CheckpointPolicy::every(spacing)),
    }
}

/// Every pattern of up to `n − k + 1` failed nodes among `n`.
fn patterns() -> Vec<Vec<usize>> {
    (0u32..1 << N)
        .filter(|mask| mask.count_ones() as usize <= N - K + 1)
        .map(|mask| (0..N).filter(|&node| mask >> node & 1 == 1).collect())
        .collect()
}

/// Asserts the engine's retrieval of every version, and of every prefix,
/// agrees with the reference reading `archive`'s blocks only at the positions
/// `live` admits. When
/// `recoverable` — every entry keeps at least `k` live positions — every
/// read must succeed, whatever the reference does.
fn assert_agrees(
    engine: &SecEngine,
    archive: &ByteVersionedArchive,
    versions: &[Vec<u8>],
    live: impl Fn(usize, usize) -> bool + Copy,
    recoverable: bool,
    case: &str,
) {
    for (l, expect) in (1..=versions.len()).zip(versions) {
        let got = engine.get_version(l);
        match (got, reference::read_version(archive, l, None, live)) {
            (Ok(got), Ok(want)) => {
                assert_eq!(&*got.data, expect, "{case} version {l}: bytes");
                assert_eq!(want.data, *expect, "{case} version {l}: reference bytes");
                assert_eq!(got.io_reads, want.io_reads, "{case} version {l}: reads");
            }
            (got, want) => {
                assert!(!recoverable, "{case} version {l}: {got:?} with k live positions");
                assert_same_failure(got.err(), want.err(), &format!("{case} version {l}"));
            }
        }
        match (
            engine.get_prefix(l),
            reference::read_prefix(archive, l, None, live),
        ) {
            (Ok(got), Ok(want)) => {
                assert_eq!(got.versions, versions[..l], "{case} prefix {l}: bytes");
                assert_eq!(want.versions, versions[..l], "{case} prefix {l}: reference bytes");
                assert_eq!(got.io_reads, want.io_reads, "{case} prefix {l}: reads");
            }
            (got, want) => {
                assert!(!recoverable, "{case} prefix {l}: {got:?} with k live positions");
                assert_same_failure(got.err(), want.err(), &format!("{case} prefix {l}"));
            }
        }
    }
}

/// Asserts the engine and the reference both failed, naming one entry.
fn assert_same_failure(got: Option<StoreError>, want: Option<VersioningError>, case: &str) {
    match (got, want) {
        (
            Some(StoreError::Unrecoverable { entry }),
            Some(VersioningError::Unrecoverable { entry: want }),
        ) => assert_eq!(entry, want, "{case}: failing entry"),
        (got, want) => panic!("{case}: engine {got:?} vs reference {want:?}"),
    }
}

#[test]
fn colocated_walks_equal_the_reference_under_every_failure_pattern() {
    let patterns = patterns();
    random_walk("decode-once-colocated", 8, |seed| {
        let mut rng = SimRng::new(seed);
        let versions = history(&mut rng);
        let spacing = rng.gen_range(4);
        for form in [GeneratorForm::Systematic, GeneratorForm::NonSystematic] {
            for strategy in [
                EncodingStrategy::BasicSec,
                EncodingStrategy::OptimizedSec,
                EncodingStrategy::ReversedSec,
            ] {
                let config = config(form, strategy, spacing);
                let engine = SecEngine::new(config).unwrap();
                let mut archive = ByteVersionedArchive::new(config).unwrap();
                engine.append_all(&versions).unwrap();
                archive.append_all(&versions).unwrap();

                // Healthy: the layout-exact model, read for read.
                let model = config.io_model();
                let layout = archive.layout().to_vec();
                for l in 1..=versions.len() {
                    let got = engine.get_version(l).unwrap();
                    assert_eq!(
                        got.io_reads,
                        model.version_reads_for_layout(strategy, &layout, l),
                        "{form} {strategy} spacing {spacing} version {l}"
                    );
                    let got = engine.get_prefix(l).unwrap();
                    assert_eq!(
                        got.io_reads,
                        model.prefix_reads_for_layout(strategy, &layout, l),
                        "{form} {strategy} spacing {spacing} prefix {l}"
                    );
                }
                for failed in &patterns {
                    engine.apply_pattern(&FailurePattern::with_failures(N, failed));
                    let live = |_: usize, position: usize| !failed.contains(&position);
                    let case = format!("{form} {strategy} spacing {spacing} failed {failed:?}");
                    let recoverable = failed.len() <= N - K;
                    assert_agrees(&engine, &archive, &versions, live, recoverable, &case);
                }
            }
        }
    });
}

#[test]
fn dispersed_walks_decode_once_per_position_set() {
    random_walk("decode-once-dispersed", 8, |seed| {
        let mut rng = SimRng::new(seed);
        let versions = history(&mut rng);
        let spacing = rng.gen_range(4);
        let bits = rng.next_u64();
        for form in [GeneratorForm::Systematic, GeneratorForm::NonSystematic] {
            for strategy in [
                EncodingStrategy::BasicSec,
                EncodingStrategy::OptimizedSec,
                EncodingStrategy::ReversedSec,
            ] {
                let config = config(form, strategy, spacing);
                let engine = SecEngine::with_placement(config, PlacementStrategy::Dispersed, 0).unwrap();
                let mut archive = ByteVersionedArchive::new(config).unwrap();
                engine.append_all(&versions).unwrap();
                archive.append_all(&versions).unwrap();
                // Up to n − k failures per entry, a different set on each
                // entry's own nodes.
                let entries = archive.layout().len();
                let failed: Vec<usize> = (0..entries)
                    .flat_map(|entry| {
                        let bits = bits.rotate_left(7 * entry as u32);
                        (0..N)
                            .filter(move |&position| bits >> position & 1 == 1)
                            .take(N - K)
                            .map(move |position| entry * N + position)
                    })
                    .collect();
                engine.apply_pattern(&FailurePattern::with_failures(entries * N, &failed));
                let placement = Placement::new(PlacementStrategy::Dispersed, N, entries);
                let live = |entry: usize, position: usize| {
                    placement
                        .try_node_for(entry, position)
                        .is_ok_and(|node| !failed.contains(&node))
                };
                let case = format!("dispersed {form} {strategy} spacing {spacing} failed {failed:?}");
                assert_agrees(&engine, &archive, &versions, live, true, &case);
            }
        }
    });
}
