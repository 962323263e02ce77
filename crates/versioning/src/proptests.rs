//! Property-based tests of the ledger + walk that `sec-engine` serves from:
//! any randomly edited byte history is stored and retrieved exactly by every
//! strategy, and block reads agree with the closed-form
//! [`IoModel`](crate::IoModel) and never exceed the non-differential
//! baseline. The walk-free reference that checks layout, reads and failures
//! against an independent implementation is `sec-sim`'s
//! (`crates/sim/tests/reference.rs`).

use proptest::prelude::*;

use sec_erasure::GeneratorForm;

use crate::archive::{ArchiveConfig, EncodingStrategy};
use crate::byte_archive::ByteVersionedArchive;

const N: usize = 12;
const K: usize = 6;

/// A random version history of `len`-byte objects: a base object plus a list
/// of per-version edit sets (position, XOR mask). Masks may cancel, so `γ = 0`
/// deltas occur.
fn history_of(len: usize) -> impl Strategy<Value = Vec<Vec<u8>>> {
    let base = prop::collection::vec(0u8..=255, len);
    let edits = prop::collection::vec(prop::collection::vec((0..len, 1u8..=255), 1..=K), 1..6);
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

/// Histories over object lengths that do and do not divide into `K` blocks
/// (the last block is zero-padded, some blocks may be padding only).
fn history() -> impl Strategy<Value = Vec<Vec<u8>>> {
    (K..=8 * K).prop_flat_map(history_of)
}

/// `γ_2, …, γ_L` counted from the plaintext, independently of the archive: a
/// block counts when any of its bytes changed.
fn block_profile(versions: &[Vec<u8>]) -> Vec<usize> {
    let shard_len = versions[0].len().div_ceil(K);
    versions
        .windows(2)
        .map(|pair| {
            pair[0]
                .chunks(shard_len)
                .zip(pair[1].chunks(shard_len))
                .filter(|(old, new)| old != new)
                .count()
        })
        .collect()
}

fn all_strategies() -> [EncodingStrategy; 4] {
    [
        EncodingStrategy::BasicSec,
        EncodingStrategy::OptimizedSec,
        EncodingStrategy::ReversedSec,
        EncodingStrategy::NonDifferential,
    ]
}

fn filled(config: ArchiveConfig, versions: &[Vec<u8>]) -> ByteVersionedArchive {
    let mut archive = ByteVersionedArchive::new(config).unwrap();
    archive.append_all(versions).unwrap();
    archive
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_strategy_round_trips_random_histories(versions in history()) {
        for strategy in all_strategies() {
            for form in [GeneratorForm::Systematic, GeneratorForm::NonSystematic] {
                let archive = filled(ArchiveConfig::new(N, K, form, strategy).unwrap(), &versions);
                prop_assert_eq!(archive.len(), versions.len());
                for (l, expect) in versions.iter().enumerate() {
                    let r = archive.retrieve_version(l + 1).unwrap();
                    prop_assert_eq!(&r.data, expect);
                }
                let prefix = archive.retrieve_prefix(versions.len()).unwrap();
                prop_assert_eq!(&prefix.versions, &versions);
            }
        }
    }

    #[test]
    fn archive_io_matches_io_model_and_beats_baseline(versions in history()) {
        let profile = block_profile(&versions);
        for strategy in [EncodingStrategy::BasicSec, EncodingStrategy::OptimizedSec] {
            let config = ArchiveConfig::new(N, K, GeneratorForm::NonSystematic, strategy).unwrap();
            let archive = filled(config, &versions);
            prop_assert_eq!(archive.sparsity_profile(), profile.as_slice());
            let model = archive.config().io_model();
            for l in 1..=versions.len() {
                let measured = archive.retrieve_version(l).unwrap().io_reads;
                let predicted = model.version_reads(strategy, &profile, l);
                prop_assert_eq!(measured, predicted, "{} version {}", strategy, l);
                let prefix_measured = archive.retrieve_prefix(l).unwrap().io_reads;
                let prefix_predicted = model.prefix_reads(strategy, &profile, l);
                prop_assert_eq!(prefix_measured, prefix_predicted);
                // SEC never reads more than the non-differential baseline for
                // whole-prefix retrieval.
                prop_assert!(prefix_measured <= l * K);
            }
        }
    }

    #[test]
    fn sparsity_profile_is_strategy_independent(versions in history()) {
        let profile = block_profile(&versions);
        for strategy in all_strategies() {
            let config = ArchiveConfig::new(N, K, GeneratorForm::NonSystematic, strategy).unwrap();
            let archive = filled(config, &versions);
            prop_assert_eq!(archive.sparsity_profile(), profile.as_slice(), "{}", strategy);
        }
    }

    #[test]
    fn storage_footprint_is_l_times_n(versions in history()) {
        for strategy in all_strategies() {
            let config = ArchiveConfig::new(N, K, GeneratorForm::NonSystematic, strategy).unwrap();
            let archive = filled(config, &versions);
            let blocks: usize = archive.stored_entries().iter().map(|e| e.shards.shard_count()).sum();
            let bytes: usize = archive.stored_entries().iter().map(|e| e.shards.total_len()).sum();
            prop_assert_eq!(blocks, versions.len() * N, "{}", strategy);
            prop_assert_eq!(bytes, versions.len() * N * archive.shard_len(), "{}", strategy);
        }
    }

}
