//! End-to-end byte-shard round trip under every survivable failure pattern.
//!
//! Archives 8 versions of a byte object under Basic, Optimized and Reversed
//! SEC with both generator forms, injects every failure pattern of at most
//! `n − k` nodes into a colocated [`SecEngine`], and asserts that
//!
//! 1. every version retrieves byte-intact, and
//! 2. the engine's block reads equal the failure-aware reference's — the
//!    archive read from the pattern's live positions — and exactly what
//!    [`plan_read`](sec::erasure::read_plan::plan_read) predicts for the
//!    touched entries given the live-node set.
//!
//! The systematic form is what makes the live set observable: its sparse
//! plans need qualifying rows, so failures push some deltas from `2γ` reads
//! to `k`.

use sec::erasure::read_plan::{plan_read, ReadTarget};
use sec::store::failure::enumerate_patterns;
use sec::versioning::StoredPayload;
use sec::{ArchiveConfig, ByteVersionedArchive, EncodingStrategy, GeneratorForm, SecEngine};

const N: usize = 6;
const K: usize = 3;
const BLOCK: usize = 16;
const VERSIONS: usize = 8;

/// Eight versions of a 48-byte object (three 16-byte blocks) with a sparsity
/// profile that mixes empty, exploitable and dense deltas:
/// γ = [1, 0, 2, 1, 3, 1, 2].
fn versions() -> Vec<Vec<u8>> {
    let v1: Vec<u8> = (0..K * BLOCK).map(|i| (i * 29 + 17) as u8).collect();
    let edit_blocks: [&[usize]; VERSIONS - 1] = [
        &[1],       // γ2 = 1
        &[],        // γ3 = 0 (identical version)
        &[0, 2],    // γ4 = 2
        &[2],       // γ5 = 1
        &[0, 1, 2], // γ6 = 3 (dense)
        &[0],       // γ7 = 1
        &[1, 2],    // γ8 = 2
    ];
    let mut out = vec![v1];
    for (round, blocks) in edit_blocks.iter().enumerate() {
        let mut next = out.last().unwrap().clone();
        for &b in blocks.iter() {
            next[b * BLOCK + (round % BLOCK)] ^= (round + 1) as u8;
        }
        out.push(next);
    }
    out
}

/// Stored entries touched by retrieving version `l`, with their payloads, in
/// the order a reader reads them.
fn touched_entries(archive: &ByteVersionedArchive, l: usize) -> Vec<(usize, StoredPayload)> {
    let entries = archive.layout();
    match archive.config().strategy() {
        EncodingStrategy::NonDifferential => vec![(l - 1, entries[l - 1])],
        EncodingStrategy::BasicSec | EncodingStrategy::OptimizedSec => {
            let anchor = entries[..l]
                .iter()
                .rposition(|p| matches!(p, StoredPayload::FullVersion { .. }))
                .expect("entry 0 stores a full version");
            (anchor..l).map(|i| (i, entries[i])).collect()
        }
        EncodingStrategy::ReversedSec => {
            // The latest full copy is the final stored entry; the walk reads
            // it first, then rewinds through the deltas above `l`.
            (l.saturating_sub(1)..entries.len())
                .rev()
                .map(|idx| (idx, entries[idx]))
                .collect()
        }
    }
}

/// Block reads `plan_read` predicts for one entry given the live positions.
fn predicted_entry_reads(
    archive: &ByteVersionedArchive,
    live: &[usize],
    payload: StoredPayload,
) -> usize {
    let target = match payload {
        StoredPayload::FullVersion { .. } => ReadTarget::Full,
        StoredPayload::Delta { sparsity, .. } => {
            if sparsity == 0 {
                return 0; // empty deltas are reconstructed without any read
            }
            ReadTarget::Sparse { gamma: sparsity }
        }
    };
    plan_read(archive.code(), live, target)
        .expect("≤ n−k failures always leave a feasible plan")
        .io_reads
}

#[test]
fn every_version_survives_every_tolerable_failure_pattern() {
    for form in [GeneratorForm::NonSystematic, GeneratorForm::Systematic] {
        for strategy in [
            EncodingStrategy::BasicSec,
            EncodingStrategy::OptimizedSec,
            EncodingStrategy::ReversedSec,
        ] {
            let config = ArchiveConfig::new(N, K, form, strategy).unwrap();
            let mut archive = ByteVersionedArchive::new(config).unwrap();
            let engine = SecEngine::new(config).unwrap();
            let vs = versions();
            archive.append_all(&vs).unwrap();
            engine.append_all(&vs).unwrap();
            assert_eq!(archive.sparsity_profile(), &[1, 0, 2, 1, 3, 1, 2], "{strategy}");

            let mut checked_patterns = 0usize;
            let mut degraded_reads = 0usize;
            for pattern in enumerate_patterns(N) {
                if pattern.failed_count() > N - K {
                    continue;
                }
                checked_patterns += 1;
                engine.apply_pattern(&pattern);
                let live = pattern.live_nodes();

                for (l, expect) in vs.iter().enumerate() {
                    let l = l + 1;
                    let case = format!(
                        "{form} {strategy} version {l} pattern {:?}",
                        pattern.failed_nodes()
                    );
                    let got = engine.get_version(l).unwrap_or_else(|e| panic!("{case}: {e}"));
                    let want = archive
                        .retrieve_version_from(l, |_, position| !pattern.is_failed(position))
                        .unwrap_or_else(|e| panic!("{case}: reference: {e}"));
                    assert_eq!(*got.data, *expect, "{case}");
                    assert_eq!(want.data, *expect, "{case}: reference");

                    // Colocated placement: live positions of every entry are
                    // the live node ids, so the prediction is
                    // entry-independent.
                    let predicted: usize = touched_entries(&archive, l)
                        .into_iter()
                        .map(|(_, payload)| predicted_entry_reads(&archive, &live, payload))
                        .sum();
                    assert_eq!(got.io_reads, want.io_reads, "{case}: engine vs reference reads");
                    assert_eq!(got.io_reads, predicted, "{case}: reads must match plan_read");
                    degraded_reads += got.io_reads - archive.retrieve_version(l).unwrap().io_reads;
                }
            }
            // 1 + 6 + 15 + 20 patterns of weight ≤ 3 over 6 nodes.
            assert_eq!(checked_patterns, 42, "{form} {strategy}");
            // Failures cost a systematic code extra reads (sparse deltas lose
            // their qualifying rows); a non-systematic one, none.
            assert_eq!(
                degraded_reads > 0,
                form == GeneratorForm::Systematic,
                "{form} {strategy}: {degraded_reads} extra reads"
            );
        }
    }
}

#[test]
fn all_alive_read_counts_follow_the_paper_formulas() {
    // With every node alive and a non-systematic Cauchy code, a γ-sparse
    // delta costs exactly min(2γ, k) block reads and a full version k.
    let config =
        ArchiveConfig::new(N, K, GeneratorForm::NonSystematic, EncodingStrategy::BasicSec).unwrap();
    let engine = SecEngine::new(config).unwrap();
    engine.append_all(&versions()).unwrap();
    let reads = |l| engine.get_version(l).unwrap().io_reads;

    // Version 2 = full x1 (k) + delta γ=1 (2 reads).
    assert_eq!(reads(2), K + 2);
    // Version 3 adds an empty delta: no extra reads.
    assert_eq!(reads(3), K + 2);
    // Version 6 walks γ = [1, 0, 2, 1, 3]: 3 + 2 + 0 + 3 + 2 + 3 = 13.
    assert_eq!(reads(6), 13);
}
