//! The read-amplification bound anchor checkpoints exist to provide: with
//! checkpoint spacing `c`, no version read costs more than `k · (1 + c)`
//! block reads, however long the chain grows. A bound, not an equivalence:
//! the engine's reads are checked against the walk-free reference in
//! `sec-sim`.

use sec_engine::SecEngine;
use sec_erasure::GeneratorForm;
use sec_versioning::{ArchiveConfig, CheckpointPolicy, EncodingStrategy};

const N: usize = 6;
const K: usize = 3;

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
