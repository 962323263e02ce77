//! Allocation budget of a cold read: the walk folds every delta into one
//! accumulator and hands that buffer over as the reply, so a cold
//! `get_version` allocates about one object — the decoded anchor — plus
//! small planning vectors, whatever the number of deltas it applies, dense
//! ones included: those are summed with the anchor's blocks and decoded
//! with it. (Before the fold it allocated a `k`-block output per support
//! guess, a `k`-block delta per entry and a trimmed copy: ~23 objects on
//! this chain; before the summed decode, one more object per dense delta.)
//!
//! One test per binary: the counting allocator is process-global.

#![allow(
    clippy::disallowed_methods,
    reason = "test code: the counting allocator's tallies"
)]
#![allow(unsafe_code, reason = "a counting `GlobalAlloc` forwards to `System`")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use sec_engine::SecEngine;
use sec_erasure::GeneratorForm;
use sec_versioning::{ArchiveConfig, CheckpointPolicy, EncodingStrategy};

struct CountingAlloc;

static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter has no bearing on memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size.saturating_sub(layout.size()), Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const N: usize = 12;
const K: usize = 6;
const BLOCK: usize = 32 * 1024;
const OBJECT_LEN: usize = K * BLOCK;
const VERSIONS: usize = 32;

/// 32 versions of a 192 KiB object; version `v + 1` edits 64 bytes in each
/// of `γ` blocks of version `v`, at per-block offsets, with γ cycling 0, 1,
/// 2, 4 — the last dense (`γ ≥ k/2`), read like a full version.
fn history() -> Vec<Vec<u8>> {
    let mut versions = vec![(0..OBJECT_LEN).map(|i| (i * 31 + 7) as u8).collect::<Vec<u8>>()];
    for v in 1..VERSIONS {
        let mut next = versions[v - 1].clone();
        for edit in 0..[0, 1, 2, 4][v % 4] {
            let block = (v + edit) % K;
            let offset = (v * 977 + edit * 12_345) % (BLOCK - 64);
            for byte in &mut next[block * BLOCK + offset..][..64] {
                *byte ^= 0xA5;
            }
        }
        versions.push(next);
    }
    versions
}

#[test]
fn a_cold_get_allocates_less_than_two_objects() {
    let versions = history();
    for form in [GeneratorForm::NonSystematic, GeneratorForm::Systematic] {
        let config = ArchiveConfig::new(N, K, form, EncodingStrategy::BasicSec)
            .unwrap()
            .with_checkpoints(CheckpointPolicy::every(8));
        let engine = SecEngine::new(config).unwrap();
        engine.append_all(&versions).unwrap();
        // Warm the lazily built multiplication tables and thread scratch.
        for l in 1..=VERSIONS {
            assert_eq!(*engine.get_version(l).unwrap().data, versions[l - 1]);
        }
        for (l, expect) in versions.iter().enumerate().map(|(i, v)| (i + 1, v)) {
            let before = ALLOCATED.load(Ordering::Relaxed);
            let got = engine.get_version(l).unwrap();
            let allocated = ALLOCATED.load(Ordering::Relaxed) - before;
            assert!(!got.cached && got.io_reads > 0, "{form} version {l} must be cold");
            assert_eq!(&*got.data, expect);
            assert!(
                allocated < 2 * OBJECT_LEN,
                "{form} version {l}: a cold read allocated {allocated} bytes for a {OBJECT_LEN}-byte object"
            );
        }
    }
}
