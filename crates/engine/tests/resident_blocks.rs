//! Resident memory of a filled engine: each coded block lives in exactly one
//! place — its storage node. The ledger behind the archive lock keeps layout
//! metadata and one plaintext tail, never blocks, so the heap an engine
//! retains is the paper's `n/k` storage overhead and little else. (When the
//! engine wrapped a block-owning archive it retained every block twice:
//! 2.02× on this history.)
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
use sec_store::PlacementStrategy;
use sec_versioning::{ArchiveConfig, EncodingStrategy};

struct LiveBytesAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter has no bearing on memory.
unsafe impl GlobalAlloc for LiveBytesAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size, Ordering::Relaxed);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: LiveBytesAlloc = LiveBytesAlloc;

const N: usize = 12;
const K: usize = 6;
const BLOCK: usize = 32 * 1024;
const OBJECT_LEN: usize = K * BLOCK;
const VERSIONS: usize = 32;

/// 32 versions of a 192 KiB object; version `v + 1` edits 64 bytes in each
/// of `v % 3` blocks of version `v` (γ cycles 0, 1, 2), at per-block offsets.
fn history() -> Vec<Vec<u8>> {
    let mut versions = vec![(0..OBJECT_LEN).map(|i| (i * 31 + 7) as u8).collect::<Vec<u8>>()];
    for v in 1..VERSIONS {
        let mut next = versions[v - 1].clone();
        for edit in 0..v % 3 {
            let block = (v + 2 * edit) % K;
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
fn a_filled_engine_retains_each_coded_block_once() {
    let versions = history();
    // γ ≤ 2 < k/2 throughout, so every strategy here stores exactly one
    // entry per version (Reversed: L − 1 deltas and the full latest copy).
    let coded_bytes = VERSIONS * N * BLOCK;
    let budget = coded_bytes + coded_bytes / 10 + 2 * OBJECT_LEN;
    let strategies = [
        EncodingStrategy::BasicSec,
        EncodingStrategy::OptimizedSec,
        EncodingStrategy::ReversedSec,
    ];
    let placements = [PlacementStrategy::Colocated, PlacementStrategy::Dispersed];
    for (strategy, placement) in strategies.into_iter().flat_map(|s| placements.map(|p| (s, p))) {
        let config = ArchiveConfig::new(N, K, GeneratorForm::NonSystematic, strategy).unwrap();
        let before = LIVE.load(Ordering::Relaxed);
        let engine = SecEngine::with_placement(config, placement, 0).unwrap();
        engine.append_all(&versions).unwrap();
        let retained = LIVE.load(Ordering::Relaxed) - before;
        assert_eq!(engine.len(), VERSIONS);
        // Every block was written once; Reversed SEC rewrites the previous
        // full copy's slot on each append after the first (756 = 12 + 31·24).
        let entries_written = match strategy {
            EncodingStrategy::ReversedSec => 1 + 2 * (VERSIONS - 1),
            _ => VERSIONS,
        };
        assert_eq!(
            engine.metrics_snapshot().io.symbol_writes as usize,
            N * entries_written,
            "{strategy} {placement:?}: block writes"
        );
        if placement == PlacementStrategy::Dispersed {
            assert_eq!(engine.node_count(), N * VERSIONS, "one slab per stored entry");
        }
        assert!(
            retained >= coded_bytes,
            "{strategy} {placement:?}: {retained} bytes cannot hold {coded_bytes} of coded blocks"
        );
        assert!(
            retained <= budget,
            "{strategy} {placement:?}: engine retains {retained} bytes for {coded_bytes} bytes of \
             coded blocks ({:.2}x; budget {budget})",
            retained as f64 / coded_bytes as f64
        );
        assert_eq!(
            *engine.get_version(VERSIONS).unwrap().data,
            versions[VERSIONS - 1]
        );
    }
}
