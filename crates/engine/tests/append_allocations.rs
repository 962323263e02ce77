//! Allocation budget of an append: the ledger forms the delta inside its
//! plaintext tail, encodes only the delta's non-zero blocks straight into
//! one buffer per coded block, and the engine moves each buffer into its
//! node's slot. So a delta append allocates its `n` coded blocks and a few
//! KiB besides — no object-sized temporary and no second copy of any block.
//!
//! The few KiB are the engine's own bookkeeping, not block data: ~1 KiB of
//! per-append vectors; under dispersed placement the entry's fresh slab of
//! `n` nodes, its liveness array and each node's first slot array; under
//! colocated placement the step on which the `n` nodes' slot arrays double.
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
fn a_delta_append_allocates_its_coded_blocks_and_little_else() {
    let versions = history();
    let budget = N * BLOCK + 8 * 1024;
    let strategies = [EncodingStrategy::BasicSec, EncodingStrategy::OptimizedSec];
    let placements = [PlacementStrategy::Colocated, PlacementStrategy::Dispersed];
    for (strategy, placement) in strategies.into_iter().flat_map(|s| placements.map(|p| (s, p))) {
        let config = ArchiveConfig::new(N, K, GeneratorForm::NonSystematic, strategy).unwrap();
        let engine = SecEngine::with_placement(config, placement, 0).unwrap();
        engine.append_version(&versions[0]).unwrap();
        let mut worst = 0;
        for version in &versions[1..] {
            let before = ALLOCATED.load(Ordering::Relaxed);
            engine.append_version(version).unwrap();
            let allocated = ALLOCATED.load(Ordering::Relaxed) - before;
            worst = worst.max(allocated);
        }
        // γ ≤ 2 < k/2 throughout: every append after the first is a delta.
        assert!(engine
            .get_version(VERSIONS)
            .is_ok_and(|r| *r.data == versions[VERSIONS - 1]));
        assert!(
            worst <= budget,
            "{strategy} {placement:?}: a delta append allocated {worst} bytes \
             (budget {budget} = n·shard_len + 8 KiB)"
        );
    }
}
