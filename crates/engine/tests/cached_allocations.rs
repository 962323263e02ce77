//! Allocation budget of a cache-enabled engine once its delta cache is
//! full: every version-sized buffer it needs — an append's pre-warm copy, a
//! miss's chain-start accumulator, the copy of a cached base a walk starts
//! from — overwrites the buffer the cache last let go of, instead of a
//! fresh allocation. So a delta append allocates what it allocates with the
//! cache off (its `n` coded blocks plus under 8 KiB, as
//! `append_allocations.rs` pins), and a read that misses the cache or
//! starts from a cached base allocates less than one object.
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
const CACHE: usize = 4;

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

/// Bytes allocated while `op` runs.
fn allocated_by<T>(op: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATED.load(Ordering::Relaxed);
    let out = op();
    (out, ALLOCATED.load(Ordering::Relaxed) - before)
}

#[test]
fn a_full_cache_recycles_every_version_sized_buffer() {
    let versions = history();
    let append_budget = N * BLOCK + 8 * 1024;
    let strategies = [EncodingStrategy::BasicSec, EncodingStrategy::OptimizedSec];
    let placements = [PlacementStrategy::Colocated, PlacementStrategy::Dispersed];
    for (strategy, placement) in strategies.into_iter().flat_map(|s| placements.map(|p| (s, p))) {
        let case = format!("{strategy} {placement:?}");
        let config = ArchiveConfig::new(N, K, GeneratorForm::NonSystematic, strategy).unwrap();
        let engine = SecEngine::with_placement(config, placement, CACHE).unwrap();
        // Fill the cache past its capacity, so an eviction has left a
        // spare, and warm the lazily built tables and thread scratch.
        engine.append_all(&versions[..=CACHE]).unwrap();
        for l in 1..=CACHE + 1 {
            assert_eq!(*engine.get_version(l).unwrap().data, versions[l - 1]);
        }
        for version in &versions[CACHE + 1..] {
            let (id, allocated) = allocated_by(|| engine.append_version(version).unwrap());
            assert!(
                allocated <= append_budget,
                "{case}: the delta append of version {} allocated {allocated} bytes \
                 (budget {append_budget} = n·shard_len + 8 KiB)",
                id.0
            );
        }
        // γ ≤ 2 < k/2 throughout, so version 1 is the only stored full
        // version and the cache holds the four newest versions: reading
        // downwards misses every time, each walk starting at version 1;
        // reading upwards past the four versions that leaves cached starts
        // each walk at the version before.
        let misses = (1..=VERSIONS - CACHE).rev().map(|l| (l, false));
        let base_hits = (CACHE + 1..=VERSIONS).map(|l| (l, true));
        for (l, from_base) in misses.chain(base_hits) {
            let (got, allocated) = allocated_by(|| engine.get_version(l).unwrap());
            assert_eq!(*got.data, versions[l - 1], "{case} version {l}");
            assert_eq!(got.cached, from_base, "{case} version {l}");
            assert!(
                allocated < OBJECT_LEN,
                "{case}: version {l} (from a cached base: {from_base}) allocated {allocated} \
                 bytes for a {OBJECT_LEN}-byte object"
            );
        }
    }
}
