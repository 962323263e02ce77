//! A single simulated storage node.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use std::sync::atomic::{AtomicU64, Ordering};

use crate::fault;

/// One storage node: an array of block slots and a read counter.
///
/// A node holds at most one block per stored entry, in the slot
/// [`PlacementStrategy::slab_slot`](crate::PlacementStrategy::slab_slot)
/// assigns it; slots never written read as absent.
///
/// Liveness is not the node's concern — `sec-engine` keeps it in one atomic
/// array per node group, outside every node lock. Reads work through
/// `&self` (the counter is atomic), so any number of readers can borrow
/// blocks from a shared node; only [`StorageNode::put`] and
/// [`StorageNode::replace`] change the contents and need `&mut self`.
#[derive(Debug, Default)]
pub struct StorageNode {
    slots: Vec<Option<Vec<u8>>>,
    reads: AtomicU64,
}

impl StorageNode {
    /// Stores `block` in `slot`, replacing what the slot held. Slots below
    /// `slot` that were never written stay absent.
    pub fn put(&mut self, slot: usize, block: Vec<u8>) {
        if self.slots.len() <= slot {
            self.slots.resize_with(slot + 1, || None);
        }
        if let Some(held) = self.slots.get_mut(slot) {
            *held = Some(block);
        }
    }

    /// Replaces the node's whole contents with `blocks`, as `(slot, block)`
    /// pairs — a repair's commit. The read counter is kept.
    pub fn replace(&mut self, blocks: impl IntoIterator<Item = (usize, Vec<u8>)>) {
        self.slots.clear();
        for (slot, block) in blocks {
            self.put(slot, block);
        }
    }

    /// Borrows the block in `slot` and counts one read, or returns `None`
    /// when the slot is absent.
    pub fn read(&self, slot: usize) -> Option<&[u8]> {
        // Simulated transient read failure: the request is lost, exactly
        // like a node missing a deadline, so callers fall back as they would
        // for a missing block.
        if fault::buggify("store::node::read") {
            return None;
        }
        let block = self.slots.get(slot)?.as_deref()?;
        #[expect(
            clippy::disallowed_methods,
            reason = "read counter is a statistic; no ordering dependency"
        )]
        self.reads.fetch_add(1, Ordering::Relaxed);
        Some(block)
    }

    /// Number of read operations served so far.
    #[expect(
        clippy::disallowed_methods,
        reason = "statistic read; cross-thread exactness not claimed"
    )]
    pub fn reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_read_and_counters() {
        let mut node = StorageNode::default();
        assert_eq!(node.read(0), None);
        node.put(0, vec![9, 8]);
        assert_eq!(node.read(0), Some(&[9u8, 8][..]));
        assert_eq!(node.read(1), None);
        assert_eq!(node.reads(), 1, "a miss is not a counted read");
    }

    #[test]
    fn a_put_past_the_end_leaves_absent_slots() {
        let mut node = StorageNode::default();
        node.put(5, vec![5]);
        let absent = [0, 1, 2, 3, 4, 6, usize::MAX];
        assert!(absent.iter().all(|&slot| node.read(slot).is_none()));
        assert_eq!(node.read(5), Some(&[5u8][..]));
        assert_eq!(node.reads(), 1);
    }

    /// Reversed SEC rewrites the previous full copy's slot with the new
    /// delta: the slot's old block is gone, its neighbours untouched.
    #[test]
    fn overwriting_a_slot_replaces_only_its_block() {
        let mut node = StorageNode::default();
        for (slot, byte) in [(0, 1u8), (1, 2), (1, 3), (2, 4)] {
            node.put(slot, vec![byte]);
        }
        let held: Vec<_> = (0..3).map(|slot| node.read(slot)).collect();
        assert_eq!(held, [Some(&[1u8][..]), Some(&[3][..]), Some(&[4][..])]);
    }

    #[test]
    fn replace_swaps_the_contents_and_keeps_the_read_counter() {
        let mut node = StorageNode::default();
        node.put(0, vec![1]);
        assert!(node.read(0).is_some());
        node.replace([(1, vec![7])]);
        assert_eq!(node.read(0), None);
        assert_eq!(node.read(1), Some(&[7u8][..]));
        assert_eq!(node.reads(), 2, "one read before the repair, one after");
    }

    #[test]
    fn shared_reads_count_concurrently() {
        let mut node = StorageNode::default();
        node.put(2, vec![1]);
        let node = std::sync::Arc::new(node);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let node = std::sync::Arc::clone(&node);
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        assert_eq!(node.read(2), Some(&[1u8][..]));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(node.reads(), 200);
    }
}
