//! A single simulated storage node.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::fault;

/// Key of one stored coded symbol: which archive entry it belongs to and its
/// position within that entry's codeword.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SymbolKey {
    /// Index of the stored object (archive entry) the symbol encodes.
    pub entry: usize,
    /// Position of the symbol within the entry's codeword (`0..n`).
    pub position: usize,
}

/// One storage node: the coded blocks it holds and a read counter.
///
/// Liveness is not the node's concern — `sec-engine` keeps it in one atomic
/// array per node group, outside every node lock. Reads work through
/// `&self` (the counter is atomic), so any number of readers can borrow
/// blocks from a shared node; only [`StorageNode::put`] and
/// [`StorageNode::wipe`] change the contents and need `&mut self`.
#[derive(Debug, Default)]
pub struct StorageNode {
    blocks: BTreeMap<SymbolKey, Vec<u8>>,
    reads: AtomicU64,
}

impl StorageNode {
    /// Clears the node's contents (models permanent data loss).
    pub fn wipe(&mut self) {
        self.blocks.clear();
    }

    /// Stores one coded block.
    pub fn put(&mut self, key: SymbolKey, block: Vec<u8>) {
        self.blocks.insert(key, block);
    }

    /// Borrows the block stored under `key` and counts one read, or returns
    /// `None` when the node does not hold it.
    pub fn read(&self, key: SymbolKey) -> Option<&[u8]> {
        // Simulated transient read failure: the request is lost, exactly
        // like a node missing a deadline, so callers fall back as they would
        // for a missing block.
        if fault::buggify("store::node::read") {
            return None;
        }
        let block = self.blocks.get(&key)?;
        // audit: atomic ok — read counter is a statistic; no ordering dependency
        self.reads.fetch_add(1, Ordering::Relaxed);
        Some(block)
    }

    /// Number of read operations served so far.
    pub fn reads(&self) -> u64 {
        // audit: atomic ok — statistic read; cross-thread exactness not claimed
        self.reads.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEY: SymbolKey = SymbolKey {
        entry: 0,
        position: 2,
    };

    #[test]
    fn put_read_and_counters() {
        let mut node = StorageNode::default();
        assert_eq!(node.read(KEY), None);
        assert_eq!(node.reads(), 0, "a missing block is not a served read");
        node.put(KEY, vec![9, 8]);
        assert_eq!(node.read(KEY), Some(&[9u8, 8][..]));
        assert_eq!(node.reads(), 1);
        node.wipe();
        assert_eq!(node.read(KEY), None);
        assert_eq!(node.reads(), 1);
    }

    #[test]
    fn shared_reads_count_concurrently() {
        let mut node = StorageNode::default();
        node.put(KEY, vec![1]);
        let node = std::sync::Arc::new(node);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let node = std::sync::Arc::clone(&node);
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        assert_eq!(node.read(KEY), Some(&[1u8][..]));
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
