//! A single simulated storage node.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

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

/// One storage node: a failure flag plus the coded values it holds and a
/// read counter.
///
/// The stored value is whatever one node holds of one entry: a whole
/// `Vec<u8>` coded block in [`ByteDistributedStore`](crate::ByteDistributedStore)
/// and `sec-engine`.
///
/// Everything a *read path* needs — the failure flag, the read counter, and
/// value lookup — works through `&self`: the flag and counter are atomics, so
/// any number of readers can serve retrievals from a shared node while
/// failure injection flips its liveness concurrently. Only operations that
/// change the stored contents ([`StorageNode::put`], [`StorageNode::wipe`])
/// require `&mut self`.
#[derive(Debug)]
pub struct StorageNode<V> {
    id: usize,
    alive: AtomicBool,
    symbols: BTreeMap<SymbolKey, V>,
    reads: AtomicU64,
}

impl<V: Clone> StorageNode<V> {
    /// Creates an empty, healthy node.
    pub fn new(id: usize) -> Self {
        Self {
            id,
            alive: AtomicBool::new(true),
            symbols: BTreeMap::new(),
            reads: AtomicU64::new(0),
        }
    }

    /// The node's identifier within its cluster.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Whether the node is currently alive.
    pub fn is_alive(&self) -> bool {
        // audit: atomic ok — Acquire pairs with the Release stores in fail/revive
        self.alive.load(Ordering::Acquire)
    }

    /// Marks the node failed. Its contents become unreadable until revived.
    pub fn fail(&self) {
        // audit: atomic ok — Release pairs with the Acquire load in is_alive
        self.alive.store(false, Ordering::Release);
    }

    /// Revives the node, keeping whatever it stored before failing
    /// (a crash-recovery model; use [`StorageNode::wipe`] for disk loss).
    pub fn revive(&self) {
        // audit: atomic ok — Release pairs with the Acquire load in is_alive
        self.alive.store(true, Ordering::Release);
    }

    /// Clears the node's contents (models permanent data loss).
    pub fn wipe(&mut self) {
        self.symbols.clear();
    }

    /// Stores one coded value.
    pub fn put(&mut self, key: SymbolKey, value: V) {
        self.symbols.insert(key, value);
    }

    /// Borrowed view of a stored value regardless of liveness — the crash
    /// model's "blocks survive on disk" view.
    ///
    /// Use after a successful [`StorageNode::touch`]: liveness may flip
    /// concurrently (failure injection is `&self`), and a read that already
    /// passed admission must still be able to borrow the block it counted
    /// instead of panicking or spuriously failing.
    pub fn peek_stored(&self, key: SymbolKey) -> Option<&V> {
        self.symbols.get(&key)
    }

    /// Counts one read against the node if it is alive and holds the value,
    /// without cloning the value out; returns whether the read succeeded.
    /// Borrow the value itself with [`StorageNode::peek_stored`].
    pub fn touch(&self, key: SymbolKey) -> bool {
        // Simulated transient read failure: the node is up but this one
        // request is lost, exactly like a live node missing a deadline, so
        // callers fall back as they would for a dead node.
        if !self.is_alive() || fault::buggify("store::node::read") {
            return false;
        }
        let present = self.symbols.contains_key(&key);
        if present {
            // audit: atomic ok — read counter is a statistic; no ordering dependency
            self.reads.fetch_add(1, Ordering::Relaxed);
        }
        present
    }

    /// Number of symbols stored on this node.
    pub fn stored_symbols(&self) -> usize {
        self.symbols.len()
    }

    /// Number of read operations served so far.
    pub fn reads(&self) -> u64 {
        // audit: atomic ok — statistic read; cross-thread exactness not claimed
        self.reads.load(Ordering::Relaxed)
    }
}

impl<V: Clone> Clone for StorageNode<V> {
    fn clone(&self) -> Self {
        Self {
            id: self.id,
            alive: AtomicBool::new(self.is_alive()),
            symbols: self.symbols.clone(),
            reads: AtomicU64::new(self.reads()),
        }
    }
}

impl<V: Clone + PartialEq> PartialEq for StorageNode<V> {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
            && self.is_alive() == other.is_alive()
            && self.symbols == other.symbols
            && self.reads() == other.reads()
    }
}

impl<V: Clone + Eq> Eq for StorageNode<V> {}

#[cfg(test)]
mod tests {
    use super::*;
    use sec_gf::{GaloisField, Gf256};

    #[test]
    fn put_read_and_counters() {
        let mut node: StorageNode<Gf256> = StorageNode::new(3);
        assert_eq!(node.id(), 3);
        assert!(node.is_alive());
        let key = SymbolKey {
            entry: 0,
            position: 2,
        };
        assert!(!node.touch(key));
        assert_eq!(node.reads(), 0);
        node.put(key, Gf256::from_u64(9));
        assert_eq!(node.stored_symbols(), 1);
        assert!(node.touch(key));
        assert_eq!(node.reads(), 1);
        assert_eq!(node.peek_stored(key), Some(&Gf256::from_u64(9)));
        // Peeking does not count.
        assert_eq!(node.reads(), 1);
    }

    #[test]
    fn failed_node_serves_nothing() {
        let mut node: StorageNode<Gf256> = StorageNode::new(0);
        let key = SymbolKey {
            entry: 1,
            position: 0,
        };
        node.put(key, Gf256::ONE);
        node.fail();
        assert!(!node.is_alive());
        assert!(!node.touch(key));
        // The crash model: the block is still on disk, just not served.
        assert_eq!(node.peek_stored(key), Some(&Gf256::ONE));
        node.revive();
        assert!(node.touch(key));
        node.wipe();
        assert!(!node.touch(key));
        assert_eq!(node.stored_symbols(), 0);
    }

    #[test]
    fn clone_and_eq_track_atomic_state() {
        let mut node: StorageNode<Gf256> = StorageNode::new(1);
        let key = SymbolKey {
            entry: 0,
            position: 0,
        };
        node.put(key, Gf256::ONE);
        assert!(node.touch(key));
        let cloned = node.clone();
        assert_eq!(node, cloned);
        node.fail();
        assert_ne!(node, cloned);
        node.revive();
        assert_eq!(node, cloned);
    }

    #[test]
    fn shared_reads_count_concurrently() {
        let mut node: StorageNode<Gf256> = StorageNode::new(0);
        let key = SymbolKey {
            entry: 0,
            position: 1,
        };
        node.put(key, Gf256::ONE);
        let node = std::sync::Arc::new(node);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let node = std::sync::Arc::clone(&node);
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        assert!(node.touch(key));
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
