//! Lock-ordering enforcement in debug and simulation builds.
//!
//! The serving stack documents a strict lock hierarchy (see
//! `docs/INVARIANTS.md` §1): archive → slab directory → node slabs → cluster
//! object map, node slabs in ascending node id. [`OrderedRwLock`] is what
//! enforces it: each lock carries a [`LockRank`] (and a node its id), and in
//! debug builds and under the `sim-faults` feature every acquisition is
//! checked against a thread-local stack of currently held locks — taking a
//! lock at or below the highest held rank, or a node at or below the
//! highest held node id, panics at the acquisition site, turning a would-be
//! deadlock into an immediate, attributable failure. Every debug test arms
//! the check, and so does every `sec-sim` build, the release `sim-sweep`
//! included (it enables `sim-faults`); it sees the paths they reach, through
//! any call chain. Other release builds compile the bookkeeping away
//! entirely.
//!
//! The wrapper also centralises poison handling: the engine treats a
//! poisoned lock as a fatal invariant breach everywhere, so the `panic!` on
//! poison lives here once instead of as an `.expect()` at every call site.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Position of a lock in the engine's documented hierarchy. Lower ranks are
/// outermost: a thread may only acquire a lock whose rank is strictly above
/// every rank it already holds (same rank only where
/// [`reentrant`](LockRank::reentrant)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LockRank {
    /// `SecEngine`'s versioned byte archive — the outermost lock.
    Archive = 0,
    /// The slab directory (`Vec<NodeSlab>`).
    Directory = 1,
    /// Per-node block slots. Reentrant: planned reads lock several nodes
    /// at this rank, in ascending id order (which breaks cycles among
    /// them, and which checked builds check: see [`OrderedRwLock::keyed`]).
    Node = 2,
    /// `SecCluster`'s per-shard object map — the innermost lock.
    ObjectMap = 3,
}

impl LockRank {
    /// Whether several locks of this rank may be held at once.
    pub fn reentrant(self) -> bool {
        matches!(self, LockRank::Node)
    }

    /// Human-readable name for diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            LockRank::Archive => "archive",
            LockRank::Directory => "slab directory",
            LockRank::Node => "node slab",
            LockRank::ObjectMap => "object map",
        }
    }

    /// The fault-point site (see `sec_store::fault`) visited on every
    /// acquisition of a lock at this rank, so the deterministic simulator
    /// can trace lock order and exercise the hierarchy from a seed.
    pub fn site(self) -> sec_store::fault::Site {
        match self {
            LockRank::Archive => "engine::lock::archive",
            LockRank::Directory => "engine::lock::directory",
            LockRank::Node => "engine::lock::node",
            LockRank::ObjectMap => "engine::lock::objects",
        }
    }
}

#[cfg(any(debug_assertions, feature = "sim-faults"))]
mod held {
    use super::LockRank;
    use std::cell::RefCell;

    thread_local! {
        static HELD: RefCell<Vec<(LockRank, usize)>> = const { RefCell::new(Vec::new()) };
    }

    /// Proof of a recorded acquisition; dropping it un-records the lock.
    pub struct Token {
        lock: (LockRank, usize),
    }

    impl Token {
        pub fn acquire(rank: LockRank, key: usize) -> Self {
            HELD.with(|cell| {
                let mut held = cell.borrow_mut();
                // Guards can drop out of declaration order, so compare
                // against the highest held lock, not the most recent one.
                if let Some(&(top, top_key)) = held.iter().max() {
                    assert!(
                        rank > top || (rank == top && rank.reentrant() && key > top_key),
                        "lock-order violation: acquiring the {} lock (rank {}, key {key}) while \
                         holding the {} lock (rank {}, key {top_key}) — see docs/INVARIANTS.md",
                        rank.name(),
                        rank as u8,
                        top.name(),
                        top as u8,
                    );
                }
                held.push((rank, key));
            });
            Token { lock: (rank, key) }
        }
    }

    impl Drop for Token {
        fn drop(&mut self) {
            HELD.with(|cell| {
                let mut held = cell.borrow_mut();
                if let Some(pos) = held.iter().rposition(|&lock| lock == self.lock) {
                    held.remove(pos);
                }
            });
        }
    }
}

#[cfg(not(any(debug_assertions, feature = "sim-faults")))]
mod held {
    use super::LockRank;

    /// Release builds without `sim-faults`: no bookkeeping, zero-sized
    /// token.
    pub struct Token;

    impl Token {
        #[inline(always)]
        pub fn acquire(_rank: LockRank, _key: usize) -> Self {
            Token
        }
    }
}

/// An [`RwLock`] that knows its place in the engine's lock hierarchy.
///
/// `read`/`write` never return poison errors: the engine treats a poisoned
/// lock as a fatal invariant breach, and the panic is centralised here.
pub struct OrderedRwLock<T> {
    rank: LockRank,
    /// Position among the locks of a reentrant rank (see [`Self::keyed`]).
    #[cfg(any(debug_assertions, feature = "sim-faults"))]
    key: usize,
    inner: RwLock<T>,
}

impl<T> OrderedRwLock<T> {
    /// Wraps `value` in a lock at the given hierarchy rank.
    pub fn new(rank: LockRank, value: T) -> Self {
        Self::keyed(rank, 0, value)
    }

    /// Wraps `value` in a lock at `rank` with position `key` among that
    /// rank's locks. A thread holds several locks of a reentrant rank only
    /// when it took them in ascending key order: a node's key is its node
    /// id, the order planned reads lock nodes in. Unchecked builds drop the
    /// key with the rest of the bookkeeping.
    pub fn keyed(rank: LockRank, key: usize, value: T) -> Self {
        #[cfg(not(any(debug_assertions, feature = "sim-faults")))]
        let _ = key;
        Self {
            rank,
            #[cfg(any(debug_assertions, feature = "sim-faults"))]
            key,
            inner: RwLock::new(value),
        }
    }

    /// The key the order check compares.
    #[cfg(any(debug_assertions, feature = "sim-faults"))]
    fn order_key(&self) -> usize {
        self.key
    }

    #[cfg(not(any(debug_assertions, feature = "sim-faults")))]
    fn order_key(&self) -> usize {
        0
    }

    /// Acquires the shared lock, checking the hierarchy first.
    pub fn read(&self) -> OrderedReadGuard<'_, T> {
        sec_store::fault::reached(self.rank.site());
        let token = held::Token::acquire(self.rank, self.order_key());
        let guard = match self.inner.read() {
            Ok(guard) => guard,
            #[expect(
                clippy::panic,
                reason = "poison means a writer panicked mid-update; the protected state can no \
                          longer be trusted, so every path treats this as fatal (this is the one \
                          place that decision lives)"
            )]
            Err(_) => panic!("{} lock poisoned", self.rank.name()),
        };
        OrderedReadGuard { guard, _token: token }
    }

    /// Acquires the exclusive lock, checking the hierarchy first.
    pub fn write(&self) -> OrderedWriteGuard<'_, T> {
        sec_store::fault::reached(self.rank.site());
        let token = held::Token::acquire(self.rank, self.order_key());
        let guard = match self.inner.write() {
            Ok(guard) => guard,
            #[expect(clippy::panic, reason = "same fatal-poison policy as `read` above")]
            Err(_) => panic!("{} lock poisoned", self.rank.name()),
        };
        OrderedWriteGuard { guard, _token: token }
    }
}

impl<T> fmt::Debug for OrderedRwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrderedRwLock")
            .field("rank", &self.rank)
            .finish_non_exhaustive()
    }
}

/// Shared guard from [`OrderedRwLock::read`].
pub struct OrderedReadGuard<'a, T> {
    // Field order matters: the lock is released before the rank is popped,
    // so the held-set over-approximates and never misses a violation.
    guard: RwLockReadGuard<'a, T>,
    _token: held::Token,
}

impl<T> Deref for OrderedReadGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: fmt::Debug> fmt::Debug for OrderedReadGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// Exclusive guard from [`OrderedRwLock::write`].
pub struct OrderedWriteGuard<'a, T> {
    guard: RwLockWriteGuard<'a, T>,
    _token: held::Token,
}

impl<T> Deref for OrderedWriteGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for OrderedWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T: fmt::Debug> fmt::Debug for OrderedWriteGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_order_acquisition_is_allowed() {
        let archive = OrderedRwLock::new(LockRank::Archive, 1u32);
        let directory = OrderedRwLock::new(LockRank::Directory, 2u32);
        let objects = OrderedRwLock::new(LockRank::ObjectMap, 3u32);
        let a = archive.read();
        let d = directory.write();
        let o = objects.read();
        assert_eq!(*a + *d + *o, 6);
    }

    #[test]
    #[cfg_attr(
        any(debug_assertions, feature = "sim-faults"),
        should_panic(expected = "lock-order violation")
    )]
    fn inverted_acquisition_panics_in_debug() {
        let archive = OrderedRwLock::new(LockRank::Archive, 1u32);
        let objects = OrderedRwLock::new(LockRank::ObjectMap, 3u32);
        let _o = objects.write();
        let a = archive.read();
        // Unchecked builds skip the check; keep the guard observable so the
        // test body is not optimised away.
        assert_eq!(*a, 1);
    }

    #[test]
    fn node_rank_is_reentrant() {
        let n0 = OrderedRwLock::keyed(LockRank::Node, 0, 0u32);
        let n1 = OrderedRwLock::keyed(LockRank::Node, 1, 1u32);
        let g0 = n0.read();
        let g1 = n1.read();
        assert_eq!(*g0 + *g1, 1);
    }

    #[test]
    #[cfg_attr(
        any(debug_assertions, feature = "sim-faults"),
        should_panic(expected = "lock-order violation")
    )]
    fn descending_same_rank_keys_panic_in_debug() {
        let n0 = OrderedRwLock::keyed(LockRank::Node, 0, 0u32);
        let n1 = OrderedRwLock::keyed(LockRank::Node, 1, 1u32);
        let g1 = n1.read();
        let g0 = n0.read();
        assert_eq!(*g0 + *g1, 1);
    }

    #[test]
    #[cfg_attr(
        any(debug_assertions, feature = "sim-faults"),
        should_panic(expected = "lock-order violation")
    )]
    fn non_reentrant_same_rank_panics_in_debug() {
        let a = OrderedRwLock::new(LockRank::Archive, 1u32);
        let b = OrderedRwLock::new(LockRank::Archive, 2u32);
        let ga = a.read();
        let gb = b.read();
        assert_eq!(*ga + *gb, 3);
    }

    #[test]
    fn out_of_order_drops_keep_the_held_set_honest() {
        let archive = OrderedRwLock::new(LockRank::Archive, 1u32);
        let directory = OrderedRwLock::new(LockRank::Directory, 2u32);
        let a = archive.read();
        let d = directory.read();
        drop(a); // outer released first
        drop(d);
        // Both released: the full hierarchy is available again.
        let objects = OrderedRwLock::new(LockRank::ObjectMap, 0u32);
        {
            let _g = objects.write();
        }
        let _a = archive.write();
    }

    #[test]
    fn release_after_inner_drop_allows_reacquisition() {
        let archive = OrderedRwLock::new(LockRank::Archive, 7u32);
        {
            let inner = archive.read();
            assert_eq!(*inner, 7);
        }
        let mut w = archive.write();
        *w += 1;
        assert_eq!(*w, 8);
    }
}
