//! The delta-aware decoded-version cache shared by every serving layer.
//!
//! SEC stores only deltas, so a read of version `l` walks a chain whose
//! length grows with `l`'s distance from the nearest stored full version.
//! Exact-hit caching wastes most of that work: after decoding version `v`,
//! a read of `v + 1` needs only one more delta, yet an exact-hit cache
//! re-walks the entire chain. [`DeltaCache`] therefore indexes the decoded
//! versions of one archive by version number and answers *nearest-base*
//! queries — "the closest cached version at or below the target" for the
//! forward strategies ([`DeltaCache::nearest_at_most`]) and "at or above"
//! for Reversed SEC, whose walk un-applies deltas backwards
//! ([`DeltaCache::nearest_at_least`]).
//!
//! Lookups take `&self` (the recency touch is an atomic store under a read
//! lock), so cached retrievals from many concurrent readers never serialize
//! on the cache. A capacity of zero disables the cache entirely: lookups
//! return `None` and inserts store nothing, with **zero** bookkeeping — no
//! miss counts, no lock traffic, no slot allocation — so a disabled cache is
//! indistinguishable from no cache at all in both metrics and cost.
//!
//! An enabled cache also recycles the buffers it lets go. A value evicted,
//! or the losing value of a duplicate [`DeltaCache::insert`], whose handle
//! no reader still holds is parked as the cache's one *spare*
//! ([`DeltaCache::take_spare`]), so the owner's next version-sized buffer
//! overwrites it in place instead of allocating: the cache holds at most
//! `capacity + 1` values. A value some reader still holds is never parked,
//! so a handle keeps its bytes however many inserts follow.

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
use std::sync::{Arc, Mutex, RwLock};

/// Hit/miss statistics of a [`DeltaCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups that found exactly their target version.
    pub hits: u64,
    /// Nearest-base lookups that found a usable base other than the target
    /// itself (the walk still applies the trailing deltas).
    pub base_hits: u64,
    /// Lookups that found nothing usable.
    pub misses: u64,
    /// Versions currently cached.
    pub len: usize,
    /// Maximum number of cached versions.
    pub capacity: usize,
}

impl CacheStats {
    /// Accumulates another snapshot's counters into this one (used to
    /// aggregate many caches' statistics into fleet-wide totals; `len` and
    /// `capacity` sum as well).
    pub fn absorb(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.base_hits += other.base_hits;
        self.misses += other.misses;
        self.len += other.len;
        self.capacity += other.capacity;
    }
}

/// One cached decoded version: its key, its value, and an atomically
/// touchable recency stamp.
#[derive(Debug)]
struct CacheSlot<V> {
    version: usize,
    value: Arc<V>,
    last_used: AtomicU64,
}

/// A capacity-bounded LRU cache of one archive's decoded versions keyed by
/// version number, with shared-read nearest-base lookup.
///
/// Versions are immutable once appended (even under Reversed SEC, where only
/// the *latest-full slot* is rewritten — it then encodes a new version id),
/// so cached values never need invalidation — eviction is purely
/// capacity-driven. The design goal is that the *read path never takes an
/// exclusive lock*:
///
/// * the lookup family ([`DeltaCache::get`], [`DeltaCache::nearest_at_most`],
///   [`DeltaCache::nearest_at_least`]) takes the slot list's read lock
///   (shared among any number of readers) and performs the LRU touch by
///   storing a fresh logical timestamp into the slot's atomic — interior
///   mutability instead of a write lock;
/// * [`DeltaCache::insert`] takes the write lock only to admit a new
///   version, evicting the slot with the oldest stamp when full.
///
/// Values are handed out as [`Arc`]s so a hit costs one refcount bump, not a
/// copy of the decoded object. A value leaves the cache through the spare
/// slot ([`DeltaCache::take_spare`]) only once no handle to it is left.
#[derive(Debug)]
pub struct DeltaCache<V> {
    capacity: usize,
    clock: AtomicU64,
    hits: AtomicU64,
    base_hits: AtomicU64,
    misses: AtomicU64,
    slots: RwLock<Vec<CacheSlot<V>>>,
    /// One let-go value no handle refers to, kept for reuse; always `None`
    /// at capacity 0.
    spare: Mutex<Option<V>>,
}

impl<V> DeltaCache<V> {
    /// Creates a cache holding at most `capacity` decoded versions. A zero
    /// capacity disables the cache: every lookup returns `None` and inserts
    /// are dropped, with no bookkeeping of any kind.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            base_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            slots: RwLock::new(Vec::with_capacity(capacity)),
            spare: Mutex::new(None),
        }
    }

    /// Maximum number of cached versions.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of currently cached versions.
    pub fn len(&self) -> usize {
        #[expect(clippy::expect_used, reason = "lock poisoning only propagates a prior panic")]
        let slots = self.slots.read().expect("cache lock poisoned");
        slots.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Touches `slot`'s recency stamp and returns a handle to its value.
    fn touch(&self, slot: &CacheSlot<V>) -> Arc<V> {
        // LRU touch through the slot's atomic: no write lock needed.
        #[expect(
            clippy::disallowed_methods,
            reason = "LRU clock tick; approximate recency is acceptable"
        )]
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        #[expect(
            clippy::disallowed_methods,
            reason = "LRU stamp publish; staleness only skews eviction choice"
        )]
        slot.last_used.store(stamp, Ordering::Relaxed);
        Arc::clone(&slot.value)
    }

    /// Records the statistics outcome of one nearest-base lookup.
    fn count(&self, target: usize, found: Option<usize>) {
        let counter = match found {
            Some(version) if version == target => &self.hits,
            Some(_) => &self.base_hits,
            None => &self.misses,
        };
        #[expect(
            clippy::disallowed_methods,
            reason = "hit/miss statistic; no ordering dependency"
        )]
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Shared core of the lookup family: finds the best slot under
    /// `candidate` (which ranks acceptable versions by distance, `None`
    /// meaning unusable), touches it and records the outcome against
    /// `target`.
    fn lookup(
        &self,
        target: usize,
        candidate: impl Fn(usize) -> Option<usize>,
    ) -> Option<(usize, Arc<V>)> {
        if self.capacity == 0 {
            return None;
        }
        #[expect(clippy::expect_used, reason = "lock poisoning only propagates a prior panic")]
        let slots = self.slots.read().expect("cache lock poisoned");
        let found = slots
            .iter()
            .filter_map(|slot| candidate(slot.version).map(|rank| (rank, slot)))
            .min_by_key(|(rank, _)| *rank)
            .map(|(_, slot)| (slot.version, self.touch(slot)));
        self.count(target, found.as_ref().map(|(version, _)| *version));
        found
    }

    /// Looks up exactly `version`, touching its recency stamp and
    /// recording a hit or miss. Concurrent lookups proceed in parallel.
    ///
    /// A disabled cache (capacity 0) returns `None` without recording a
    /// miss — there is no cache to be cold.
    pub fn get(&self, version: usize) -> Option<Arc<V>> {
        self.lookup(version, |v| (v == version).then_some(0))
            .map(|(_, value)| value)
    }

    /// Returns the nearest cached base **at or below** `version` — the best
    /// starting point for a forward (Basic/Optimized SEC) delta walk. An
    /// exact match counts as a hit, a lower base as a base hit, nothing as a
    /// miss.
    pub fn nearest_at_most(&self, version: usize) -> Option<(usize, Arc<V>)> {
        self.lookup(version, |v| (v <= version).then(|| version - v))
    }

    /// Returns the nearest cached base **at or above** `version` — the best
    /// starting point for a backward (Reversed SEC) un-apply walk. An exact
    /// match counts as a hit, a higher base as a base hit, nothing as a miss.
    pub fn nearest_at_least(&self, version: usize) -> Option<(usize, Arc<V>)> {
        self.lookup(version, |v| (v >= version).then(|| v - version))
    }

    /// Admits `version`, evicting the least recently used slot when the
    /// cache is full. Returns the cached handle (the existing one
    /// when the version was already present — versions are immutable, so
    /// the first admitted value wins). The evicted value, or the losing
    /// `value` of a duplicate insert, becomes the spare when no handle to it
    /// is left.
    pub fn insert(&self, version: usize, value: V) -> Arc<V> {
        if self.capacity == 0 {
            return Arc::new(value);
        }
        #[expect(clippy::expect_used, reason = "lock poisoning only propagates a prior panic")]
        let mut slots = self.slots.write().expect("cache lock poisoned");
        if let Some(slot) = slots.iter().find(|slot| slot.version == version) {
            let winner = Arc::clone(&slot.value);
            drop(slots);
            self.park(value);
            return winner;
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "LRU clock tick; approximate recency is acceptable"
        )]
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let mut evicted = None;
        if slots.len() >= self.capacity {
            #[expect(
                clippy::expect_used,
                reason = "capacity > 0 here and len ≥ capacity, so the list is non-empty"
            )]
            #[expect(
                clippy::disallowed_methods,
                reason = "stale stamp only skews which slot is evicted"
            )]
            let oldest = slots
                .iter()
                .enumerate()
                .min_by_key(|(_, slot)| slot.last_used.load(Ordering::Relaxed))
                .map(|(idx, _)| idx)
                .expect("capacity > 0 and cache full");
            evicted = Some(slots.swap_remove(oldest).value);
        }
        let value = Arc::new(value);
        slots.push(CacheSlot {
            version,
            value: Arc::clone(&value),
            last_used: AtomicU64::new(stamp),
        });
        drop(slots);
        // A reader still holding the evicted handle keeps it alive; only the
        // last handle's bytes may be overwritten.
        if let Some(Ok(evicted)) = evicted.map(Arc::try_unwrap) {
            self.park(evicted);
        }
        value
    }

    /// Keeps `value` as the spare (replacing any older one).
    fn park(&self, value: V) {
        #[expect(clippy::expect_used, reason = "lock poisoning only propagates a prior panic")]
        let mut spare = self.spare.lock().expect("cache spare lock poisoned");
        *spare = Some(value);
    }

    /// Takes the spare: a value this cache let go of that no handle refers
    /// to any more, for the caller to overwrite in place. Always `None` for
    /// a disabled cache, which takes no lock to say so.
    pub fn take_spare(&self) -> Option<V> {
        if self.capacity == 0 {
            return None;
        }
        #[expect(clippy::expect_used, reason = "lock poisoning only propagates a prior panic")]
        let mut spare = self.spare.lock().expect("cache spare lock poisoned");
        spare.take()
    }

    /// Drops every cached version (counters are kept).
    pub fn clear(&self) {
        #[expect(clippy::expect_used, reason = "lock poisoning only propagates a prior panic")]
        self.slots.write().expect("cache lock poisoned").clear();
    }

    /// Point-in-time statistics.
    #[expect(clippy::disallowed_methods, reason = "statistic reads")]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            base_hits: self.base_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            len: self.len(),
            capacity: self.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_get_and_counters() {
        let cache: DeltaCache<Vec<u8>> = DeltaCache::new(2);
        assert!(cache.get(1).is_none());
        assert_eq!(cache.stats().misses, 1);

        cache.insert(1, vec![1, 2, 3]);
        assert_eq!(*cache.get(1).unwrap(), vec![1, 2, 3]);
        assert_eq!(cache.stats().hits, 1);
        // Asking for a different version misses; exact get never base-hits.
        assert!(cache.get(2).is_none());
        let stats = cache.stats();
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.base_hits, 0);
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn nearest_at_most_prefers_the_closest_lower_base() {
        let cache: DeltaCache<Vec<u8>> = DeltaCache::new(4);
        cache.insert(2, vec![2]);
        cache.insert(5, vec![5]);
        // Exact match is a hit.
        assert_eq!(cache.nearest_at_most(5).unwrap().0, 5);
        // Version 4: base 2 is the only one ≤ 4.
        assert_eq!(cache.nearest_at_most(4).unwrap().0, 2);
        // Version 7: base 5 beats base 2.
        assert_eq!(cache.nearest_at_most(7).unwrap().0, 5);
        // Version 1: nothing at or below.
        assert!(cache.nearest_at_most(1).is_none());
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.base_hits, 2);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn nearest_at_least_prefers_the_closest_higher_base() {
        let cache: DeltaCache<Vec<u8>> = DeltaCache::new(4);
        cache.insert(3, vec![3]);
        cache.insert(8, vec![8]);
        assert_eq!(cache.nearest_at_least(3).unwrap().0, 3);
        assert_eq!(cache.nearest_at_least(4).unwrap().0, 8);
        assert_eq!(cache.nearest_at_least(1).unwrap().0, 3);
        assert!(cache.nearest_at_least(9).is_none());
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.base_hits, 2);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn lru_eviction() {
        let cache: DeltaCache<Vec<u8>> = DeltaCache::new(2);
        assert!(cache.is_empty());
        cache.insert(1, vec![1]);
        cache.insert(2, vec![2]);
        // Touch version 1 so version 2 is the LRU.
        assert_eq!(*cache.get(1).unwrap(), vec![1]);
        cache.insert(3, vec![3]);
        assert_eq!(cache.len(), 2);
        assert!(cache.get(2).is_none(), "LRU entry evicted");
        assert!(cache.get(1).is_some());
        assert!(cache.get(3).is_some());
        let stats = cache.stats();
        assert_eq!(stats.capacity, 2);
        assert_eq!(stats.len, 2);
        assert_eq!(stats.hits, 3);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn first_value_wins_and_zero_capacity_disables() {
        let cache: DeltaCache<Vec<u8>> = DeltaCache::new(2);
        let first = cache.insert(1, vec![1]);
        let second = cache.insert(1, vec![99]);
        assert!(Arc::ptr_eq(&first, &second), "versions are immutable");
        assert_eq!(*second, vec![1]);

        let disabled: DeltaCache<Vec<u8>> = DeltaCache::new(0);
        disabled.insert(1, vec![1]);
        assert!(disabled.get(1).is_none());
        assert!(disabled.nearest_at_most(1).is_none());
        assert!(disabled.nearest_at_least(1).is_none());
        // A disabled cache is not "cold": lookups record no bookkeeping.
        assert_eq!(
            disabled.stats(),
            CacheStats {
                hits: 0,
                base_hits: 0,
                misses: 0,
                len: 0,
                capacity: 0,
            }
        );
    }

    #[test]
    fn a_held_handle_keeps_its_bytes_through_evicting_inserts() {
        // The owner's loop: every insert first overwrites the spare, as an
        // append's pre-warm or a miss's decode does, and evicts the LRU.
        let cache: DeltaCache<Vec<u8>> = DeltaCache::new(2);
        cache.insert(1, vec![1; 64]);
        let held = cache.get(1).unwrap();
        for v in 2..40u8 {
            let mut buf = cache.take_spare().unwrap_or_default();
            assert_ne!(buf.as_ptr(), held.as_ptr(), "a held value is never handed out");
            buf.clear();
            buf.extend_from_slice(&[v; 64]);
            cache.insert(usize::from(v), buf);
            assert_eq!(*held, vec![1; 64], "after inserting version {v}");
        }
        assert!(cache.get(1).is_none(), "version 1 was evicted while held");
        // Versions nobody holds are recycled, one spare at a time.
        assert!(cache.take_spare().is_some());
        assert!(cache.take_spare().is_none(), "at most one spare");
    }

    #[test]
    fn a_duplicate_insert_returns_the_winner_and_parks_the_loser() {
        let cache: DeltaCache<Vec<u8>> = DeltaCache::new(2);
        let first = cache.insert(1, vec![1; 8]);
        let loser = vec![99; 8];
        let loser_at = loser.as_ptr();
        let second = cache.insert(1, loser);
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(*second, vec![1; 8]);
        let spare = cache.take_spare().unwrap();
        assert_eq!(spare.as_ptr(), loser_at, "the losing value is the spare");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn a_disabled_cache_never_parks_a_spare() {
        let disabled: DeltaCache<Vec<u8>> = DeltaCache::new(0);
        for v in 0..4 {
            disabled.insert(v, vec![0; 8]);
            disabled.insert(v, vec![1; 8]);
            assert!(disabled.take_spare().is_none());
        }
    }

    #[test]
    fn stats_absorb_sums_every_field() {
        let mut total = CacheStats {
            hits: 1,
            base_hits: 2,
            misses: 3,
            len: 4,
            capacity: 5,
        };
        total.absorb(&CacheStats {
            hits: 10,
            base_hits: 20,
            misses: 30,
            len: 40,
            capacity: 50,
        });
        assert_eq!(
            total,
            CacheStats {
                hits: 11,
                base_hits: 22,
                misses: 33,
                len: 44,
                capacity: 55,
            }
        );
    }

    #[test]
    fn shared_reads() {
        let cache: Arc<DeltaCache<Vec<u8>>> = Arc::new(DeltaCache::new(4));
        for v in 1..=4 {
            cache.insert(v, vec![v as u8]);
        }
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    for i in 0..100 {
                        let v = (t + i) % 4 + 1;
                        assert_eq!(*cache.get(v).unwrap(), vec![v as u8]);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(cache.stats().hits, 400);
    }
}
