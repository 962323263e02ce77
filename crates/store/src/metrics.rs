//! I/O accounting for the simulated store.
//!
//! The live counters are [`AtomicIoMetrics`] so that read paths can record
//! I/O under a shared `&self` borrow — the whole point of the SEC design is
//! that retrieval is cheap, so a store must be able to serve many readers
//! concurrently without serializing on a metrics mutex. Callers observe the
//! counters through [`IoMetrics`], an immutable point-in-time snapshot.

use core::sync::atomic::{AtomicU64, Ordering};

/// A point-in-time snapshot of the counters accumulated by a store (see
/// [`AtomicIoMetrics`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IoMetrics {
    /// Symbols read from live nodes.
    pub symbol_reads: u64,
    /// Symbols written to nodes (initial placement plus repairs).
    pub symbol_writes: u64,
    /// Read requests that could not be served because the node was dead or
    /// missing the symbol.
    pub failed_reads: u64,
    /// Number of retrieval operations performed.
    pub retrievals: u64,
    /// Number of repair operations performed.
    pub repairs: u64,
}

impl IoMetrics {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resets every counter to zero.
    pub fn reset(&mut self) {
        *self = Self::default();
    }

    /// Accumulates another snapshot's counters into this one (used to
    /// aggregate per-shard or per-object metrics into cluster totals).
    pub fn absorb(&mut self, other: &IoMetrics) {
        self.symbol_reads += other.symbol_reads;
        self.symbol_writes += other.symbol_writes;
        self.failed_reads += other.failed_reads;
        self.retrievals += other.retrievals;
        self.repairs += other.repairs;
    }

    /// Average symbol reads per retrieval, or `None` before any retrieval.
    pub fn reads_per_retrieval(&self) -> Option<f64> {
        if self.retrievals == 0 {
            None
        } else {
            Some(self.symbol_reads as f64 / self.retrievals as f64)
        }
    }
}

impl core::fmt::Display for IoMetrics {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "reads={} writes={} failed_reads={} retrievals={} repairs={}",
            self.symbol_reads, self.symbol_writes, self.failed_reads, self.retrievals, self.repairs
        )
    }
}

/// Live I/O counters, updatable under a shared borrow.
///
/// Every mutator is `&self` (relaxed atomic increments — the counters are
/// statistics, not synchronization), so retrieval paths can stay `&self` and
/// run concurrently. [`AtomicIoMetrics::snapshot`] freezes the current values
/// into an [`IoMetrics`].
#[derive(Debug, Default)]
pub struct AtomicIoMetrics {
    symbol_reads: AtomicU64,
    symbol_writes: AtomicU64,
    failed_reads: AtomicU64,
    retrievals: AtomicU64,
    repairs: AtomicU64,
}

impl AtomicIoMetrics {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts `n` symbol reads.
    pub fn add_symbol_reads(&self, n: u64) {
        #[expect(
            clippy::disallowed_methods,
            reason = "independent monotonic counter; only totals are observed"
        )]
        self.symbol_reads.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts `n` symbol writes.
    pub fn add_symbol_writes(&self, n: u64) {
        #[expect(
            clippy::disallowed_methods,
            reason = "independent monotonic counter; only totals are observed"
        )]
        self.symbol_writes.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts one read that hit a dead node or a missing symbol.
    pub fn add_failed_read(&self) {
        #[expect(
            clippy::disallowed_methods,
            reason = "independent monotonic counter; only totals are observed"
        )]
        self.failed_reads.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one retrieval operation.
    pub fn add_retrieval(&self) {
        #[expect(
            clippy::disallowed_methods,
            reason = "independent monotonic counter; only totals are observed"
        )]
        self.retrievals.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one repair operation.
    pub fn add_repair(&self) {
        #[expect(
            clippy::disallowed_methods,
            reason = "independent monotonic counter; only totals are observed"
        )]
        self.repairs.fetch_add(1, Ordering::Relaxed);
    }

    /// Freezes the current counter values into a snapshot.
    #[expect(
        clippy::disallowed_methods,
        reason = "counter totals; no cross-counter order claimed"
    )]
    pub fn snapshot(&self) -> IoMetrics {
        IoMetrics {
            symbol_reads: self.symbol_reads.load(Ordering::Relaxed),
            symbol_writes: self.symbol_writes.load(Ordering::Relaxed),
            failed_reads: self.failed_reads.load(Ordering::Relaxed),
            retrievals: self.retrievals.load(Ordering::Relaxed),
            repairs: self.repairs.load(Ordering::Relaxed),
        }
    }

    /// Resets every counter to zero.
    ///
    /// Prefer [`AtomicIoMetrics::take`] when the pre-reset values matter: a
    /// `snapshot()` followed by `reset()` loses any increments that land
    /// between the two calls.
    pub fn reset(&self) {
        self.take();
    }

    /// Atomically swaps every counter to zero and returns the values that
    /// were cleared.
    ///
    /// Each counter is drained with a single atomic swap, so across reset
    /// epochs every increment is reported exactly once — concurrent
    /// increments land either in the returned snapshot or in the fresh
    /// epoch, never in both and never in neither.
    #[expect(
        clippy::disallowed_methods,
        reason = "per-counter atomic swap; no cross-counter order claimed"
    )]
    pub fn take(&self) -> IoMetrics {
        IoMetrics {
            symbol_reads: self.symbol_reads.swap(0, Ordering::Relaxed),
            symbol_writes: self.symbol_writes.swap(0, Ordering::Relaxed),
            failed_reads: self.failed_reads.swap(0, Ordering::Relaxed),
            retrievals: self.retrievals.swap(0, Ordering::Relaxed),
            repairs: self.repairs.swap(0, Ordering::Relaxed),
        }
    }
}

impl Clone for AtomicIoMetrics {
    fn clone(&self) -> Self {
        let s = self.snapshot();
        Self {
            symbol_reads: AtomicU64::new(s.symbol_reads),
            symbol_writes: AtomicU64::new(s.symbol_writes),
            failed_reads: AtomicU64::new(s.failed_reads),
            retrievals: AtomicU64::new(s.retrievals),
            repairs: AtomicU64::new(s.repairs),
        }
    }
}

impl From<&AtomicIoMetrics> for IoMetrics {
    fn from(m: &AtomicIoMetrics) -> Self {
        m.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_averages() {
        let mut m = IoMetrics::new();
        assert_eq!(m.reads_per_retrieval(), None);
        m.symbol_reads = 10;
        m.retrievals = 4;
        assert_eq!(m.reads_per_retrieval(), Some(2.5));
        let s = m.to_string();
        assert!(s.contains("reads=10"));
        assert!(s.contains("retrievals=4"));
        m.reset();
        assert_eq!(m, IoMetrics::default());
    }

    #[test]
    fn atomic_counters_snapshot_and_reset() {
        let m = AtomicIoMetrics::new();
        m.add_symbol_reads(3);
        m.add_symbol_reads(2);
        m.add_symbol_writes(7);
        m.add_failed_read();
        m.add_retrieval();
        m.add_repair();
        let snap = m.snapshot();
        assert_eq!(snap.symbol_reads, 5);
        assert_eq!(snap.symbol_writes, 7);
        assert_eq!(snap.failed_reads, 1);
        assert_eq!(snap.retrievals, 1);
        assert_eq!(snap.repairs, 1);
        assert_eq!(IoMetrics::from(&m), snap);
        let cloned = m.clone();
        assert_eq!(cloned.snapshot(), snap);
        m.reset();
        assert_eq!(m.snapshot(), IoMetrics::default());
        // The clone kept its own counters.
        assert_eq!(cloned.snapshot(), snap);
    }

    #[test]
    fn take_drains_counters_exactly_once() {
        let m = AtomicIoMetrics::new();
        m.add_symbol_reads(4);
        m.add_retrieval();
        let drained = m.take();
        assert_eq!(drained.symbol_reads, 4);
        assert_eq!(drained.retrievals, 1);
        assert_eq!(m.snapshot(), IoMetrics::default());
        // A second take reports nothing: the counters were already drained.
        assert_eq!(m.take(), IoMetrics::default());
    }

    #[test]
    fn absorb_accumulates_totals() {
        let mut total = IoMetrics::new();
        let a = IoMetrics {
            symbol_reads: 3,
            symbol_writes: 1,
            failed_reads: 0,
            retrievals: 2,
            repairs: 0,
        };
        let b = IoMetrics {
            symbol_reads: 5,
            symbol_writes: 0,
            failed_reads: 1,
            retrievals: 1,
            repairs: 1,
        };
        total.absorb(&a);
        total.absorb(&b);
        assert_eq!(total.symbol_reads, 8);
        assert_eq!(total.symbol_writes, 1);
        assert_eq!(total.failed_reads, 1);
        assert_eq!(total.retrievals, 3);
        assert_eq!(total.repairs, 1);
    }

    #[test]
    fn atomic_counters_shared_across_threads() {
        let m = std::sync::Arc::new(AtomicIoMetrics::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let m = std::sync::Arc::clone(&m);
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        m.add_symbol_reads(1);
                        m.add_retrieval();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = m.snapshot();
        assert_eq!(snap.symbol_reads, 400);
        assert_eq!(snap.retrievals, 400);
        assert_eq!(snap.reads_per_retrieval(), Some(1.0));
    }
}
