//! The engine's read path: [`SecEngine::get_version`] and
//! [`SecEngine::get_prefix`], the delta cache in front of them and the node
//! reads behind them.
//!
//! Both are one walk ([`VersionWalk`], [`PrefixWalk`]): the read plans every
//! entry its walk touches before it locks a node, from one liveness snapshot
//! per slab ([`WalkSlabs`]); then the fold read-locks the planned nodes
//! ([`lock_walk_nodes`]) and decodes. [`VersionWalk::fold`] sums the
//! full-plan entries that share a position set and decodes each sum once,
//! so it holds every planned node for the whole decode; [`PrefixWalk::fold`]
//! decodes entry by entry because every version is an output, so it holds
//! one entry's planned nodes at a time and an append waits for at most one
//! entry's decode, not the whole prefix. A repair reads its `k` sources per
//! entry through the same [`WalkSlabs`] and [`lock_walk_nodes`].

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use std::sync::atomic::Ordering;
use std::sync::Arc;

use sec_erasure::read_plan::{plan_read, ReadPlan, ReadTarget};
use sec_erasure::ByteShards;
use sec_store::node::StorageNode;
use sec_store::StoreError;
use sec_versioning::walk::{PrefixWalk, VersionWalk};
use sec_versioning::{ArchiveLedger, EncodingStrategy, StoredPayload};

use crate::engine::{EnginePrefix, EngineRetrieval, NodeSlab, SecEngine};
use crate::ordered::OrderedReadGuard;

impl SecEngine {
    /// Retrieves version `l` (1-based), reading blocks only from live nodes
    /// under the SEC read plan (`2γ` block reads per exploitable delta, `k`
    /// otherwise). The delta cache is consulted for the nearest usable
    /// anchor first: an exact hit costs zero reads, and a cached neighbour
    /// lets the walk pay only for the deltas between it and `l` instead of
    /// rewinding to a stored full version.
    ///
    /// Every entry the walk touches is planned first; then each planned node
    /// is read-locked once, for the whole decode, and the full-plan entries
    /// that read the same nodes are decoded as one sum.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Unrecoverable`] when too many nodes have
    /// failed, [`StoreError::Versioning`] for an invalid `l`, or
    /// [`StoreError::Code`] for a corrupt block.
    pub fn get_version(&self, l: usize) -> Result<EngineRetrieval, StoreError> {
        let archive = self.read_archive();
        archive.check_version(l)?;
        self.metrics.add_retrieval();
        // Probe the cache only for a validated version, so an out-of-range
        // request can never register as a (phantom) cache miss.
        let anchor = match self.cached_anchor(archive.config().strategy(), l) {
            Some((version, data)) if version == l => {
                return Ok(EngineRetrieval {
                    version: l,
                    data,
                    io_reads: 0,
                    cached: true,
                });
            }
            anchor => anchor,
        };
        let snap = Snapshot::take(archive);
        let mut slabs = WalkSlabs::new(self);
        #[expect(
            clippy::indexing_slicing,
            reason = "`idx` comes from the walk, which stays within 0..layout.len()"
        )]
        let walk = VersionWalk::plan(
            snap.strategy,
            snap.layout.len(),
            |idx| snap.layout[idx],
            l,
            self.anchor_shards(anchor),
            |idx, target| slabs.plan(idx, target),
        )
        .recycling(|| self.cache.take_spare());
        let out = walk.fold(
            &self.codec,
            |reads| lock_walk_nodes(&slabs, reads),
            |held, idx, position| held.block(idx, position),
        )?;
        self.count_anchored_deltas(out.anchor_used, out.entries_read);
        let data = self.cache.insert(l, out.shards.into_flat(snap.object_len));
        Ok(EngineRetrieval {
            version: l,
            data,
            io_reads: out.io_reads,
            cached: out.anchor_used,
        })
    }

    /// Retrieves the first `l` versions in order.
    ///
    /// Only Reversed SEC consults the delta cache here: its backward chain
    /// can anchor the whole prefix walk on any cached tail ≥ `l`, saving the
    /// full-copy read. The forward strategies read every stored entry below
    /// `l` regardless, so a probe would be bookkeeping with no read savings
    /// — their accounting stays bit-compatible with the reference archive.
    ///
    /// Every entry is planned first, as for a version; then each entry's
    /// planned nodes are read-locked only while that entry is read and
    /// decoded.
    ///
    /// # Errors
    ///
    /// As for [`SecEngine::get_version`].
    pub fn get_prefix(&self, l: usize) -> Result<EnginePrefix, StoreError> {
        let archive = self.read_archive();
        archive.check_version(l)?;
        self.metrics.add_retrieval();
        let tail = match archive.config().strategy() {
            EncodingStrategy::ReversedSec => self.cached_anchor(EncodingStrategy::ReversedSec, l),
            _ => None,
        };
        let snap = Snapshot::take(archive);
        let mut slabs = WalkSlabs::new(self);
        #[expect(
            clippy::indexing_slicing,
            reason = "`idx` comes from the walk, which stays within 0..layout.len()"
        )]
        let walk = PrefixWalk::plan(
            snap.strategy,
            snap.layout.len(),
            |idx| snap.layout[idx],
            l,
            self.anchor_shards(tail),
            |idx, target| slabs.plan(idx, target),
        );
        let out = walk.fold(
            &self.codec,
            snap.object_len,
            |reads| lock_walk_nodes(&slabs, reads),
            |held, idx, position| held.block(idx, position),
        )?;
        self.count_anchored_deltas(out.anchor_used, out.entries_read);
        Ok(EnginePrefix {
            versions: out.versions,
            io_reads: out.io_reads,
            cached: out.anchor_used,
        })
    }

    /// The nearest cached decoded version `strategy`'s delta chain can
    /// extend to reach `l`: Basic/Optimized walk forward from a version
    /// ≤ `l`, Reversed walks backward from a version ≥ `l`, and
    /// NonDifferential (no deltas) can use only an exact copy.
    fn cached_anchor(&self, strategy: EncodingStrategy, l: usize) -> Option<(usize, Arc<Vec<u8>>)> {
        match strategy {
            EncodingStrategy::BasicSec | EncodingStrategy::OptimizedSec => self.cache.nearest_at_most(l),
            EncodingStrategy::ReversedSec => self.cache.nearest_at_least(l),
            EncodingStrategy::NonDifferential => self.cache.get(l).map(|data| (l, data)),
        }
    }

    /// Re-shards a cached flat version into the `k` data shards a walk
    /// starts from, overwriting the cache's spare buffer when it has one.
    fn anchor_shards(&self, anchor: Option<(usize, Arc<Vec<u8>>)>) -> Option<(usize, ByteShards)> {
        let k = self.codec.code().k();
        anchor.map(|(version, data)| {
            let buf = self.cache.take_spare().unwrap_or_default();
            (version, ByteShards::from_flat_in(&data, k, buf))
        })
    }

    /// Feeds [`EngineMetrics::deltas_applied`](crate::EngineMetrics::deltas_applied):
    /// the stored entries a walk XOR-applied on top of a cached anchor.
    fn count_anchored_deltas(&self, anchor_used: bool, entries_read: usize) {
        if anchor_used {
            let applied = entries_read as u64;
            #[expect(clippy::disallowed_methods, reason = "statistic")]
            self.deltas_applied.fetch_add(applied, Ordering::Relaxed);
        }
    }
}

/// The ledger metadata one walk needs, taken under the archive read lock.
///
/// Basic/Optimized/NonDifferential archives are append-only: existing
/// entries and their node blocks never change, so once the layout is copied
/// the walk runs without the archive lock and a concurrent `append_version`
/// no longer blocks readers (this is what makes the per-node lock sharding
/// real). An append still write-locks every node of the slab it writes —
/// all of them on a colocated engine — while holding the archive write
/// lock, so it waits for any reader holding one of those nodes: a version
/// read for its whole decode, a prefix read for one entry's. Reversed SEC
/// rewrites the trailing full-copy slot in place on every append, so its
/// readers keep the guard to pin that slot.
struct Snapshot<'a> {
    strategy: EncodingStrategy,
    object_len: usize,
    layout: Vec<StoredPayload>,
    _pin: Option<OrderedReadGuard<'a, ArchiveLedger>>,
}

impl<'a> Snapshot<'a> {
    fn take(archive: OrderedReadGuard<'a, ArchiveLedger>) -> Self {
        let strategy = archive.config().strategy();
        Self {
            strategy,
            object_len: archive.object_len().unwrap_or(0),
            layout: archive.layout().to_vec(),
            _pin: (strategy == EncodingStrategy::ReversedSec).then_some(archive),
        }
    }
}

/// One slab a walk reads and the positions of it that were live when the
/// walk first touched it.
struct TouchedSlab {
    idx: usize,
    slab: NodeSlab,
    live: Vec<usize>,
}

/// The slabs one walk reads, each fetched from the directory and its
/// liveness snapshotted once, on the walk's first touch: every entry of a
/// colocated engine lives on slab 0, every entry of a dispersed one on its
/// own slab. All of it happens while planning, before any node is locked.
pub(crate) struct WalkSlabs<'e> {
    engine: &'e SecEngine,
    /// Ascending by slab index.
    touched: Vec<TouchedSlab>,
}

impl<'e> WalkSlabs<'e> {
    pub(crate) fn new(engine: &'e SecEngine) -> Self {
        Self {
            engine,
            touched: Vec::new(),
        }
    }

    /// Touched slab `idx`, if the walk has touched it.
    fn get(&self, idx: usize) -> Option<&TouchedSlab> {
        let at = self
            .touched
            .binary_search_by_key(&idx, |touched| touched.idx)
            .ok()?;
        self.touched.get(at)
    }

    /// The positions of `entry`'s slab that were live when the walk first
    /// touched it, ascending. The first touch fetches the slab and
    /// snapshots its liveness.
    pub(crate) fn live(&mut self, entry: usize) -> &[usize] {
        let (idx, _) = self.engine.strategy.slab_slot(entry);
        let at = match self.touched.binary_search_by_key(&idx, |touched| touched.idx) {
            Ok(at) => at,
            Err(at) => {
                let slab = self.engine.slab(idx);
                let live = (0..slab.alive.len())
                    .filter(|&p| slab.alive.is_alive(p))
                    .collect();
                self.touched.insert(at, TouchedSlab { idx, slab, live });
                at
            }
        };
        #[expect(clippy::indexing_slicing, reason = "`at` was just found or inserted")]
        let live = &self.touched[at].live;
        live
    }

    /// Plans a read of `target` from `entry`'s live positions — lock-free:
    /// liveness comes from the walk's snapshot of the slab's atomics.
    fn plan(&mut self, entry: usize, target: ReadTarget) -> Result<ReadPlan, StoreError> {
        let code = self.engine.codec.code();
        plan_read(code, self.live(entry), target).map_err(|_| StoreError::Unrecoverable { entry })
    }
}

/// Read guards on every node a walk's planned reads name.
pub(crate) struct HeldNodes<'s> {
    walk: &'s WalkSlabs<'s>,
    /// One guard per `(slab index, position)`, ascending.
    guards: Vec<((usize, usize), OrderedReadGuard<'s, StorageNode>)>,
}

impl HeldNodes<'_> {
    /// Entry `entry`'s block at `position`, read from its held node and
    /// counted.
    pub(crate) fn block(&self, entry: usize, position: usize) -> Result<&[u8], StoreError> {
        let engine = self.walk.engine;
        let (slab, slot) = engine.strategy.slab_slot(entry);
        let block = (self.guards)
            .binary_search_by_key(&(slab, position), |(node, _)| *node)
            .ok()
            .and_then(|at| self.guards.get(at))
            .and_then(|(_, node)| node.read(slot));
        // Liveness was snapshotted at plan time and lives outside the node,
        // so a concurrent `fail_node` cannot abort an admitted read: only an
        // absent block (or an injected fault) fails here. Every planned
        // read's node is held, so a missing guard is unreachable.
        let Some(block) = block else {
            engine.metrics.add_failed_read();
            return Err(StoreError::Unrecoverable { entry });
        };
        engine.metrics.add_symbol_reads(1);
        Ok(block)
    }
}

/// Read-locks every node `reads` (a walk's `(entry, positions)` reads) name,
/// each once however many entries read it, in ascending `(slab, position)`
/// order — ascending node id, the one order that keeps the lock graph
/// acyclic. Every slab named was touched while planning.
pub(crate) fn lock_walk_nodes<'s>(
    slabs: &'s WalkSlabs<'s>,
    reads: &[(usize, &[usize])],
) -> HeldNodes<'s> {
    let strategy = slabs.engine.strategy;
    let mut wanted: Vec<(usize, usize)> = reads
        .iter()
        .flat_map(|&(entry, positions)| {
            let (slab, _) = strategy.slab_slot(entry);
            positions.iter().map(move |&position| (slab, position))
        })
        .collect();
    wanted.sort_unstable();
    wanted.dedup();
    let guards = wanted
        .into_iter()
        .filter_map(|(slab, position)| {
            let node = slabs.get(slab)?.slab.nodes.get(position)?;
            Some(((slab, position), node.read()))
        })
        .collect();
    HeldNodes { walk: slabs, guards }
}
