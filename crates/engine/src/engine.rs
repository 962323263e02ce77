//! The [`SecEngine`]: a sharded-lock serving layer over a byte archive and
//! its distributed storage nodes, generic over the paper's §IV placement
//! strategies.

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
use std::sync::Arc;

use crate::ordered::{LockRank, OrderedReadGuard, OrderedRwLock};

/// Liveness of `n` storage nodes, outside every lock.
///
/// Kept in its own (crate-internal) type so a [`SecCluster`](crate::SecCluster)
/// shard can share one liveness array across the per-object engines that live
/// on the same physical nodes: failing a shard's node is then a single atomic
/// update observed by every object's read planner at once.
///
/// Each node's word packs `epoch << 1 | alive`: the failure *epoch* counts
/// how many times the node has failed. A repair snapshots the epoch before
/// rebuilding (see [`SecEngine::repair_node`]) and commits its concluding
/// revive with [`NodeLiveness::try_commit_repair`], which refuses if the node
/// failed again while the rebuild ran — the raced repair's blocks may miss
/// writes that landed after the new failure, so reviving would serve a node
/// the rebuild never saw.
#[derive(Debug)]
pub(crate) struct NodeLiveness {
    state: Vec<AtomicU64>,
}

/// Low bit of a liveness word: the node is currently alive.
const ALIVE_BIT: u64 = 1;

impl NodeLiveness {
    pub(crate) fn new(n: usize) -> Self {
        Self {
            state: (0..n).map(|_| AtomicU64::new(ALIVE_BIT)).collect(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.state.len()
    }

    /// Whether node `node` is live (out-of-range reads as dead).
    #[expect(
        clippy::disallowed_methods,
        reason = "Acquire pairs with the AcqRel updates in fail/revive/try_commit_repair"
    )]
    pub(crate) fn is_alive(&self, node: usize) -> bool {
        debug_assert!(node < self.state.len(), "liveness query out of range");
        let Some(state) = self.state.get(node) else {
            return false;
        };
        state.load(Ordering::Acquire) & ALIVE_BIT != 0
    }

    /// Marks node `node` failed and bumps its failure epoch (even if it was
    /// already dead: each `fail` is a distinct failure event, and an
    /// in-flight repair must observe it).
    pub(crate) fn fail(&self, node: usize) {
        debug_assert!(node < self.state.len(), "liveness update out of range");
        if let Some(state) = self.state.get(node) {
            let bump = |v: u64| Some(((v >> 1) + 1) << 1);
            #[expect(
                clippy::disallowed_methods,
                reason = "AcqRel: the epoch bump must be visible to a racing repair's \
                          try_commit_repair, which reads with Acquire"
            )]
            let _ = state.fetch_update(Ordering::AcqRel, Ordering::Acquire, bump);
        }
    }

    /// Marks node `node` live without touching its epoch (a crash-recovery
    /// revive: the node returns with whatever blocks it already held).
    pub(crate) fn revive(&self, node: usize) {
        debug_assert!(node < self.state.len(), "liveness update out of range");
        if let Some(state) = self.state.get(node) {
            #[expect(
                clippy::disallowed_methods,
                reason = "AcqRel pairs with the Acquire loads in is_alive/epoch"
            )]
            let _ = state.fetch_update(Ordering::AcqRel, Ordering::Acquire, |v| Some(v | ALIVE_BIT));
        }
    }

    /// The node's current failure epoch (out-of-range reads as 0).
    #[expect(
        clippy::disallowed_methods,
        reason = "Acquire pairs with the AcqRel updates in fail"
    )]
    pub(crate) fn epoch(&self, node: usize) -> u64 {
        debug_assert!(node < self.state.len(), "epoch query out of range");
        self.state.get(node).map_or(0, |s| s.load(Ordering::Acquire) >> 1)
    }

    /// Commits a repair's concluding revive if and only if the node's epoch
    /// is still `observed_epoch` (no failure landed while the repair's
    /// rebuild ran). Returns whether the revive was committed.
    pub(crate) fn try_commit_repair(&self, node: usize, observed_epoch: u64) -> bool {
        debug_assert!(node < self.state.len(), "repair commit out of range");
        let Some(state) = self.state.get(node) else {
            return false;
        };
        #[expect(
            clippy::disallowed_methods,
            reason = "AcqRel CAS: the commit must observe any epoch bump from a racing fail, \
                      which updates with AcqRel"
        )]
        let commit = state.fetch_update(Ordering::AcqRel, Ordering::Acquire, |v| {
            (v >> 1 == observed_epoch).then_some(v | ALIVE_BIT)
        });
        commit.is_ok()
    }

    pub(crate) fn live_count(&self) -> usize {
        (0..self.len()).filter(|&i| self.is_alive(i)).count()
    }
}

use sec_erasure::ByteCodec;
use sec_store::fault;
use sec_store::node::StorageNode;
use sec_store::{AtomicIoMetrics, FailurePattern, IoMetrics, Placement, PlacementStrategy, StoreError};
use sec_versioning::object::VersionId;
use sec_versioning::{ArchiveConfig, ArchiveLedger, CacheStats, DeltaCache, VersioningError};

use crate::read::{lock_walk_nodes, WalkSlabs};

/// Result of one engine retrieval.
#[derive(Debug, Clone)]
pub struct EngineRetrieval {
    /// The 1-based version number that was retrieved.
    pub version: usize,
    /// The reconstructed byte object. Shared so cache hits cost a refcount
    /// bump, not a copy.
    pub data: Arc<Vec<u8>>,
    /// Block reads spent serving this retrieval (0 on an exact cache hit,
    /// only the delta chain's reads when a cached base was extended).
    pub io_reads: usize,
    /// Whether the delta cache contributed to this retrieval — an exact hit
    /// or a nearest-base walk. When set, `io_reads` may undercut the
    /// uncached archive's accounting.
    pub cached: bool,
}

/// Result of retrieving the first `l` versions through the engine.
#[derive(Debug, Clone)]
pub struct EnginePrefix {
    /// The reconstructed versions `x_1, …, x_l` in order.
    pub versions: Vec<Vec<u8>>,
    /// Total block reads spent.
    pub io_reads: usize,
    /// Whether a cached Reversed-SEC tail anchored the backward walk (the
    /// forward strategies never consult the cache for prefix reads).
    pub cached: bool,
}

/// A point-in-time view of everything the engine counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineMetrics {
    /// Aggregate I/O counters (block reads/writes, retrievals, repairs).
    pub io: IoMetrics,
    /// Reads served by each storage node, by placement node id (length
    /// [`EngineMetrics::nodes`]).
    pub node_reads: Vec<u64>,
    /// Number of currently live nodes.
    pub live_nodes: usize,
    /// Total number of storage nodes the placement currently addresses —
    /// `n` under colocated placement, `n · entries` under dispersed.
    pub nodes: usize,
    /// Delta-cache statistics (exact hits, nearest-base hits, misses).
    pub cache: CacheStats,
    /// Number of versions appended so far.
    pub versions: usize,
    /// Stored entries read and XOR-applied on top of cached bases across
    /// every nearest-base retrieval served so far.
    pub deltas_applied: u64,
    /// Full versions the archive's [`CheckpointPolicy`](sec_versioning::CheckpointPolicy)
    /// forced into the chain in place of deltas.
    pub checkpoints_written: u64,
}

/// One contiguous group of `n` storage nodes plus their liveness flags: the
/// whole node set under colocated placement, one entry's private node set
/// under dispersed placement. Both handles are `Arc`s so a reader can fetch
/// a slab from the directory, release the directory lock, and keep reading
/// blocks while an append grows the directory behind it.
#[derive(Debug, Clone)]
pub(crate) struct NodeSlab {
    pub(crate) nodes: Arc<Vec<OrderedRwLock<StorageNode>>>,
    pub(crate) alive: Arc<NodeLiveness>,
}

impl NodeSlab {
    /// Slab `slab` of the directory: `n` empty nodes, node `slab·n + i` at
    /// position `i`, with the given (possibly externally shared) liveness
    /// flags.
    fn fresh(slab: usize, n: usize, alive: Arc<NodeLiveness>) -> Self {
        debug_assert_eq!(alive.len(), n);
        Self {
            nodes: Arc::new(
                (0..n)
                    .map(|i| OrderedRwLock::keyed(LockRank::Node, slab * n + i, StorageNode::default()))
                    .collect(),
            ),
            alive,
        }
    }
}

/// A concurrent SEC serving engine.
///
/// # Locking model
///
/// The engine holds three kinds of shared state, ordered so no lock is ever
/// acquired while holding a later-ordered one in reverse. Every lock is an
/// [`OrderedRwLock`] carrying its [`LockRank`] (and each node its id), so
/// debug builds assert the hierarchy at every acquisition; the documented
/// order (with the cluster object map innermost) is `docs/INVARIANTS.md` §1.
///
/// 1. **Archive** (`OrderedRwLock<ArchiveLedger>`) — the layout ledger:
///    entry metadata (payloads, sparsity levels, shard length) and the
///    plaintext tail used for delta computation, and **no coded blocks** —
///    every block lives on exactly one storage node (lock 3). Readers take
///    it shared just long enough to snapshot the layout, then release it for
///    the append-only strategies (Basic/Optimized/NonDifferential) — so an
///    in-flight `append_version` (which takes it exclusively) does not block
///    the block reads of concurrent retrievals. Reversed SEC rewrites its
///    trailing full-copy slot in place on append, so its readers hold the
///    lock for the whole walk.
/// 2. **Slab directory** (`OrderedRwLock<Vec<NodeSlab>>`) — the placement-driven
///    node map. Under colocated placement it holds one slab of `n` nodes;
///    under dispersed placement one slab of `n` fresh nodes *per stored
///    entry*, appended on `append_version`. The directory lock is held only
///    long enough to clone a slab's `Arc` handles (readers) or push new
///    slabs (appends) — never across a block read — so directory growth
///    does not block in-flight retrievals.
/// 3. **Storage nodes** (`OrderedRwLock<StorageNode>`, inside each slab) —
///    one lock per node, so a `2γ`-read sparse retrieval locks only the
///    `2γ` nodes its plan names, and writers (append, repair) lock one node
///    at a time.
/// 4. **Liveness** (one atomic array per slab) — outside every node lock.
///    Read planning is lock-free once the slab is in hand:
///    [`SecEngine::fail_node`] is a single atomic store and never blocks
///    in-flight retrievals.
///
/// Every block is addressed by [`PlacementStrategy::slab_slot`]: entry `e`'s
/// block at position `i` lives in one slot of node `i` of one slab. Node
/// id `s·n + i` is node `i` of slab `s`, so under
/// [`PlacementStrategy::Dispersed`] node `e·n + i` is position `i` of entry
/// `e`'s private node set, and failing it degrades only entry `e`. The
/// directory grows on append under the archive write lock.
///
/// Counters ([`AtomicIoMetrics`], per-node read counts, cache statistics)
/// are atomics and never require exclusive access.
///
/// Retrieval results are linearized at the archive read lock: a reader sees
/// either all of an append or none of it, and liveness is snapshotted at
/// plan time (a node failing mid-read still serves blocks it already held —
/// the crash model, where data survives on disk).
#[derive(Debug)]
pub struct SecEngine {
    archive: OrderedRwLock<ArchiveLedger>,
    pub(crate) codec: ByteCodec,
    pub(crate) strategy: PlacementStrategy,
    slabs: OrderedRwLock<Vec<NodeSlab>>,
    pub(crate) metrics: AtomicIoMetrics,
    pub(crate) cache: DeltaCache<Vec<u8>>,
    /// Stored entries XOR-applied on top of cached bases, for
    /// [`EngineMetrics::deltas_applied`].
    pub(crate) deltas_applied: AtomicU64,
}

impl SecEngine {
    /// Creates an empty engine for the given archive configuration, with the
    /// version cache disabled (every read hits the nodes — the mode whose
    /// read accounting is bit-compatible with the reference archive).
    ///
    /// # Errors
    ///
    /// Returns a versioning error when the configured code cannot be built
    /// over `GF(2^8)`.
    pub fn new(config: ArchiveConfig) -> Result<Self, StoreError> {
        Self::with_cache(config, 0)
    }

    /// Creates an empty engine whose delta cache holds up to
    /// `cache_capacity` decoded versions (0 disables caching).
    ///
    /// # Errors
    ///
    /// Returns a versioning error when the configured code cannot be built
    /// over `GF(2^8)`.
    pub fn with_cache(config: ArchiveConfig, cache_capacity: usize) -> Result<Self, StoreError> {
        Self::with_placement(config, PlacementStrategy::Colocated, cache_capacity)
    }

    /// Creates an empty engine under the given placement strategy (§IV of
    /// the paper). [`PlacementStrategy::Colocated`] is the default layout:
    /// `n` nodes, node `i` holding block position `i` of every entry.
    /// [`PlacementStrategy::Dispersed`] gives every stored entry its own
    /// fresh set of `n` nodes (appended as versions arrive), so a node
    /// failure degrades exactly one entry.
    ///
    /// # Errors
    ///
    /// Returns a versioning error when the configured code cannot be built
    /// over `GF(2^8)`.
    pub fn with_placement(
        config: ArchiveConfig,
        placement: PlacementStrategy,
        cache_capacity: usize,
    ) -> Result<Self, StoreError> {
        let ledger = ArchiveLedger::new(config)?;
        Ok(Self::build(ledger, cache_capacity, placement, None))
    }

    /// The one builder every constructor (and the cluster) funnels into:
    /// wraps a still-empty ledger in its initial slab directory (which grows
    /// on append under dispersed placement).
    ///
    /// `shared_liveness` is the cluster hook (colocated only): every
    /// per-object engine of one shard shares the shard's liveness array, so
    /// failing a shard node is one atomic store observed by every
    /// co-hosted read planner. Dispersed engines own their node space.
    pub(crate) fn build(
        ledger: ArchiveLedger,
        cache_capacity: usize,
        strategy: PlacementStrategy,
        shared_liveness: Option<Arc<NodeLiveness>>,
    ) -> Self {
        debug_assert!(ledger.is_empty(), "engines are built empty and filled by append");
        let n = ledger.code().n();
        let codec = ledger.codec().clone();
        let slabs = match strategy {
            PlacementStrategy::Colocated => {
                let alive = shared_liveness.unwrap_or_else(|| Arc::new(NodeLiveness::new(n)));
                vec![NodeSlab::fresh(0, n, alive)]
            }
            PlacementStrategy::Dispersed => {
                debug_assert!(
                    shared_liveness.is_none(),
                    "dispersed engines own their node space"
                );
                Vec::new()
            }
        };
        Self {
            archive: OrderedRwLock::new(LockRank::Archive, ledger),
            codec,
            strategy,
            slabs: OrderedRwLock::new(LockRank::Directory, slabs),
            metrics: AtomicIoMetrics::new(),
            cache: DeltaCache::new(cache_capacity),
            deltas_applied: AtomicU64::new(0),
        }
    }

    /// The archive configuration.
    pub fn config(&self) -> ArchiveConfig {
        self.read_archive().config()
    }

    /// The node placement currently in effect, over the entries stored so
    /// far. Under dispersed placement the covered entry count (and with it
    /// [`Placement::node_count`]) grows as versions are appended.
    pub fn placement(&self) -> Placement {
        let entries = self.read_archive().layout().len();
        Placement::new(self.strategy, self.codec.code().n(), entries)
    }

    /// Total number of storage nodes the engine currently addresses: `n`
    /// under colocated placement, `n · entries` under dispersed.
    pub fn node_count(&self) -> usize {
        self.slabs.read().len() * self.codec.code().n()
    }

    /// Number of versions appended so far.
    pub fn len(&self) -> usize {
        self.read_archive().len()
    }

    /// `true` when no version has been appended.
    pub fn is_empty(&self) -> bool {
        self.read_archive().is_empty()
    }

    /// Resolves a placement node id to its slab index, the slab's handles
    /// and its position in the slab, under one directory read.
    ///
    /// Node `s·n + i` is position `i` of slab `s` under either placement (a
    /// colocated engine has the one slab). The bound is the directory's
    /// current size, `slabs.len()·n`, so ids for not-yet-appended dispersed
    /// entries are [`StoreError::InvalidNode`].
    fn locate(&self, node: usize) -> Result<(usize, NodeSlab, usize), StoreError> {
        let n = self.codec.code().n();
        let slabs = self.slabs.read();
        match slabs.get(node / n) {
            Some(slab) => Ok((node / n, slab.clone(), node % n)),
            None => Err(StoreError::InvalidNode {
                node,
                n: slabs.len() * n,
            }),
        }
    }

    /// Clones the `Arc` handles of slab `idx`, holding the directory lock
    /// only for the fetch.
    pub(crate) fn slab(&self, idx: usize) -> NodeSlab {
        #[expect(
            clippy::indexing_slicing,
            reason = "private helper; callers pass a directory index they just resolved"
        )]
        let slab = self.slabs.read()[idx].clone();
        slab
    }

    /// Whether node `node` is currently live. Lock-free.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::InvalidNode`] if `node` is out of range — a bad
    /// node id is an error the caller handles, never a process abort.
    pub fn is_node_alive(&self, node: usize) -> Result<bool, StoreError> {
        let (_, slab, position) = self.locate(node)?;
        Ok(slab.alive.is_alive(position))
    }

    /// Marks a node failed. Lock-free: in-flight retrievals that already
    /// planned around the node finish normally (the crash model — blocks
    /// survive on disk), later plans exclude it. Under dispersed placement
    /// the node hosts exactly one entry, so only that entry degrades.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::InvalidNode`] if `node` is out of range, so a
    /// typo in a failure-injection script is a handled error instead of a
    /// panic inside the serving process.
    pub fn fail_node(&self, node: usize) -> Result<(), StoreError> {
        let (_, slab, position) = self.locate(node)?;
        slab.alive.fail(position);
        Ok(())
    }

    /// Revives a node, keeping whatever blocks it held (crash recovery; use
    /// [`SecEngine::repair_node`] after data loss).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::InvalidNode`] if `node` is out of range.
    pub fn revive_node(&self, node: usize) -> Result<(), StoreError> {
        let (_, slab, position) = self.locate(node)?;
        slab.alive.revive(position);
        Ok(())
    }

    /// Applies a failure pattern across the node space, indexed by placement
    /// node id (so under dispersed placement index `e·n + i` addresses
    /// position `i` of entry `e`'s node set).
    ///
    /// **Overwrite semantics:** within the pattern's length the pattern *is*
    /// the new liveness — covered nodes the pattern marks alive are revived
    /// even if they were failed before the call (so replaying a sequence of
    /// sampled patterns always leaves the cluster in the last pattern's
    /// state). Nodes beyond the pattern's length keep their liveness.
    pub fn apply_pattern(&self, pattern: &FailurePattern) {
        let slabs = self.slabs.read();
        let mut base = 0usize;
        for slab in slabs.iter() {
            for position in 0..slab.alive.len() {
                let idx = base + position;
                if pattern.is_failed(idx) {
                    slab.alive.fail(position);
                } else if idx < pattern.len() {
                    slab.alive.revive(position);
                }
            }
            base += slab.alive.len();
        }
    }

    /// Grows the slab directory to hold `entries` stored entries: under
    /// dispersed placement each new entry gets a fresh slab of `n` live
    /// nodes, and a colocated engine's one slab already holds them all.
    /// Called with the archive write lock held, so growth is atomic with the
    /// append that caused it. The directory's write lock is held only for
    /// the pushes: in-flight readers work off `Arc` handles to the slabs of
    /// entries that already existed, so appending slabs never blocks their
    /// block reads.
    fn grow_slabs(&self, entries: usize) {
        let Some(last) = entries.checked_sub(1) else {
            return;
        };
        let (needed, _) = self.strategy.slab_slot(last);
        let n = self.codec.code().n();
        let mut slabs = self.slabs.write();
        while slabs.len() <= needed {
            let slab = NodeSlab::fresh(slabs.len(), n, Arc::new(NodeLiveness::new(n)));
            slabs.push(slab);
        }
    }

    /// Appends the next version, encoding it under the configured strategy
    /// and writing every new coded block to its node. Under dispersed
    /// placement each new stored entry first gets its own fresh slab of `n`
    /// live nodes.
    ///
    /// Takes the archive lock exclusively; concurrent readers observe either
    /// the archive before the append or after it, never an intermediate
    /// state.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Versioning`] for a length mismatch or encoding
    /// failure.
    pub fn append_version(&self, object: &[u8]) -> Result<VersionId, StoreError> {
        let mut archive = self.archive.write();
        // The ledger encodes the new blocks into one buffer per block and
        // hands them over by value: one fresh entry, or for Reversed SEC two
        // (the old full copy's entry becomes the new delta and keeps its
        // slab and slot — entries never move, so addressing stays stable).
        let (id, writes) = archive.append::<Vec<Vec<u8>>>(object)?;
        // Admit the new entries' slabs into the directory before any block
        // lands.
        self.grow_slabs(archive.layout().len());
        fault::reached("engine::append::slab_grown");
        for (entry, encoded) in writes {
            let (slab, slot) = self.strategy.slab_slot(entry);
            // Every slab holds n nodes, one per coded block of the entry;
            // each block moves into its node's slot, uncopied.
            for (node, block) in self.slab(slab).nodes.iter().zip(encoded.shards) {
                node.write().put(slot, block);
                self.metrics.add_symbol_writes(1);
            }
        }
        // Pre-warm only when a cache exists; a disabled cache must not cost
        // an object copy per append. The copy overwrites the cache's spare
        // buffer when it has one. Appends never invalidate: decoded versions
        // are immutable under every strategy (Reversed SEC rewrites only its
        // *encoded* full-copy slot, and that entry carries the new version's
        // id).
        if self.cache.capacity() > 0 {
            let mut copy = self.cache.take_spare().unwrap_or_default();
            copy.clear();
            copy.extend_from_slice(object);
            self.cache.insert(id.0, copy);
        }
        Ok(id)
    }

    /// Appends every version of a sequence in order, returning the id of the
    /// last one.
    ///
    /// # Errors
    ///
    /// Propagates the first append error; versions appended before it remain
    /// served. An empty sequence on an empty engine yields
    /// [`VersioningError::EmptyArchive`].
    pub fn append_all<B: AsRef<[u8]>>(&self, versions: &[B]) -> Result<VersionId, StoreError> {
        let mut last = None;
        for version in versions {
            last = Some(self.append_version(version.as_ref())?);
        }
        match last {
            Some(id) => Ok(id),
            None => {
                if self.is_empty() {
                    Err(StoreError::Versioning(VersioningError::EmptyArchive))
                } else {
                    Ok(VersionId(self.len()))
                }
            }
        }
    }

    /// Drops every cached decoded version. Statistics and capacity are
    /// untouched.
    pub fn clear_cache(&self) {
        self.cache.clear();
    }

    /// Repairs a node after data loss: rebuilds every block it should hold
    /// from `k` live blocks per entry, then atomically replaces the node's
    /// contents and revives it. Returns the number of blocks rebuilt.
    ///
    /// The rebuild is staged: all blocks are decoded into a buffer *before*
    /// the node is touched, so a failed repair (too few live sources, a
    /// concurrent failure mid-rebuild) leaves the node's contents and
    /// liveness exactly as they were — repairing a node can never lose data
    /// that was recoverable before the call.
    ///
    /// Takes the archive lock exclusively (repairs are rare; correctness of
    /// concurrent reads against a half-rebuilt node is not worth the
    /// complexity).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Unrecoverable`] if some entry has fewer than
    /// `k` other live blocks, [`StoreError::RepairRaced`] if the node failed
    /// again while the rebuild ran (the rebuilt blocks may miss writes that
    /// landed after the new failure — re-run the repair), or
    /// [`StoreError::InvalidNode`] if `node_id` is out of range.
    pub fn repair_node(&self, node_id: usize) -> Result<usize, StoreError> {
        let (slab_idx, slab, position) = self.locate(node_id)?;
        let epoch = slab.alive.epoch(position);
        let rebuilt = self.rebuild_at(&slab, slab_idx, position)?;
        fault::reached("engine::repair::window");
        if !slab.alive.try_commit_repair(position, epoch) {
            return Err(StoreError::RepairRaced { node: node_id });
        }
        Ok(rebuilt)
    }

    /// The rebuild half of [`SecEngine::repair_node`]: stages and commits the
    /// node's contents but leaves its liveness untouched, so a cluster can
    /// rebuild the same physical node across every co-hosted object before
    /// reviving it once.
    pub(crate) fn rebuild_node(&self, node_id: usize) -> Result<usize, StoreError> {
        let (slab_idx, slab, position) = self.locate(node_id)?;
        self.rebuild_at(&slab, slab_idx, position)
    }

    /// Rebuilds the node at an already-resolved slab address.
    ///
    /// The node hosts one block of every entry stored on its slab: every
    /// entry under colocated placement, the slab's single entry under
    /// dispersed, so a dispersed rebuild decodes one entry, not the whole
    /// archive. Each entry's sources are the first `k` other positions that
    /// were live when the rebuild touched the slab, read as a walk reads
    /// them.
    fn rebuild_at(
        &self,
        slab: &NodeSlab,
        slab_idx: usize,
        position: usize,
    ) -> Result<usize, StoreError> {
        let archive = self.archive.write();
        let k = self.codec.code().k();
        let mut walk = WalkSlabs::new(self);
        let mut staged = Vec::new();
        for entry in 0..archive.layout().len() {
            let (entry_slab, slot) = self.strategy.slab_slot(entry);
            if entry_slab != slab_idx {
                continue;
            }
            let live = walk.live(entry).iter().copied();
            let sources: Vec<usize> = live.filter(|&p| p != position).take(k).collect();
            if sources.len() < k {
                return Err(StoreError::Unrecoverable { entry });
            }
            let block = {
                let held = lock_walk_nodes(&walk, &[(entry, &sources)]);
                let shares = sources
                    .iter()
                    .map(|&p| Ok((p, held.block(entry, p)?)))
                    .collect::<Result<Vec<_>, StoreError>>()?;
                self.codec.rebuild_block(&shares, position)?
            };
            staged.push((slot, block));
            fault::reached("engine::rebuild::staged");
        }
        if fault::buggify("engine::rebuild::abort") {
            // An injected mid-repair death: nothing was committed, the node
            // keeps its previous contents and stays failed.
            return Err(StoreError::Unrecoverable { entry: slab_idx });
        }
        // Commit: every block rebuilt, so replace the node's contents.
        let rebuilt = staged.len();
        #[expect(clippy::indexing_slicing, reason = "`position` was range-checked by locate")]
        slab.nodes[position].write().replace(staged);
        self.metrics.add_symbol_writes(rebuilt as u64);
        self.metrics.add_repair();
        Ok(rebuilt)
    }

    /// A point-in-time snapshot of every counter the engine maintains.
    pub fn metrics_snapshot(&self) -> EngineMetrics {
        self.metrics_view(self.metrics.snapshot())
    }

    /// Resets the aggregate I/O counters and returns the final pre-reset
    /// metrics.
    ///
    /// Each counter is drained with an atomic swap, so across reset epochs
    /// every individual increment is reported exactly once — unlike a
    /// `metrics_snapshot()` + reset pair, which loses the increments that
    /// land between the two calls. The guarantee is per *counter*, not per
    /// operation: a retrieval in flight during the reset may have its
    /// `retrievals` increment drained into the returned snapshot while its
    /// `symbol_reads` land in the fresh epoch.
    ///
    /// **What survives a reset:** only the aggregate [`EngineMetrics::io`]
    /// counters are cleared. Per-node read counters (`node_reads`), cache
    /// statistics, node liveness and the version count keep accumulating;
    /// the returned snapshot reports their current values.
    pub fn reset_metrics(&self) -> EngineMetrics {
        self.metrics_view(self.metrics.take())
    }

    /// Completes an [`EngineMetrics`] around an already-captured `io` view.
    fn metrics_view(&self, io: IoMetrics) -> EngineMetrics {
        // The version and checkpoint counts take the archive lock, which is
        // *outermost* in the engine's hierarchy: capture them before
        // acquiring the slab directory. Waiting on the archive while holding
        // the directory inverts the order used by `append_version`
        // (archive → directory) and can deadlock against a concurrent writer.
        let (versions, checkpoints_written) = {
            let archive = self.read_archive();
            (archive.len(), archive.checkpoints_written() as u64)
        };
        let cache = self.cache.stats();
        #[expect(clippy::disallowed_methods, reason = "statistic read")]
        let deltas_applied = self.deltas_applied.load(Ordering::Relaxed);
        let slabs = self.slabs.read();
        let mut node_reads = Vec::new();
        let mut live_nodes = 0usize;
        for slab in slabs.iter() {
            live_nodes += slab.alive.live_count();
            for node in slab.nodes.iter() {
                node_reads.push(node.read().reads());
            }
        }
        let nodes = node_reads.len();
        EngineMetrics {
            io,
            node_reads,
            live_nodes,
            nodes,
            cache,
            versions,
            deltas_applied,
            checkpoints_written,
        }
    }

    pub(crate) fn read_archive(&self) -> OrderedReadGuard<'_, ArchiveLedger> {
        self.archive.read()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sec_erasure::GeneratorForm;
    use sec_versioning::{ByteVersionedArchive, EncodingStrategy, StoredPayload};

    fn config(strategy: EncodingStrategy) -> ArchiveConfig {
        ArchiveConfig::new(6, 3, GeneratorForm::NonSystematic, strategy).unwrap()
    }

    /// Three versions of a 60-byte object (20-byte blocks): v2 edits one
    /// block (γ = 1), v3 edits two.
    fn versions() -> Vec<Vec<u8>> {
        let v1: Vec<u8> = (0..60).map(|i| (i * 7 + 13) as u8).collect();
        let mut v2 = v1.clone();
        v2[5] ^= 0x7C; // block 0
        let mut v3 = v2.clone();
        v3[25] ^= 0x11; // block 1
        v3[45] ^= 0x2F; // block 2
        vec![v1, v2, v3]
    }

    #[test]
    fn serves_every_strategy_and_matches_reference_reads() {
        for strategy in [
            EncodingStrategy::BasicSec,
            EncodingStrategy::OptimizedSec,
            EncodingStrategy::ReversedSec,
            EncodingStrategy::NonDifferential,
        ] {
            let engine = SecEngine::new(config(strategy)).unwrap();
            let mut reference = ByteVersionedArchive::new(config(strategy)).unwrap();
            let vs = versions();
            engine.append_all(&vs).unwrap();
            reference.append_all(&vs).unwrap();
            for (l, expect) in vs.iter().enumerate() {
                let r = engine.get_version(l + 1).unwrap();
                let want = reference.retrieve_version(l + 1).unwrap();
                assert_eq!(&*r.data, expect, "{strategy} version {}", l + 1);
                assert_eq!(r.io_reads, want.io_reads, "{strategy} version {}", l + 1);
                assert!(!r.cached);
            }
            let p = engine.get_prefix(vs.len()).unwrap();
            let want = reference.retrieve_prefix(vs.len()).unwrap();
            assert_eq!(p.versions, want.versions, "{strategy} prefix");
            assert_eq!(p.io_reads, want.io_reads, "{strategy} prefix reads");
        }
    }

    #[test]
    fn survives_n_minus_k_failures_and_repairs() {
        let engine = SecEngine::new(config(EncodingStrategy::BasicSec)).unwrap();
        let vs = versions();
        engine.append_all(&vs).unwrap();
        engine.fail_node(0).unwrap();
        engine.fail_node(3).unwrap();
        engine.fail_node(5).unwrap();
        for (l, expect) in vs.iter().enumerate() {
            assert_eq!(&*engine.get_version(l + 1).unwrap().data, expect);
        }
        // A fourth failure is fatal for full entries…
        engine.fail_node(1).unwrap();
        assert!(matches!(
            engine.get_version(1),
            Err(StoreError::Unrecoverable { .. })
        ));
        // …until a repair rebuilds a node from the survivors.
        engine.revive_node(1).unwrap();
        let rebuilt = engine.repair_node(0).unwrap();
        assert_eq!(rebuilt, 3);
        assert_eq!(*engine.get_version(3).unwrap().data, vs[2]);
        let m = engine.metrics_snapshot();
        assert_eq!(m.io.repairs, 1);
        // Nodes 3 and 5 are still failed; 0 was repaired and 1 revived.
        assert_eq!(m.live_nodes, 4);
    }

    #[test]
    fn failed_repair_preserves_recoverable_state() {
        let engine = SecEngine::new(config(EncodingStrategy::BasicSec)).unwrap();
        let vs = versions();
        engine.append_all(&vs).unwrap();
        engine.fail_node(3).unwrap();
        engine.fail_node(4).unwrap();
        engine.fail_node(5).unwrap();
        // Recoverable from {0, 1, 2} — but repairing node 0 has only two
        // other live sources, so the repair must fail *without* wiping the
        // node it was asked to rebuild.
        assert!(matches!(
            engine.repair_node(0),
            Err(StoreError::Unrecoverable { .. })
        ));
        assert!(
            engine.is_node_alive(0).unwrap(),
            "failed repair must not change liveness"
        );
        for (l, expect) in vs.iter().enumerate() {
            assert_eq!(
                &*engine.get_version(l + 1).unwrap().data,
                expect,
                "version {} must survive the failed repair",
                l + 1
            );
        }
    }

    #[test]
    fn reversed_append_rewrites_the_latest_full_slot() {
        let engine = SecEngine::new(config(EncodingStrategy::ReversedSec)).unwrap();
        let vs = versions();
        for v in &vs {
            engine.append_version(v).unwrap();
            // After every append, every version so far must still be
            // servable — the full-copy slot moved and was rewritten.
            let l = engine.len();
            for (idx, expect) in vs[..l].iter().enumerate() {
                assert_eq!(&*engine.get_version(idx + 1).unwrap().data, expect);
            }
        }
        // Latest version costs exactly k block reads.
        assert_eq!(engine.get_version(3).unwrap().io_reads, 3);
    }

    /// An identical version (γ = 0) still stores its delta: `n` zero blocks,
    /// written to their nodes, that no read ever touches — so reading it
    /// costs exactly what reading the version before it costs, and the
    /// layout-exact model says so too.
    #[test]
    fn an_identical_version_writes_n_zero_blocks_and_reads_for_free() {
        for strategy in [
            EncodingStrategy::BasicSec,
            EncodingStrategy::OptimizedSec,
            EncodingStrategy::ReversedSec,
        ] {
            let engine = SecEngine::new(config(strategy)).unwrap();
            let vs = versions();
            engine.append_all(&vs).unwrap();
            let writes = |engine: &SecEngine| engine.metrics_snapshot().io.symbol_writes;
            let before = writes(&engine);
            engine.append_version(&vs[2]).unwrap();
            // Reversed SEC also rewrites its full latest copy.
            let entries = if strategy == EncodingStrategy::ReversedSec {
                2
            } else {
                1
            };
            assert_eq!(writes(&engine) - before, 6 * entries, "{strategy}");

            let layout = engine.read_archive().layout().to_vec();
            assert!(layout.contains(&StoredPayload::Delta { to: 4, sparsity: 0 }));
            let reads = |l: usize| engine.get_version(l).unwrap().io_reads;
            assert_eq!(reads(4), reads(3), "{strategy}");
            assert_eq!(*engine.get_version(4).unwrap().data, vs[2]);
            let model = config(strategy).io_model();
            for l in [3, 4] {
                assert_eq!(
                    model.version_reads_for_layout(strategy, &layout, l),
                    reads(l),
                    "{strategy} version {l}"
                );
            }
        }
    }

    #[test]
    fn cache_serves_hot_versions_without_reads() {
        let engine = SecEngine::with_cache(config(EncodingStrategy::BasicSec), 2).unwrap();
        let vs = versions();
        engine.append_all(&vs).unwrap();
        // Appends pre-warm the cache with the newest versions.
        let hot = engine.get_version(3).unwrap();
        assert!(hot.cached);
        assert_eq!(hot.io_reads, 0);
        assert_eq!(*hot.data, vs[2]);
        // An evicted version is decoded from the nodes, then cached.
        let cold = engine.get_version(1).unwrap();
        assert!(!cold.cached);
        assert!(cold.io_reads > 0);
        assert!(engine.get_version(1).unwrap().cached);
        let m = engine.metrics_snapshot();
        assert!(m.cache.hits >= 2);
        assert_eq!(m.versions, 3);
    }

    #[test]
    fn zero_capacity_cache_does_no_bookkeeping() {
        // Satellite contract: a disabled cache must skip ALL bookkeeping on
        // both read paths — no hits, no misses, no insert allocations — so
        // the cap-0 engine is bit-identical to the reference archive in both
        // bytes and accounting.
        for strategy in [EncodingStrategy::BasicSec, EncodingStrategy::ReversedSec] {
            let engine = SecEngine::new(config(strategy)).unwrap();
            let vs = versions();
            engine.append_all(&vs).unwrap();
            for l in 1..=vs.len() {
                assert!(!engine.get_version(l).unwrap().cached, "{strategy}");
            }
            assert!(!engine.get_prefix(vs.len()).unwrap().cached, "{strategy}");
            let m = engine.metrics_snapshot();
            assert_eq!(m.cache, CacheStats::default(), "{strategy}: all-zero stats");
            assert_eq!(m.deltas_applied, 0, "{strategy}");
        }
    }

    #[test]
    fn nearest_base_extends_forward_for_basic_sec() {
        let engine = SecEngine::with_cache(config(EncodingStrategy::BasicSec), 1).unwrap();
        let reference = SecEngine::new(config(EncodingStrategy::BasicSec)).unwrap();
        let vs = versions();
        engine.append_all(&vs).unwrap();
        reference.append_all(&vs).unwrap();
        // Capacity 1: the pre-warm leaves only v3 cached; decode v2 from the
        // nodes so the cache holds it as a base below v3.
        assert!(!engine.get_version(2).unwrap().cached);
        let via_base = engine.get_version(3).unwrap();
        let uncached = reference.get_version(3).unwrap();
        assert!(via_base.cached, "v2 is the nearest cached base ≤ 3");
        assert_eq!(*via_base.data, vs[2]);
        assert!(
            via_base.io_reads < uncached.io_reads,
            "base walk pays only δ3, not k + δ2 + δ3"
        );
        let m = engine.metrics_snapshot();
        assert_eq!(m.cache.base_hits, 1);
        assert_eq!(m.deltas_applied, 1, "one delta entry applied on the base");
    }

    #[test]
    fn reversed_tail_serves_older_versions_and_prefixes() {
        let engine = SecEngine::with_cache(config(EncodingStrategy::ReversedSec), 1).unwrap();
        let reference = SecEngine::new(config(EncodingStrategy::ReversedSec)).unwrap();
        let vs = versions();
        engine.append_all(&vs).unwrap();
        reference.append_all(&vs).unwrap();
        // Only v3 is cached. The prefix walk anchors on that tail and
        // un-applies every delta, skipping the k-read encoded full copy.
        let p = engine.get_prefix(3).unwrap();
        let want = reference.get_prefix(3).unwrap();
        assert!(p.cached);
        assert_eq!(p.versions, want.versions);
        assert_eq!(p.io_reads, want.io_reads - 3);
        // v1 is likewise served by un-applying δ3 and δ2 from the tail
        // (prefix probes never insert, so v3 is still the cached entry).
        let via_tail = engine.get_version(1).unwrap();
        let uncached = reference.get_version(1).unwrap();
        assert!(via_tail.cached);
        assert_eq!(*via_tail.data, vs[0]);
        assert_eq!(
            via_tail.io_reads,
            uncached.io_reads - 3,
            "the cached tail saves the k-read full copy"
        );
        let m = engine.metrics_snapshot();
        assert!(m.deltas_applied >= 4, "two tail walks × two deltas each");
    }

    #[test]
    fn clear_cache_forces_node_reads_again() {
        let engine = SecEngine::with_cache(config(EncodingStrategy::BasicSec), 4).unwrap();
        let vs = versions();
        engine.append_all(&vs).unwrap();
        assert_eq!(engine.get_version(3).unwrap().io_reads, 0);
        engine.clear_cache();
        let r = engine.get_version(3).unwrap();
        assert!(!r.cached);
        assert!(r.io_reads > 0);
        assert_eq!(*r.data, vs[2]);
    }

    #[test]
    fn error_paths() {
        let engine = SecEngine::new(config(EncodingStrategy::BasicSec)).unwrap();
        assert!(matches!(
            engine.get_version(1),
            Err(StoreError::Versioning(VersioningError::EmptyArchive))
        ));
        let empty: Vec<Vec<u8>> = Vec::new();
        assert!(matches!(
            engine.append_all(&empty),
            Err(StoreError::Versioning(VersioningError::EmptyArchive))
        ));
        engine.append_version(&versions()[0]).unwrap();
        assert!(matches!(
            engine.get_version(0),
            Err(StoreError::Versioning(VersioningError::NoSuchVersion { .. }))
        ));
        assert!(matches!(
            engine.get_prefix(9),
            Err(StoreError::Versioning(VersioningError::NoSuchVersion { .. }))
        ));
        assert!(matches!(
            engine.append_version(&[1, 2]),
            Err(StoreError::Versioning(
                VersioningError::ObjectLengthMismatch { .. }
            ))
        ));
    }

    #[test]
    fn dispersed_engine_grows_node_space_and_serves_every_strategy() {
        for strategy in [
            EncodingStrategy::BasicSec,
            EncodingStrategy::OptimizedSec,
            EncodingStrategy::ReversedSec,
            EncodingStrategy::NonDifferential,
        ] {
            let engine =
                SecEngine::with_placement(config(strategy), PlacementStrategy::Dispersed, 0).unwrap();
            assert_eq!(engine.node_count(), 0, "{strategy}: empty means zero nodes");
            let mut reference = ByteVersionedArchive::new(config(strategy)).unwrap();
            let vs = versions();
            engine.append_all(&vs).unwrap();
            reference.append_all(&vs).unwrap();
            // One slab of 6 fresh nodes per stored entry.
            assert_eq!(engine.node_count(), 6 * reference.layout().len());
            assert_eq!(engine.placement().strategy(), PlacementStrategy::Dispersed);
            for (l, expect) in vs.iter().enumerate() {
                let r = engine.get_version(l + 1).unwrap();
                let want = reference.retrieve_version(l + 1).unwrap();
                assert_eq!(&*r.data, expect, "{strategy} version {}", l + 1);
                assert_eq!(r.io_reads, want.io_reads, "{strategy} version {}", l + 1);
            }
            let p = engine.get_prefix(vs.len()).unwrap();
            let want = reference.retrieve_prefix(vs.len()).unwrap();
            assert_eq!(p.versions, want.versions, "{strategy} prefix");
            assert_eq!(p.io_reads, want.io_reads, "{strategy} prefix reads");
        }
    }

    #[test]
    fn dispersed_failure_degrades_only_the_hosting_entry() {
        // BasicSec stores [full v1, δ2, δ3]; under dispersed placement each
        // lives on its own 6 nodes (ids 0..6, 6..12, 12..18).
        let engine = SecEngine::with_placement(
            config(EncodingStrategy::BasicSec),
            PlacementStrategy::Dispersed,
            0,
        )
        .unwrap();
        let vs = versions();
        engine.append_all(&vs).unwrap();
        // Kill every node of entry 2 (δ3): only version 3 needs it.
        for node in 12..18 {
            engine.fail_node(node).unwrap();
        }
        assert_eq!(*engine.get_version(1).unwrap().data, vs[0]);
        assert_eq!(*engine.get_version(2).unwrap().data, vs[1]);
        assert!(matches!(
            engine.get_version(3),
            Err(StoreError::Unrecoverable { entry: 2 })
        ));
        // A colocated engine with the same six failures in one group would
        // have lost everything; dispersed isolation also survives n − k
        // failures *per entry* independently.
        engine.revive_node(12).unwrap();
        engine.revive_node(13).unwrap();
        engine.revive_node(14).unwrap();
        assert_eq!(*engine.get_version(3).unwrap().data, vs[2]);
        let m = engine.metrics_snapshot();
        assert_eq!(m.nodes, 18);
        assert_eq!(m.live_nodes, 15);
    }

    #[test]
    fn dispersed_repair_rebuilds_a_single_entry_block() {
        let engine = SecEngine::with_placement(
            config(EncodingStrategy::BasicSec),
            PlacementStrategy::Dispersed,
            0,
        )
        .unwrap();
        let vs = versions();
        engine.append_all(&vs).unwrap();
        // Node 7 = entry 1, position 1: exactly one block to rebuild.
        engine.fail_node(7).unwrap();
        let rebuilt = engine.repair_node(7).unwrap();
        assert_eq!(rebuilt, 1);
        assert!(engine.is_node_alive(7).unwrap());
        for (l, expect) in vs.iter().enumerate() {
            assert_eq!(&*engine.get_version(l + 1).unwrap().data, expect);
        }
        // Out-of-range ids report the grown node count.
        assert!(matches!(
            engine.fail_node(18),
            Err(StoreError::InvalidNode { node: 18, n: 18 })
        ));
    }

    #[test]
    fn dispersed_patterns_index_the_global_node_space() {
        let engine = SecEngine::with_placement(
            config(EncodingStrategy::BasicSec),
            PlacementStrategy::Dispersed,
            0,
        )
        .unwrap();
        engine.append_all(&versions()).unwrap();
        // Fail position 0 of every entry, then overwrite-revive entry 0's
        // group only.
        for node in [0, 6, 12] {
            engine.fail_node(node).unwrap();
        }
        assert!(!engine.is_node_alive(0).unwrap());
        assert!(!engine.is_node_alive(6).unwrap());
        assert!(!engine.is_node_alive(12).unwrap());
        engine.apply_pattern(&FailurePattern::none(6));
        assert!(engine.is_node_alive(0).unwrap(), "overwrite revives in range");
        assert!(!engine.is_node_alive(6).unwrap(), "beyond pattern length: kept");
        assert_eq!(engine.metrics_snapshot().live_nodes, 16);
    }

    #[test]
    fn metrics_account_node_reads() {
        let engine = SecEngine::new(config(EncodingStrategy::BasicSec)).unwrap();
        engine.append_all(&versions()).unwrap();
        engine.reset_metrics();
        let r = engine.get_version(2).unwrap();
        let m = engine.metrics_snapshot();
        assert_eq!(m.io.symbol_reads as usize, r.io_reads);
        assert_eq!(m.io.retrievals, 1);
        assert_eq!(m.node_reads.iter().sum::<u64>() as usize, r.io_reads);
        assert_eq!(m.live_nodes, 6);
    }
}
