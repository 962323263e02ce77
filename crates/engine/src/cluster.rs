//! The [`SecCluster`]: a sharded router over many [`SecEngine`]s.
//!
//! The paper's availability analysis (§IV) is about *fleets* of coded
//! archives: many independent objects, each archived under the same `(n, k)`
//! SEC code, spread over groups of storage nodes that fail independently.
//! `SecCluster` is that fleet as a serving system — it hashes [`ObjectId`]s
//! across `S` shards, and each shard hosts the per-object version archives
//! of the objects routed to it:
//!
//! * **one codec per process** — every per-object engine shares one
//!   `Arc<SecCode>` / `Arc<CoeffTables>`, so the `GF(2^8)` multiplication
//!   tables are materialized once, not once per object;
//! * **one liveness array per shard** — under colocated placement a shard
//!   models a physical group of `n` nodes, so failing `(shard, node)` is a
//!   single atomic store observed by the read planner of every object on
//!   that shard;
//! * **per-object version sequences** — each object id owns an independent
//!   [`SecEngine`] (archive, storage nodes, metrics, optional cache), so
//!   appends and retrievals of objects on different shards share no lock at
//!   all, and objects on the same shard only share the shard's object map
//!   (taken shared on every lookup, exclusively only to admit a new object);
//! * **one node address** — a node is `(group, node)`, where the group is the
//!   placement's failure domain (a shard, or an object under dispersed
//!   placement), and a bad group or node is a [`ClusterError`], never a
//!   panic inside the serving process.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use crate::ordered::{LockRank, OrderedRwLock};

use sec_store::fault;
use sec_store::{IoMetrics, PlacementStrategy, StoreError};
use sec_versioning::object::VersionId;
use sec_versioning::{ArchiveConfig, ArchiveLedger, CacheStats, VersioningError};

use crate::engine::{EngineMetrics, EnginePrefix, EngineRetrieval, NodeLiveness, SecEngine};
use sec_erasure::{ByteCodec, CodeParams, SecCode};

/// Identifier of one versioned object in a cluster.
///
/// Routing hashes the raw id, so ids may be dense (`0, 1, 2, …`) or sparse
/// (pre-hashed names via [`ObjectId::from_name`]) without skewing shard
/// placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectId(pub u64);

impl ObjectId {
    /// Derives an id from a name (FNV-1a, 64-bit) — stable across runs and
    /// platforms, so routing is reproducible.
    pub fn from_name(name: &str) -> Self {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in name.as_bytes() {
            hash ^= u64::from(*byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Self(hash)
    }
}

impl From<u64> for ObjectId {
    fn from(id: u64) -> Self {
        Self(id)
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "object-{:016x}", self.0)
    }
}

/// Errors from cluster-level routing and addressing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// A cluster must have at least one shard.
    NoShards,
    /// A shard index outside `0..shard_count` was addressed.
    InvalidShard {
        /// The offending shard index.
        shard: usize,
        /// Number of shards the cluster actually has.
        shards: usize,
    },
    /// A retrieval named an object no version was ever appended for.
    UnknownObject {
        /// The unrouted object id.
        object: ObjectId,
    },
    /// An error from the addressed shard's engine (including
    /// [`StoreError::InvalidNode`] for an out-of-range node id).
    Engine(StoreError),
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::NoShards => write!(f, "a cluster needs at least one shard"),
            ClusterError::InvalidShard { shard, shards } => {
                write!(f, "shard {shard} is out of range for a {shards}-shard cluster")
            }
            ClusterError::UnknownObject { object } => {
                write!(f, "{object} holds no versions in this cluster")
            }
            ClusterError::Engine(e) => write!(f, "engine error: {e}"),
        }
    }
}

impl std::error::Error for ClusterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClusterError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StoreError> for ClusterError {
    fn from(e: StoreError) -> Self {
        ClusterError::Engine(e)
    }
}

/// Point-in-time counters of one shard, aggregated over the objects it
/// hosts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMetrics {
    /// Aggregate I/O counters summed across the shard's objects.
    pub io: IoMetrics,
    /// Reads served per codeword position: under colocated placement entry
    /// `i` is the shard's physical node `i` (summed across the per-object
    /// block stores colocated on it); under dispersed placement the
    /// per-object node spaces are folded by position (`id mod n`), giving
    /// the read load of each codeword slot across the shard's objects.
    pub node_reads: Vec<u64>,
    /// Number of currently live nodes on the shard (shared group of `n` for
    /// colocated; summed over the per-object node spaces for dispersed).
    pub live_nodes: usize,
    /// Total storage nodes the shard's placement addresses: `n` under
    /// colocated placement, the sum of per-object `n · entries` node spaces
    /// under dispersed.
    pub nodes: usize,
    /// Number of objects routed to the shard so far.
    pub objects: usize,
    /// Total versions appended across the shard's objects.
    pub versions: usize,
    /// Delta-cache statistics summed across the shard's objects
    /// (`capacity` sums the per-object capacities).
    pub cache: CacheStats,
    /// Stored entries XOR-applied on top of cached bases, summed across the
    /// shard's objects.
    pub deltas_applied: u64,
    /// Checkpoint full versions forced by the archive policy, summed across
    /// the shard's objects.
    pub checkpoints_written: u64,
}

/// A point-in-time view of everything the cluster counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterMetrics {
    /// The placement strategy every object is stored under.
    pub placement: PlacementStrategy,
    /// Per-shard breakdown, indexed by shard id.
    pub shards: Vec<ShardMetrics>,
    /// Cluster-wide I/O totals.
    pub io: IoMetrics,
    /// Cluster-wide cache totals.
    pub cache: CacheStats,
    /// Total storage nodes across all shards (per-placement semantics as
    /// [`ShardMetrics::nodes`]).
    pub nodes: usize,
    /// Total live storage nodes across all shards.
    pub live_nodes: usize,
    /// Total objects across all shards.
    pub objects: usize,
    /// Total versions across all objects.
    pub versions: usize,
    /// Cluster-wide total of stored entries XOR-applied on cached bases.
    pub deltas_applied: u64,
    /// Cluster-wide total of policy-forced checkpoint full versions.
    pub checkpoints_written: u64,
}

/// One shard: the engines of the objects routed here, plus — under
/// colocated placement — the shared liveness of the shard's physical group
/// of `n` nodes. Dispersed shards have no shared node group (every object
/// owns its node space), so their `liveness` is `None`.
#[derive(Debug)]
struct ClusterShard {
    liveness: Option<Arc<NodeLiveness>>,
    objects: OrderedRwLock<BTreeMap<ObjectId, Arc<SecEngine>>>,
}

/// The failure domain a node address `(group, node)` names.
enum NodeGroup<'a> {
    /// Colocated: the shard and its shared group of `n` nodes.
    Shard(&'a ClusterShard, &'a NodeLiveness),
    /// Dispersed: the object whose node space holds `n` nodes per entry.
    Object(Arc<SecEngine>),
}

/// A sharded multi-archive router: many versioned objects served by `S`
/// independent groups of storage nodes under one SEC code.
///
/// # Routing
///
/// An object id is hashed (SplitMix64 finalizer — deterministic across runs)
/// onto a shard; the object's whole version sequence lives on that shard's
/// `n` nodes. Different objects on different shards share *nothing* but the
/// process-wide codec tables, which are immutable — so cross-shard traffic
/// never contends.
///
/// # Failure domains
///
/// A node is addressed as `(group, node)` by four methods
/// ([`SecCluster::is_node_alive`], [`SecCluster::fail_node`],
/// [`SecCluster::revive_node`], [`SecCluster::repair_node`]); the group is
/// the placement's failure domain.
///
/// Under **colocated** placement (the default) the group is a shard, and
/// `(shard, node)` addresses one simulated physical node: failing it makes
/// block position `node` of **every** object on that shard unreadable (one
/// atomic store), and repair rebuilds that position for every object before
/// reviving the node — staged per object, so a repair that fails midway
/// leaves each object exactly as recoverable as before.
///
/// Under **dispersed** placement every stored entry of every object owns a
/// private set of `n` nodes, so there is no shard-wide node: the group is the
/// object id and `node` the object's placement id `e·n + i`, and a node
/// failure degrades exactly one entry of exactly one object.
#[derive(Debug)]
pub struct SecCluster {
    config: ArchiveConfig,
    codec: ByteCodec,
    cache_capacity: usize,
    placement: PlacementStrategy,
    shards: Vec<ClusterShard>,
}

impl SecCluster {
    /// Creates a cluster of `shards` empty shards with delta caches
    /// disabled (the mode whose read accounting is bit-compatible with the
    /// single-archive references).
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::NoShards`] for zero shards, or the
    /// engine/versioning error when the configured code cannot be built over
    /// `GF(2^8)`.
    pub fn new(config: ArchiveConfig, shards: usize) -> Result<Self, ClusterError> {
        Self::with_cache(config, shards, 0)
    }

    /// Like [`SecCluster::new`], giving every object's engine a delta
    /// cache of `cache_capacity` decoded versions (0 disables caching).
    ///
    /// # Errors
    ///
    /// As for [`SecCluster::new`].
    pub fn with_cache(
        config: ArchiveConfig,
        shards: usize,
        cache_capacity: usize,
    ) -> Result<Self, ClusterError> {
        Self::with_placement(config, shards, cache_capacity, PlacementStrategy::Colocated)
    }

    /// Like [`SecCluster::with_cache`] under an explicit placement strategy
    /// (§IV of the paper). Colocated keeps one shared liveness array of `n`
    /// nodes per shard; dispersed gives every object's every stored entry a
    /// private set of `n` nodes, addressed with the object id as the group.
    ///
    /// # Errors
    ///
    /// As for [`SecCluster::new`].
    pub fn with_placement(
        config: ArchiveConfig,
        shards: usize,
        cache_capacity: usize,
        placement: PlacementStrategy,
    ) -> Result<Self, ClusterError> {
        if shards == 0 {
            return Err(ClusterError::NoShards);
        }
        // Build the one codec every per-object archive will share; routing a
        // new object then costs no table materialization at all. `(n, k)`
        // was validated when `config` was built (`ArchiveConfig::new`), and
        // every per-object `ArchiveLedger::with_codec` still checks
        // the codec against the config; what can fail here is the Cauchy
        // construction over `GF(2^8)`, reported as the archive would.
        let CodeParams { n, k } = config.params();
        let code = SecCode::cauchy(n, k, config.form())
            .map_err(|e| StoreError::from(VersioningError::from(e)))?;
        let codec = ByteCodec::new(code);
        Ok(Self {
            config,
            codec,
            cache_capacity,
            placement,
            shards: (0..shards)
                .map(|_| ClusterShard {
                    liveness: match placement {
                        PlacementStrategy::Colocated => Some(Arc::new(NodeLiveness::new(n))),
                        PlacementStrategy::Dispersed => None,
                    },
                    objects: OrderedRwLock::new(LockRank::ObjectMap, BTreeMap::new()),
                })
                .collect(),
        })
    }

    /// The archive configuration every object is encoded under.
    pub fn config(&self) -> ArchiveConfig {
        self.config
    }

    /// The placement strategy every object is stored under.
    pub fn placement(&self) -> PlacementStrategy {
        self.placement
    }

    /// The process-wide shared codec (one `Arc<SecCode>`/`Arc<CoeffTables>`
    /// for the whole cluster).
    pub fn codec(&self) -> &ByteCodec {
        &self.codec
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Codeword length `n`: the size of each shard's shared node group
    /// under colocated placement, and of each stored entry's private node
    /// set under dispersed, where an object's node space holds `n` nodes per
    /// stored entry.
    pub fn node_count(&self) -> usize {
        self.config.params().n
    }

    /// Total number of objects routed so far.
    pub fn object_count(&self) -> usize {
        self.shards.iter().map(|s| s.objects.read().len()).sum()
    }

    /// Whether any version was appended for `id`.
    pub fn contains_object(&self, id: ObjectId) -> bool {
        #[expect(
            clippy::indexing_slicing,
            reason = "shard_of maps every id into 0..shards.len() by modulo"
        )]
        let shard = &self.shards[self.shard_of(id)];
        shard.objects.read().contains_key(&id)
    }

    /// Number of versions appended for `id`, or `None` for an unknown
    /// object.
    pub fn version_count(&self, id: ObjectId) -> Option<usize> {
        self.engine_of(id).ok().map(|e| e.len())
    }

    /// The shard `id` routes to. Deterministic across runs and processes.
    pub fn shard_of(&self, id: ObjectId) -> usize {
        // SplitMix64 finalizer: a full-avalanche bijection, so dense ids
        // (0, 1, 2, …) spread as evenly as pre-hashed ones.
        let mut z = id.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z % self.shards.len() as u64) as usize
    }

    fn shard(&self, shard: usize) -> Result<&ClusterShard, ClusterError> {
        self.shards.get(shard).ok_or(ClusterError::InvalidShard {
            shard,
            shards: self.shards.len(),
        })
    }

    /// Resolves the group of node address `(group, node)`: the shard's
    /// shared node group under colocated placement (with `node` checked
    /// against it), the object's engine under dispersed placement (which
    /// checks `node` against the object's node space itself).
    fn node_group(&self, group: usize, node: usize) -> Result<NodeGroup<'_>, ClusterError> {
        let shard = match self.placement {
            PlacementStrategy::Colocated => self.shard(group)?,
            PlacementStrategy::Dispersed => {
                return Ok(NodeGroup::Object(self.engine_of(ObjectId(group as u64))?));
            }
        };
        #[expect(
            clippy::expect_used,
            reason = "every colocated shard is built with a liveness group"
        )]
        let liveness = shard.liveness.as_ref().expect("colocated shard");
        if node >= liveness.len() {
            return Err(ClusterError::Engine(StoreError::InvalidNode {
                node,
                n: liveness.len(),
            }));
        }
        Ok(NodeGroup::Shard(shard, liveness))
    }

    /// The engine serving `id`, or [`ClusterError::UnknownObject`].
    fn engine_of(&self, id: ObjectId) -> Result<Arc<SecEngine>, ClusterError> {
        #[expect(
            clippy::indexing_slicing,
            reason = "shard_of maps every id into 0..shards.len() by modulo"
        )]
        let shard = &self.shards[self.shard_of(id)];
        shard
            .objects
            .read()
            .get(&id)
            .cloned()
            .ok_or(ClusterError::UnknownObject { object: id })
    }

    /// Runs an append against `id`'s engine, creating the engine (on its
    /// routed shard, sharing the shard's liveness and the cluster codec) on
    /// first append.
    ///
    /// The encode work always runs *outside* the shard's object-map lock —
    /// a first append of a large history must not stall retrievals of
    /// co-hosted objects. A first appender encodes into a private engine and
    /// then admits it under the write lock (a map insert, nothing more); if
    /// another appender won the race in the meantime, the private engine is
    /// discarded and the append is replayed against the winner's, so no
    /// admitted version can be lost to the race. A brand-new engine is
    /// admitted only if the append landed at least one version — a failed
    /// *first* append (empty sequence, length/size validation) must not
    /// leave a phantom zero-version object behind.
    fn append_with<R>(
        &self,
        id: ObjectId,
        append: impl Fn(&SecEngine) -> Result<R, StoreError>,
    ) -> Result<R, ClusterError> {
        #[expect(
            clippy::indexing_slicing,
            reason = "shard_of maps every id into 0..shards.len() by modulo"
        )]
        let shard = &self.shards[self.shard_of(id)];
        let existing = shard.objects.read().get(&id).cloned();
        if let Some(engine) = existing {
            return Ok(append(&engine)?);
        }
        // First append (probably — confirmed under the write lock below):
        // encode into a private engine with no map lock held.
        let ledger =
            ArchiveLedger::with_codec(self.config, self.codec.clone()).map_err(StoreError::from)?;
        // Each engine owns its cache, so per-object statistics and
        // capacities stay independent (the cluster's aggregate metrics sum
        // them).
        let engine = Arc::new(SecEngine::build(
            ledger,
            self.cache_capacity,
            self.placement,
            shard.liveness.as_ref().map(Arc::clone),
        ));
        let result = append(&engine);
        // `append_all` serves whatever landed before a mid-sequence error, so
        // admission is keyed on the engine's state, not the result. Probe it
        // *before* taking the object-map lock: `is_empty` acquires the
        // engine's archive lock, and the object map is innermost in the
        // documented hierarchy — no engine lock may be acquired under it.
        // The engine is still private here, so the answer cannot go stale.
        let landed = !engine.is_empty();
        let winner = {
            let mut objects = shard.objects.write();
            match objects.get(&id) {
                Some(winner) => Some(Arc::clone(winner)),
                None => {
                    if landed {
                        objects.insert(id, engine);
                    }
                    None
                }
            }
        };
        match winner {
            // A racing first appender admitted the object while we encoded:
            // drop our never-visible engine and replay on the winner's.
            Some(winner) => Ok(append(&winner)?),
            None => Ok(result?),
        }
    }

    /// Appends the next version of object `id`, routing it to its shard and
    /// creating its archive on first append.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::Engine`] for a length mismatch or encoding
    /// failure. A failed first append leaves the cluster without the object
    /// (`contains_object(id)` stays `false`).
    pub fn append_version(&self, id: ObjectId, object: &[u8]) -> Result<VersionId, ClusterError> {
        self.append_with(id, |engine| engine.append_version(object))
    }

    /// Appends every version of a sequence for object `id` in order,
    /// returning the id of the last one.
    ///
    /// # Errors
    ///
    /// Propagates the first append error; versions appended before it remain
    /// served. An empty sequence for an object with no versions yields the
    /// engine's `EmptyArchive` error and does not create the object.
    pub fn append_all<B: AsRef<[u8]>>(
        &self,
        id: ObjectId,
        versions: &[B],
    ) -> Result<VersionId, ClusterError> {
        self.append_with(id, |engine| engine.append_all(versions))
    }

    /// Retrieves version `l` (1-based) of object `id`.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownObject`] for an object with no
    /// versions, otherwise as [`SecEngine::get_version`].
    pub fn get_version(&self, id: ObjectId, l: usize) -> Result<EngineRetrieval, ClusterError> {
        Ok(self.engine_of(id)?.get_version(l)?)
    }

    /// Retrieves a batch of `(object, version)` requests: a plain in-order
    /// loop over [`SecCluster::get_version`], kept as one call for callers
    /// that hold a request list.
    ///
    /// Results come back in request order and are independent: an unknown
    /// object or invalid version fills its own slot with an `Err` without
    /// failing the rest.
    pub fn get_batch(
        &self,
        requests: &[(ObjectId, usize)],
    ) -> Vec<Result<EngineRetrieval, ClusterError>> {
        requests.iter().map(|&(id, l)| self.get_version(id, l)).collect()
    }

    /// Retrieves the first `l` versions of object `id` in order.
    ///
    /// # Errors
    ///
    /// As for [`SecCluster::get_version`].
    pub fn get_prefix(&self, id: ObjectId, l: usize) -> Result<EnginePrefix, ClusterError> {
        Ok(self.engine_of(id)?.get_prefix(l)?)
    }

    /// Drops every cached decoded version of object `id` (a no-op when the
    /// cluster was built without caching).
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownObject`] for an object with no
    /// versions.
    pub fn clear_cache(&self, id: ObjectId) -> Result<(), ClusterError> {
        self.engine_of(id)?.clear_cache();
        Ok(())
    }

    /// Whether node `(group, node)` is live. Lock-free.
    ///
    /// A group is the placement's failure domain: the shard index under
    /// colocated placement, where `node` is a position of the shard's shared
    /// group of `n`; the object id under dispersed placement, where `node` is
    /// the object's placement id `e·n + i` (position `i` of entry `e`).
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidShard`] (colocated) or
    /// [`ClusterError::UnknownObject`] (dispersed) for a bad group, and
    /// [`StoreError::InvalidNode`] for a bad node.
    pub fn is_node_alive(&self, group: usize, node: usize) -> Result<bool, ClusterError> {
        match self.node_group(group, node)? {
            NodeGroup::Shard(_, liveness) => Ok(liveness.is_alive(node)),
            NodeGroup::Object(engine) => Ok(engine.is_node_alive(node)?),
        }
    }

    /// Fails node `(group, node)`: one atomic store, observed by the read
    /// planner of every object on the shard (colocated) or of the one
    /// entry of the one object the node hosts (dispersed).
    ///
    /// # Errors
    ///
    /// As for [`SecCluster::is_node_alive`] — failure-injection typos are
    /// handled errors, never process aborts.
    pub fn fail_node(&self, group: usize, node: usize) -> Result<(), ClusterError> {
        match self.node_group(group, node)? {
            NodeGroup::Shard(_, liveness) => liveness.fail(node),
            NodeGroup::Object(engine) => engine.fail_node(node)?,
        }
        Ok(())
    }

    /// Revives node `(group, node)`, keeping whatever blocks it held (crash
    /// recovery; use [`SecCluster::repair_node`] after data loss).
    ///
    /// # Errors
    ///
    /// As for [`SecCluster::is_node_alive`].
    pub fn revive_node(&self, group: usize, node: usize) -> Result<(), ClusterError> {
        match self.node_group(group, node)? {
            NodeGroup::Shard(_, liveness) => liveness.revive(node),
            NodeGroup::Object(engine) => engine.revive_node(node)?,
        }
        Ok(())
    }

    /// Repairs node `(group, node)` after data loss: rebuilds the blocks it
    /// hosts, then revives it. Returns the number of blocks rebuilt.
    ///
    /// Under colocated placement the node is shared by every object on the
    /// shard, so its blocks are rebuilt for **every** object (each staged
    /// before commit) before the node is revived once. If any object's
    /// rebuild fails the node stays failed and the error is returned;
    /// objects rebuilt before the failure keep their fresh blocks (they are
    /// byte-identical to what a completed repair would have written), so no
    /// object is ever left *less* recoverable than before the call. Under
    /// dispersed placement the node hosts one block of one entry, and
    /// [`SecEngine::repair_node`] rebuilds it.
    ///
    /// The concluding revive is epoch-checked: the repair snapshots the
    /// node's failure epoch before rebuilding and only commits if no new
    /// failure landed while the rebuilds ran — otherwise the rebuilt blocks
    /// may miss writes that arrived after the new failure, and reviving
    /// would serve a node the rebuild never saw. Objects admitted *during*
    /// a colocated repair are safe either way: a first append writes
    /// complete blocks, so the new object needs nothing from this rebuild.
    ///
    /// # Errors
    ///
    /// As for [`SecCluster::is_node_alive`], plus
    /// [`StoreError::Unrecoverable`] when some entry has fewer than `k`
    /// other live blocks, or [`StoreError::RepairRaced`] when the node
    /// failed again mid-repair (re-run the repair).
    pub fn repair_node(&self, group: usize, node: usize) -> Result<usize, ClusterError> {
        let (shard, liveness) = match self.node_group(group, node)? {
            NodeGroup::Shard(shard, liveness) => (shard, liveness),
            NodeGroup::Object(engine) => return Ok(engine.repair_node(node)?),
        };
        let epoch = liveness.epoch(node);
        // Snapshot the engines, then release the map lock: rebuilds decode
        // k blocks per entry per object and must not block object admission.
        let engines: Vec<Arc<SecEngine>> = shard.objects.read().values().cloned().collect();
        let mut rebuilt = 0usize;
        for engine in engines {
            rebuilt += engine.rebuild_node(node)?;
            fault::reached("cluster::repair::window");
        }
        if !liveness.try_commit_repair(node, epoch) {
            return Err(ClusterError::Engine(StoreError::RepairRaced { node }));
        }
        Ok(rebuilt)
    }

    /// A point-in-time snapshot of every counter the cluster maintains,
    /// aggregated per shard and cluster-wide.
    pub fn metrics_snapshot(&self) -> ClusterMetrics {
        self.collect_metrics(|engine| engine.metrics_snapshot())
    }

    /// Resets every object engine's aggregate I/O counters and returns the
    /// final pre-reset cluster metrics.
    ///
    /// Per-engine semantics are [`SecEngine::reset_metrics`]: the I/O
    /// counters are drained with atomic swaps (each counter increment is
    /// reported exactly once across reset epochs), while per-node read
    /// counters, cache statistics, liveness and version counts keep
    /// accumulating.
    pub fn reset_metrics(&self) -> ClusterMetrics {
        self.collect_metrics(|engine| engine.reset_metrics())
    }

    fn collect_metrics(&self, view: impl Fn(&SecEngine) -> EngineMetrics) -> ClusterMetrics {
        let n = self.node_count();
        let mut totals = ClusterMetrics {
            placement: self.placement,
            shards: Vec::with_capacity(self.shards.len()),
            io: IoMetrics::new(),
            cache: CacheStats::default(),
            nodes: 0,
            live_nodes: 0,
            objects: 0,
            versions: 0,
            deltas_applied: 0,
            checkpoints_written: 0,
        };
        for shard in &self.shards {
            let engines: Vec<Arc<SecEngine>> = shard.objects.read().values().cloned().collect();
            let mut sm = ShardMetrics {
                io: IoMetrics::new(),
                node_reads: vec![0; n],
                live_nodes: 0,
                nodes: 0,
                objects: engines.len(),
                versions: 0,
                cache: CacheStats::default(),
                deltas_applied: 0,
                checkpoints_written: 0,
            };
            for engine in engines {
                let m = view(&engine);
                sm.io.absorb(&m.io);
                // Per-object node spaces fold onto the n codeword positions
                // (the identity map for a colocated engine's n nodes).
                #[expect(
                    clippy::indexing_slicing,
                    reason = "`idx % n` is always < n = node_reads.len()"
                )]
                for (idx, reads) in m.node_reads.iter().enumerate() {
                    sm.node_reads[idx % n] += reads;
                }
                sm.versions += m.versions;
                sm.cache.absorb(&m.cache);
                sm.deltas_applied += m.deltas_applied;
                sm.checkpoints_written += m.checkpoints_written;
                if self.placement == PlacementStrategy::Dispersed {
                    sm.live_nodes += m.live_nodes;
                    sm.nodes += m.nodes;
                }
            }
            if let Some(liveness) = &shard.liveness {
                // Colocated: the shard's physical group, whether or not any
                // object lives on it yet.
                sm.live_nodes = liveness.live_count();
                sm.nodes = n;
            }
            totals.io.absorb(&sm.io);
            totals.cache.absorb(&sm.cache);
            totals.nodes += sm.nodes;
            totals.live_nodes += sm.live_nodes;
            totals.objects += sm.objects;
            totals.versions += sm.versions;
            totals.deltas_applied += sm.deltas_applied;
            totals.checkpoints_written += sm.checkpoints_written;
            totals.shards.push(sm);
        }
        totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sec_erasure::GeneratorForm;
    use sec_versioning::EncodingStrategy;

    const N: usize = 6;
    const K: usize = 3;

    fn config(strategy: EncodingStrategy) -> ArchiveConfig {
        ArchiveConfig::new(N, K, GeneratorForm::NonSystematic, strategy).unwrap()
    }

    fn cluster(shards: usize) -> SecCluster {
        SecCluster::new(config(EncodingStrategy::BasicSec), shards).unwrap()
    }

    /// Three versions of a 60-byte object, seeded so distinct objects get
    /// distinct histories.
    fn versions(seed: u8) -> Vec<Vec<u8>> {
        let v1: Vec<u8> = (0..60).map(|i| (i * 7) as u8 ^ seed).collect();
        let mut v2 = v1.clone();
        v2[5] ^= 0x7C; // block 0
        let mut v3 = v2.clone();
        v3[25] ^= 0x11; // block 1
        vec![v1, v2, v3]
    }

    /// Finds an id (probing a salt) that routes to `shard`.
    fn id_on_shard(cluster: &SecCluster, shard: usize, mut salt: u64) -> ObjectId {
        loop {
            let id = ObjectId(salt);
            if cluster.shard_of(id) == shard {
                return id;
            }
            salt = salt.wrapping_add(0x1000_0000_0100_0001);
        }
    }

    #[test]
    fn routing_is_deterministic_and_covers_every_shard() {
        let cluster = cluster(4);
        let mut hit = [false; 4];
        for raw in 0..64u64 {
            let shard = cluster.shard_of(ObjectId(raw));
            assert!(shard < 4);
            assert_eq!(shard, cluster.shard_of(ObjectId(raw)), "routing must be stable");
            hit[shard] = true;
        }
        assert!(hit.iter().all(|&h| h), "64 dense ids must reach all 4 shards");
        // Name-derived ids are stable too.
        assert_eq!(
            ObjectId::from_name("wiki/Main_Page"),
            ObjectId::from_name("wiki/Main_Page")
        );
        assert_ne!(ObjectId::from_name("a"), ObjectId::from_name("b"));
    }

    #[test]
    fn objects_keep_independent_version_sequences() {
        let cluster = cluster(4);
        let a = ObjectId(1);
        let b = ObjectId(2);
        cluster.append_all(a, &versions(0)).unwrap();
        cluster.append_version(b, &versions(0x40)[0]).unwrap();
        // Version numbering is per object: b has exactly one version even
        // though a already has three.
        assert_eq!(cluster.version_count(a), Some(3));
        assert_eq!(cluster.version_count(b), Some(1));
        assert_eq!(*cluster.get_version(a, 3).unwrap().data, versions(0)[2]);
        assert_eq!(*cluster.get_version(b, 1).unwrap().data, versions(0x40)[0]);
        assert!(matches!(
            cluster.get_version(b, 2),
            Err(ClusterError::Engine(StoreError::Versioning(
                VersioningError::NoSuchVersion { .. }
            )))
        ));
        let p = cluster.get_prefix(a, 2).unwrap();
        assert_eq!(p.versions, &versions(0)[..2]);
        assert_eq!(cluster.object_count(), 2);
    }

    #[test]
    fn addressing_errors_never_panic() {
        let cluster = cluster(2);
        assert!(matches!(
            SecCluster::new(config(EncodingStrategy::BasicSec), 0),
            Err(ClusterError::NoShards)
        ));
        // A valid (n, k) too large for the Cauchy construction over GF(2^8)
        // surfaces exactly as the per-object archive would report it.
        let oversized =
            ArchiveConfig::new(200, 100, GeneratorForm::NonSystematic, EncodingStrategy::BasicSec)
                .unwrap();
        assert!(matches!(
            SecCluster::new(oversized, 1),
            Err(ClusterError::Engine(StoreError::Versioning(
                VersioningError::Code(sec_erasure::CodeError::FieldTooSmall { n: 200, k: 100, .. })
            )))
        ));
        assert!(matches!(
            cluster.get_version(ObjectId(7), 1),
            Err(ClusterError::UnknownObject { object: ObjectId(7) })
        ));
        assert!(matches!(
            cluster.fail_node(2, 0),
            Err(ClusterError::InvalidShard { shard: 2, shards: 2 })
        ));
        assert!(matches!(
            cluster.fail_node(0, N),
            Err(ClusterError::Engine(StoreError::InvalidNode { node: 6, n: 6 }))
        ));
        assert!(matches!(
            cluster.revive_node(1, 99),
            Err(ClusterError::Engine(StoreError::InvalidNode { .. }))
        ));
        assert!(matches!(
            cluster.repair_node(0, 99),
            Err(ClusterError::Engine(StoreError::InvalidNode { .. }))
        ));
        assert!(cluster.is_node_alive(1, 99).is_err());
        // Display impls cover the addressing errors.
        assert!(ClusterError::NoShards.to_string().contains("at least one"));
        assert!(cluster
            .fail_node(2, 0)
            .unwrap_err()
            .to_string()
            .contains("shard 2"));
        assert!(cluster
            .get_version(ObjectId(7), 1)
            .unwrap_err()
            .to_string()
            .contains("object-"));
    }

    #[test]
    fn failed_first_append_leaves_no_phantom_object() {
        let cluster = cluster(2);
        let id = ObjectId(5);
        // Empty first sequence: no versions landed, so the object must not
        // be admitted.
        let empty: Vec<Vec<u8>> = Vec::new();
        assert!(matches!(
            cluster.append_all(id, &empty),
            Err(ClusterError::Engine(StoreError::Versioning(
                VersioningError::EmptyArchive
            )))
        ));
        assert!(!cluster.contains_object(id));
        assert_eq!(cluster.object_count(), 0);
        assert_eq!(cluster.version_count(id), None);
        assert!(matches!(
            cluster.get_version(id, 1),
            Err(ClusterError::UnknownObject { .. })
        ));

        // A partially successful first sequence serves what landed before
        // the error, exactly like SecEngine::append_all.
        let vs = versions(0);
        let mixed: Vec<Vec<u8>> = vec![vs[0].clone(), vec![1, 2, 3]]; // wrong length
        assert!(matches!(
            cluster.append_all(id, &mixed),
            Err(ClusterError::Engine(StoreError::Versioning(
                VersioningError::ObjectLengthMismatch { .. }
            )))
        ));
        assert!(cluster.contains_object(id));
        assert_eq!(cluster.version_count(id), Some(1));
        assert_eq!(*cluster.get_version(id, 1).unwrap().data, vs[0]);

        // Appends to the now-existing object keep working.
        cluster.append_version(id, &vs[1]).unwrap();
        assert_eq!(cluster.version_count(id), Some(2));
    }

    #[test]
    fn shard_failure_hits_cohosted_objects_but_not_other_shards() {
        let cluster = cluster(2);
        let on0 = id_on_shard(&cluster, 0, 1);
        let also0 = id_on_shard(&cluster, 0, on0.0.wrapping_add(1));
        let on1 = id_on_shard(&cluster, 1, 2);
        cluster.append_all(on0, &versions(0)).unwrap();
        cluster.append_all(also0, &versions(1)).unwrap();
        cluster.append_all(on1, &versions(2)).unwrap();

        // n − k failures on shard 0: both of its objects survive, shard 1
        // untouched.
        for node in 0..N - K {
            cluster.fail_node(0, node).unwrap();
        }
        assert_eq!(*cluster.get_version(on0, 3).unwrap().data, versions(0)[2]);
        assert_eq!(*cluster.get_version(also0, 3).unwrap().data, versions(1)[2]);
        assert_eq!(cluster.metrics_snapshot().shards[0].live_nodes, K);
        assert_eq!(cluster.metrics_snapshot().shards[1].live_nodes, N);

        // One more failure makes *both* shard-0 objects unrecoverable —
        // the shard is one failure domain — while shard 1 still serves.
        cluster.fail_node(0, N - K).unwrap();
        assert!(matches!(
            cluster.get_version(on0, 1),
            Err(ClusterError::Engine(StoreError::Unrecoverable { .. }))
        ));
        assert!(matches!(
            cluster.get_version(also0, 1),
            Err(ClusterError::Engine(StoreError::Unrecoverable { .. }))
        ));
        assert_eq!(*cluster.get_version(on1, 3).unwrap().data, versions(2)[2]);

        // Repair rebuilds the node for every object on the shard: 3 stored
        // entries per object × 2 objects.
        cluster.revive_node(0, 0).unwrap();
        let rebuilt = cluster.repair_node(0, 1).unwrap();
        assert_eq!(rebuilt, 6);
        assert!(cluster.is_node_alive(0, 1).unwrap());
        assert_eq!(*cluster.get_version(on0, 3).unwrap().data, versions(0)[2]);
        assert_eq!(*cluster.get_version(also0, 3).unwrap().data, versions(1)[2]);
    }

    #[test]
    fn metrics_aggregate_across_objects_and_shards() {
        let cluster = SecCluster::with_cache(config(EncodingStrategy::BasicSec), 2, 2).unwrap();
        let a = ObjectId(1);
        let b = ObjectId(2);
        cluster.append_all(a, &versions(0)).unwrap();
        cluster.append_all(b, &versions(9)).unwrap();
        let cold = cluster.reset_metrics(); // drain the append-side counters
        assert!(cold.io.symbol_writes > 0, "pre-reset totals are returned");

        let r1 = cluster.get_version(a, 1).unwrap();
        let r2 = cluster.get_version(b, 1).unwrap();
        let m = cluster.metrics_snapshot();
        assert_eq!(m.objects, 2);
        assert_eq!(m.versions, 6);
        assert_eq!(m.io.retrievals, 2);
        assert_eq!(m.io.symbol_reads as usize, r1.io_reads + r2.io_reads);
        assert_eq!(
            m.shards.iter().map(|s| s.io.symbol_reads).sum::<u64>(),
            m.io.symbol_reads
        );
        assert_eq!(
            m.shards.iter().flat_map(|s| s.node_reads.iter()).sum::<u64>(),
            m.io.symbol_reads,
            "per-node counters must sum to the aggregate"
        );
        // Appends pre-warmed each object's cache: hot reads cost no I/O.
        assert!(cluster.get_version(a, 3).unwrap().cached);
        let m = cluster.metrics_snapshot();
        assert!(m.cache.hits >= 1);
        assert_eq!(m.cache.capacity, 4, "two objects × capacity 2");

        // reset_metrics drains exactly the accumulated I/O; a fresh snapshot
        // starts from zero.
        let drained = cluster.reset_metrics();
        assert_eq!(drained.io.retrievals, 3);
        assert_eq!(cluster.metrics_snapshot().io, IoMetrics::default());
        // Node-read counters survive resets.
        assert!(
            drained
                .shards
                .iter()
                .flat_map(|s| s.node_reads.iter())
                .sum::<u64>()
                > 0
        );
    }

    #[test]
    fn dispersed_cluster_uses_object_scoped_node_addressing() {
        let cluster = SecCluster::with_placement(
            config(EncodingStrategy::BasicSec),
            2,
            0,
            PlacementStrategy::Dispersed,
        )
        .unwrap();
        assert_eq!(cluster.placement(), PlacementStrategy::Dispersed);
        let a = ObjectId(1);
        let b = ObjectId(2);
        cluster.append_all(a, &versions(0)).unwrap();
        cluster.append_all(b, &versions(7)).unwrap();
        // The group is the object id: a group naming no stored object is
        // unknown, never a panic — also where it is a valid shard index.
        assert!(matches!(
            cluster.fail_node(0, 0),
            Err(ClusterError::UnknownObject { object: ObjectId(0) })
        ));
        assert!(cluster.is_node_alive(0, 0).is_err());
        assert!(cluster.revive_node(9, 0).is_err());
        assert!(cluster.repair_node(9, 0).is_err());
        let (ga, gb) = (a.0 as usize, b.0 as usize);

        // Failing every node of a's entry 2 (δ3) degrades only a's v3.
        for node in 2 * N..3 * N {
            cluster.fail_node(ga, node).unwrap();
        }
        assert!(!cluster.is_node_alive(ga, 2 * N).unwrap());
        assert!(cluster.is_node_alive(gb, 2 * N).unwrap());
        assert_eq!(*cluster.get_version(a, 2).unwrap().data, versions(0)[1]);
        assert!(matches!(
            cluster.get_version(a, 3),
            Err(ClusterError::Engine(StoreError::Unrecoverable { entry: 2 }))
        ));
        // b is untouched — even if it shares a's shard.
        assert_eq!(*cluster.get_version(b, 3).unwrap().data, versions(7)[2]);

        // Repair rebuilds the single hosted block.
        for node in 2 * N..3 * N {
            cluster.revive_node(ga, node).unwrap();
        }
        cluster.fail_node(ga, 2 * N).unwrap();
        assert_eq!(cluster.repair_node(ga, 2 * N).unwrap(), 1);
        assert!(cluster.is_node_alive(ga, 2 * N).unwrap());
        assert_eq!(*cluster.get_version(a, 3).unwrap().data, versions(0)[2]);
        // Node ids past the object's node space surface the engine's
        // InvalidNode.
        assert!(matches!(
            cluster.fail_node(ga, 3 * N),
            Err(ClusterError::Engine(StoreError::InvalidNode { node: 18, n: 18 }))
        ));
        assert!(cluster.is_node_alive(gb, 3 * N).is_err());
        assert!(cluster.revive_node(gb, 3 * N).is_err());
        assert!(cluster.repair_node(gb, 3 * N).is_err());
        assert!(matches!(
            cluster.fail_node(usize::MAX, 0),
            Err(ClusterError::UnknownObject { .. })
        ));
        assert!(matches!(
            cluster.repair_node(ga, usize::MAX),
            Err(ClusterError::Engine(StoreError::InvalidNode { .. }))
        ));
    }

    #[test]
    fn metrics_report_per_placement_node_counts() {
        // Colocated: n nodes per shard exist with or without objects.
        let colo = cluster(2);
        let m = colo.metrics_snapshot();
        assert_eq!(m.placement, PlacementStrategy::Colocated);
        assert_eq!(m.nodes, 2 * N);
        assert_eq!(m.live_nodes, 2 * N);
        assert!(m.shards.iter().all(|s| s.nodes == N));

        // Dispersed: nodes exist per stored entry, summed over objects.
        let disp = SecCluster::with_placement(
            config(EncodingStrategy::BasicSec),
            2,
            0,
            PlacementStrategy::Dispersed,
        )
        .unwrap();
        assert_eq!(disp.metrics_snapshot().nodes, 0);
        let a = ObjectId(1);
        let b = ObjectId(2);
        disp.append_all(a, &versions(0)).unwrap();
        disp.append_all(b, &versions(3)).unwrap();
        disp.fail_node(b.0 as usize, 0).unwrap();
        let m = disp.metrics_snapshot();
        assert_eq!(m.placement, PlacementStrategy::Dispersed);
        assert_eq!(m.nodes, 2 * 3 * N);
        assert_eq!(m.live_nodes, 2 * 3 * N - 1);
        assert_eq!(m.shards.iter().map(|s| s.nodes).sum::<usize>(), m.nodes);
        // Per-object node spaces fold onto the n codeword positions.
        let r = disp.get_version(a, 1).unwrap();
        let m = disp.metrics_snapshot();
        assert!(m.shards.iter().all(|s| s.node_reads.len() == N));
        assert_eq!(
            m.shards.iter().flat_map(|s| s.node_reads.iter()).sum::<u64>() as usize,
            r.io_reads
        );
    }

    #[test]
    fn codec_tables_are_shared_across_objects() {
        let cluster = cluster(4);
        let tables = cluster.codec().shared_tables();
        let before = Arc::strong_count(&tables);
        for raw in 0..8u64 {
            cluster
                .append_version(ObjectId(raw), &versions(raw as u8)[0])
                .unwrap();
        }
        // Every new object added codec handles pointing at the *same*
        // tables allocation — nothing rebuilt its own.
        assert!(Arc::strong_count(&tables) > before);
        assert!(Arc::ptr_eq(&tables, &cluster.codec().shared_tables()));
    }
}
