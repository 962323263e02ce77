//! The byte-shard fast path of the storage simulator: a
//! [`ByteDistributedStore`] whose nodes hold whole coded byte blocks and
//! whose retrieval decodes through the batched `GF(2^8)` pipeline.
//!
//! Each stored object of a [`ByteVersionedArchive`] contributes `n` coded
//! blocks, block `i` lives on the node chosen by the [`Placement`], and a
//! retrieval reads whole blocks from live nodes according to the SEC read
//! plan (`2γ` block reads for an exploitable delta, `k` otherwise) — one
//! block read is one of the paper's disk I/O reads. Single-threaded and
//! lock-free, it is the reference `sec-engine`'s equivalence and simulation
//! suites compare the concurrent engine against.
//!
//! Corrupt blocks (wrong length) surface as [`StoreError::Code`] rather than
//! aborting the simulation: the decode pipeline validates shard lengths up
//! front, and delta application runs through the fallible `try_` kernels.

use rand::Rng;
use sec_erasure::read_plan::plan_read;
use sec_erasure::{ByteCodec, ByteShards};
use sec_versioning::walk::{apply_planned, read_target, unchanged, walk_version};
use sec_versioning::{ByteVersionedArchive, StoredPayload};

use crate::failure::FailurePattern;
use crate::metrics::{AtomicIoMetrics, IoMetrics};
use crate::node::{StorageNode, SymbolKey};
use crate::placement::{Placement, PlacementStrategy};
use crate::store::StoreError;

/// Result of a failure-aware byte retrieval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ByteStoredRetrieval {
    /// The recovered byte object (trimmed to the archive's object length).
    pub data: Vec<u8>,
    /// Blocks read from nodes to serve this retrieval.
    pub io_reads: usize,
}

/// Archive byte blocks stored across simulated nodes under a placement
/// strategy, with failure-aware retrieval through the batched pipeline.
///
/// Retrieval, recoverability checks and failure injection all take `&self`
/// (node liveness and every counter are atomic, block access is
/// borrow-based), so one store can serve many concurrent readers; only
/// content mutation (repair, corruption hooks) needs `&mut self`. The codec
/// is `Arc`-shared with the archive that built the store, so the generator
/// matrix and its multiplication tables exist once per code.
#[derive(Debug)]
pub struct ByteDistributedStore {
    codec: ByteCodec,
    nodes: Vec<StorageNode<Vec<u8>>>,
    placement: Placement,
    metrics: AtomicIoMetrics,
    object_len: usize,
}

impl ByteDistributedStore {
    /// Builds a store for `archive` under the given placement and writes
    /// every coded block to its node.
    pub fn new(archive: &ByteVersionedArchive, strategy: PlacementStrategy) -> Self {
        let entries = archive.stored_entries();
        let placement = Placement::new(strategy, archive.code().n(), entries.len());
        let mut store = Self {
            // Share the archive's code and multiplication tables instead of
            // cloning the generator per store.
            codec: archive.codec().clone(),
            nodes: (0..placement.node_count()).map(StorageNode::new).collect(),
            placement,
            metrics: AtomicIoMetrics::new(),
            object_len: archive.object_len().unwrap_or(0),
        };
        for (entry_idx, entry) in entries.iter().enumerate() {
            for position in 0..entry.shards.shard_count() {
                let key = SymbolKey {
                    entry: entry_idx,
                    position,
                };
                let node = store
                    .placement
                    .try_node_for(key)
                    // audit: panic ok — write path: keys are built from the same archive the placement was provisioned for
                    .expect("placement covers every archive entry");
                // audit: panic ok — placement maps every key into 0..n and the store holds n nodes
                store.nodes[node].put(key, entry.shards.shard(position).to_vec());
                store.metrics.add_symbol_writes(1);
            }
        }
        store
    }

    /// Convenience constructor for colocated placement.
    pub fn colocated(archive: &ByteVersionedArchive) -> Self {
        Self::new(archive, PlacementStrategy::Colocated)
    }

    /// Convenience constructor for dispersed placement.
    pub fn dispersed(archive: &ByteVersionedArchive) -> Self {
        Self::new(archive, PlacementStrategy::Dispersed)
    }

    /// The placement in use.
    pub fn placement(&self) -> Placement {
        self.placement
    }

    /// A snapshot of the accumulated I/O metrics (`symbol_reads` counts
    /// block reads here).
    pub fn metrics(&self) -> IoMetrics {
        self.metrics.snapshot()
    }

    /// Resets the I/O metrics.
    pub fn reset_metrics(&self) {
        self.metrics.reset();
    }

    /// Number of nodes in the cluster.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Immutable access to a node (for inspection in tests and experiments).
    pub fn node(&self, id: usize) -> Option<&StorageNode<Vec<u8>>> {
        self.nodes.get(id)
    }

    /// Marks a node failed, or reports [`StoreError::InvalidNode`] when
    /// `node` is out of range.
    pub fn fail_node(&self, node: usize) -> Result<(), StoreError> {
        self.checked_node(node)?.fail();
        Ok(())
    }

    /// Revives a node, or reports [`StoreError::InvalidNode`] when `node` is
    /// out of range.
    pub fn revive_node(&self, node: usize) -> Result<(), StoreError> {
        self.checked_node(node)?.revive();
        Ok(())
    }

    fn checked_node(&self, node: usize) -> Result<&StorageNode<Vec<u8>>, StoreError> {
        self.nodes.get(node).ok_or(StoreError::InvalidNode {
            node,
            n: self.nodes.len(),
        })
    }

    /// Applies a failure pattern over the whole cluster.
    ///
    /// **Overwrite semantics:** within the pattern's length the pattern *is*
    /// the new liveness — covered nodes that the pattern marks alive are
    /// revived even if they were failed before the call. Nodes beyond the
    /// pattern's length are left untouched. Use
    /// [`ByteDistributedStore::apply_pattern_additive`] to layer failures on
    /// top of existing ones instead.
    pub fn apply_pattern(&self, pattern: &FailurePattern) {
        for (idx, node) in self.nodes.iter().enumerate() {
            if pattern.is_failed(idx) {
                node.fail();
            } else if idx < pattern.len() {
                node.revive();
            }
        }
    }

    /// Fails every node the pattern marks failed, leaving all other nodes'
    /// liveness untouched — the additive counterpart of
    /// [`ByteDistributedStore::apply_pattern`], for layering patterns.
    pub fn apply_pattern_additive(&self, pattern: &FailurePattern) {
        for (idx, node) in self.nodes.iter().enumerate() {
            if pattern.is_failed(idx) {
                node.fail();
            }
        }
    }

    /// Fails each node independently with probability `p`.
    pub fn fail_randomly<R: Rng + ?Sized>(&self, p: f64, rng: &mut R) -> FailurePattern {
        let pattern = FailurePattern::sample(self.nodes.len(), p, rng);
        self.apply_pattern(&pattern);
        pattern
    }

    /// Overwrites one stored block — a fault-injection hook for corruption
    /// experiments and tests.
    ///
    /// # Panics
    ///
    /// Panics if the key is outside the placement.
    pub fn put_block(&mut self, entry: usize, position: usize, block: Vec<u8>) {
        let key = SymbolKey { entry, position };
        let node = self.placement.node_for(key);
        // audit: panic ok — node_for documents the panic; key validity is the caller contract
        self.nodes[node].put(key, block);
    }

    /// Indices of live nodes holding entry `entry`, as positions within the
    /// entry's coded blocks. An entry outside the placement has no live
    /// positions.
    pub fn live_positions(&self, entry: usize) -> Vec<usize> {
        (0..self.placement.codeword_len())
            .filter(|&position| {
                self.placement
                    .try_node_for(SymbolKey { entry, position })
                    // audit: panic ok — placement maps every key into 0..n and the store holds n nodes
                    .is_ok_and(|node| self.nodes[node].is_alive())
            })
            .collect()
    }

    /// Whether a single stored entry is still decodable from live nodes.
    pub fn entry_recoverable(&self, archive: &ByteVersionedArchive, entry: usize) -> bool {
        self.live_positions(entry).len() >= archive.code().k()
    }

    /// Whether every stored object of the archive is recoverable.
    pub fn archive_recoverable(&self, archive: &ByteVersionedArchive) -> bool {
        (0..archive.layout().len()).all(|entry| self.entry_recoverable(archive, entry))
    }

    /// Counts one read of `entry`'s block at each of `positions` against the
    /// node holding it and borrows the blocks: whole blocks are large, so
    /// decoding works on references instead of cloning them out of the nodes.
    fn gather(&self, entry: usize, positions: &[usize]) -> Result<Vec<(usize, &[u8])>, StoreError> {
        let mut shares = Vec::with_capacity(positions.len());
        for &position in positions {
            let key = SymbolKey { entry, position };
            // audit: panic ok — placement maps every key into 0..n and the store holds n nodes
            let node = &self.nodes[self.placement.try_node_for(key)?];
            if !node.touch(key) {
                self.metrics.add_failed_read();
                return Err(StoreError::Unrecoverable { entry });
            }
            self.metrics.add_symbol_reads(1);
            // audit: panic ok — touch succeeded, so the node stores the block (liveness may flip, contents cannot under &self)
            let block = node.peek_stored(key).expect("touched above");
            shares.push((position, block.as_slice()));
        }
        Ok(shares)
    }

    /// Reads one stored entry from live nodes under the SEC read plan and
    /// folds it into the walk's accumulator through the batched pipeline.
    fn read_entry(
        &self,
        entry_idx: usize,
        payload: StoredPayload,
        shard_len: usize,
        acc: Option<ByteShards>,
    ) -> Result<(usize, ByteShards), StoreError> {
        let live = self.live_positions(entry_idx);
        let Some(target) = read_target(payload) else {
            return Ok((0, unchanged(acc, self.codec.code().k(), shard_len)));
        };
        let plan = plan_read(self.codec.code(), &live, target)
            .map_err(|_| StoreError::Unrecoverable { entry: entry_idx })?;

        let shares = self.gather(entry_idx, &plan.nodes)?;
        let acc = apply_planned(&self.codec, plan.method, target, &shares, acc)?;
        Ok((plan.io_reads, acc))
    }

    /// Retrieves version `l` of the archive, reading only from live nodes.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Unrecoverable`] when some required entry has too
    /// few live nodes, [`StoreError::Code`] when a stored block is corrupt
    /// (e.g. wrong length), or a versioning error for an invalid `l`.
    pub fn retrieve_version(
        &self,
        archive: &ByteVersionedArchive,
        l: usize,
    ) -> Result<ByteStoredRetrieval, StoreError> {
        let entries = archive.stored_entries();
        if self.placement.entries() < entries.len() {
            return Err(StoreError::ArchiveMismatch {
                provisioned: self.placement.entries(),
                supplied: entries.len(),
            });
        }
        archive.check_version(l)?;
        self.metrics.add_retrieval();

        let out = walk_version(
            archive.config().strategy(),
            entries.len(),
            // audit: panic ok — `idx` comes from walk_version, which stays within 0..entries.len()
            |idx| entries[idx].payload,
            l,
            None,
            // audit: panic ok — `idx` comes from walk_version, which stays within 0..entries.len()
            |idx, acc| self.read_entry(idx, entries[idx].payload, archive.shard_len(), acc),
        )?;
        Ok(ByteStoredRetrieval {
            data: out.shards.into_flat(self.object_len),
            io_reads: out.io_reads,
        })
    }

    /// Repairs a failed node: rebuilds every block it should hold from `k`
    /// live blocks of the same entry into a staging buffer, and only once
    /// all of them are rebuilt wipes the node, writes them and revives it.
    /// Returns the number of blocks rebuilt.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Unrecoverable`] if some affected entry has fewer
    /// than `k` live nodes (or a read of one is lost). A repair that fails
    /// part-way committed nothing: the node's contents and liveness are
    /// exactly what they were before the call.
    pub fn repair_node(
        &mut self,
        archive: &ByteVersionedArchive,
        node_id: usize,
    ) -> Result<usize, StoreError> {
        if node_id >= self.nodes.len() {
            return Err(StoreError::InvalidNode {
                node: node_id,
                n: self.nodes.len(),
            });
        }
        let (n, k) = (self.codec.code().n(), self.codec.code().k());
        let mut to_rebuild = Vec::new();
        for entry_idx in 0..archive.layout().len() {
            for position in 0..n {
                let key = SymbolKey {
                    entry: entry_idx,
                    position,
                };
                if self.placement.try_node_for(key)? == node_id {
                    to_rebuild.push(key);
                }
            }
        }
        let mut staged: Vec<(SymbolKey, Vec<u8>)> = Vec::with_capacity(to_rebuild.len());
        for key in to_rebuild {
            // Simulated mid-repair crash: the repair job dies between
            // blocks. Nothing is committed yet, so reads keep working and a
            // later retry starts over (see sec-sim's torn-repair suite).
            if crate::fault::buggify("store::repair::abort") {
                return Err(StoreError::Unrecoverable { entry: key.entry });
            }
            let live: Vec<usize> = self
                .live_positions(key.entry)
                .into_iter()
                .filter(|&p| p != key.position)
                .collect();
            if live.len() < k {
                return Err(StoreError::Unrecoverable { entry: key.entry });
            }
            // audit: panic ok — `live.len() >= k` was checked above
            let shares = self.gather(key.entry, &live[..k])?;
            staged.push((key, self.codec.rebuild_block(&shares, key.position)?));
        }
        // Commit: every block rebuilt, so replace the node's contents.
        let rebuilt = staged.len();
        // audit: panic ok — `node_id < n` was checked at function entry
        let node = &mut self.nodes[node_id];
        node.wipe();
        for (key, block) in staged {
            node.put(key, block);
            self.metrics.add_symbol_writes(1);
        }
        node.revive();
        self.metrics.add_repair();
        Ok(rebuilt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sec_erasure::{CodeError, GeneratorForm};
    use sec_versioning::{ArchiveConfig, EncodingStrategy, VersioningError};

    fn versions() -> Vec<Vec<u8>> {
        let v1: Vec<u8> = (0..60).map(|i| (i * 11 + 3) as u8).collect();
        let mut v2 = v1.clone();
        v2[5] ^= 0x7C; // block 0
        let mut v3 = v2.clone();
        v3[25] ^= 0x11; // block 1
        vec![v1, v2, v3]
    }

    fn archive(strategy: EncodingStrategy) -> (ByteVersionedArchive, Vec<Vec<u8>>) {
        let config = ArchiveConfig::new(6, 3, GeneratorForm::NonSystematic, strategy).unwrap();
        let mut archive = ByteVersionedArchive::new(config).unwrap();
        let vs = versions();
        archive.append_all(&vs).unwrap();
        (archive, vs)
    }

    #[test]
    fn colocated_store_round_trips_all_strategies() {
        for strategy in [
            EncodingStrategy::BasicSec,
            EncodingStrategy::OptimizedSec,
            EncodingStrategy::ReversedSec,
            EncodingStrategy::NonDifferential,
        ] {
            let (archive, vs) = archive(strategy);
            let store = ByteDistributedStore::colocated(&archive);
            assert_eq!(store.node_count(), 6);
            for (l, expect) in vs.iter().enumerate() {
                let r = store.retrieve_version(&archive, l + 1).unwrap();
                assert_eq!(&r.data, expect, "{strategy:?} version {}", l + 1);
            }
            assert!(store.metrics().symbol_reads > 0);
            assert_eq!(store.metrics().retrievals, vs.len() as u64);
        }
    }

    #[test]
    fn additive_patterns_layer_on_existing_failures() {
        let (archive, _) = archive(EncodingStrategy::BasicSec);
        let store = ByteDistributedStore::colocated(&archive);
        store.fail_node(4).unwrap();
        store.apply_pattern_additive(&FailurePattern::with_failures(6, &[1]));
        assert!(!store.node(4).unwrap().is_alive(), "additive must not revive");
        assert!(!store.node(1).unwrap().is_alive());
        store.apply_pattern(&FailurePattern::with_failures(6, &[1]));
        assert!(
            store.node(4).unwrap().is_alive(),
            "overwrite revives covered nodes"
        );
    }

    #[test]
    fn dispersed_store_uses_distinct_node_sets() {
        let (archive, vs) = archive(EncodingStrategy::BasicSec);
        let store = ByteDistributedStore::dispersed(&archive);
        assert_eq!(store.node_count(), 18);
        let r = store.retrieve_version(&archive, 3).unwrap();
        assert_eq!(r.data, vs[2]);
        assert_eq!(store.node(0).unwrap().stored_symbols(), 1);
    }

    #[test]
    fn io_reads_match_all_alive_archive_retrieval() {
        for strategy in [EncodingStrategy::BasicSec, EncodingStrategy::OptimizedSec] {
            let (archive, vs) = archive(strategy);
            let store = ByteDistributedStore::colocated(&archive);
            for l in 1..=vs.len() {
                let via_store = store.retrieve_version(&archive, l).unwrap().io_reads;
                let via_archive = archive.retrieve_version(l).unwrap().io_reads;
                assert_eq!(via_store, via_archive, "{strategy:?} version {l}");
            }
        }
    }

    #[test]
    fn survives_n_minus_k_failures_and_sparse_reads_stay_cheap() {
        let (archive, vs) = archive(EncodingStrategy::BasicSec);
        let store = ByteDistributedStore::colocated(&archive);
        store.fail_node(0).unwrap();
        store.fail_node(3).unwrap();
        store.fail_node(5).unwrap();
        assert!(store.archive_recoverable(&archive));
        for (l, expect) in vs.iter().enumerate() {
            assert_eq!(&store.retrieve_version(&archive, l + 1).unwrap().data, expect);
        }
        // Non-systematic Cauchy: deltas still cost 2γ block reads under
        // failures (any 2γ live rows qualify).
        store.reset_metrics();
        let r = store.retrieve_version(&archive, 2).unwrap();
        assert_eq!(r.io_reads, 3 + 2);
        // A fourth failure makes full objects unrecoverable.
        store.fail_node(1).unwrap();
        assert!(!store.archive_recoverable(&archive));
        assert!(matches!(
            store.retrieve_version(&archive, 1),
            Err(StoreError::Unrecoverable { .. })
        ));
    }

    #[test]
    fn repair_rebuilds_lost_blocks() {
        let (archive, vs) = archive(EncodingStrategy::BasicSec);
        let mut store = ByteDistributedStore::colocated(&archive);
        store.fail_node(2).unwrap();
        let rebuilt = store.repair_node(&archive, 2).unwrap();
        assert_eq!(rebuilt, 3);
        assert_eq!(store.metrics().repairs, 1);
        store.fail_node(0).unwrap();
        store.fail_node(1).unwrap();
        store.fail_node(3).unwrap();
        assert!(store.archive_recoverable(&archive));
        assert_eq!(store.retrieve_version(&archive, 3).unwrap().data, vs[2]);
    }

    #[test]
    fn sparse_deltas_survive_more_failures_than_full_objects() {
        // With 4 failures (2 live nodes) the 1-sparse delta entry is still
        // read with 2 block reads even though the full first version is lost
        // — the paper's observation that individual deltas have higher
        // static resilience (eq. 7 vs eq. 6).
        let (archive, vs) = archive(EncodingStrategy::BasicSec);
        let store = ByteDistributedStore::colocated(&archive);
        for node in [0, 1, 3, 5] {
            store.fail_node(node).unwrap();
        }
        assert!(!store.entry_recoverable(&archive, 0));
        assert_eq!(store.live_positions(1), vec![2, 4]);
        let layout = archive.layout();
        assert!(matches!(
            store.read_entry(0, layout[0], archive.shard_len(), None),
            Err(StoreError::Unrecoverable { entry: 0 })
        ));
        let (reads, delta) = store.read_entry(1, layout[1], archive.shard_len(), None).unwrap();
        assert_eq!(reads, 2);
        assert_eq!(delta.weight(), 1);
        let expect: Vec<u8> = vs[0].iter().zip(&vs[1]).map(|(a, b)| a ^ b).collect();
        assert_eq!(delta.into_flat(expect.len()), expect);
    }

    #[test]
    fn random_failures_and_pattern_application() {
        let (archive, vs) = archive(EncodingStrategy::BasicSec);
        let store = ByteDistributedStore::colocated(&archive);
        let mut rng = StdRng::seed_from_u64(5);
        let pattern = store.fail_randomly(0.3, &mut rng);
        assert_eq!(pattern.len(), 6);
        for node in 0..6 {
            assert_eq!(store.node(node).unwrap().is_alive(), !pattern.is_failed(node));
        }
        let read = store.retrieve_version(&archive, 3);
        if store.archive_recoverable(&archive) {
            assert_eq!(read.unwrap().data, vs[2]);
        } else {
            assert!(matches!(read, Err(StoreError::Unrecoverable { .. })));
        }
        // Overwriting with the all-alive pattern revives everything.
        store.apply_pattern(&FailurePattern::none(6));
        assert_eq!(store.retrieve_version(&archive, 3).unwrap().data, vs[2]);
    }

    #[test]
    fn repair_with_too_few_survivors_changes_nothing() {
        let (archive, vs) = archive(EncodingStrategy::BasicSec);
        let mut store = ByteDistributedStore::colocated(&archive);
        for node in [0, 1, 2, 3] {
            store.fail_node(node).unwrap();
        }
        assert!(matches!(
            store.repair_node(&archive, 0),
            Err(StoreError::Unrecoverable { entry: 0 })
        ));
        // Staged, never committed: node 0 is still down and still holds the
        // three blocks it had, so reviving the cluster loses nothing.
        assert!(!store.node(0).unwrap().is_alive());
        assert_eq!(store.node(0).unwrap().stored_symbols(), 3);
        assert_eq!(store.metrics().repairs, 0);
        store.apply_pattern(&FailurePattern::none(6));
        for (l, expect) in vs.iter().enumerate() {
            assert_eq!(&store.retrieve_version(&archive, l + 1).unwrap().data, expect);
        }
    }

    #[test]
    fn corrupt_block_length_is_an_error_not_a_panic() {
        let (archive, _) = archive(EncodingStrategy::NonDifferential);
        let mut store = ByteDistributedStore::colocated(&archive);
        // Entry 0, position 0 gets a truncated block: retrieval must surface
        // a ShardSizeMismatch error (via the try_ kernel path), not abort.
        store.put_block(0, 0, vec![0xAB; 3]);
        match store.retrieve_version(&archive, 1) {
            Err(StoreError::Code(CodeError::ShardSizeMismatch { .. })) => {}
            other => panic!("expected ShardSizeMismatch, got {other:?}"),
        }
        // Versions whose entries are intact still retrieve fine.
        assert!(store.retrieve_version(&archive, 2).is_ok());
    }

    #[test]
    fn error_paths() {
        let (archive, _) = archive(EncodingStrategy::BasicSec);
        let store = ByteDistributedStore::colocated(&archive);
        assert!(matches!(
            store.retrieve_version(&archive, 0),
            Err(StoreError::Versioning(VersioningError::NoSuchVersion { .. }))
        ));
        assert!(matches!(
            store.retrieve_version(&archive, 9),
            Err(StoreError::Versioning(VersioningError::NoSuchVersion { .. }))
        ));
        let _ = store.retrieve_version(&archive, 1).unwrap();
        assert!(store.metrics().symbol_reads > 0);
        store.reset_metrics();
        assert_eq!(store.metrics(), IoMetrics::default());
        let empty_config =
            ArchiveConfig::new(6, 3, GeneratorForm::NonSystematic, EncodingStrategy::BasicSec).unwrap();
        let empty = ByteVersionedArchive::new(empty_config).unwrap();
        let empty_store = ByteDistributedStore::colocated(&empty);
        assert!(matches!(
            empty_store.retrieve_version(&empty, 1),
            Err(StoreError::Versioning(VersioningError::EmptyArchive))
        ));
    }
}
