//! The layout ledger of a byte archive: everything about a version history
//! *except* its coded blocks.
//!
//! An [`ArchiveLedger`] holds the configuration and codec, the fixed object
//! length, the stored layout (one [`StoredPayload`] per stored entry, in the
//! walk order of [`crate::walk`]: append order, with Reversed SEC's full
//! latest copy as the final element), the γ profile, the plaintext tail the
//! next delta is computed against, and the checkpoint run. Its one
//! [`append`](ArchiveLedger::append) decides what the next version is stored
//! as, encodes it once, and hands the coded blocks back **by value** — the
//! ledger never keeps a block. Whoever calls `append` owns them, in the
//! [`CodedBlocks`] container it chooses:
//! [`ByteVersionedArchive`](crate::ByteVersionedArchive) keeps them in
//! memory, `sec-engine` moves them onto its storage nodes.
//!
//! An append costs what changed. The plaintext tail is also the delta
//! workspace: each block of the new version that differs from the tail is
//! XORed into it in place — one pass that is at once the delta and its
//! per-block γ — only those `γ` blocks are multiplied by the generator, and
//! then only they are copied in to make the tail the new version.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use sec_erasure::{ByteCodec, ByteShards, SecCode};

use crate::archive::{ArchiveConfig, EncodingStrategy, StoredPayload};
use crate::error::VersioningError;
use crate::object::VersionId;

/// One stored, erasure-coded byte object: its semantic payload and its `n`
/// coded blocks, held in the owner's [`CodedBlocks`] container.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ByteEncodedEntry<B = ByteShards> {
    /// What the coded blocks encode.
    pub payload: StoredPayload,
    /// The `n` coded blocks, shard `i` belonging to node position `i`.
    pub shards: B,
}

/// The entries one append writes, as `(slot, entry)` pairs where `slot`
/// indexes [`ArchiveLedger::layout`].
type Writes<B> = Vec<(usize, ByteEncodedEntry<B>)>;

/// The container an owner keeps one entry's `n` coded blocks in.
/// [`ArchiveLedger::append`] allocates it and encodes straight into it, so
/// no block is copied after it is computed: the standalone
/// [`ByteVersionedArchive`](crate::ByteVersionedArchive) keeps one
/// contiguous [`ByteShards`], `sec-engine` one `Vec<u8>` per block, which it
/// moves onto that block's node.
pub trait CodedBlocks {
    /// `n` zeroed blocks of `shard_len` bytes each.
    fn zeroed(n: usize, shard_len: usize) -> Self;

    /// Every block, mutably, in node-position order.
    fn blocks_mut(&mut self) -> Vec<&mut [u8]>;
}

impl CodedBlocks for ByteShards {
    fn zeroed(n: usize, shard_len: usize) -> Self {
        ByteShards::zeroed(n, shard_len)
    }

    fn blocks_mut(&mut self) -> Vec<&mut [u8]> {
        self.shards_mut().collect()
    }
}

impl CodedBlocks for Vec<Vec<u8>> {
    fn zeroed(n: usize, shard_len: usize) -> Self {
        (0..n).map(|_| vec![0; shard_len]).collect()
    }

    fn blocks_mut(&mut self) -> Vec<&mut [u8]> {
        self.iter_mut().map(Vec::as_mut_slice).collect()
    }
}

/// The block-free state of a delta-based byte archive (see the
/// [module docs](self)).
#[derive(Debug)]
pub struct ArchiveLedger {
    config: ArchiveConfig,
    codec: ByteCodec,
    /// Fixed byte length of every version, set by the first append.
    object_len: Option<usize>,
    /// What each stored entry encodes, in walk order.
    layout: Vec<StoredPayload>,
    /// Plaintext copy of the latest version, and the workspace the next
    /// delta is formed in (see the [module docs](self)).
    tail: Vec<u8>,
    sparsity: Vec<usize>,
    versions: usize,
    /// Consecutive deltas since the last stored full version.
    delta_run: usize,
    checkpoints_written: usize,
}

impl ArchiveLedger {
    /// Creates an empty ledger over `GF(2^8)`.
    ///
    /// # Errors
    ///
    /// Returns [`VersioningError::Code`] when the configured code cannot be
    /// built over `GF(2^8)` (e.g. `n` too large for the Cauchy construction).
    pub fn new(config: ArchiveConfig) -> Result<Self, VersioningError> {
        let code = SecCode::cauchy(config.params().n, config.params().k, config.form())?;
        Self::with_codec(config, ByteCodec::new(code))
    }

    /// Creates an empty ledger that reuses an existing codec instead of
    /// building one.
    ///
    /// [`ByteCodec`] is `Clone`-cheap (its code and multiplication tables sit
    /// behind `Arc`s), so the per-object ledgers of a sharded cluster share
    /// one set of `GF(2^8)` tables per process.
    ///
    /// # Errors
    ///
    /// Returns [`VersioningError::CodecMismatch`] when the codec's code does
    /// not match the configuration's `(n, k, form)`.
    pub fn with_codec(config: ArchiveConfig, codec: ByteCodec) -> Result<Self, VersioningError> {
        let expected = (config.params().n, config.params().k, config.form());
        let code = codec.code();
        let actual = (code.n(), code.k(), code.form());
        if expected != actual {
            return Err(VersioningError::CodecMismatch { expected, actual });
        }
        Ok(Self {
            config,
            codec,
            object_len: None,
            layout: Vec::new(),
            tail: Vec::new(),
            sparsity: Vec::new(),
            versions: 0,
            delta_run: 0,
            checkpoints_written: 0,
        })
    }

    /// The archive configuration.
    pub fn config(&self) -> ArchiveConfig {
        self.config
    }

    /// The underlying erasure code.
    pub fn code(&self) -> &SecCode<sec_gf::Gf256> {
        self.codec.code()
    }

    /// The archive's batched codec. Cloning it is cheap and shares the code
    /// and multiplication tables, which is how `sec-store` and `sec-engine`
    /// avoid rebuilding them per store.
    pub fn codec(&self) -> &ByteCodec {
        &self.codec
    }

    /// Number of versions appended so far (`L`).
    pub fn len(&self) -> usize {
        self.versions
    }

    /// `true` when no version has been appended.
    pub fn is_empty(&self) -> bool {
        self.versions == 0
    }

    /// Byte length every version must have, fixed by the first append
    /// (`None` while the archive is empty).
    pub fn object_len(&self) -> Option<usize> {
        self.object_len
    }

    /// Byte length of every coded block: the object split `k` ways, rounded
    /// up (0 while the archive is empty).
    pub fn shard_len(&self) -> usize {
        self.object_len.unwrap_or(0).div_ceil(self.config.params().k)
    }

    /// What each stored entry encodes, in the walk order shared by every
    /// read layer ([`crate::walk`]): append-order entries, with the
    /// Reversed-SEC full latest copy as the final element. This is the slice
    /// [`IoModel::version_reads_for_layout`](crate::IoModel::version_reads_for_layout)
    /// predicts from, so the ordering convention lives here, once.
    pub fn layout(&self) -> &[StoredPayload] {
        &self.layout
    }

    /// Per-block sparsity profile `γ_2, …, γ_L` of the appended versions.
    pub fn sparsity_profile(&self) -> &[usize] {
        &self.sparsity
    }

    /// Number of policy-forced checkpoint entries written so far (full
    /// versions stored by the [`CheckpointPolicy`](crate::CheckpointPolicy)
    /// where the strategy alone would have stored a delta).
    pub fn checkpoints_written(&self) -> usize {
        self.checkpoints_written
    }

    /// Validates a 1-based version number against the appended history.
    ///
    /// # Errors
    ///
    /// Returns [`VersioningError::EmptyArchive`] when nothing has been
    /// appended, or [`VersioningError::NoSuchVersion`] for an out-of-range
    /// `l`.
    pub fn check_version(&self, l: usize) -> Result<(), VersioningError> {
        if self.is_empty() {
            return Err(VersioningError::EmptyArchive);
        }
        if l == 0 || l > self.versions {
            return Err(VersioningError::NoSuchVersion {
                requested: l,
                available: self.versions,
            });
        }
        Ok(())
    }

    /// Appends the next version: decides what it is stored as under the
    /// configured strategy and checkpoint policy, encodes it straight into
    /// fresh `B` containers, and returns the new version id with the coded
    /// blocks to write, as `(slot, entry)` pairs where `slot` indexes
    /// [`layout`](Self::layout). A delta is encoded from its `γ` changed
    /// blocks alone (`n·γ` block products), a full version from all `k`.
    ///
    /// Every strategy writes one fresh slot, except Reversed SEC from the
    /// second version on, which writes two: the slot that held the full
    /// latest copy is overwritten by the new delta, and a fresh slot gets the
    /// new full copy (so the full copy stays last in walk order and no other
    /// slot ever moves). The ledger commits its own state only after every
    /// encode succeeded, and keeps none of the returned blocks.
    ///
    /// # Errors
    ///
    /// Returns [`VersioningError::ObjectLengthMismatch`] when the version's
    /// byte length differs from the first version's, or an encoding error
    /// from the code layer; the ledger is unchanged on error.
    pub fn append<B: CodedBlocks>(
        &mut self,
        object: &[u8],
    ) -> Result<(VersionId, Writes<B>), VersioningError> {
        if let Some(expected) = self.object_len.filter(|&len| len != object.len()) {
            return Err(VersioningError::ObjectLengthMismatch {
                expected,
                actual: object.len(),
            });
        }
        let strategy = self.config.strategy();
        let id = VersionId(self.versions + 1);
        // Blocks are the `chunks(width)` of the flat object; a short last
        // block is zero-padded by the encode.
        let width = object.len().div_ceil(self.config.params().k).max(1);

        // The delta against the tail, formed in place; its changed blocks
        // are γ. The first version has nothing to differ from.
        let changed = (!self.is_empty()).then(|| self.form_delta(object, width));
        let gamma = changed.as_ref().map(Vec::len);

        // Anchor checkpoints: after `spacing` consecutive deltas the next
        // Basic/Optimized append stores the full version instead, bounding
        // every forward walk to at most `spacing` delta applications. Only
        // the fulls the policy forces (not the paper's own) count as
        // checkpoints.
        let spacing = self.config.checkpoints().spacing;
        let checkpoint_due = spacing > 0 && self.delta_run >= spacing;
        let (store_full, checkpoint) = match (strategy, gamma) {
            (_, None) | (EncodingStrategy::NonDifferential, _) => (true, false),
            (EncodingStrategy::BasicSec, _) => (checkpoint_due, checkpoint_due),
            (EncodingStrategy::OptimizedSec, Some(gamma)) => {
                let threshold = self.config.io_model().optimized_stores_full(gamma);
                (threshold || checkpoint_due, checkpoint_due && !threshold)
            }
            (EncodingStrategy::ReversedSec, _) => (false, false),
        };

        let writes = match self.encode_writes(id, object, width, changed.as_deref(), store_full) {
            Ok(writes) => writes,
            Err(err) => {
                // XORing the new blocks in again turns the delta back into
                // the previous version.
                if let Some(changed) = &changed {
                    self.update_tail(object, width, changed, |tail, new| {
                        sec_gf::bulk8::xor_accumulate(tail, &[new]);
                    });
                }
                return Err(err);
            }
        };

        // Commit: nothing above changed the ledger but the delta in the tail,
        // whose blocks now become the new version's.
        for (slot, entry) in &writes {
            match self.layout.get_mut(*slot) {
                Some(stored) => *stored = entry.payload,
                None => self.layout.push(entry.payload),
            }
        }
        match &changed {
            Some(changed) => self.update_tail(object, width, changed, <[u8]>::copy_from_slice),
            None => self.tail = object.to_vec(),
        }
        self.object_len = Some(object.len());
        self.sparsity.extend(gamma);
        self.delta_run = if store_full { 0 } else { self.delta_run + 1 };
        self.checkpoints_written += usize::from(checkpoint);
        self.versions = id.0;
        Ok((id, writes))
    }

    /// Forms the delta to `object` in the tail, in place: every block that
    /// differs is XORed with the new one, and its position returned. Those
    /// positions are the delta's support — their count is its γ — and the
    /// only sources its encode multiplies; an unchanged block is zero in the
    /// delta and is left as it is.
    fn form_delta(&mut self, object: &[u8], width: usize) -> Vec<usize> {
        let mut changed = Vec::new();
        let blocks = self.tail.chunks_mut(width).zip(object.chunks(width));
        for (block, (tail, new)) in blocks.enumerate() {
            if *tail != *new {
                sec_gf::bulk8::xor_accumulate(tail, &[new]);
                changed.push(block);
            }
        }
        changed
    }

    /// Runs `apply(tail_block, object_block)` on the `changed` blocks.
    fn update_tail(
        &mut self,
        object: &[u8],
        width: usize,
        changed: &[usize],
        apply: impl Fn(&mut [u8], &[u8]),
    ) {
        let blocks = self.tail.chunks_mut(width).zip(object.chunks(width)).enumerate();
        for (_, (tail, new)) in blocks.filter(|(block, _)| changed.contains(block)) {
            apply(tail, new);
        }
    }

    /// Encodes the entries `append` decided on: the delta from the `changed`
    /// blocks of the tail (which [`form_delta`](Self::form_delta) left
    /// holding it) unless a full version replaces it, and the full version
    /// from `object` when one is stored.
    fn encode_writes<B: CodedBlocks>(
        &self,
        id: VersionId,
        object: &[u8],
        width: usize,
        changed: Option<&[usize]>,
        store_full: bool,
    ) -> Result<Writes<B>, VersioningError> {
        let shard_len = object.len().div_ceil(self.config.params().k);
        let reversed = self.config.strategy() == EncodingStrategy::ReversedSec;
        let fresh = self.layout.len();
        let mut writes = Vec::with_capacity(2);
        if let Some(changed) = changed.filter(|_| !store_full) {
            // Reversed SEC turns the slot of the previous full copy into the
            // delta that reaches it.
            let slot = if reversed { fresh - 1 } else { fresh };
            let payload = StoredPayload::Delta {
                to: id.0,
                sparsity: changed.len(),
            };
            let blocks: Vec<(usize, &[u8])> = (self.tail.chunks(width).enumerate())
                .filter(|(block, _)| changed.contains(block))
                .collect();
            let shards = self.encode(&blocks, shard_len)?;
            writes.push((slot, ByteEncodedEntry { payload, shards }));
        }
        if store_full || reversed {
            let payload = StoredPayload::FullVersion { version: id.0 };
            let blocks: Vec<(usize, &[u8])> = object.chunks(width).enumerate().collect();
            let shards = self.encode(&blocks, shard_len)?;
            writes.push((fresh, ByteEncodedEntry { payload, shards }));
        }
        Ok(writes)
    }

    /// Encodes the object whose non-zero blocks are `blocks` straight into a
    /// fresh owner container.
    fn encode<B: CodedBlocks>(
        &self,
        blocks: &[(usize, &[u8])],
        shard_len: usize,
    ) -> Result<B, VersioningError> {
        let mut coded = B::zeroed(self.config.params().n, shard_len);
        self.codec.encode_sparse_into(blocks, &mut coded.blocks_mut())?;
        Ok(coded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::walk::read_target;
    use crate::ByteVersionedArchive;
    use sec_erasure::{CodeError, GeneratorForm};

    const STRATEGIES: [EncodingStrategy; 4] = [
        EncodingStrategy::BasicSec,
        EncodingStrategy::OptimizedSec,
        EncodingStrategy::ReversedSec,
        EncodingStrategy::NonDifferential,
    ];

    /// Six versions of a 100-byte object — three 34-byte blocks, the last
    /// one 32 bytes and zero-padded — with γ = 1, 2, 0, 3, 1, so every kind
    /// of entry is written, a short block changes, and v4 repeats v3.
    fn history() -> Vec<Vec<u8>> {
        let mut versions = vec![(0..100).map(|i| (i * 13 + 5) as u8).collect::<Vec<u8>>()];
        for edits in [&[40][..], &[0, 99], &[], &[1, 50, 98], &[70]] {
            let mut next = versions[versions.len() - 1].clone();
            for &at in edits {
                next[at] ^= 0x5A;
            }
            versions.push(next);
        }
        versions
    }

    /// An owner container that comes back one block short, so every encode
    /// into it fails — after the delta has been formed in the tail.
    struct OneShort(Vec<Vec<u8>>);

    impl CodedBlocks for OneShort {
        fn zeroed(n: usize, shard_len: usize) -> Self {
            OneShort(CodedBlocks::zeroed(n - 1, shard_len))
        }

        fn blocks_mut(&mut self) -> Vec<&mut [u8]> {
            self.0.blocks_mut()
        }
    }

    #[test]
    fn a_rejected_append_leaves_every_read_and_the_next_append_unchanged() {
        let versions = history();
        let (head, rest) = versions.split_at(3);
        let longer = [versions[0].as_slice(), &[1]].concat();
        for strategy in STRATEGIES {
            for form in [GeneratorForm::Systematic, GeneratorForm::NonSystematic] {
                let config = ArchiveConfig::new(6, 3, form, strategy).unwrap();
                let mut clean = ByteVersionedArchive::new(config).unwrap();
                let mut rejected = ByteVersionedArchive::new(config).unwrap();
                clean.append_all(head).unwrap();
                rejected.append_all(head).unwrap();
                for bad in [&versions[0][..99], &longer] {
                    assert!(matches!(
                        rejected.append_version(bad),
                        Err(VersioningError::ObjectLengthMismatch { expected: 100, .. })
                    ));
                }
                for l in 1..=head.len() {
                    assert_eq!(
                        rejected.retrieve_version(l).unwrap(),
                        clean.retrieve_version(l).unwrap(),
                        "{strategy} {form} version {l}"
                    );
                }
                for version in rest {
                    clean.append_version(version).unwrap();
                    rejected.append_version(version).unwrap();
                }
                assert_eq!(rejected.sparsity_profile(), &[1, 2, 0, 3, 1], "{strategy} {form}");
                assert_eq!(
                    rejected.stored_entries(),
                    clean.stored_entries(),
                    "{strategy} {form}"
                );
                for (l, expect) in versions.iter().enumerate() {
                    assert_eq!(&rejected.retrieve_version(l + 1).unwrap().data, expect);
                }
            }
        }
    }

    #[test]
    fn a_failed_encode_unforms_the_delta() {
        let versions = history();
        for strategy in STRATEGIES {
            let config = ArchiveConfig::new(6, 3, GeneratorForm::NonSystematic, strategy).unwrap();
            let mut clean = ArchiveLedger::new(config).unwrap();
            let mut failed = ArchiveLedger::new(config).unwrap();
            for version in &versions {
                assert!(matches!(
                    failed.append::<OneShort>(version),
                    Err(VersioningError::Code(CodeError::DataLengthMismatch {
                        expected: 6,
                        actual: 5
                    }))
                ));
                assert_eq!(failed.len(), clean.len(), "{strategy}");
                // Same γ, same layout, same blocks as if the failure never was.
                let want = clean.append::<ByteShards>(version).unwrap();
                assert_eq!(failed.append::<ByteShards>(version).unwrap(), want, "{strategy}");
                assert_eq!(failed.sparsity_profile(), clean.sparsity_profile(), "{strategy}");
            }
        }
    }

    #[test]
    fn an_identical_version_stores_n_zero_blocks_that_no_read_touches() {
        let versions = history();
        for strategy in [
            EncodingStrategy::BasicSec,
            EncodingStrategy::OptimizedSec,
            EncodingStrategy::ReversedSec,
        ] {
            let config = ArchiveConfig::new(6, 3, GeneratorForm::NonSystematic, strategy).unwrap();
            let mut ledger = ArchiveLedger::new(config).unwrap();
            let mut archive = ByteVersionedArchive::new(config).unwrap();
            for version in &versions[..3] {
                ledger.append::<ByteShards>(version).unwrap();
            }
            archive.append_all(&versions[..4]).unwrap();

            // v4 repeats v3: its delta is still stored, as n zero blocks.
            let (_, writes) = ledger.append::<ByteShards>(&versions[3]).unwrap();
            let (_, delta) = &writes[0];
            assert_eq!(
                delta.payload,
                StoredPayload::Delta { to: 4, sparsity: 0 },
                "{strategy}"
            );
            assert_eq!(delta.shards, ByteShards::zeroed(6, 34), "{strategy}");
            assert_eq!(read_target(delta.payload), None, "{strategy}");

            // No read touches them: v4 costs what v3 costs, as modelled.
            let reads = |l: usize| archive.retrieve_version(l).unwrap().io_reads;
            assert_eq!(reads(4), reads(3), "{strategy}");
            for l in [3, 4] {
                let model = config
                    .io_model()
                    .version_reads_for_layout(strategy, archive.layout(), l);
                assert_eq!(model, reads(l), "{strategy} version {l}");
            }
        }
    }
}
