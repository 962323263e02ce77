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
//! ledger never keeps a block. Whoever calls `append` owns them:
//! [`ByteVersionedArchive`](crate::ByteVersionedArchive) keeps them in
//! memory, `sec-engine` moves them onto its storage nodes.

use sec_erasure::{ByteCodec, ByteShards, SecCode};

use crate::archive::{ArchiveConfig, EncodingStrategy, StoredPayload};
use crate::error::VersioningError;
use crate::object::VersionId;

/// One stored, erasure-coded byte object: its semantic payload and its `n`
/// coded blocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ByteEncodedEntry {
    /// What the coded blocks encode.
    pub payload: StoredPayload,
    /// The `n` coded blocks, shard `i` belonging to node position `i`.
    pub shards: ByteShards,
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
    /// Plaintext copy of the latest version for delta computation.
    latest_version: Vec<u8>,
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
            latest_version: Vec::new(),
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
    /// configured strategy and checkpoint policy, encodes it, and returns
    /// the new version id with the coded blocks to write, as
    /// `(slot, entry)` pairs where `slot` indexes [`layout`](Self::layout).
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
    pub fn append(
        &mut self,
        object: &[u8],
    ) -> Result<(VersionId, Vec<(usize, ByteEncodedEntry)>), VersioningError> {
        if let Some(expected) = self.object_len.filter(|&len| len != object.len()) {
            return Err(VersioningError::ObjectLengthMismatch {
                expected,
                actual: object.len(),
            });
        }
        let k = self.config.params().k;
        let strategy = self.config.strategy();
        let id = VersionId(self.versions + 1);

        // Bytewise delta against the cached previous version; γ counted per
        // block. The first version has nothing to differ from.
        let delta = (!self.is_empty()).then(|| {
            let mut delta_bytes = object.to_vec();
            sec_gf::bulk8::xor_accumulate(&mut delta_bytes, &[&self.latest_version]);
            let delta = ByteShards::from_flat(&delta_bytes, k);
            (delta.weight(), delta)
        });
        let gamma = delta.as_ref().map(|&(gamma, _)| gamma);

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
        let reversed = strategy == EncodingStrategy::ReversedSec;

        let fresh = self.layout.len();
        let mut writes = Vec::with_capacity(2);
        if let Some((gamma, delta)) = delta.filter(|_| !store_full) {
            // Reversed SEC turns the slot of the previous full copy into the
            // delta that reaches it.
            let slot = if reversed { fresh - 1 } else { fresh };
            let payload = StoredPayload::Delta {
                to: id.0,
                sparsity: gamma,
            };
            let shards = self.codec.encode_blocks(&delta)?;
            writes.push((slot, ByteEncodedEntry { payload, shards }));
        }
        if store_full || reversed {
            let payload = StoredPayload::FullVersion { version: id.0 };
            let shards = self.codec.encode_blocks(&ByteShards::from_flat(object, k))?;
            writes.push((fresh, ByteEncodedEntry { payload, shards }));
        }

        // Commit: nothing above touched the ledger.
        for (slot, entry) in &writes {
            match self.layout.get_mut(*slot) {
                Some(stored) => *stored = entry.payload,
                None => self.layout.push(entry.payload),
            }
        }
        self.object_len = Some(object.len());
        self.sparsity.extend(gamma);
        self.delta_run = if store_full { 0 } else { self.delta_run + 1 };
        self.checkpoints_written += usize::from(checkpoint);
        self.latest_version.clear();
        self.latest_version.extend_from_slice(object);
        self.versions = id.0;
        Ok((id, writes))
    }
}
