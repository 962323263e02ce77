//! What an archive is configured with and what it stores: the encoding
//! strategy, the checkpoint policy, the validated [`ArchiveConfig`], and the
//! [`StoredPayload`] describing each stored entry of a layout.

use core::fmt;

use sec_erasure::{CodeParams, GeneratorForm};

use crate::error::VersioningError;
use crate::io_model::IoModel;

/// How successive versions are mapped to stored (erasure-coded) objects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EncodingStrategy {
    /// Paper's basic SEC: store `x_1` in full, then every delta.
    BasicSec,
    /// Paper's "Optimized Step j+1": store the full version instead of the
    /// delta whenever the delta is not exploitable (`γ ≥ k/2`).
    OptimizedSec,
    /// Paper's "Reversed SEC": store all deltas plus the *latest* version in
    /// full, favouring access to recent versions.
    ReversedSec,
    /// Baseline: every version encoded in full, no deltas.
    NonDifferential,
}

impl fmt::Display for EncodingStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            EncodingStrategy::BasicSec => "basic-sec",
            EncodingStrategy::OptimizedSec => "optimized-sec",
            EncodingStrategy::ReversedSec => "reversed-sec",
            EncodingStrategy::NonDifferential => "non-differential",
        };
        write!(f, "{name}")
    }
}

/// Anchor-checkpoint policy: materialize a full version every `spacing`
/// consecutive deltas in a Basic/Optimized SEC chain.
///
/// With spacing `c`, at most `c` deltas separate any version from its
/// nearest stored full version, so a single-version read costs at most
/// `k · (1 + c)` blocks — worst-case read amplification is bounded by
/// `1 + c` regardless of chain length. This generalizes the paper's
/// Optimized SEC rule (store full when `2γ ≥ k`), which bounds the *cost*
/// of each link but not the *number* of links walked.
///
/// `spacing = 0` (the [`Default`]) disables checkpointing; the archive then
/// behaves exactly as the paper describes. Reversed SEC and the
/// non-differential baseline already bound their walks (latest copy /
/// per-version fulls) and ignore the policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct CheckpointPolicy {
    /// Number of consecutive deltas after which the next append stores the
    /// full version instead; zero disables checkpointing.
    pub spacing: usize,
}

impl CheckpointPolicy {
    /// A policy inserting a checkpoint after every `spacing` deltas.
    pub fn every(spacing: usize) -> Self {
        Self { spacing }
    }

    /// The disabled policy (no checkpoints; paper-exact layouts).
    pub fn disabled() -> Self {
        Self { spacing: 0 }
    }

    /// `true` when checkpoints are being inserted.
    pub fn is_enabled(&self) -> bool {
        self.spacing > 0
    }
}

/// Configuration of a versioned archive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArchiveConfig {
    params: CodeParams,
    form: GeneratorForm,
    strategy: EncodingStrategy,
    checkpoints: CheckpointPolicy,
}

impl ArchiveConfig {
    /// Creates and validates a configuration (checkpointing disabled; opt in
    /// with [`ArchiveConfig::with_checkpoints`]).
    ///
    /// # Errors
    ///
    /// Returns [`VersioningError::Code`] when the `(n, k)` pair is invalid.
    pub fn new(
        n: usize,
        k: usize,
        form: GeneratorForm,
        strategy: EncodingStrategy,
    ) -> Result<Self, VersioningError> {
        Ok(Self {
            params: CodeParams::new(n, k)?,
            form,
            strategy,
            checkpoints: CheckpointPolicy::disabled(),
        })
    }

    /// Returns the configuration with the given checkpoint policy.
    pub fn with_checkpoints(mut self, checkpoints: CheckpointPolicy) -> Self {
        self.checkpoints = checkpoints;
        self
    }

    /// The `(n, k)` code parameters.
    pub fn params(&self) -> CodeParams {
        self.params
    }

    /// The generator form.
    pub fn form(&self) -> GeneratorForm {
        self.form
    }

    /// The encoding strategy.
    pub fn strategy(&self) -> EncodingStrategy {
        self.strategy
    }

    /// The anchor-checkpoint policy.
    pub fn checkpoints(&self) -> CheckpointPolicy {
        self.checkpoints
    }

    /// The I/O model induced by this configuration.
    pub fn io_model(&self) -> IoModel {
        IoModel::new(self.params, self.form)
    }
}

/// What one stored, erasure-coded object represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StoredPayload {
    /// The full contents of a version.
    FullVersion {
        /// 1-based version number.
        version: usize,
    },
    /// The delta from version `to - 1` to version `to`.
    Delta {
        /// 1-based version number this delta produces when applied to its
        /// predecessor.
        to: usize,
        /// Sparsity level `γ` of the delta.
        sparsity: usize,
    },
}

impl StoredPayload {
    /// Number of I/O reads needed to retrieve this stored object under the
    /// given model.
    pub fn reads(&self, model: &IoModel) -> usize {
        match self {
            StoredPayload::FullVersion { .. } => model.full_object_reads(),
            StoredPayload::Delta { sparsity, .. } => model.delta_reads(*sparsity),
        }
    }
}

/// The types above, the layout rules and what a stored entry holds, on the
/// paper's own shape: one byte per block, so a block is a `GF(2^8)` symbol.
/// The same rules on multi-byte blocks are tested in `byte_archive`, and
/// against the plaintext by `sec-sim`'s walk-free reference.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::byte_archive::ByteVersionedArchive;

    use StoredPayload::{Delta, FullVersion};

    /// x1 = [10, 20, 30]; v2 changes one symbol (γ2 = 1), v3 two (γ3 = 2,
    /// ≥ k/2 for k = 3).
    const THREE: [&[u8]; 3] = [&[10, 20, 30], &[10, 0x5A, 30], &[7, 0x5A, 9]];

    /// A (6, 3) archive holding [`THREE`].
    fn archive(strategy: EncodingStrategy) -> ByteVersionedArchive {
        let config = ArchiveConfig::new(6, 3, GeneratorForm::NonSystematic, strategy).unwrap();
        let mut a = ByteVersionedArchive::new(config).unwrap();
        a.append_all(&THREE).unwrap();
        a
    }

    fn payloads(a: &ByteVersionedArchive) -> Vec<StoredPayload> {
        a.stored_entries().iter().map(|e| e.payload).collect()
    }

    fn empty(config: ArchiveConfig) -> ByteVersionedArchive {
        ByteVersionedArchive::new(config).unwrap()
    }

    #[test]
    fn config_accessors() {
        let config =
            ArchiveConfig::new(6, 3, GeneratorForm::Systematic, EncodingStrategy::BasicSec).unwrap();
        assert_eq!(config.params().n, 6);
        assert_eq!(config.form(), GeneratorForm::Systematic);
        assert_eq!(config.strategy(), EncodingStrategy::BasicSec);
        assert_eq!(config.io_model().full_object_reads(), 3);
        assert!(
            ArchiveConfig::new(3, 3, GeneratorForm::Systematic, EncodingStrategy::BasicSec).is_err()
        );
        assert_eq!(format!("{}", EncodingStrategy::OptimizedSec), "optimized-sec");
    }

    #[test]
    fn basic_sec_stores_full_then_deltas() {
        let config =
            ArchiveConfig::new(6, 3, GeneratorForm::NonSystematic, EncodingStrategy::BasicSec).unwrap();
        assert!(empty(config).is_empty());
        let a = archive(EncodingStrategy::BasicSec);
        assert_eq!(a.len(), 3);
        assert_eq!(a.sparsity_profile(), &[1, 2]);
        let want = [
            FullVersion { version: 1 },
            Delta { to: 2, sparsity: 1 },
            Delta { to: 3, sparsity: 2 },
        ];
        assert_eq!(payloads(&a), want);
        assert_eq!(a.layout(), want);
        assert_eq!(a.checkpoints_written(), 0);
    }

    #[test]
    fn checkpoint_policy_inserts_periodic_fulls() {
        let config = ArchiveConfig::new(6, 3, GeneratorForm::NonSystematic, EncodingStrategy::BasicSec)
            .unwrap()
            .with_checkpoints(CheckpointPolicy::every(2));
        assert!(config.checkpoints().is_enabled());
        let mut a = empty(config);
        // Six versions differing in one symbol each: with spacing 2 the
        // layout is full, δ, δ, full (checkpoint), δ, δ.
        let mut version = THREE[0].to_vec();
        for v in 1..=6u8 {
            version[0] = v;
            a.append_version(&version).unwrap();
        }
        let fulls: Vec<usize> = payloads(&a)
            .iter()
            .enumerate()
            .filter(|(_, p)| matches!(p, FullVersion { .. }))
            .map(|(idx, _)| idx)
            .collect();
        assert_eq!(fulls, vec![0, 3]);
        assert_eq!(a.checkpoints_written(), 1);
        assert_eq!(a.retrieve_version(6).unwrap().data, version);
        // The disabled policy leaves the paper-exact layout untouched.
        assert!(!CheckpointPolicy::disabled().is_enabled());
        assert_eq!(archive(EncodingStrategy::BasicSec).checkpoints_written(), 0);
    }

    #[test]
    fn optimized_sec_stores_full_for_dense_deltas() {
        let a = archive(EncodingStrategy::OptimizedSec);
        // γ3 = 2 ≥ k/2 = 1.5 → version 3 stored in full.
        let want = [
            FullVersion { version: 1 },
            Delta { to: 2, sparsity: 1 },
            FullVersion { version: 3 },
        ];
        assert_eq!(payloads(&a), want);
        assert_eq!(a.sparsity_profile(), &[1, 2]);
        assert_eq!(a.checkpoints_written(), 0);
    }

    #[test]
    fn append_validates_object_length() {
        let config =
            ArchiveConfig::new(6, 3, GeneratorForm::NonSystematic, EncodingStrategy::BasicSec).unwrap();
        let mut a = archive(EncodingStrategy::BasicSec);
        assert!(matches!(
            a.append_version(&[1, 2]),
            Err(VersioningError::ObjectLengthMismatch {
                expected: 3,
                actual: 2
            })
        ));
        assert!(matches!(
            a.append_version(&[1, 2, 3, 4]),
            Err(VersioningError::ObjectLengthMismatch {
                expected: 3,
                actual: 4
            })
        ));
        // A rejected version leaves the archive as it was.
        assert_eq!(a.len(), 3);
        assert_eq!(a.retrieve_version(3).unwrap().data, THREE[2]);
        let none: [&[u8]; 0] = [];
        assert!(matches!(
            empty(config).append_all(&none),
            Err(VersioningError::EmptyArchive)
        ));
    }

    #[test]
    fn reversed_sec_keeps_latest_full() {
        let a = archive(EncodingStrategy::ReversedSec);
        let want = [
            Delta { to: 2, sparsity: 1 },
            Delta { to: 3, sparsity: 2 },
            FullVersion { version: 3 },
        ];
        assert_eq!(payloads(&a), want);
        // The full copy's first k blocks decode to version 3 on their own.
        let latest = a.stored_entries()[2];
        let shares: Vec<(usize, &[u8])> = (0..3).map(|p| (p, latest.shards.shard(p))).collect();
        assert_eq!(a.codec().decode_blocks(&shares).unwrap().join(3), THREE[2]);
    }

    #[test]
    fn non_differential_stores_every_version_fully() {
        let a = archive(EncodingStrategy::NonDifferential);
        assert!(payloads(&a).iter().all(|p| matches!(p, FullVersion { .. })));
        // The sparsity profile is still tracked for reporting purposes.
        assert_eq!(a.sparsity_profile(), &[1, 2]);
    }

    #[test]
    fn delta_codewords_encode_the_delta_not_the_version() {
        let a = archive(EncodingStrategy::BasicSec);
        let delta: Vec<u8> = THREE[1].iter().zip(THREE[0]).map(|(b, a)| b ^ a).collect();
        let expected = a
            .codec()
            .encode_blocks(&sec_erasure::ByteShards::from_flat(&delta, 3));
        assert_eq!(a.stored_entries()[1].shards, expected.unwrap());
    }

    #[test]
    fn payload_reads_use_io_model() {
        let model = IoModel::new(CodeParams::new(20, 10).unwrap(), GeneratorForm::NonSystematic);
        assert_eq!(FullVersion { version: 1 }.reads(&model), 10);
        assert_eq!(Delta { to: 2, sparsity: 3 }.reads(&model), 6);
        assert_eq!(Delta { to: 2, sparsity: 8 }.reads(&model), 10);
    }
}
