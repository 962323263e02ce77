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

/// The types above, plus their strategy/checkpoint semantics exercised on the
/// symbol-level oracle (the byte archive's own twins live in `byte_archive`).
#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol_archive::VersionedArchive;
    use sec_gf::{GaloisField, Gf256};

    fn obj(vals: &[u64]) -> Vec<Gf256> {
        vals.iter().map(|&v| Gf256::from_u64(v)).collect()
    }

    fn archive(strategy: EncodingStrategy) -> VersionedArchive<Gf256> {
        let config = ArchiveConfig::new(6, 3, GeneratorForm::NonSystematic, strategy).unwrap();
        VersionedArchive::new(config).unwrap()
    }

    fn three_versions() -> Vec<Vec<Gf256>> {
        let v1 = obj(&[10, 20, 30]);
        let mut v2 = v1.clone();
        v2[1] = Gf256::from_u64(0x5A); // γ2 = 1
        let mut v3 = v2.clone();
        v3[0] = Gf256::from_u64(7);
        v3[2] = Gf256::from_u64(9); // γ3 = 2 (≥ k/2 for k = 3)
        vec![v1, v2, v3]
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
        let mut a = archive(EncodingStrategy::BasicSec);
        assert!(a.is_empty());
        a.append_all(&three_versions()).unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a.sparsity_profile(), &[1, 2]);
        let payloads: Vec<StoredPayload> = a.entries().iter().map(|e| e.payload).collect();
        assert_eq!(
            payloads,
            vec![
                StoredPayload::FullVersion { version: 1 },
                StoredPayload::Delta { to: 2, sparsity: 1 },
                StoredPayload::Delta { to: 3, sparsity: 2 },
            ]
        );
        assert!(a.latest_full_entry().is_none());
    }

    #[test]
    fn checkpoint_policy_inserts_periodic_fulls() {
        let config = ArchiveConfig::new(6, 3, GeneratorForm::NonSystematic, EncodingStrategy::BasicSec)
            .unwrap()
            .with_checkpoints(CheckpointPolicy::every(2));
        assert!(config.checkpoints().is_enabled());
        let mut a: VersionedArchive<Gf256> = VersionedArchive::new(config).unwrap();
        // Six versions differing by one symbol each: with spacing 2 the
        // layout is full, δ, δ, full(checkpoint), δ, δ.
        let mut version = obj(&[10, 20, 30]);
        for v in 1..=6u64 {
            version[0] = Gf256::from_u64(v);
            a.append_version(&version).unwrap();
        }
        let fulls: Vec<usize> = a
            .entries()
            .iter()
            .enumerate()
            .filter(|(_, e)| matches!(e.payload, StoredPayload::FullVersion { .. }))
            .map(|(idx, _)| idx)
            .collect();
        assert_eq!(fulls, vec![0, 3]);
        assert_eq!(a.checkpoints_written(), 1);
        // The disabled policy leaves the paper-exact layout untouched.
        let mut plain = archive(EncodingStrategy::BasicSec);
        plain.append_all(&three_versions()).unwrap();
        assert_eq!(plain.checkpoints_written(), 0);
    }

    #[test]
    fn optimized_sec_stores_full_for_dense_deltas() {
        let mut a = archive(EncodingStrategy::OptimizedSec);
        a.append_all(&three_versions()).unwrap();
        let payloads: Vec<StoredPayload> = a.entries().iter().map(|e| e.payload).collect();
        // γ3 = 2 ≥ k/2 = 1.5 → version 3 stored in full.
        assert_eq!(
            payloads,
            vec![
                StoredPayload::FullVersion { version: 1 },
                StoredPayload::Delta { to: 2, sparsity: 1 },
                StoredPayload::FullVersion { version: 3 },
            ]
        );
    }

    #[test]
    fn reversed_sec_keeps_latest_full() {
        let mut a = archive(EncodingStrategy::ReversedSec);
        let versions = three_versions();
        a.append_all(&versions).unwrap();
        // Entries are the two deltas; latest_full encodes version 3.
        assert_eq!(a.entries().len(), 2);
        assert!(matches!(
            a.entries()[0].payload,
            StoredPayload::Delta { to: 2, sparsity: 1 }
        ));
        let latest = a.latest_full_entry().unwrap();
        assert_eq!(latest.payload, StoredPayload::FullVersion { version: 3 });
        // The full copy decodes to version 3.
        let shares: Vec<(usize, Gf256)> = latest.codeword.iter().copied().enumerate().take(3).collect();
        assert_eq!(a.code().decode_full(&shares).unwrap(), versions[2]);
    }

    #[test]
    fn non_differential_stores_every_version_fully() {
        let mut a = archive(EncodingStrategy::NonDifferential);
        a.append_all(&three_versions()).unwrap();
        assert!(a
            .entries()
            .iter()
            .all(|e| matches!(e.payload, StoredPayload::FullVersion { .. })));
        // The sparsity profile is still tracked for reporting purposes.
        assert_eq!(a.sparsity_profile(), &[1, 2]);
    }

    #[test]
    fn append_validates_object_length() {
        let mut a = archive(EncodingStrategy::BasicSec);
        assert!(matches!(
            a.append_version(&obj(&[1, 2])),
            Err(VersioningError::ObjectLengthMismatch {
                expected: 3,
                actual: 2
            })
        ));
        assert!(matches!(a.append_all(&[]), Err(VersioningError::EmptyArchive)));
    }

    #[test]
    fn delta_codewords_encode_the_delta_not_the_version() {
        let mut a = archive(EncodingStrategy::BasicSec);
        let versions = three_versions();
        a.append_all(&versions).unwrap();
        let delta_entry = &a.entries()[1];
        let expected_delta: Vec<Gf256> = versions[1]
            .iter()
            .zip(&versions[0])
            .map(|(&b, &a)| b - a)
            .collect();
        let expected_codeword = a.code().encode(&expected_delta).unwrap();
        assert_eq!(delta_entry.codeword, expected_codeword);
    }

    #[test]
    fn payload_reads_use_io_model() {
        let model = IoModel::new(CodeParams::new(20, 10).unwrap(), GeneratorForm::NonSystematic);
        assert_eq!(StoredPayload::FullVersion { version: 1 }.reads(&model), 10);
        assert_eq!(StoredPayload::Delta { to: 2, sparsity: 3 }.reads(&model), 6);
        assert_eq!(StoredPayload::Delta { to: 2, sparsity: 8 }.reads(&model), 10);
    }
}
