//! The symbol-level reference archive: one `GF(q)` element per node, exactly
//! as the paper writes it (`x_j ∈ F_q^k`, Fig. 1).
//!
//! Test-only. It shares no code with [`ArchiveLedger::append`] or
//! [`crate::walk`] — strategy, checkpoint decision, walk order and read
//! accounting are all spelled out a second time here and in
//! [`crate::retrieval`] — which is what makes it an oracle: `proptests`
//! compares the byte archive against it layout for layout and read for read.
//!
//! [`ArchiveLedger::append`]: crate::ArchiveLedger::append

use sec_erasure::SecCode;
use sec_gf::GaloisField;

use crate::archive::{ArchiveConfig, EncodingStrategy, StoredPayload};
use crate::delta::Delta;
use crate::error::VersioningError;
use crate::object::VersionId;

/// One erasure-coded stored object: its semantic payload and its `n` coded
/// symbols.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedEntry<F> {
    /// What the codeword encodes.
    pub payload: StoredPayload,
    /// The `n` coded symbols, indexed by node position within the entry's
    /// node set.
    pub codeword: Vec<F>,
}

/// A delta-based versioned archive of `k`-symbol objects encoded with SEC.
#[derive(Debug, Clone)]
pub struct VersionedArchive<F> {
    config: ArchiveConfig,
    code: SecCode<F>,
    /// Stored objects in append order. For Basic/Optimized/NonDifferential the
    /// entry at index `j` corresponds to version `j + 1`. For Reversed SEC the
    /// entries are the deltas `z_2, …, z_L` (index `j` ↦ delta to version
    /// `j + 2`) and the full latest copy lives in `latest_full`.
    entries: Vec<EncodedEntry<F>>,
    /// Reversed SEC only: the full encoding of the latest version.
    latest_full: Option<EncodedEntry<F>>,
    /// Plaintext of the latest version, kept for delta computation (the
    /// paper's "cache a full copy of the latest version" rule, as state the
    /// append path *owns* rather than a cache entry it hopes survives).
    latest: Vec<F>,
    sparsity: Vec<usize>,
    versions: usize,
    /// Consecutive deltas since the last stored full version.
    delta_run: usize,
    checkpoints_written: usize,
}

impl<F: GaloisField> VersionedArchive<F> {
    /// Creates an empty archive.
    ///
    /// # Errors
    ///
    /// Returns [`VersioningError::Code`] when the configured code cannot be
    /// built over `F` (field too small for the Cauchy construction).
    pub fn new(config: ArchiveConfig) -> Result<Self, VersioningError> {
        let code = SecCode::cauchy(config.params().n, config.params().k, config.form())?;
        Ok(Self {
            config,
            code,
            entries: Vec::new(),
            latest_full: None,
            latest: Vec::new(),
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
    pub fn code(&self) -> &SecCode<F> {
        &self.code
    }

    /// Number of versions appended so far (`L`).
    pub fn len(&self) -> usize {
        self.versions
    }

    /// `true` when no version has been appended.
    pub fn is_empty(&self) -> bool {
        self.versions == 0
    }

    /// Sparsity profile `γ_2, …, γ_L` of the appended versions.
    pub fn sparsity_profile(&self) -> &[usize] {
        &self.sparsity
    }

    /// The stored entries, in append order (excluding the Reversed-SEC latest
    /// full copy, exposed by [`VersionedArchive::latest_full_entry`]).
    pub fn entries(&self) -> &[EncodedEntry<F>] {
        &self.entries
    }

    /// Reversed-SEC full copy of the latest version, when that strategy is in
    /// use and at least one version exists.
    pub fn latest_full_entry(&self) -> Option<&EncodedEntry<F>> {
        self.latest_full.as_ref()
    }

    /// Number of policy-forced checkpoint entries written so far (fulls the
    /// Optimized threshold would not have stored on its own).
    pub fn checkpoints_written(&self) -> usize {
        self.checkpoints_written
    }

    /// Appends the next version, encoding it according to the configured
    /// strategy, and returns its version id.
    ///
    /// # Errors
    ///
    /// Returns [`VersioningError::ObjectLengthMismatch`] when the version does
    /// not have `k` symbols, or an encoding error from the code layer.
    pub fn append_version(&mut self, version: &[F]) -> Result<VersionId, VersioningError> {
        let k = self.config.params().k;
        if version.len() != k {
            return Err(VersioningError::ObjectLengthMismatch {
                expected: k,
                actual: version.len(),
            });
        }
        let id = VersionId(self.versions + 1);

        if self.versions == 0 {
            // First version: every strategy stores it in full (Reversed keeps
            // it as the `latest_full` copy instead of a delta entry).
            let codeword = self.code.encode(version)?;
            let entry = EncodedEntry {
                payload: StoredPayload::FullVersion { version: id.0 },
                codeword,
            };
            match self.config.strategy() {
                EncodingStrategy::ReversedSec => self.latest_full = Some(entry),
                _ => self.entries.push(entry),
            }
        } else {
            let delta = Delta::between(&self.latest, version)?;
            let gamma = delta.sparsity();
            self.sparsity.push(gamma);
            // Anchor checkpoints: after `spacing` consecutive deltas the next
            // Basic/Optimized append stores the full version instead.
            let spacing = self.config.checkpoints().spacing;
            let checkpoint_due = spacing > 0 && self.delta_run >= spacing;

            match self.config.strategy() {
                EncodingStrategy::NonDifferential => {
                    let codeword = self.code.encode(version)?;
                    self.entries.push(EncodedEntry {
                        payload: StoredPayload::FullVersion { version: id.0 },
                        codeword,
                    });
                }
                EncodingStrategy::BasicSec => {
                    if checkpoint_due {
                        let codeword = self.code.encode(version)?;
                        self.entries.push(EncodedEntry {
                            payload: StoredPayload::FullVersion { version: id.0 },
                            codeword,
                        });
                        self.checkpoints_written += 1;
                        self.delta_run = 0;
                    } else {
                        let codeword = self.code.encode(delta.data())?;
                        self.entries.push(EncodedEntry {
                            payload: StoredPayload::Delta {
                                to: id.0,
                                sparsity: gamma,
                            },
                            codeword,
                        });
                        self.delta_run += 1;
                    }
                }
                EncodingStrategy::OptimizedSec => {
                    let threshold_full = self.config.io_model().optimized_stores_full(gamma);
                    if threshold_full || checkpoint_due {
                        let codeword = self.code.encode(version)?;
                        self.entries.push(EncodedEntry {
                            payload: StoredPayload::FullVersion { version: id.0 },
                            codeword,
                        });
                        if !threshold_full {
                            self.checkpoints_written += 1;
                        }
                        self.delta_run = 0;
                    } else {
                        let codeword = self.code.encode(delta.data())?;
                        self.entries.push(EncodedEntry {
                            payload: StoredPayload::Delta {
                                to: id.0,
                                sparsity: gamma,
                            },
                            codeword,
                        });
                        self.delta_run += 1;
                    }
                }
                EncodingStrategy::ReversedSec => {
                    // Store the delta and refresh the full latest copy.
                    let codeword = self.code.encode(delta.data())?;
                    self.entries.push(EncodedEntry {
                        payload: StoredPayload::Delta {
                            to: id.0,
                            sparsity: gamma,
                        },
                        codeword,
                    });
                    let full = self.code.encode(version)?;
                    self.latest_full = Some(EncodedEntry {
                        payload: StoredPayload::FullVersion { version: id.0 },
                        codeword: full,
                    });
                }
            }
        }

        self.latest = version.to_vec();
        self.versions += 1;
        Ok(id)
    }

    /// Appends every version of a sequence in order, returning the id of the
    /// last one.
    ///
    /// # Errors
    ///
    /// Propagates the first append error; versions appended before the error
    /// remain in the archive.
    pub fn append_all(&mut self, versions: &[Vec<F>]) -> Result<VersionId, VersioningError> {
        let mut last = VersionId(self.versions.max(1));
        for version in versions {
            last = self.append_version(version)?;
        }
        if self.versions == 0 {
            return Err(VersioningError::EmptyArchive);
        }
        Ok(last)
    }
}
