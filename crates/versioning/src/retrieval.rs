//! Retrieval of versions (and version prefixes) from the symbol-level oracle
//! [`VersionedArchive`], with exact I/O read accounting — the second half of
//! the test-only reference (see [`crate::symbol_archive`]).
//!
//! The functions here assume all `n` nodes of every entry are alive. Under
//! that assumption the read counts reproduce eqs. (3) and (4) of the paper
//! exactly, which the tests assert against
//! [`IoModel`](crate::io_model::IoModel).

use sec_erasure::read_plan::{plan_and_decode, ReadTarget};
use sec_gf::GaloisField;

use crate::archive::{EncodingStrategy, StoredPayload};
use crate::delta::Delta;
use crate::error::VersioningError;
use crate::symbol_archive::{EncodedEntry, VersionedArchive};

/// Result of retrieving a single version.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VersionRetrieval<F> {
    /// The 1-based version number that was retrieved.
    pub version: usize,
    /// The reconstructed object.
    pub data: Vec<F>,
    /// Total disk I/O reads spent.
    pub io_reads: usize,
    /// Number of stored entries that were touched.
    pub entries_read: usize,
}

/// Result of retrieving the first `l` versions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefixRetrieval<F> {
    /// The reconstructed versions `x_1, …, x_l` in order.
    pub versions: Vec<Vec<F>>,
    /// Total disk I/O reads spent.
    pub io_reads: usize,
    /// Number of stored entries that were touched.
    pub entries_read: usize,
}

impl<F: GaloisField> VersionedArchive<F> {
    /// Retrieves version `l` (1-based) assuming every node is alive.
    ///
    /// # Errors
    ///
    /// Returns [`VersioningError::NoSuchVersion`] for an out-of-range `l`, or
    /// [`VersioningError::EmptyArchive`] when nothing has been appended.
    pub fn retrieve_version(&self, l: usize) -> Result<VersionRetrieval<F>, VersioningError> {
        self.check_version(l)?;
        match self.config().strategy() {
            EncodingStrategy::NonDifferential => self.retrieve_non_differential(l),
            EncodingStrategy::BasicSec | EncodingStrategy::OptimizedSec => self.retrieve_forward(l),
            EncodingStrategy::ReversedSec => self.retrieve_reversed(l),
        }
    }

    /// Retrieves the first `l` versions assuming every node is alive.
    ///
    /// # Errors
    ///
    /// Returns [`VersioningError::NoSuchVersion`] for an out-of-range `l`, or
    /// [`VersioningError::EmptyArchive`] when nothing has been appended.
    pub fn retrieve_prefix(&self, l: usize) -> Result<PrefixRetrieval<F>, VersioningError> {
        self.check_version(l)?;
        match self.config().strategy() {
            EncodingStrategy::NonDifferential => {
                let mut versions = Vec::with_capacity(l);
                let mut io_reads = 0;
                for v in 1..=l {
                    let r = self.retrieve_non_differential(v)?;
                    io_reads += r.io_reads;
                    versions.push(r.data);
                }
                Ok(PrefixRetrieval {
                    versions,
                    io_reads,
                    entries_read: l,
                })
            }
            EncodingStrategy::BasicSec | EncodingStrategy::OptimizedSec => {
                // Walk forward from x_1, decoding every stored entry up to l.
                let mut io_reads = 0;
                let mut versions: Vec<Vec<F>> = Vec::with_capacity(l);
                for (idx, entry) in self.entries().iter().take(l).enumerate() {
                    let (reads, decoded) = self.decode_entry(entry)?;
                    io_reads += reads;
                    let version = match entry.payload {
                        StoredPayload::FullVersion { .. } => decoded,
                        StoredPayload::Delta { .. } => {
                            let base = versions
                                .get(idx - 1)
                                .expect("delta entries always follow their base version");
                            Delta::from_vec(decoded).apply(base)?
                        }
                    };
                    versions.push(version);
                }
                Ok(PrefixRetrieval {
                    versions,
                    io_reads,
                    entries_read: l,
                })
            }
            EncodingStrategy::ReversedSec => {
                // Reconstruct every version from the latest full copy
                // backwards, then keep the first l.
                let total = self.len();
                let mut io_reads = 0;
                let latest_entry = self.latest_full_entry().ok_or(VersioningError::EmptyArchive)?;
                let (reads, latest) = self.decode_entry(latest_entry)?;
                io_reads += reads;
                let mut versions_rev = vec![latest];
                for entry in self.entries().iter().rev() {
                    let (reads, decoded) = self.decode_entry(entry)?;
                    io_reads += reads;
                    let newer = versions_rev
                        .last()
                        .expect("at least the latest version is present");
                    let older = Delta::from_vec(decoded).unapply(newer)?;
                    versions_rev.push(older);
                }
                versions_rev.reverse();
                debug_assert_eq!(versions_rev.len(), total);
                versions_rev.truncate(l);
                Ok(PrefixRetrieval {
                    versions: versions_rev,
                    io_reads,
                    entries_read: self.entries().len() + 1,
                })
            }
        }
    }

    fn check_version(&self, l: usize) -> Result<(), VersioningError> {
        if self.is_empty() {
            return Err(VersioningError::EmptyArchive);
        }
        if l == 0 || l > self.len() {
            return Err(VersioningError::NoSuchVersion {
                requested: l,
                available: self.len(),
            });
        }
        Ok(())
    }

    /// Decodes one stored entry with all nodes alive, returning
    /// `(io_reads, decoded_object)`.
    fn decode_entry(&self, entry: &EncodedEntry<F>) -> Result<(usize, Vec<F>), VersioningError> {
        let live: Vec<usize> = (0..self.code().n()).collect();
        let target = match entry.payload {
            StoredPayload::FullVersion { .. } => ReadTarget::Full,
            StoredPayload::Delta { sparsity, .. } => {
                if sparsity == 0 {
                    // Nothing changed; no reads needed at all.
                    return Ok((0, vec![F::ZERO; self.code().k()]));
                }
                ReadTarget::Sparse { gamma: sparsity }
            }
        };
        let (plan, decoded) = plan_and_decode(self.code(), &entry.codeword, &live, target)?;
        Ok((plan.io_reads, decoded))
    }

    fn retrieve_non_differential(&self, l: usize) -> Result<VersionRetrieval<F>, VersioningError> {
        let entry = &self.entries()[l - 1];
        let (io_reads, data) = self.decode_entry(entry)?;
        Ok(VersionRetrieval {
            version: l,
            data,
            io_reads,
            entries_read: 1,
        })
    }

    /// Basic / Optimized retrieval: decode from the nearest preceding full
    /// version and apply deltas forward.
    fn retrieve_forward(&self, l: usize) -> Result<VersionRetrieval<F>, VersioningError> {
        // Find the anchor: the most recent entry at or before l that stores a
        // full version. Entry 0 always does.
        let anchor = self.entries()[..l]
            .iter()
            .rposition(|e| matches!(e.payload, StoredPayload::FullVersion { .. }))
            .expect("the first entry always stores a full version");
        let mut io_reads = 0;
        let mut entries_read = 0;
        let (reads, mut data) = self.decode_entry(&self.entries()[anchor])?;
        io_reads += reads;
        entries_read += 1;
        for entry in &self.entries()[anchor + 1..l] {
            let (reads, decoded) = self.decode_entry(entry)?;
            io_reads += reads;
            entries_read += 1;
            data = Delta::from_vec(decoded).apply(&data)?;
        }
        Ok(VersionRetrieval {
            version: l,
            data,
            io_reads,
            entries_read,
        })
    }

    /// Reversed retrieval: decode the latest full copy and un-apply deltas
    /// backwards down to version `l`.
    fn retrieve_reversed(&self, l: usize) -> Result<VersionRetrieval<F>, VersioningError> {
        let latest_entry = self.latest_full_entry().ok_or(VersioningError::EmptyArchive)?;
        let (mut io_reads, mut data) = self.decode_entry(latest_entry)?;
        let mut entries_read = 1;
        // Entries are z_2 … z_L in order; un-apply z_L, z_{L-1}, …, z_{l+1}.
        for entry in self.entries()[l.saturating_sub(1)..].iter().rev() {
            let (reads, decoded) = self.decode_entry(entry)?;
            io_reads += reads;
            entries_read += 1;
            data = Delta::from_vec(decoded).unapply(&data)?;
        }
        Ok(VersionRetrieval {
            version: l,
            data,
            io_reads,
            entries_read,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archive::ArchiveConfig;
    use sec_erasure::GeneratorForm;
    use sec_gf::Gf256;

    /// Builds the §III-D version sequence: k = 10, sparsity profile {3, 8, 3, 6}.
    fn paper_versions() -> Vec<Vec<Gf256>> {
        let k = 10;
        let base: Vec<Gf256> = (0..k as u64).map(|v| Gf256::from_u64(v + 1)).collect();
        let mut versions = vec![base];
        let edits: [&[usize]; 4] = [
            &[0, 1, 2],
            &[0, 1, 2, 3, 4, 5, 6, 7],
            &[3, 4, 5],
            &[0, 2, 4, 6, 8, 9],
        ];
        for positions in edits {
            let mut next = versions.last().unwrap().clone();
            for &p in positions {
                next[p] += Gf256::from_u64(0x5A);
            }
            versions.push(next);
        }
        versions
    }

    fn build(
        strategy: EncodingStrategy,
        form: GeneratorForm,
    ) -> (VersionedArchive<Gf256>, Vec<Vec<Gf256>>) {
        let config = ArchiveConfig::new(20, 10, form, strategy).unwrap();
        let mut archive = VersionedArchive::new(config).unwrap();
        let versions = paper_versions();
        archive.append_all(&versions).unwrap();
        (archive, versions)
    }

    #[test]
    fn every_strategy_recovers_every_version_exactly() {
        for strategy in [
            EncodingStrategy::BasicSec,
            EncodingStrategy::OptimizedSec,
            EncodingStrategy::ReversedSec,
            EncodingStrategy::NonDifferential,
        ] {
            for form in [GeneratorForm::Systematic, GeneratorForm::NonSystematic] {
                let (archive, versions) = build(strategy, form);
                for l in 1..=versions.len() {
                    let r = archive.retrieve_version(l).unwrap();
                    assert_eq!(r.data, versions[l - 1], "{strategy} {form} version {l}");
                    assert_eq!(r.version, l);
                }
                let prefix = archive.retrieve_prefix(versions.len()).unwrap();
                assert_eq!(prefix.versions, versions, "{strategy} {form} prefix");
            }
        }
    }

    #[test]
    fn io_reads_match_io_model_for_basic_sec() {
        let (archive, versions) = build(EncodingStrategy::BasicSec, GeneratorForm::NonSystematic);
        let model = archive.config().io_model();
        assert_eq!(archive.sparsity_profile(), &[3, 8, 3, 6]);
        let expect_version = [10, 16, 26, 32, 42];
        for l in 1..=versions.len() {
            let r = archive.retrieve_version(l).unwrap();
            assert_eq!(r.io_reads, expect_version[l - 1], "version {l}");
            assert_eq!(
                r.io_reads,
                model.version_reads(EncodingStrategy::BasicSec, archive.sparsity_profile(), l)
            );
            let p = archive.retrieve_prefix(l).unwrap();
            assert_eq!(
                p.io_reads,
                model.prefix_reads(EncodingStrategy::BasicSec, archive.sparsity_profile(), l)
            );
        }
        // Total for all 5 versions: 42 (vs 50 non-differential).
        assert_eq!(archive.retrieve_prefix(5).unwrap().io_reads, 42);
    }

    #[test]
    fn io_reads_match_io_model_for_optimized_sec() {
        let (archive, versions) = build(EncodingStrategy::OptimizedSec, GeneratorForm::NonSystematic);
        let model = archive.config().io_model();
        let expect_version = [10, 16, 10, 16, 10];
        for l in 1..=versions.len() {
            let r = archive.retrieve_version(l).unwrap();
            assert_eq!(r.io_reads, expect_version[l - 1], "version {l}");
            assert_eq!(
                r.io_reads,
                model.version_reads(EncodingStrategy::OptimizedSec, archive.sparsity_profile(), l)
            );
        }
        assert_eq!(archive.retrieve_prefix(5).unwrap().io_reads, 42);
    }

    #[test]
    fn io_reads_match_io_model_for_reversed_and_non_differential() {
        let (rev, versions) = build(EncodingStrategy::ReversedSec, GeneratorForm::NonSystematic);
        let model = rev.config().io_model();
        for l in 1..=versions.len() {
            let r = rev.retrieve_version(l).unwrap();
            assert_eq!(
                r.io_reads,
                model.version_reads(EncodingStrategy::ReversedSec, rev.sparsity_profile(), l),
                "reversed version {l}"
            );
        }
        assert_eq!(rev.retrieve_version(5).unwrap().io_reads, 10);

        let (nd, _) = build(EncodingStrategy::NonDifferential, GeneratorForm::NonSystematic);
        for l in 1..=5 {
            assert_eq!(nd.retrieve_version(l).unwrap().io_reads, 10);
            assert_eq!(nd.retrieve_prefix(l).unwrap().io_reads, 10 * l);
        }
    }

    #[test]
    fn systematic_form_gives_same_read_counts_for_rate_half() {
        // Rate-1/2 code: systematic SEC exploits the same sparsity range as
        // non-systematic (paper §III-C), so the I/O counts agree.
        let (sys, _) = build(EncodingStrategy::BasicSec, GeneratorForm::Systematic);
        let (ns, _) = build(EncodingStrategy::BasicSec, GeneratorForm::NonSystematic);
        for l in 1..=5 {
            assert_eq!(
                sys.retrieve_version(l).unwrap().io_reads,
                ns.retrieve_version(l).unwrap().io_reads
            );
        }
    }

    #[test]
    fn retrieval_error_paths() {
        let config =
            ArchiveConfig::new(6, 3, GeneratorForm::NonSystematic, EncodingStrategy::BasicSec).unwrap();
        let empty: VersionedArchive<Gf256> = VersionedArchive::new(config).unwrap();
        assert!(matches!(
            empty.retrieve_version(1),
            Err(VersioningError::EmptyArchive)
        ));
        assert!(matches!(
            empty.retrieve_prefix(1),
            Err(VersioningError::EmptyArchive)
        ));

        let (archive, _) = build(EncodingStrategy::BasicSec, GeneratorForm::NonSystematic);
        assert!(matches!(
            archive.retrieve_version(0),
            Err(VersioningError::NoSuchVersion {
                requested: 0,
                available: 5
            })
        ));
        assert!(matches!(
            archive.retrieve_version(6),
            Err(VersioningError::NoSuchVersion { requested: 6, .. })
        ));
    }

    #[test]
    fn identical_consecutive_versions_cost_no_delta_reads() {
        let config =
            ArchiveConfig::new(6, 3, GeneratorForm::NonSystematic, EncodingStrategy::BasicSec).unwrap();
        let mut archive: VersionedArchive<Gf256> = VersionedArchive::new(config).unwrap();
        let v: Vec<Gf256> = vec![Gf256::from_u64(5); 3];
        archive.append_version(&v).unwrap();
        archive.append_version(&v).unwrap();
        let r = archive.retrieve_version(2).unwrap();
        assert_eq!(r.data, v);
        // k reads for x1, zero reads for the empty delta.
        assert_eq!(r.io_reads, 3);
    }

    #[test]
    fn entries_read_counts() {
        let (archive, _) = build(EncodingStrategy::BasicSec, GeneratorForm::NonSystematic);
        assert_eq!(archive.retrieve_version(1).unwrap().entries_read, 1);
        assert_eq!(archive.retrieve_version(3).unwrap().entries_read, 3);
        assert_eq!(archive.retrieve_prefix(4).unwrap().entries_read, 4);
        let (rev, _) = build(EncodingStrategy::ReversedSec, GeneratorForm::NonSystematic);
        // Latest version: only the full copy is touched.
        assert_eq!(rev.retrieve_version(5).unwrap().entries_read, 1);
        // Version 1: full copy + all four deltas.
        assert_eq!(rev.retrieve_version(1).unwrap().entries_read, 5);
    }
}
