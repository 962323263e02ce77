//! The byte-shard fast path of the versioning layer: a
//! [`ByteVersionedArchive`] whose stored payloads are contiguous
//! [`ByteShards`](sec_erasure::ByteShards) encoded and retrieved through the
//! batched `GF(2^8)` pipeline of `sec-erasure`.
//!
//! Where the paper models a version as `k` field symbols, this archive models
//! it as an arbitrary byte object split into `k` equally sized blocks
//! (shards). The delta between consecutive versions is computed bytewise and
//! its sparsity level `γ` is counted *per block*: a block counts toward `γ`
//! when any of its bytes changed. All of the paper's strategies (Basic / Optimized / Reversed SEC
//! and the non-differential baseline) and read-count formulas carry over with
//! "symbol" replaced by "block", so every entry stores `n` coded blocks and a
//! `γ`-block-sparse delta is retrieved with `2γ` block reads.
//!
//! # Example
//!
//! ```rust
//! use sec_erasure::GeneratorForm;
//! use sec_versioning::{ArchiveConfig, ByteVersionedArchive, EncodingStrategy};
//!
//! # fn main() -> Result<(), sec_versioning::VersioningError> {
//! let config = ArchiveConfig::new(6, 3, GeneratorForm::NonSystematic, EncodingStrategy::BasicSec)?;
//! let mut archive = ByteVersionedArchive::new(config)?;
//!
//! let v1 = vec![7u8; 3 * 1024]; // three 1 KiB blocks
//! let mut v2 = v1.clone();
//! v2[100] ^= 0xFF; // a single-block edit: γ = 1
//! archive.append_version(&v1)?;
//! archive.append_version(&v2)?;
//!
//! // Retrieving v2 costs k + 2γ = 3 + 2 block reads instead of 2k = 6.
//! let r = archive.retrieve_version(2)?;
//! assert_eq!(r.data, v2);
//! assert_eq!(r.io_reads, 3 + 2);
//! # Ok(())
//! # }
//! ```

use std::ops::Deref;

use sec_erasure::read_plan::{plan_read, ReadPlan, ReadTarget};
use sec_erasure::SecCode;
use sec_gf::Gf256;

use crate::archive::ArchiveConfig;
use crate::error::VersioningError;
use crate::ledger::{ArchiveLedger, ByteEncodedEntry};
use crate::object::VersionId;
use crate::walk::{PrefixWalk, VersionWalk};

/// Result of retrieving a single version from a byte archive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ByteVersionRetrieval {
    /// The 1-based version number that was retrieved.
    pub version: usize,
    /// The reconstructed byte object.
    pub data: Vec<u8>,
    /// Total block reads spent (the paper's I/O unit, lifted to blocks).
    pub io_reads: usize,
    /// Number of stored entries that were touched.
    pub entries_read: usize,
}

/// Result of retrieving the first `l` versions from a byte archive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BytePrefixRetrieval {
    /// The reconstructed versions `x_1, …, x_l` in order.
    pub versions: Vec<Vec<u8>>,
    /// Total block reads spent.
    pub io_reads: usize,
    /// Number of stored entries that were touched.
    pub entries_read: usize,
}

/// A delta-based versioned archive over byte objects, encoded with SEC
/// through the batched byte-shard pipeline: an [`ArchiveLedger`] plus the
/// coded blocks its appends return, kept in memory in walk order.
///
/// The archive dereferences to its ledger, so every metadata query
/// (`config`, `codec`, `len`, `object_len`, `sparsity_profile`, `layout`, …)
/// is the ledger's own; only the ledger's `append` is withheld, because the
/// archive must store the blocks it returns.
///
/// Every retrieval method takes `&self`: the codec is shared-read (its
/// decode scratch is per-thread), so any number of readers can retrieve
/// versions from one archive concurrently while appends keep the usual
/// exclusive borrow.
#[derive(Debug)]
pub struct ByteVersionedArchive {
    ledger: ArchiveLedger,
    /// The coded blocks of `ledger.layout()`, slot for slot.
    entries: Vec<ByteEncodedEntry>,
}

impl Deref for ByteVersionedArchive {
    type Target = ArchiveLedger;

    fn deref(&self) -> &ArchiveLedger {
        &self.ledger
    }
}

impl ByteVersionedArchive {
    /// Creates an empty byte archive over `GF(2^8)`.
    ///
    /// # Errors
    ///
    /// Returns [`VersioningError::Code`] when the configured code cannot be
    /// built over `GF(2^8)` (e.g. `n` too large for the Cauchy construction).
    pub fn new(config: ArchiveConfig) -> Result<Self, VersioningError> {
        Ok(Self {
            ledger: ArchiveLedger::new(config)?,
            entries: Vec::new(),
        })
    }

    /// Appends the next version, encoding it according to the configured
    /// strategy, and returns its version id.
    ///
    /// # Errors
    ///
    /// Returns [`VersioningError::ObjectLengthMismatch`] when the version's
    /// byte length differs from the first version's, or an encoding error
    /// from the code layer.
    pub fn append_version(&mut self, object: &[u8]) -> Result<VersionId, VersioningError> {
        let (id, writes) = self.ledger.append(object)?;
        for (slot, entry) in writes {
            match self.entries.get_mut(slot) {
                Some(stored) => *stored = entry,
                None => self.entries.push(entry),
            }
        }
        Ok(id)
    }

    /// Appends every version of a sequence in order, returning the id of the
    /// last one.
    ///
    /// # Errors
    ///
    /// Propagates the first append error; versions appended before the error
    /// remain in the archive. An empty sequence on an empty archive yields
    /// [`VersioningError::EmptyArchive`].
    pub fn append_all<B: AsRef<[u8]>>(&mut self, versions: &[B]) -> Result<VersionId, VersioningError> {
        for version in versions {
            self.append_version(version.as_ref())?;
        }
        if self.is_empty() {
            return Err(VersioningError::EmptyArchive);
        }
        Ok(VersionId(self.len()))
    }

    /// Retrieves version `l` (1-based) assuming every node is alive, decoding
    /// every touched entry through the batched byte pipeline.
    ///
    /// # Errors
    ///
    /// Returns [`VersioningError::NoSuchVersion`] for an out-of-range `l`, or
    /// [`VersioningError::EmptyArchive`] when nothing has been appended.
    pub fn retrieve_version(&self, l: usize) -> Result<ByteVersionRetrieval, VersioningError> {
        self.retrieve_version_from(l, |_, _| true)
    }

    /// Retrieves version `l` (1-based) reading block `position` of stored
    /// entry `entry` only where `live(entry, position)` holds: each touched
    /// entry is planned over its live positions exactly as the paper's §V
    /// reader plans it (`2γ` reads for an exploitable delta, `k` otherwise),
    /// so the result's `io_reads` is what a reader of a degraded cluster
    /// pays. The engine's equivalence suites compare against it; it reads
    /// through the engine's own walk, which `sec-sim`'s walk-free reference
    /// checks. The live set maps a placement and a failure pattern onto
    /// entry positions.
    ///
    /// # Errors
    ///
    /// As for [`ByteVersionedArchive::retrieve_version`], plus
    /// [`VersioningError::Unrecoverable`] naming the first entry of the walk
    /// that no plan can read from its live positions.
    pub fn retrieve_version_from<L>(
        &self,
        l: usize,
        live: L,
    ) -> Result<ByteVersionRetrieval, VersioningError>
    where
        L: Fn(usize, usize) -> bool,
    {
        self.check_version(l)?;
        let code = self.codec().code();
        let out = VersionWalk::plan(
            self.config().strategy(),
            self.entries.len(),
            |idx| self.entries[idx].payload,
            l,
            None,
            |idx, target| plan_entry(code, idx, |p| live(idx, p), target),
        )
        .fold(self.codec(), |_| self, block)?;
        Ok(ByteVersionRetrieval {
            version: l,
            data: out.shards.into_flat(self.object_len().unwrap_or(0)),
            io_reads: out.io_reads,
            entries_read: out.entries_read,
        })
    }

    /// Retrieves the first `l` versions assuming every node is alive.
    ///
    /// # Errors
    ///
    /// Returns [`VersioningError::NoSuchVersion`] for an out-of-range `l`, or
    /// [`VersioningError::EmptyArchive`] when nothing has been appended.
    pub fn retrieve_prefix(&self, l: usize) -> Result<BytePrefixRetrieval, VersioningError> {
        self.retrieve_prefix_from(l, |_, _| true)
    }

    /// Retrieves the first `l` versions reading block `position` of stored
    /// entry `entry` only where `live(entry, position)` holds, each touched
    /// entry planned as [`ByteVersionedArchive::retrieve_version_from`]
    /// plans it — the failure-aware reference for prefix reads.
    ///
    /// # Errors
    ///
    /// As for [`ByteVersionedArchive::retrieve_version_from`].
    pub fn retrieve_prefix_from<L>(
        &self,
        l: usize,
        live: L,
    ) -> Result<BytePrefixRetrieval, VersioningError>
    where
        L: Fn(usize, usize) -> bool,
    {
        self.check_version(l)?;
        let code = self.codec().code();
        let out = PrefixWalk::plan(
            self.config().strategy(),
            self.entries.len(),
            |idx| self.entries[idx].payload,
            l,
            None,
            |idx, target| plan_entry(code, idx, |p| live(idx, p), target),
        )
        .fold(self.codec(), self.object_len().unwrap_or(0), |_| self, block)?;
        Ok(BytePrefixRetrieval {
            versions: out.versions,
            io_reads: out.io_reads,
            entries_read: out.entries_read,
        })
    }

    /// All stored entries in the walk order of [`ArchiveLedger::layout`]:
    /// append-order entries, with the Reversed-SEC full latest copy as the
    /// final element.
    pub fn stored_entries(&self) -> Vec<&ByteEncodedEntry> {
        self.entries.iter().collect()
    }
}

/// Stored entry `idx`'s block at `position`. Every block is in memory, so a
/// walk holds them by borrowing the archive.
fn block<'h>(
    archive: &'h &ByteVersionedArchive,
    idx: usize,
    position: usize,
) -> Result<&'h [u8], VersioningError> {
    Ok(archive.entries[idx].shards.shard(position))
}

/// Plans a read of `target` from entry `idx`'s positions that `live`
/// admits.
fn plan_entry(
    code: &SecCode<Gf256>,
    idx: usize,
    live: impl Fn(usize) -> bool,
    target: ReadTarget,
) -> Result<ReadPlan, VersioningError> {
    let live: Vec<usize> = (0..code.n()).filter(|&p| live(p)).collect();
    plan_read(code, &live, target).map_err(|_| VersioningError::Unrecoverable { entry: idx })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archive::{EncodingStrategy, StoredPayload};
    use sec_erasure::GeneratorForm;

    fn archive(strategy: EncodingStrategy) -> ByteVersionedArchive {
        let config = ArchiveConfig::new(6, 3, GeneratorForm::NonSystematic, strategy).unwrap();
        ByteVersionedArchive::new(config).unwrap()
    }

    #[test]
    fn with_codec_shares_tables_and_rejects_mismatches() {
        let config =
            ArchiveConfig::new(6, 3, GeneratorForm::NonSystematic, EncodingStrategy::BasicSec).unwrap();
        let donor = ByteVersionedArchive::new(config).unwrap();
        let shared = ArchiveLedger::with_codec(config, donor.codec().clone()).unwrap();
        // One set of mul tables per code: both archives point at the same
        // allocations.
        assert!(std::sync::Arc::ptr_eq(
            &donor.codec().shared_code(),
            &shared.codec().shared_code()
        ));
        assert!(std::sync::Arc::ptr_eq(
            &donor.codec().shared_tables(),
            &shared.codec().shared_tables()
        ));

        // A codec for a different (n, k) is rejected, not silently adopted.
        let other =
            ArchiveConfig::new(4, 2, GeneratorForm::NonSystematic, EncodingStrategy::BasicSec).unwrap();
        let other_codec = ByteVersionedArchive::new(other).unwrap().codec().clone();
        match ArchiveLedger::with_codec(config, other_codec) {
            Err(VersioningError::CodecMismatch { expected, actual }) => {
                assert_eq!((expected.0, expected.1), (6, 3));
                assert_eq!((actual.0, actual.1), (4, 2));
            }
            other => panic!("expected CodecMismatch, got {other:?}"),
        }
        // Same (n, k) but the wrong generator form is a mismatch too.
        let sys =
            ArchiveConfig::new(6, 3, GeneratorForm::Systematic, EncodingStrategy::BasicSec).unwrap();
        let sys_codec = ByteVersionedArchive::new(sys).unwrap().codec().clone();
        assert!(matches!(
            ArchiveLedger::with_codec(config, sys_codec),
            Err(VersioningError::CodecMismatch { .. })
        ));
    }

    /// Three versions of a 90-byte object (30-byte blocks): v2 edits one
    /// block (γ = 1), v3 edits two blocks (γ = 2 ≥ k/2).
    fn three_versions() -> Vec<Vec<u8>> {
        let v1: Vec<u8> = (0..90).map(|i| (i * 13 + 5) as u8).collect();
        let mut v2 = v1.clone();
        v2[35] ^= 0x42; // block 1
        let mut v3 = v2.clone();
        v3[0] ^= 0x01; // block 0
        v3[89] ^= 0x80; // block 2
        vec![v1, v2, v3]
    }

    #[test]
    fn basic_sec_stores_full_then_deltas() {
        let mut a = archive(EncodingStrategy::BasicSec);
        assert!(a.is_empty());
        a.append_all(&three_versions()).unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a.object_len(), Some(90));
        assert_eq!(a.sparsity_profile(), &[1, 2]);
        let payloads: Vec<StoredPayload> = a.stored_entries().iter().map(|e| e.payload).collect();
        assert_eq!(
            payloads,
            vec![
                StoredPayload::FullVersion { version: 1 },
                StoredPayload::Delta { to: 2, sparsity: 1 },
                StoredPayload::Delta { to: 3, sparsity: 2 },
            ]
        );
        assert_eq!(payloads, a.layout(), "blocks and ledger agree slot for slot");
        // L entries × n blocks × 30 bytes.
        let stored_bytes: usize = a.stored_entries().iter().map(|e| e.shards.total_len()).sum();
        assert_eq!(stored_bytes, 3 * 6 * 30);
    }

    #[test]
    fn every_strategy_round_trips_every_version() {
        for strategy in [
            EncodingStrategy::BasicSec,
            EncodingStrategy::OptimizedSec,
            EncodingStrategy::ReversedSec,
            EncodingStrategy::NonDifferential,
        ] {
            for form in [GeneratorForm::Systematic, GeneratorForm::NonSystematic] {
                let config = ArchiveConfig::new(6, 3, form, strategy).unwrap();
                let mut a = ByteVersionedArchive::new(config).unwrap();
                let versions = three_versions();
                a.append_all(&versions).unwrap();
                // Two threads read through one `&ByteVersionedArchive`: the
                // reads take `&self` and the archive is `Sync`.
                let (a, versions) = (&a, &versions);
                std::thread::scope(|scope| {
                    for _ in 0..2 {
                        scope.spawn(move || {
                            for (l, expect) in versions.iter().enumerate() {
                                let r = a.retrieve_version(l + 1).unwrap();
                                assert_eq!(&r.data, expect, "{strategy} {form} version {}", l + 1);
                                assert_eq!(r.version, l + 1);
                            }
                            let prefix = a.retrieve_prefix(versions.len()).unwrap();
                            assert_eq!(&prefix.versions, versions, "{strategy} {form} prefix");
                        });
                    }
                });
            }
        }
    }

    #[test]
    fn optimized_sec_stores_full_for_dense_deltas() {
        let mut a = archive(EncodingStrategy::OptimizedSec);
        a.append_all(&three_versions()).unwrap();
        let payloads: Vec<StoredPayload> = a.stored_entries().iter().map(|e| e.payload).collect();
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
        // Two deltas, then the full latest copy as the final element.
        let payloads: Vec<StoredPayload> = a.stored_entries().iter().map(|e| e.payload).collect();
        assert_eq!(
            payloads,
            vec![
                StoredPayload::Delta { to: 2, sparsity: 1 },
                StoredPayload::Delta { to: 3, sparsity: 2 },
                StoredPayload::FullVersion { version: 3 },
            ]
        );
        // Latest version costs only the full copy.
        let r = a.retrieve_version(3).unwrap();
        assert_eq!(r.data, versions[2]);
        assert_eq!(r.entries_read, 1);
        assert_eq!(r.io_reads, 3);
    }

    #[test]
    fn io_reads_match_io_model() {
        let mut a = archive(EncodingStrategy::BasicSec);
        let versions = three_versions();
        a.append_all(&versions).unwrap();
        let model = a.config().io_model();
        let profile = a.sparsity_profile().to_vec();
        for l in 1..=versions.len() {
            let r = a.retrieve_version(l).unwrap();
            assert_eq!(
                r.io_reads,
                model.version_reads(EncodingStrategy::BasicSec, &profile, l),
                "version {l}"
            );
        }
        // k + 2γ2 + min(2γ3, k) = 3 + 2 + 3.
        assert_eq!(a.retrieve_version(3).unwrap().io_reads, 8);
    }

    #[test]
    fn identical_consecutive_versions_cost_no_delta_reads() {
        let mut a = archive(EncodingStrategy::BasicSec);
        let v = vec![9u8; 30];
        a.append_version(&v).unwrap();
        a.append_version(&v).unwrap();
        assert_eq!(a.sparsity_profile(), &[0]);
        let r = a.retrieve_version(2).unwrap();
        assert_eq!(r.data, v);
        assert_eq!(r.io_reads, 3);
    }

    #[test]
    fn append_validates_object_length() {
        let mut a = archive(EncodingStrategy::BasicSec);
        a.append_version(&[1, 2, 3, 4, 5, 6]).unwrap();
        assert!(matches!(
            a.append_version(&[1, 2]),
            Err(VersioningError::ObjectLengthMismatch {
                expected: 6,
                actual: 2
            })
        ));
        let empty: Vec<Vec<u8>> = Vec::new();
        let mut fresh = archive(EncodingStrategy::BasicSec);
        assert!(matches!(
            fresh.append_all(&empty),
            Err(VersioningError::EmptyArchive)
        ));
    }

    #[test]
    fn retrieval_error_paths() {
        let empty = archive(EncodingStrategy::BasicSec);
        assert!(matches!(
            empty.retrieve_version(1),
            Err(VersioningError::EmptyArchive)
        ));
        assert!(matches!(
            empty.retrieve_prefix(1),
            Err(VersioningError::EmptyArchive)
        ));
        let mut a = archive(EncodingStrategy::BasicSec);
        a.append_all(&three_versions()).unwrap();
        assert!(matches!(
            a.retrieve_version(0),
            Err(VersioningError::NoSuchVersion {
                requested: 0,
                available: 3
            })
        ));
        assert!(matches!(
            a.retrieve_version(4),
            Err(VersioningError::NoSuchVersion { requested: 4, .. })
        ));
        assert!(matches!(
            a.retrieve_prefix(4),
            Err(VersioningError::NoSuchVersion { requested: 4, .. })
        ));
    }

    #[test]
    fn survives_n_minus_k_failures_and_sparse_reads_stay_cheap() {
        let mut a = archive(EncodingStrategy::BasicSec);
        let versions = three_versions();
        a.append_all(&versions).unwrap();
        let failed = [0, 3, 5];
        let live = |_: usize, position: usize| !failed.contains(&position);
        for (l, expect) in versions.iter().enumerate() {
            let r = a.retrieve_version_from(l + 1, live).unwrap();
            assert_eq!(&r.data, expect, "version {}", l + 1);
            // Non-systematic Cauchy: any 2γ live rows serve a sparse delta,
            // so n − k failures cost no extra reads.
            assert_eq!(r.io_reads, a.retrieve_version(l + 1).unwrap().io_reads);
        }
        // A fourth failure leaves fewer than k rows for the full first version.
        let failed = [0, 1, 3, 5];
        let live = |_: usize, position: usize| !failed.contains(&position);
        assert_eq!(
            a.retrieve_version_from(3, live),
            Err(VersioningError::Unrecoverable { entry: 0 })
        );
    }

    #[test]
    fn live_set_reads_round_trip_all_strategies() {
        // n − k failures, a systematic row among them: every strategy and
        // form still serves every version, and never for fewer reads than a
        // healthy cluster.
        let failed = [0, 3, 5];
        let live = |_: usize, position: usize| !failed.contains(&position);
        for strategy in [
            EncodingStrategy::BasicSec,
            EncodingStrategy::OptimizedSec,
            EncodingStrategy::ReversedSec,
            EncodingStrategy::NonDifferential,
        ] {
            for form in [GeneratorForm::Systematic, GeneratorForm::NonSystematic] {
                let config = ArchiveConfig::new(6, 3, form, strategy).unwrap();
                let mut a = ByteVersionedArchive::new(config).unwrap();
                let versions = three_versions();
                a.append_all(&versions).unwrap();
                for (l, expect) in versions.iter().enumerate() {
                    let r = a.retrieve_version_from(l + 1, live).unwrap();
                    assert_eq!(&r.data, expect, "{strategy} {form} version {}", l + 1);
                    assert!(r.io_reads >= a.retrieve_version(l + 1).unwrap().io_reads);
                }
            }
        }
    }

    #[test]
    fn unrecoverable_names_the_first_entry_the_walk_cannot_plan() {
        // γ2 = 1, γ3 = 2: δ3 is read like a full version, from k rows.
        let versions = three_versions();
        // Two live rows everywhere: the forward walk fails at its full v1.
        let mut basic = archive(EncodingStrategy::BasicSec);
        basic.append_all(&versions).unwrap();
        assert_eq!(
            basic.retrieve_version_from(2, |_, position| position < 2),
            Err(VersioningError::Unrecoverable { entry: 0 })
        );
        // Reversed [δ2, δ3, x3] with the latest copy's rows all up: the
        // backward walk reads x3, then cannot un-apply δ3 from two rows.
        let mut reversed = archive(EncodingStrategy::ReversedSec);
        reversed.append_all(&versions).unwrap();
        let live = |entry: usize, position: usize| entry == 2 || position < 2;
        assert_eq!(reversed.retrieve_version_from(3, live).unwrap().data, versions[2]);
        for l in [1, 2] {
            assert_eq!(
                reversed.retrieve_version_from(l, live),
                Err(VersioningError::Unrecoverable { entry: 1 }),
                "version {l}"
            );
        }
        // A prefix walks down to version 1 whatever its length.
        assert_eq!(
            reversed.retrieve_prefix_from(3, live),
            Err(VersioningError::Unrecoverable { entry: 1 })
        );
    }

    #[test]
    fn sparse_deltas_survive_more_failures_than_full_objects() {
        // With two live rows the 1-sparse delta entry is still read with 2
        // block reads though the full first version is lost — the paper's
        // observation that deltas have higher static resilience (eq. 7 vs
        // eq. 6).
        let mut a = archive(EncodingStrategy::BasicSec);
        let versions = three_versions();
        a.append_all(&versions).unwrap();
        let two_rows = |_: usize, position: usize| position == 2 || position == 4;
        assert_eq!(
            a.retrieve_version_from(2, two_rows),
            Err(VersioningError::Unrecoverable { entry: 0 })
        );
        // Only the full version keeps every row: v2 costs k + 2 reads, as on
        // a healthy cluster, while the dense δ3 (read from k rows) is lost.
        let live = |entry: usize, position: usize| entry == 0 || two_rows(entry, position);
        let r = a.retrieve_version_from(2, live).unwrap();
        assert_eq!((r.data, r.io_reads), (versions[1].clone(), 3 + 2));
        assert_eq!(
            a.retrieve_version_from(3, live),
            Err(VersioningError::Unrecoverable { entry: 2 })
        );
    }

    #[test]
    fn checkpoint_policy_bounds_read_cost_and_round_trips() {
        use crate::archive::{CheckpointPolicy, StoredPayload};

        // Six versions of a 90-byte object, each editing a single block, with
        // a checkpoint every 2 deltas: the chain stores fulls at entries 0
        // and 3, so no retrieval rewinds through more than 2 deltas.
        let spacing = 2;
        let config = ArchiveConfig::new(6, 3, GeneratorForm::NonSystematic, EncodingStrategy::BasicSec)
            .unwrap()
            .with_checkpoints(CheckpointPolicy::every(spacing));
        let mut a = ByteVersionedArchive::new(config).unwrap();
        let mut versions = vec![(0..90).map(|i| (i * 7 + 3) as u8).collect::<Vec<u8>>()];
        for j in 1..6 {
            let mut next = versions[j - 1].clone();
            next[30 * (j % 3)] ^= 0x5a; // one edited block → γ = 1
            versions.push(next);
        }
        a.append_all(&versions).unwrap();

        let fulls: Vec<usize> = a
            .stored_entries()
            .iter()
            .enumerate()
            .filter(|(_, e)| matches!(e.payload, StoredPayload::FullVersion { .. }))
            .map(|(idx, _)| idx)
            .collect();
        assert_eq!(fulls, vec![0, 3]);
        assert_eq!(a.checkpoints_written(), 1);

        // Bytes still round-trip, reads anchor on the checkpoint, and the
        // layout-aware io-model predicts each cost exactly.
        let model = a.config().io_model();
        let layout: Vec<StoredPayload> = a.stored_entries().iter().map(|e| e.payload).collect();
        for l in 1..=versions.len() {
            let r = a.retrieve_version(l).unwrap();
            assert_eq!(r.data, versions[l - 1], "version {l}");
            assert_eq!(
                r.io_reads,
                model.version_reads_for_layout(EncodingStrategy::BasicSec, &layout, l),
                "version {l}"
            );
            // k · (1 + c): the full anchor plus at most `spacing` deltas.
            assert!(r.io_reads <= 3 * (1 + spacing), "version {l}");
        }
        let prefix = a.retrieve_prefix(versions.len()).unwrap();
        assert_eq!(prefix.versions, versions);
        assert_eq!(
            prefix.io_reads,
            model.prefix_reads_for_layout(EncodingStrategy::BasicSec, &layout, versions.len())
        );

        // A disabled policy leaves the paper layout untouched.
        let plain =
            ArchiveConfig::new(6, 3, GeneratorForm::NonSystematic, EncodingStrategy::BasicSec).unwrap();
        let mut p = ByteVersionedArchive::new(plain).unwrap();
        p.append_all(&versions).unwrap();
        assert_eq!(p.checkpoints_written(), 0);
        assert_eq!(
            p.stored_entries()
                .iter()
                .filter(|e| matches!(e.payload, StoredPayload::FullVersion { .. }))
                .count(),
            1
        );
    }

    #[test]
    fn optimized_checkpoints_skip_threshold_fulls() {
        use crate::archive::{CheckpointPolicy, StoredPayload};

        // Optimized SEC already stores a full when 2γ ≥ k; the policy only
        // counts the fulls *it* forces. With spacing 2: v3's threshold full
        // resets the delta run, so the first policy checkpoint is the v6 full
        // after the two sparse deltas v4 and v5.
        let config =
            ArchiveConfig::new(6, 3, GeneratorForm::NonSystematic, EncodingStrategy::OptimizedSec)
                .unwrap()
                .with_checkpoints(CheckpointPolicy::every(2));
        let mut a = ByteVersionedArchive::new(config).unwrap();
        let v1: Vec<u8> = (0..90).map(|i| (i * 11 + 1) as u8).collect();
        let mut v2 = v1.clone();
        v2[0] ^= 1; // γ = 1 → delta (run 1)
        let mut v3 = v2.clone();
        v3[0] ^= 2;
        v3[30] ^= 2; // γ = 2 ≥ k/2 → threshold full (run reset)
        let mut v4 = v3.clone();
        v4[60] ^= 3; // γ = 1 → delta (run 1)
        let mut v5 = v4.clone();
        v5[60] ^= 4; // γ = 1 → delta (run 2)
        let mut v6 = v5.clone();
        v6[30] ^= 5; // γ = 1, but run = 2 → checkpoint full
        a.append_all(&[v1, v2, v3, v4, v5, v6.clone()]).unwrap();

        let payloads: Vec<StoredPayload> = a.stored_entries().iter().map(|e| e.payload).collect();
        assert!(matches!(payloads[2], StoredPayload::FullVersion { version: 3 }));
        assert!(matches!(payloads[3], StoredPayload::Delta { to: 4, sparsity: 1 }));
        assert!(matches!(payloads[4], StoredPayload::Delta { to: 5, sparsity: 1 }));
        assert!(matches!(payloads[5], StoredPayload::FullVersion { version: 6 }));
        // Only the v6 full came from the policy; the v3 full is the paper's rule.
        assert_eq!(a.checkpoints_written(), 1);
        assert_eq!(a.retrieve_version(6).unwrap().data, v6);
        assert_eq!(a.retrieve_version(6).unwrap().io_reads, 3);
    }
}
